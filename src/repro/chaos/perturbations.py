"""The chaos perturbation library: one class per fault kind.

A perturbation is the fault itself: :meth:`Perturbation.apply` disturbs
a running :class:`~repro.runtime.system.SystemS` *now* and returns
``(target, detail)``.  Its one caller is the
:class:`~repro.chaos.engine.ChaosEngine` — for a scenario step or a
direct ``system.chaos.inject(...)`` — which counts what landed, records
the no-ops and schedules every undo.  The kinds act on machinery the
system already has:

* process/host faults crash PEs, kill hosts and issue SAM restarts;
* network faults install :class:`~repro.runtime.transport.LinkFault`
  modifiers (latency spikes, seeded loss, hold-until-heal partitions)
  that expire on their own;
* load faults drive a :class:`~repro.apps.workloads.ChaosFeed`'s live
  rate/skew controls;
* durability faults arm the checkpoint service's ``commit_fault`` hook
  (torn epochs);
* reconfiguration faults start a live rescale, so campaigns can race
  crashes against migration barriers.

Crash-class perturbations capture their victims' keyed state *at the
instant of the crash* into the injection record, which is what the
resilience scorecard later compares against live state to compute the
state-recovery fraction.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, UnknownHostError
from repro.runtime.pe import PERuntime, PEState

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.job import Job
    from repro.runtime.system import SystemS


class ChaosError(ReproError):
    """A perturbation could not resolve or apply its target."""


def _capture_victims(system: "SystemS", victims: List[PERuntime]) -> Dict[str, Any]:
    """The crash-time evidence of the RUNNING PEs a fault is about to kill.

    * ``buffered_at_crash`` — data tuples in their operator buffers
      (punctuations excluded): a tuple that died there is accounted
      crash loss, not a bug, for scorecards and the loss oracle;
    * ``_state_at_crash`` — their live keyed state, merged per state
      name (the "at crash" side of the state-recovery fraction);
    * ``_committed_at_crash`` — their newest *committed* checkpoints,
      merged per state name: the restore floor the state-conservation
      oracle holds each recovery to, immune to checkpoint lag.

    Args:
        system: The system (reaches the checkpoint store).
        victims: The PEs about to crash (empty: nothing is captured).

    Returns:
        The detail keys above; the state maps only when non-empty.
    """
    if not victims:
        return {}
    state: Dict[str, Dict[Any, Any]] = {}
    committed: Dict[str, Dict[Any, Any]] = {}
    for pe in victims:
        for operator in pe.operators.values():
            if operator.state.in_use:
                for name, keyed in operator.state.keyed_states().items():
                    state.setdefault(name, {}).update(keyed.snapshot())
        entry = system.checkpoint_store.latest_committed(pe.job.job_id, pe.pe_id)
        for payload in entry.payloads.values() if entry is not None else ():
            for name, entries in payload.get("store", {}).get("keyed", {}).items():
                committed.setdefault(name, {}).update(entries)
    detail: Dict[str, Any] = {
        "buffered_at_crash": sum(
            op.pending_tuples() for pe in victims for op in pe.operators.values()
        )
    }
    if state:
        detail["_state_at_crash"] = state
    if committed:
        detail["_committed_at_crash"] = copy.deepcopy(committed)
    return detail


def _crash(system: "SystemS", pe: PERuntime, reason: str) -> None:
    """Crash a RUNNING PE; any other state is a recorded ``pe_<state>`` no-op."""
    if pe.state is PEState.RUNNING:
        system.chaos.record("crash_pe")
        pe.crash(reason)
    else:
        system.chaos.record_noop("crash_pe", pe.pe_id, f"pe_{pe.state.value}")


def _restart(system: "SystemS", job: "Job", pe: PERuntime, rehydrate: bool) -> None:
    """Issue a SAM restart for a downed PE of ``job``.

    A PE that is RUNNING again (``pe_running``) or that a rescale removed
    from its job (``pe_removed``) is a recorded no-op, never an exception
    into the kernel.
    """
    if pe.state is PEState.RUNNING:
        system.chaos.record_noop("restart_pe", pe.pe_id, "pe_running")
    elif all(p.pe_id != pe.pe_id for p in job.pes):
        system.chaos.record_noop("restart_pe", pe.pe_id, "pe_removed")
    else:
        system.chaos.record("restart_pe")
        system.sam.restart_pe(job.job_id, pe.pe_id, rehydrate=rehydrate)


def _running(pes) -> List[PERuntime]:
    """The PEs a crash would kill (one already down is not a victim)."""
    return [pe for pe in pes if pe.state is PEState.RUNNING]


class Perturbation:
    """Base class: one injectable runtime disturbance.

    Subclasses set :attr:`KIND` and implement :meth:`apply`, returning
    ``(target, detail)`` — a human-readable target name and a detail map
    recorded on the :class:`~repro.chaos.engine.ChaosInjection`.  Detail
    keys starting with ``_`` are engine-internal (e.g. captured state
    snapshots) and are not published into ORCA event contexts.  A
    perturbation with a window returns its undo as
    ``detail["_undo"] = (delay, kernel label, callback)``; the engine
    takes it out and schedules it, cancellable, right after the apply.
    """

    #: injection kind recorded on ChaosInjection and matched by ChaosScope
    KIND = "perturbation"

    def apply(
        self, system: "SystemS", job: Optional["Job"], feed: Optional[Any]
    ) -> Tuple[str, Dict[str, Any]]:
        """Apply the disturbance now; return ``(target, detail)``."""
        raise NotImplementedError

    def label(self, system: "SystemS", job: Optional["Job"]) -> str:
        """Kernel label of a timed ``system.chaos.inject`` of this fault."""
        return f"chaos-{self.KIND}"

    def _resolve_pe(
        self,
        job: Optional["Job"],
        operator: Optional[str] = None,
        pe_index: Optional[int] = None,
    ) -> PERuntime:
        """Find the target PE of ``job`` by operator or index."""
        if job is None:
            raise ChaosError(f"{type(self).__name__} needs a job-scoped run")
        if operator is not None:
            return job.pe_of_operator(operator)
        if pe_index is not None:
            return job.pe_by_index(pe_index)
        raise ChaosError(f"{type(self).__name__} needs operator or pe_index")

    def __repr__(self) -> str:
        """Short debugging representation (kind + public fields)."""
        fields = {
            k: v for k, v in vars(self).items() if not k.startswith("_")
        }
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# process & host faults
# ---------------------------------------------------------------------------


class _OnePE(Perturbation):
    """A fault on one PE of the job, named by ``operator`` or ``pe_index``."""

    #: kernel-label prefix of a timed direct apply (``crash-<pe id>``)
    VERB = "crash"

    def _pe(self, job: Optional["Job"]) -> PERuntime:
        return self._resolve_pe(job, self.operator, self.pe_index)

    def label(self, system, job):
        """``<verb>-<pe id>``, the target resolved when the fault is timed."""
        return f"{self.VERB}-{self._pe(job).pe_id}"


@dataclass(repr=False)
class CrashPE(_OnePE):
    """Crash one PE of the job (no scheduled recovery).

    Attributes:
        operator: Resolve the PE as the one hosting this operator.
        pe_index: Alternative: resolve by PE index.
        reason: Crash reason propagated into failure events.
    """

    operator: Optional[str] = None
    pe_index: Optional[int] = None
    reason: str = "chaos"

    KIND = "crash_pe"

    def apply(self, system, job, feed):
        """Capture the victim's state, then crash it."""
        pe = self._pe(job)
        detail: Dict[str, Any] = {"pe_ids": [pe.pe_id], "reason": self.reason}
        detail.update(_capture_victims(system, _running([pe])))
        _crash(system, pe, self.reason)
        return pe.pe_id, detail


@dataclass(repr=False)
class RestartPE(_OnePE):
    """Restart a downed PE of the job (the recovery half of a flap).

    Attributes:
        operator: Resolve the PE as the one hosting this operator.
        pe_index: Alternative: resolve by PE index.
        rehydrate: Restore state from the best available snapshot.
    """

    operator: Optional[str] = None
    pe_index: Optional[int] = None
    rehydrate: bool = True

    KIND = "restart_pe"
    VERB = "restart"

    def apply(self, system, job, feed):
        """Issue the SAM restart."""
        pe = self._pe(job)
        _restart(system, job, pe, self.rehydrate)
        return pe.pe_id, {"pe_ids": [pe.pe_id], "rehydrate": self.rehydrate}


@dataclass(repr=False)
class PEFlap(_OnePE):
    """Crash a PE now and restart it after ``downtime`` seconds.

    Attributes:
        operator: Resolve the PE as the one hosting this operator.
        pe_index: Alternative: resolve by PE index.
        downtime: Seconds between the crash and the restart request.
        rehydrate: Restore state on restart.
        reason: Crash reason propagated into failure events.
    """

    operator: Optional[str] = None
    pe_index: Optional[int] = None
    downtime: float = 2.0
    rehydrate: bool = True
    reason: str = "chaos_flap"

    KIND = "pe_flap"

    def apply(self, system, job, feed):
        """Crash now; the undo restarts the PE it crashed.

        The undo holds the crashed PE itself, never the operator: after a
        rescale the operator can live on a different PE.
        """
        pe = self._pe(job)
        detail: Dict[str, Any] = {
            "pe_ids": [pe.pe_id],
            "downtime": self.downtime,
            "rehydrate": self.rehydrate,
        }
        detail.update(_capture_victims(system, _running([pe])))
        _crash(system, pe, self.reason)
        detail["_undo"] = (
            self.downtime,
            f"restart-{pe.pe_id}",
            lambda: _restart(system, job, pe, self.rehydrate),
        )
        return pe.pe_id, detail


@dataclass(repr=False)
class FailHost(Perturbation):
    """Kill one host (no scheduled recovery).

    Attributes:
        host: The host name to kill.
        host_of: Alternative: kill the host of this operator, resolved
            at injection time against the job.
    """

    host: Optional[str] = None
    host_of: Optional[str] = None

    KIND = "fail_host"

    def _target_host(self, job: Optional["Job"]) -> str:
        if self.host is not None:
            return self.host
        if self.host_of is not None:
            pe = self._resolve_pe(job, operator=self.host_of)
            if pe.host_name is None:
                raise ChaosError(f"operator {self.host_of!r} has no host")
            return pe.host_name
        raise ChaosError("FailHost needs host or host_of")

    def label(self, system, job):
        """``fail-<host>``, the host resolved when the fault is timed."""
        return f"fail-{self._target_host(job)}"

    def apply(self, system, job, feed):
        """Capture the local PEs' state, then kill the host.

        Killing a host whose controller is already dead is a recorded
        ``host_down`` no-op.
        """
        host = self._target_host(job)
        hc = system.hcs.get(host)
        if hc is None:
            raise UnknownHostError(f"unknown host {host!r}")
        victims = _running(hc.pes.values())
        detail: Dict[str, Any] = {"pe_ids": [pe.pe_id for pe in victims]}
        detail.update(_capture_victims(system, victims))
        if hc.alive:
            system.chaos.record("fail_host")
            hc.kill()
        else:
            system.chaos.record_noop("fail_host", host, "host_down")
        return host, detail


@dataclass(repr=False)
class HostFlap(FailHost):
    """Kill a host, then revive it and restart its crashed PEs.

    Attributes:
        host: The host name to kill (or use ``host_of``).
        host_of: Kill the host of this operator (resolved at fire time).
        downtime: Seconds between the kill and the revive.
        rehydrate: Restore state when restarting the host's PEs.
        restart_pes: Re-issue SAM restarts for the crashed local PEs.
    """

    downtime: float = 3.0
    rehydrate: bool = True
    restart_pes: bool = True

    KIND = "host_flap"

    def apply(self, system, job, feed):
        """Kill now; the undo revives the host and restarts its PEs.

        Reviving a host that is already up is a recorded ``host_up``
        no-op; its crashed PEs are restarted all the same.
        """
        host, detail = super().apply(system, job, feed)
        detail["downtime"] = self.downtime
        detail["rehydrate"] = self.rehydrate

        def revive() -> None:
            hc = system.hcs[host]
            if hc.alive:
                system.chaos.record_noop("revive_host", host, "host_up")
            else:
                system.chaos.record("revive_host")
                hc.revive()
            if not self.restart_pes:
                return
            for running in system.sam.running_jobs():
                for pe in running.pes:
                    if pe.host_name == host and pe.state is PEState.CRASHED:
                        _restart(system, running, pe, self.rehydrate)

        detail["_undo"] = (self.downtime, f"chaos-revive-{host}", revive)
        return host, detail


# ---------------------------------------------------------------------------
# network faults
# ---------------------------------------------------------------------------


@dataclass(repr=False)
class LatencySpike(Perturbation):
    """Add latency to matching transport links for a while.

    Attributes:
        extra: Seconds added to the base transport latency.
        duration: Seconds until the spike decays.
        src_host: Only links leaving this host (None: any).
        dst_host: Only links entering this host (None: any).
        dst_operator: Only links toward the PE hosting this operator.
    """

    extra: float = 0.05
    duration: float = 2.0
    src_host: Optional[str] = None
    dst_host: Optional[str] = None
    dst_operator: Optional[str] = None

    KIND = "latency_spike"

    def apply(self, system, job, feed):
        """Install the timed latency fault on the transport."""
        dst_pe = None
        if self.dst_operator is not None:
            dst_pe = self._resolve_pe(job, operator=self.dst_operator).pe_id
        fault = system.transport.install_link_fault(
            extra_latency=self.extra,
            src_host=self.src_host,
            dst_host=self.dst_host,
            dst_pe=dst_pe,
            duration=self.duration,
        )
        target = dst_pe or self.dst_host or self.src_host or "all-links"
        return target, {
            "fault_id": fault.fault_id,
            "extra": self.extra,
            "duration": self.duration,
        }


@dataclass(repr=False)
class LinkPartition(Perturbation):
    """Partition matching links: items are held and flushed at heal time.

    Models TCP retransmission across a transient partition — delivery is
    delayed, never lost, and stays FIFO per connection.

    Attributes:
        duration: Seconds until the partition heals.
        src_host: Only links leaving this host (None: any).
        dst_host: Only links entering this host (None: any).
        dst_operator: Only links toward the PE hosting this operator.
    """

    duration: float = 1.0
    src_host: Optional[str] = None
    dst_host: Optional[str] = None
    dst_operator: Optional[str] = None

    KIND = "link_partition"

    def apply(self, system, job, feed):
        """Install the timed hold-until-heal fault on the transport."""
        dst_pe = None
        if self.dst_operator is not None:
            dst_pe = self._resolve_pe(job, operator=self.dst_operator).pe_id
        fault = system.transport.install_link_fault(
            partition=True,
            src_host=self.src_host,
            dst_host=self.dst_host,
            dst_pe=dst_pe,
            duration=self.duration,
        )
        target = dst_pe or self.dst_host or self.src_host or "all-links"
        return target, {"fault_id": fault.fault_id, "duration": self.duration}


@dataclass(repr=False)
class LinkLoss(Perturbation):
    """Drop a seeded fraction of items on matching links for a while.

    Unlike :class:`LinkPartition` this *loses* data on a best-effort
    transport (counted in the transport's ``dropped_by_fault``); keep it
    out of best-effort scenarios that assert zero tuple loss.  The
    reliable delivery modes (``SystemConfig.delivery`` of
    ``"at_least_once"`` / ``"exactly_once"``) retransmit every dropped
    unit until it is acknowledged, so under them the drops are still
    *counted* but no tuple is ultimately lost.

    Attributes:
        drop_probability: Per-item drop chance in [0, 1].
        duration: Seconds until the fault decays.
        src_host: Only links leaving this host (None: any).
        dst_host: Only links entering this host (None: any).
    """

    drop_probability: float = 0.1
    duration: float = 2.0
    src_host: Optional[str] = None
    dst_host: Optional[str] = None

    KIND = "link_loss"

    def apply(self, system, job, feed):
        """Install the timed lossy fault on the transport."""
        fault = system.transport.install_link_fault(
            drop_probability=self.drop_probability,
            src_host=self.src_host,
            dst_host=self.dst_host,
            duration=self.duration,
        )
        target = self.dst_host or self.src_host or "all-links"
        return target, {
            "fault_id": fault.fault_id,
            "drop_probability": self.drop_probability,
            "duration": self.duration,
        }


# ---------------------------------------------------------------------------
# load faults
# ---------------------------------------------------------------------------


@dataclass(repr=False)
class RateSurge(Perturbation):
    """Multiply the feed rate for a while, then restore it.

    Attributes:
        factor: Rate multiplier during the surge.
        duration: Seconds until the previous rate factor is restored.
    """

    factor: float = 4.0
    duration: float = 5.0

    KIND = "rate_surge"

    def apply(self, system, job, feed):
        """Scale the feed; the undo restores it after ``duration``.

        The surge composes *multiplicatively* with the current rate
        factor and its restore divides it back out, so overlapping
        surges stack and unwind correctly in any order.
        """
        if feed is None:
            raise ChaosError("RateSurge needs a run with a feed")
        if self.factor <= 0.0:
            raise ChaosError("RateSurge factor must be > 0 (use duration-less"
                             " feed.set_rate_factor(0) to stop a feed)")
        previous = feed.rate_factor
        feed.set_rate_factor(previous * self.factor)
        return "feed", {
            "factor": self.factor,
            "previous": previous,
            "duration": self.duration,
            "_undo": (
                self.duration,
                "chaos-surge-end",
                lambda: feed.set_rate_factor(feed.rate_factor / self.factor),
            ),
        }


@dataclass(repr=False)
class KeySkewShift(Perturbation):
    """Concentrate traffic on a hot key set for a while.

    Attributes:
        hot_fraction: Fraction of tuples drawn from the hot keys.
        hot_keys: The hot key set (empty: the feed's default).
        duration: Seconds until the previous skew is restored.
    """

    hot_fraction: float = 0.8
    hot_keys: Sequence[str] = field(default_factory=tuple)
    duration: float = 5.0

    KIND = "key_skew"

    def apply(self, system, job, feed):
        """Skew the feed; the undo restores it after ``duration``.

        Shifts ride the feed's skew *stack*
        (:meth:`~repro.apps.workloads.ChaosFeed.push_skew`): the newest
        open window is in force and expiries unwind to the newest
        surviving one, so overlapping windows — nested, staggered, or
        value-identical — always end at the uniform distribution once
        every window has expired.
        """
        if feed is None:
            raise ChaosError("KeySkewShift needs a run with a feed")
        token = feed.push_skew(self.hot_fraction, tuple(self.hot_keys))
        return "feed", {
            "hot_fraction": self.hot_fraction,
            "hot_keys": list(self.hot_keys) or list(feed.hot_keys),
            "duration": self.duration,
            "_undo": (
                self.duration, "chaos-skew-end", lambda: feed.pop_skew(token)
            ),
        }


# ---------------------------------------------------------------------------
# durability & reconfiguration faults
# ---------------------------------------------------------------------------


@dataclass(repr=False)
class CheckpointFault(Perturbation):
    """Tear every checkpoint commit for a window (crash-between-record-
    and-commit semantics).

    Arms the checkpoint service's ``commit_fault`` hook for ``duration``
    seconds; epochs recorded in the window stay torn, so recoveries must
    fall back to the last committed epoch — exactly the torn-epoch path
    of :mod:`repro.checkpoint`.

    Attributes:
        duration: Seconds the hook stays armed.
    """

    duration: float = 2.0

    KIND = "checkpoint_fault"

    def apply(self, system, job, feed):
        """Arm the commit fault via the engine's refcounted window.

        Overlapping windows stack: commits stay torn until *every*
        window has expired, and the pre-campaign hook (if any) is
        restored exactly once.
        """
        system.chaos.arm_checkpoint_fault()
        return "checkpoints", {
            "duration": self.duration,
            "_undo": (
                self.duration, "chaos-ckpt-heal", system.chaos.disarm_checkpoint_fault
            ),
        }


@dataclass(repr=False)
class Rescale(Perturbation):
    """Start a live re-parallelization of one region of the job.

    Lets campaigns race crashes and network faults against the rescale
    protocol's drain/migrate/rewire phases.

    Attributes:
        region: The parallel region name.
        width: Requested channel width.
    """

    region: str = "region"
    width: int = 2

    KIND = "rescale"

    def apply(self, system, job, feed):
        """Kick off ``set_channel_width`` on the elastic controller."""
        if job is None:
            raise ChaosError("Rescale needs a job-scoped run")
        operation = system.elastic.set_channel_width(job, self.region, self.width)
        return f"{self.region}->{self.width}", {
            "region": self.region,
            "width": self.width,
            "old_width": operation.old_width,
        }


#: serialization registry: perturbation kind -> dataclass, the inverse of
#: ``Perturbation.KIND`` (used by the scenario corpus round-trip)
PERTURBATION_KINDS: Dict[str, type] = {
    cls.KIND: cls
    for cls in (
        CrashPE,
        RestartPE,
        PEFlap,
        FailHost,
        HostFlap,
        LatencySpike,
        LinkPartition,
        LinkLoss,
        RateSurge,
        KeySkewShift,
        CheckpointFault,
        Rescale,
    )
}


def perturbation_to_dict(perturbation: Perturbation) -> Dict[str, Any]:
    """Serialize one perturbation to a JSON-safe mapping.

    The mapping round-trips through :func:`perturbation_from_dict`:
    ``{"kind": <KIND>, "params": {<public dataclass fields>}}`` with
    tuples rendered as lists.

    Args:
        perturbation: The perturbation to serialize.

    Returns:
        A JSON-serializable dict.

    Raises:
        ChaosError: The perturbation's kind is not registered.
    """
    if perturbation.KIND not in PERTURBATION_KINDS:
        raise ChaosError(
            f"unserializable perturbation kind {perturbation.KIND!r}"
        )
    params = {
        key: (list(value) if isinstance(value, tuple) else value)
        for key, value in vars(perturbation).items()
        if not key.startswith("_")
    }
    return {"kind": perturbation.KIND, "params": params}


def perturbation_from_dict(data: Dict[str, Any]) -> Perturbation:
    """Rebuild a perturbation from its :func:`perturbation_to_dict` form.

    Args:
        data: ``{"kind": ..., "params": {...}}``.

    Returns:
        The reconstructed perturbation.

    Raises:
        ChaosError: Unknown kind, parameters the kind does not accept,
            or a ``duration`` that is not a finite number > 0 (every
            windowed fault ends on its own).
    """
    kind = data.get("kind")
    cls = PERTURBATION_KINDS.get(kind)
    if cls is None:
        raise ChaosError(
            f"unknown perturbation kind {kind!r} "
            f"(known: {sorted(PERTURBATION_KINDS)})"
        )
    params = dict(data.get("params", {}))
    if isinstance(params.get("hot_keys"), list):
        params["hot_keys"] = tuple(params["hot_keys"])
    try:
        perturbation = cls(**params)
    except TypeError as exc:
        raise ChaosError(f"bad parameters for {kind!r}: {exc}") from exc
    if hasattr(perturbation, "duration"):
        duration = perturbation.duration
        if not (isinstance(duration, (int, float)) and 0.0 < duration < math.inf):
            raise ChaosError(
                f"{kind!r} needs a finite duration > 0, got {duration!r}"
            )
    return perturbation


def detail_public_view(detail: Dict[str, Any]) -> Dict[str, Any]:
    """The publishable slice of an injection detail map.

    Engine-internal keys (``_``-prefixed, e.g. captured state snapshots)
    are stripped; the rest is *deep*-copied so event handlers mutating
    nested values (the ``pe_ids`` list, sub-dicts) cannot corrupt the
    journal record the engine's recovery stamping depends on.

    Args:
        detail: The raw detail map recorded at injection time.

    Returns:
        A detached copy without private keys.
    """
    return copy.deepcopy(
        {k: v for k, v in detail.items() if not k.startswith("_")}
    )
