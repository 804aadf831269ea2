"""The chaos perturbation library.

Each perturbation is a declarative description of one runtime
disturbance; the :class:`~repro.chaos.engine.ChaosEngine` fires it at its
scheduled step time by calling :meth:`Perturbation.inject`.  Perturbations
are thin adapters over machinery the system already has:

* process/host faults ride the hardened
  :class:`~repro.runtime.failures.FailureInjector` (so they share its
  per-kind counters and recorded no-ops);
* network faults install :class:`~repro.runtime.transport.LinkFault`
  modifiers (latency spikes, seeded loss, hold-until-heal partitions);
* load faults drive a :class:`~repro.apps.workloads.ChaosFeed`'s live
  rate/skew controls;
* durability faults arm the checkpoint service's ``commit_fault`` hook
  (torn epochs);
* reconfiguration faults start a live rescale, so campaigns can race
  crashes against migration barriers.

Crash-class perturbations capture the victim's keyed state *at the
instant of the crash* into the injection record, which is what the
resilience scorecard later compares against live state to compute the
state-recovery fraction.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.runtime.pe import PERuntime, PEState

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.engine import ChaosEngine, ScenarioRun


class ChaosError(ReproError):
    """A perturbation could not resolve or apply its target."""


def buffered_item_count(pe: PERuntime) -> int:
    """Data tuples held in a PE's operator buffers (punctuations excluded).

    Crash-class perturbations record this on the injection so scorecards
    and the fuzzer's loss-accounting oracle can tell a tuple that died in
    an operator buffer (restart-empty semantics, legitimate) from one
    the system lost without any crash explanation (a bug).  Counting
    punctuations would inflate ``accounted_losses`` and let the
    unaccounted-loss oracle mask that many real losses.

    Args:
        pe: The PE about to be disturbed.

    Returns:
        Total ``pending_tuples()`` over the PE's operators.
    """
    return sum(op.pending_tuples() for op in pe.operators.values())


def capture_committed_state(
    engine: "ChaosEngine", pe: PERuntime
) -> Dict[str, Dict[Any, Any]]:
    """The victim's latest *committed* checkpoint, merged per state name.

    Recorded on crash injections as the run's restore floor: whatever a
    rehydrating recovery restores (plus exactly-once replay) must never
    fall below the state the store had durably committed at the instant
    of the crash — the exact guarantee the fuzzer's state-conservation
    oracle checks right after each recovery, immune to checkpoint-lag
    false positives that judging against live at-crash state would give.

    Args:
        engine: The chaos engine (reaches the system's checkpoint store).
        pe: The crashing PE.

    Returns:
        ``state_name -> {key: value}`` from the newest committed epoch
        (empty when none exists — e.g. restart-empty stacks).
    """
    entry = engine.system.checkpoint_store.latest_committed(
        pe.job.job_id, pe.pe_id
    )
    if entry is None:
        return {}
    merged: Dict[str, Dict[Any, Any]] = {}
    for payload in entry.payloads.values():
        for state_name, entries in payload.get("store", {}).get("keyed", {}).items():
            merged.setdefault(state_name, {}).update(entries)
    return copy.deepcopy(merged)


def capture_keyed_state(pe: PERuntime) -> Dict[str, Dict[Any, Any]]:
    """Deep-copy every keyed state currently held by a PE's operators.

    Args:
        pe: The (running) PE about to be disturbed.

    Returns:
        ``state_name -> {key: value}`` merged over the PE's operators —
        the "at crash" side of the scorecard's state-recovery fraction.
    """
    captured: Dict[str, Dict[Any, Any]] = {}
    for operator in pe.operators.values():
        if not operator.state.in_use:
            continue
        for state_name, keyed in operator.state.keyed_states().items():
            captured.setdefault(state_name, {}).update(keyed.snapshot())
    return captured


class Perturbation:
    """Base class: one injectable runtime disturbance.

    Subclasses set :attr:`KIND` and implement :meth:`inject`, returning
    ``(target, detail)`` — a human-readable target name and a detail map
    recorded on the :class:`~repro.chaos.engine.ChaosInjection`.  Detail
    keys starting with ``_`` are engine-internal (e.g. captured state
    snapshots) and are not published into ORCA event contexts.
    """

    #: injection kind recorded on ChaosInjection and matched by ChaosScope
    KIND = "perturbation"

    def inject(
        self, engine: "ChaosEngine", run: "ScenarioRun"
    ) -> Tuple[str, Dict[str, Any]]:
        """Apply the disturbance now; return ``(target, detail)``."""
        raise NotImplementedError

    # -- shared resolution helpers ------------------------------------------

    def _resolve_pe(
        self,
        run: "ScenarioRun",
        operator: Optional[str] = None,
        pe_index: Optional[int] = None,
        pe_id: Optional[str] = None,
    ) -> PERuntime:
        """Find the target PE of the run's job by operator/index/id."""
        job = run.job
        if job is None:
            raise ChaosError(f"{type(self).__name__} needs a job-scoped run")
        if pe_id is not None:
            return job.pe_by_id(pe_id)
        if operator is not None:
            return job.pe_of_operator(operator)
        if pe_index is not None:
            return job.pe_by_index(pe_index)
        raise ChaosError(f"{type(self).__name__} needs operator, pe_index, or pe_id")

    def __repr__(self) -> str:
        """Short debugging representation (kind + public fields)."""
        fields = {
            k: v for k, v in vars(self).items() if not k.startswith("_")
        }
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# process & host faults
# ---------------------------------------------------------------------------


@dataclass(repr=False)
class CrashPE(Perturbation):
    """Crash one PE of the run's job (no scheduled recovery).

    Attributes:
        operator: Resolve the PE as the one hosting this operator.
        pe_index: Alternative: resolve by PE index.
        reason: Crash reason propagated into failure events.
    """

    operator: Optional[str] = None
    pe_index: Optional[int] = None
    reason: str = "chaos"

    KIND = "crash_pe"

    def inject(self, engine, run):
        """Capture keyed state, then crash the PE through the injector."""
        pe = self._resolve_pe(run, self.operator, self.pe_index)
        detail: Dict[str, Any] = {"pe_ids": [pe.pe_id], "reason": self.reason}
        if pe.state is PEState.RUNNING:
            detail["_state_at_crash"] = capture_keyed_state(pe)
            detail["_committed_at_crash"] = capture_committed_state(engine, pe)
            detail["buffered_at_crash"] = buffered_item_count(pe)
        engine.system.failures.crash_pe(
            run.job.job_id, pe_id=pe.pe_id, reason=self.reason
        )
        return pe.pe_id, detail


@dataclass(repr=False)
class RestartPE(Perturbation):
    """Restart a downed PE of the run's job (the recovery half of a flap).

    Attributes:
        operator: Resolve the PE as the one hosting this operator.
        pe_index: Alternative: resolve by PE index.
        rehydrate: Restore state from the best available snapshot.
    """

    operator: Optional[str] = None
    pe_index: Optional[int] = None
    rehydrate: bool = True

    KIND = "restart_pe"

    def inject(self, engine, run):
        """Issue the SAM restart through the failure injector."""
        pe = self._resolve_pe(run, self.operator, self.pe_index)
        engine.system.failures.restart_pe(
            run.job.job_id, pe.pe_id, rehydrate=self.rehydrate
        )
        return pe.pe_id, {"pe_ids": [pe.pe_id], "rehydrate": self.rehydrate}


@dataclass(repr=False)
class PEFlap(Perturbation):
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

    def inject(self, engine, run):
        """Crash, then schedule the cancellable restart injection."""
        pe = self._resolve_pe(run, self.operator, self.pe_index)
        detail: Dict[str, Any] = {
            "pe_ids": [pe.pe_id],
            "downtime": self.downtime,
            "rehydrate": self.rehydrate,
        }
        if pe.state is PEState.RUNNING:
            detail["_state_at_crash"] = capture_keyed_state(pe)
            detail["_committed_at_crash"] = capture_committed_state(engine, pe)
            detail["buffered_at_crash"] = buffered_item_count(pe)
        injector = engine.system.failures
        injector.crash_pe(run.job.job_id, pe_id=pe.pe_id, reason=self.reason)
        injector.restart_pe(
            run.job.job_id,
            pe.pe_id,
            rehydrate=self.rehydrate,
            at=engine.kernel.now + self.downtime,
        )
        return pe.pe_id, detail


@dataclass(repr=False)
class FailHost(Perturbation):
    """Kill one host (no scheduled recovery).

    Attributes:
        host: The host name to kill.
        host_of: Alternative: kill the host of this operator, resolved
            at injection time against the run's job.
    """

    host: Optional[str] = None
    host_of: Optional[str] = None

    KIND = "fail_host"

    def _target_host(self, engine, run) -> str:
        if self.host is not None:
            return self.host
        if self.host_of is not None:
            pe = self._resolve_pe(run, operator=self.host_of)
            if pe.host_name is None:
                raise ChaosError(f"operator {self.host_of!r} has no host")
            return pe.host_name
        raise ChaosError("FailHost needs host or host_of")

    def inject(self, engine, run):
        """Capture local keyed state, then kill the host."""
        host = self._target_host(engine, run)
        hc = engine.system.hcs.get(host)
        detail: Dict[str, Any] = {"pe_ids": []}
        state: Dict[str, Dict[Any, Any]] = {}
        committed: Dict[str, Dict[Any, Any]] = {}
        buffered = 0
        if hc is not None:
            for pe in hc.pes.values():
                if pe.state is not PEState.RUNNING:
                    continue  # not a victim: it was already down
                detail["pe_ids"].append(pe.pe_id)
                buffered += buffered_item_count(pe)
                for name, entries in capture_keyed_state(pe).items():
                    state.setdefault(name, {}).update(entries)
                for name, entries in capture_committed_state(engine, pe).items():
                    committed.setdefault(name, {}).update(entries)
        if detail["pe_ids"]:
            detail["buffered_at_crash"] = buffered
        if state:
            detail["_state_at_crash"] = state
        if committed:
            detail["_committed_at_crash"] = committed
        engine.system.failures.fail_host(host)
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

    def inject(self, engine, run):
        """Kill now; schedule revive + PE restarts at ``downtime``."""
        host, detail = super().inject(engine, run)
        detail["downtime"] = self.downtime
        detail["rehydrate"] = self.rehydrate
        system = engine.system

        def recover() -> None:
            system.failures.revive_host(host)
            if not self.restart_pes:
                return
            for job in system.sam.running_jobs():
                for pe in job.pes:
                    if pe.host_name == host and pe.state is PEState.CRASHED:
                        system.failures.restart_pe(
                            job.job_id, pe.pe_id, rehydrate=self.rehydrate
                        )

        engine.kernel.schedule(
            self.downtime, recover, label=f"chaos-revive-{host}"
        )
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

    def inject(self, engine, run):
        """Install the timed latency fault on the transport."""
        dst_pe = None
        if self.dst_operator is not None:
            dst_pe = self._resolve_pe(run, operator=self.dst_operator).pe_id
        fault = engine.system.transport.install_link_fault(
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

    def inject(self, engine, run):
        """Install the timed hold-until-heal fault on the transport."""
        dst_pe = None
        if self.dst_operator is not None:
            dst_pe = self._resolve_pe(run, operator=self.dst_operator).pe_id
        fault = engine.system.transport.install_link_fault(
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

    def inject(self, engine, run):
        """Install the timed lossy fault on the transport."""
        fault = engine.system.transport.install_link_fault(
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
    """Multiply the run's feed rate for a while, then restore it.

    Attributes:
        factor: Rate multiplier during the surge.
        duration: Seconds until the previous rate factor is restored
            (None: the surge persists).
    """

    factor: float = 4.0
    duration: Optional[float] = 5.0

    KIND = "rate_surge"

    def inject(self, engine, run):
        """Scale the feed; schedule the restore when ``duration`` is set.

        The surge composes *multiplicatively* with the current rate
        factor and its restore divides it back out, so overlapping
        surges stack and unwind correctly in any order.
        """
        feed = run.feed
        if feed is None:
            raise ChaosError("RateSurge needs a run with a feed")
        if self.factor <= 0.0:
            raise ChaosError("RateSurge factor must be > 0 (use duration-less"
                             " feed.set_rate_factor(0) to stop a feed)")
        previous = feed.rate_factor
        feed.set_rate_factor(previous * self.factor)
        if self.duration is not None:
            engine.kernel.schedule(
                self.duration,
                lambda: feed.set_rate_factor(feed.rate_factor / self.factor),
                label="chaos-surge-end",
            )
        return "feed", {
            "factor": self.factor,
            "previous": previous,
            "duration": self.duration,
        }


@dataclass(repr=False)
class KeySkewShift(Perturbation):
    """Concentrate traffic on a hot key set for a while.

    Attributes:
        hot_fraction: Fraction of tuples drawn from the hot keys.
        hot_keys: The hot key set (empty: the feed's default).
        duration: Seconds until the previous skew is restored (None:
            the shift persists).
    """

    hot_fraction: float = 0.8
    hot_keys: Sequence[str] = field(default_factory=tuple)
    duration: Optional[float] = 5.0

    KIND = "key_skew"

    def inject(self, engine, run):
        """Skew the feed; schedule the restore when ``duration`` is set.

        Windowed shifts ride the feed's skew *stack*
        (:meth:`~repro.apps.workloads.ChaosFeed.push_skew`): the newest
        open window is in force and expiries unwind to the newest
        surviving one, so overlapping windows — nested, staggered, or
        value-identical — always end at the uniform baseline once every
        window has expired.  A shift without a duration is a persistent
        ``set_skew``.
        """
        feed = run.feed
        if feed is None:
            raise ChaosError("KeySkewShift needs a run with a feed")
        if self.duration is not None:
            token = feed.push_skew(self.hot_fraction, tuple(self.hot_keys))
            engine.kernel.schedule(
                self.duration,
                lambda: feed.pop_skew(token),
                label="chaos-skew-end",
            )
        else:
            feed.set_skew(self.hot_fraction, tuple(self.hot_keys))
        return "feed", {
            "hot_fraction": self.hot_fraction,
            "hot_keys": list(self.hot_keys) or list(feed.hot_keys),
            "duration": self.duration,
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

    def inject(self, engine, run):
        """Arm the commit fault via the engine's refcounted window.

        Overlapping windows stack: commits stay torn until *every*
        window has expired, and the pre-campaign hook (if any) is
        restored exactly once.
        """
        engine.arm_checkpoint_fault()
        engine.kernel.schedule(
            self.duration, engine.disarm_checkpoint_fault, label="chaos-ckpt-heal"
        )
        return "checkpoints", {"duration": self.duration}


@dataclass(repr=False)
class Rescale(Perturbation):
    """Start a live re-parallelization of one region of the run's job.

    Lets campaigns race crashes and network faults against the rescale
    protocol's drain/migrate/rewire phases.

    Attributes:
        region: The parallel region name.
        width: Requested channel width.
    """

    region: str = "region"
    width: int = 2

    KIND = "rescale"

    def inject(self, engine, run):
        """Kick off ``set_channel_width`` on the elastic controller."""
        if run.job is None:
            raise ChaosError("Rescale needs a job-scoped run")
        operation = engine.system.elastic.set_channel_width(
            run.job, self.region, self.width
        )
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
        ChaosError: Unknown kind or parameters the kind does not accept.
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
        return cls(**params)
    except TypeError as exc:
        raise ChaosError(f"bad parameters for {kind!r}: {exc}") from exc


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
