"""Failure injection.

The paper's Sec. 5.2 experiment "forcefully trigger[s] an orchestrator
event" by killing a PE of the active replica.  The injector provides that
kill switch — immediate or scheduled — plus whole-host failures, which SRM
then detects through missed heartbeats.

The injector is the bottom rung of the chaos subsystem
(:mod:`repro.chaos`): scheduled injections are tracked and cancellable,
injections that find their target already down are *recorded no-ops*
instead of silent skips, and per-kind counters make every campaign's
fault mix inspectable (exposed through the ORCA service's
``chaos_status()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import UnknownHostError, UnknownPEError
from repro.sim.kernel import Kernel, OutstandingHandles, ScheduledEvent
from repro.runtime.hc import HostController
from repro.runtime.pe import PEState
from repro.runtime.sam import SAM


@dataclass(frozen=True)
class NoopInjection:
    """An injection that fired but found nothing left to kill.

    A crash aimed at a PE that already crashed (or was stopped) is not an
    error — concurrent faults race by design — but it must not disappear
    either, or a campaign could not tell "the fault landed" from "the
    fault was a ghost".
    """

    kind: str
    target: str
    reason: str
    time: float


@dataclass
class InjectionStats:
    """Counters of one injector, as served by ``chaos_status()``."""

    injected: int
    by_kind: Dict[str, int] = field(default_factory=dict)
    noops: int = 0
    pending: int = 0


class FailureInjector:
    """Deterministic fault injection for experiments and tests."""

    def __init__(self, kernel: Kernel, sam: SAM) -> None:
        self.kernel = kernel
        self.sam = sam
        #: total injections that actually landed (kills issued)
        self.injected = 0
        #: injection kind ("crash_pe", "fail_host", ...) -> landed count
        self.by_kind: Dict[str, int] = {}
        #: injections that found their target already down, in order
        self.noops: List[NoopInjection] = []
        #: scheduled injections that have neither fired nor been cancelled
        self._pending = OutstandingHandles()

    # -- bookkeeping --------------------------------------------------------

    def _record(self, kind: str) -> None:
        self.injected += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    def _record_noop(self, kind: str, target: str, reason: str) -> None:
        self.noops.append(
            NoopInjection(kind=kind, target=target, reason=reason, time=self.kernel.now)
        )

    def _schedule(self, at: float, fn, label: str) -> ScheduledEvent:
        """Schedule an injection callback and track its handle.

        The handle's ``fired`` flag tells "already ran" from "pending at
        the same timestamp", so pending counts and cancel_all stay exact
        even when queried from a handler running at the injection's own
        sim instant.
        """
        handle = self.kernel.schedule_at(at, fn, label=label)
        self._pending.add(handle)
        return handle

    def pending_count(self) -> int:
        """Scheduled injections that have neither fired nor been cancelled."""
        return len(self._pending.outstanding())

    def cancel_all(self) -> int:
        """Cancel every still-pending scheduled injection.

        Returns:
            How many injections were actually retracted.
        """
        return self._pending.cancel_all()

    def stats(self) -> InjectionStats:
        """Counter snapshot (the ``chaos_status()`` inspection payload)."""
        return InjectionStats(
            injected=self.injected,
            by_kind=dict(self.by_kind),
            noops=len(self.noops),
            pending=self.pending_count(),
        )

    # -- PE faults ----------------------------------------------------------

    def crash_pe(
        self,
        job_id: str,
        pe_index: Optional[int] = None,
        pe_id: Optional[str] = None,
        reason: str = "injected_fault",
        at: Optional[float] = None,
    ) -> Optional[ScheduledEvent]:
        """Crash one PE of a job, now or at an absolute simulated time.

        A crash aimed at a PE that is not RUNNING when the injection fires
        is a recorded no-op (see :class:`NoopInjection`), never an error:
        chaos campaigns race faults against recoveries by design.

        Args:
            job_id: The job owning the PE.
            pe_index: PE index within the job (or pass ``pe_id``).
            pe_id: PE id (or pass ``pe_index``).
            reason: Crash reason propagated to failure events.
            at: Absolute sim time to fire (None: immediately).

        Returns:
            The cancellable schedule handle when ``at`` is given, else None.
        """
        job = self.sam.get_job(job_id)
        if pe_id is not None:
            pe = job.pe_by_id(pe_id)
        elif pe_index is not None:
            pe = job.pe_by_index(pe_index)
        else:
            raise UnknownPEError("crash_pe needs pe_index or pe_id")

        def do_crash() -> None:
            if pe.state is PEState.RUNNING:
                self._record("crash_pe")
                pe.crash(reason)
            else:
                self._record_noop("crash_pe", pe.pe_id, f"pe_{pe.state.value}")

        if at is None:
            do_crash()
            return None
        return self._schedule(at, do_crash, f"crash-{pe.pe_id}")

    def restart_pe(
        self,
        job_id: str,
        pe_id: str,
        rehydrate: bool = False,
        at: Optional[float] = None,
    ) -> Optional[ScheduledEvent]:
        """Issue a SAM restart for a downed PE, now or at a scheduled time.

        The recovery half of a PE flap.  Restarting a PE that is already
        RUNNING when the injection fires is a recorded no-op.

        Args:
            job_id: The job owning the PE.
            pe_id: The PE to restart.
            rehydrate: Restore state from the best available snapshot.
            at: Absolute sim time to fire (None: immediately).

        Returns:
            The cancellable schedule handle when ``at`` is given, else None.
        """
        job = self.sam.get_job(job_id)
        pe = job.pe_by_id(pe_id)

        def do_restart() -> None:
            if pe.state is PEState.RUNNING:
                self._record_noop("restart_pe", pe.pe_id, "pe_running")
                return
            if all(p.pe_id != pe_id for p in job.pes):
                # the PE was removed (e.g. a rescale shrank it away)
                # between scheduling and firing: a recorded no-op, never
                # an exception into the kernel
                self._record_noop("restart_pe", pe.pe_id, "pe_removed")
                return
            self._record("restart_pe")
            self.sam.restart_pe(job_id, pe_id, rehydrate=rehydrate)

        if at is None:
            do_restart()
            return None
        return self._schedule(at, do_restart, f"restart-{pe_id}")

    # -- host faults --------------------------------------------------------

    def fail_host(
        self, host_name: str, at: Optional[float] = None
    ) -> Optional[ScheduledEvent]:
        """Take a whole host down (kills its HC and every local PE).

        Failing a host whose controller is already dead is a recorded
        no-op.

        Args:
            host_name: The host to kill.
            at: Absolute sim time to fire (None: immediately).

        Returns:
            The cancellable schedule handle when ``at`` is given, else None.
        """
        hc: Optional[HostController] = self.sam.hcs.get(host_name)
        if hc is None:
            raise UnknownHostError(f"unknown host {host_name!r}")

        def do_fail() -> None:
            if hc.alive:
                self._record("fail_host")
                hc.kill()
            else:
                self._record_noop("fail_host", host_name, "host_down")

        if at is None:
            do_fail()
            return None
        return self._schedule(at, do_fail, f"fail-{host_name}")

    def revive_host(
        self, host_name: str, at: Optional[float] = None
    ) -> Optional[ScheduledEvent]:
        """Bring a failed host (and its controller) back up, with no PEs.

        The recovery half of a host flap; crashed PEs that lived on the
        host stay down until something restarts them.  Reviving a host
        that is already alive is a recorded no-op.

        Args:
            host_name: The host to revive.
            at: Absolute sim time to fire (None: immediately).

        Returns:
            The cancellable schedule handle when ``at`` is given, else None.
        """
        hc: Optional[HostController] = self.sam.hcs.get(host_name)
        if hc is None:
            raise UnknownHostError(f"unknown host {host_name!r}")

        def do_revive() -> None:
            if hc.alive:
                self._record_noop("revive_host", host_name, "host_up")
                return
            self._record("revive_host")
            hc.revive()

        if at is None:
            do_revive()
            return None
        return self._schedule(at, do_revive, f"revive-{host_name}")
