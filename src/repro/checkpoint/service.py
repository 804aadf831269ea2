"""The background checkpoint daemon.

Every ``SystemConfig.checkpoint_interval`` sim-seconds the service walks
the running jobs and captures each PE whose epoch has something to carry
— operator state, or under exactly-once only its links' watermarks — into
the :class:`~repro.checkpoint.store.CheckpointStore`:

1. **Capture (incremental).**  For every keyed state it asks the
   :class:`~repro.spl.state.KeyedState` for its dirty delta — deep copies
   of only the keys touched since the last committed checkpoint, plus the
   dropped-key set — and merges it over the PE's latest committed epoch
   in the store, which holds the materialized map of every keyed state.
   Cold partitions are carried forward by reference (they are detached
   copies already), so a hot loop hammering a few keys never forces the
   whole map to be re-serialized.  Global states and the
   operator's ``on_snapshot()`` extra are small by convention and are
   captured in full.
2. **Record.**  The payloads are written to the store as a new epoch
   (uncommitted — *torn* if the process died here).
3. **Commit.**  The epoch is marked committed and dirty tracking is
   reset.

Every attempt, committed *or torn*, is then published as a
``checkpoint`` runtime event (commit-only subscribers such as the ORCA
service test ``record.committed``; the chaos fuzzer mines the torn ones
for commit-barrier timestamps — a crash landing between record and
commit is the interleaving it hunts).

``commit_fault`` is a test hook simulating a crash between record and
commit: the epoch stays torn and dirty tracking is *not* reset, so the
next round re-captures the same delta — exactly what a restarted
checkpointer would do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.checkpoint.store import CheckpointStore
from repro.sim.kernel import Kernel, ScheduledEvent
from repro.spl.state import estimate_value_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.events import RuntimeEvents
    from repro.runtime.job import Job
    from repro.runtime.pe import PERuntime
    from repro.runtime.sam import SAM
    from repro.runtime.system import SystemConfig


@dataclass
class CheckpointRecord:
    """One checkpoint attempt of one PE, as published on the runtime bus."""

    job_id: str
    pe_id: str
    epoch: int
    time: float
    committed: bool
    full: bool
    n_operators: int
    keys_dirty: int
    keys_total: int
    bytes_written: int


class CheckpointService:
    """Periodic incremental checkpointing of every stateful PE."""

    def __init__(
        self,
        kernel: Kernel,
        config: "SystemConfig",
        sam: "SAM",
        store: CheckpointStore,
        events: "RuntimeEvents",
    ) -> None:
        """Create the daemon (call :meth:`start` to begin the loop).

        Args:
            kernel: The simulation kernel the loop is scheduled on.
            config: The system's configuration; ``checkpoint_interval``
                is the sim-seconds between rounds, 0 disables the loop
                (the paper's no-checkpoint default).
            sam: Job registry — every running job's PEs are candidates.
            store: Destination for recorded/committed epochs.
            events: Runtime bus the attempts are published on.
        """
        self.kernel = kernel
        self.config = config
        self.sam = sam
        self.store = store
        self.events = events
        #: test hook: return True to skip the commit (simulates a crash
        #: between record and commit, leaving a torn epoch behind)
        self.commit_fault: Optional[Callable[["PERuntime"], bool]] = None
        #: every checkpoint attempt, committed or torn, in order
        self.records: List[CheckpointRecord] = []
        #: the pending round; None while the loop is stopped
        self._loop_handle: Optional[ScheduledEvent] = None

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Begin the periodic loop (no-op when the interval is 0 or it runs)."""
        if self.config.checkpoint_interval > 0 and self._loop_handle is None:
            self._loop_handle = self.kernel.schedule(
                self.config.checkpoint_interval, self._loop, label="checkpoint-loop"
            )

    def stop(self) -> None:
        """Cancel the periodic loop."""
        if self._loop_handle is not None:
            self._loop_handle.cancel()
            self._loop_handle = None

    def set_interval(self, seconds: float) -> None:
        """Change the checkpoint cadence at runtime.

        Args:
            seconds: New interval in sim-seconds; 0 stops the loop.
        """
        if seconds < 0:
            raise ValueError("checkpoint interval must be >= 0")
        self.config.checkpoint_interval = seconds
        self.stop()
        self.start()

    def _loop(self) -> None:
        self._loop_handle = None
        self.checkpoint_all()
        self.start()

    # -- capture ----------------------------------------------------------------

    def checkpoint_all(self) -> List[CheckpointRecord]:
        """Checkpoint every stateful PE of every running job.

        Returns:
            The records of this round's attempts (committed or torn).
        """
        records: List[CheckpointRecord] = []
        for job in self.sam.running_jobs():
            records.extend(self.checkpoint_job(job))
        return records

    def checkpoint_job(self, job: "Job") -> List[CheckpointRecord]:
        """Checkpoint every stateful, running PE of one job.

        Args:
            job: The job to capture.

        Returns:
            One record per PE that actually had state to capture.
        """
        records: List[CheckpointRecord] = []
        for pe in list(job.pes):
            record = self.checkpoint_pe(pe)
            if record is not None:
                records.append(record)
        return records

    def checkpoint_pe(self, pe: "PERuntime") -> Optional[CheckpointRecord]:
        """Capture, record, and commit one PE's stateful operators.

        Args:
            pe: The PE to capture; skipped unless it is running and has
                an operator declared stateful, holding live state or
                returning an ``on_snapshot()`` extra — or, under
                exactly-once, a link toward it (its watermark commits).

        Returns:
            The :class:`CheckpointRecord` of this attempt, or None when
            the PE was skipped.
        """
        if not pe.is_running:
            return None
        declared = set(pe.spec.stateful_ops)
        payloads: Dict[str, dict] = {}
        any_full = False
        keys_dirty = 0
        keys_total = 0
        bytes_written = 0
        cleaners: List[Callable[[], None]] = []
        # the bases: a restored or fresh keyed state is full-dirty, so a
        # delta always extends the epoch this PE committed last
        latest = self.store.latest_committed(pe.job.job_id, pe.pe_id)
        committed = latest.payloads if latest is not None else {}
        for op_name, operator in pe.operators.items():
            extra = operator.on_snapshot()
            if extra is None and op_name not in declared and not operator.state.in_use:
                continue
            keyed_payload: Dict[str, Dict] = {}
            bases = committed.get(op_name, {}).get("store", {}).get("keyed", {})
            for state_name, keyed in operator.state.keyed_states().items():
                full, changed, dropped = keyed.dirty_snapshot()
                base = bases.get(state_name)
                if full or base is None:
                    if not full:
                        # delta without a committed base: fall back to
                        # a full capture
                        changed, dropped = keyed.snapshot(), set()
                    materialized = changed
                    any_full = True
                    keys_dirty += len(changed)
                else:
                    materialized = dict(base)
                    for key in dropped:
                        materialized.pop(key, None)
                    materialized.update(changed)
                    keys_dirty += len(changed) + len(dropped)
                bytes_written += sum(
                    estimate_value_size(k) + estimate_value_size(v)
                    for k, v in changed.items()
                )
                keys_total += len(materialized)
                keyed_payload[state_name] = materialized
                cleaners.append(keyed.mark_clean)
            global_payload = {
                name: state.snapshot()
                for name, state in operator.state.global_states().items()
            }
            bytes_written += sum(
                estimate_value_size(v) for v in global_payload.values()
            ) + estimate_value_size(extra)
            payloads[op_name] = operator.snapshot(
                {"keyed": keyed_payload, "global": global_payload}
            )
        if not payloads and pe.transport.checkpoint_watermarks(pe.pe_id) is None:
            return None
        entry = self.store.write_epoch(
            pe,
            payloads,
            self.commit_fault,
            full=any_full,
            keys_dirty=keys_dirty,
            keys_total=keys_total,
            bytes_written=bytes_written,
        )
        if entry.committed:  # a torn epoch leaves dirty tracking as it is
            for clean in cleaners:
                clean()
        record = CheckpointRecord(
            job_id=pe.job.job_id,
            pe_id=pe.pe_id,
            epoch=entry.epoch,
            time=entry.time,
            committed=entry.committed,
            full=any_full,
            n_operators=len(payloads) - ("__transport__" in payloads),
            keys_dirty=keys_dirty,
            keys_total=keys_total,
            bytes_written=bytes_written,
        )
        self.records.append(record)
        self.events.publish("checkpoint", record)
        return record

    def __repr__(self) -> str:
        """Return a short debugging representation."""
        return (
            f"CheckpointService(interval={self.config.checkpoint_interval}, "
            f"records={len(self.records)})"
        )
