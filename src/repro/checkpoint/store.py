"""The checkpoint store: epoch-numbered state snapshots per (job, PE).

A checkpoint epoch is **recorded** first (payloads written, uncommitted)
and **committed** second; only committed epochs are ever offered to
rehydration.  A crash between the two steps leaves a *torn* epoch behind,
which readers skip — they fall back to the newest committed epoch, so a
partial snapshot can never be loaded.

The store owns the :class:`EpochClock` shared with the elastic
controller's reconfiguration protocol: checkpoint epochs and rescale
epochs are all drawn from one monotone counter, giving every
state-bearing transition in the system a single total order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.pe import PERuntime


class EpochClock:
    """Monotone logical clock shared by checkpoints and reconfigurations."""

    def __init__(self) -> None:
        """Start the clock at epoch 0 (no epoch issued yet)."""
        self._epoch = 0

    def next(self) -> int:
        """Allocate and return the next epoch number."""
        self._epoch += 1
        return self._epoch

    @property
    def current(self) -> int:
        """The most recently allocated epoch (0 before the first)."""
        return self._epoch


@dataclass
class CheckpointEpoch:
    """One recorded checkpoint of one PE's stateful operators.

    ``payloads`` maps operator full name to the same payload shape
    ``Operator.snapshot()`` produces (``{"store": {...}, "extra": ...}``),
    so rehydration goes through the ordinary ``Operator.restore()`` path.
    """

    epoch: int
    job_id: str
    pe_id: str
    time: float  #: sim-clock time the capture ran
    payloads: Dict[str, dict] = field(default_factory=dict)
    committed: bool = False
    #: True when at least one keyed state had to be captured in full
    #: (first checkpoint of an instance, or after a bulk restore)
    full: bool = False
    #: keys whose values were actually re-serialized this epoch
    keys_dirty: int = 0
    #: total keyed entries covered by this epoch
    keys_total: int = 0
    #: estimated bytes of the freshly serialized (dirty) portion
    bytes_written: int = 0


@dataclass
class RestoreReport:
    """What a ``restart(rehydrate=True)`` actually restored.

    ``source`` is ``"checkpoint"`` (a committed epoch) or ``"none"`` —
    rehydration was requested but nothing restorable existed, the case
    the ``rehydrate_skipped`` ORCA event surfaces to policies.
    """

    source: str
    epoch: Optional[int] = None
    restored_ops: Tuple[str, ...] = ()
    time: float = 0.0


class CheckpointStore:
    """Committed-or-torn checkpoint epochs, with retention, per (job, PE)."""

    def __init__(self, retention: int = 2) -> None:
        """Create an empty store.

        Args:
            retention: How many *committed* epochs to keep per PE (at
                least 1; 2 keeps a fallback behind the newest commit).
        """
        if retention < 1:
            raise ValueError("checkpoint retention must be >= 1")
        self.retention = retention
        #: the shared logical clock (see module docstring)
        self.epochs = EpochClock()
        self._chains: Dict[Tuple[str, str], List[CheckpointEpoch]] = {}

    # -- write path -------------------------------------------------------------

    def record(
        self,
        job_id: str,
        pe_id: str,
        payloads: Dict[str, dict],
        time: float,
        *,
        full: bool = False,
        keys_dirty: int = 0,
        keys_total: int = 0,
        bytes_written: int = 0,
    ) -> CheckpointEpoch:
        """Write a new (uncommitted) epoch for one PE.

        Args:
            job_id: Owning job.
            pe_id: The checkpointed PE.
            payloads: Operator full name -> restore payload.
            time: Sim-clock capture time.
            full: Whether any keyed state was captured in full.
            keys_dirty: Keys re-serialized this epoch.
            keys_total: Total keyed entries covered.
            bytes_written: Estimated bytes of the dirty portion.

        Returns:
            The recorded epoch, still uncommitted (torn until
            :meth:`commit` is called).
        """
        entry = CheckpointEpoch(
            epoch=self.epochs.next(),
            job_id=job_id,
            pe_id=pe_id,
            time=time,
            payloads=payloads,
            full=full,
            keys_dirty=keys_dirty,
            keys_total=keys_total,
            bytes_written=bytes_written,
        )
        self._chains.setdefault((job_id, pe_id), []).append(entry)
        return entry

    def write_epoch(
        self,
        pe: "PERuntime",
        payloads: Dict[str, dict],
        commit_fault: Optional[Callable[["PERuntime"], bool]] = None,
        **stats: int,
    ) -> CheckpointEpoch:
        """Record one PE's epoch and commit it: the one epoch writer.

        Under exactly-once delivery the transport's per-link delivered
        watermarks ride the epoch (reserved ``"__transport__"`` key,
        added to ``payloads`` in place), so a restore rewinds the
        receiver to the state the snapshots describe, and the commit
        truncates the replay buffers toward the PE.

        Args:
            pe: The captured PE.
            payloads: Operator full name -> restore payload.
            commit_fault: Tears this commit (recorded, never committed)
                when it returns True.
            **stats: :meth:`record`'s keyword-only counters.

        Returns:
            The recorded epoch; ``committed`` tells commit from torn.
        """
        job_id, pe_id = pe.job.job_id, pe.pe_id
        wm_payload = pe.transport.checkpoint_watermarks(pe_id)
        if wm_payload is not None:
            payloads["__transport__"] = wm_payload
        entry = self.record(job_id, pe_id, payloads, pe.kernel.now, **stats)
        if commit_fault is not None and commit_fault(pe):
            return entry
        self.commit(job_id, pe_id, entry.epoch)
        if wm_payload is not None:
            floor = self.committed_watermark_floor(job_id, pe_id)
            pe.transport.on_epoch_committed(pe_id, floor or {})
        return entry

    def commit(self, job_id: str, pe_id: str, epoch: int) -> CheckpointEpoch:
        """Mark a recorded epoch committed and apply retention.

        Retention keeps the newest ``retention`` committed epochs; older
        committed epochs and torn epochs older than the newest commit are
        dropped.

        Args:
            job_id: Owning job.
            pe_id: The checkpointed PE.
            epoch: Epoch number returned by :meth:`record`.

        Returns:
            The now-committed epoch entry.

        Raises:
            KeyError: No such recorded epoch.
        """
        chain = self._chains.get((job_id, pe_id), [])
        for entry in chain:
            if entry.epoch == epoch:
                entry.committed = True
                self._trim(job_id, pe_id)
                return entry
        raise KeyError(f"no recorded epoch {epoch} for ({job_id}, {pe_id})")

    def _trim(self, job_id: str, pe_id: str) -> None:
        chain = self._chains.get((job_id, pe_id), [])
        committed = [e for e in chain if e.committed]
        if not committed:
            return
        # compare by epoch number (globally unique) — dataclass equality
        # would deep-compare whole payload dicts on every commit
        keep = {e.epoch for e in committed[-self.retention:]}
        newest_commit = committed[-1].epoch
        self._chains[(job_id, pe_id)] = [
            e
            for e in chain
            if (e.committed and e.epoch in keep)
            or (not e.committed and e.epoch > newest_commit)
        ]

    # -- read path --------------------------------------------------------------

    def latest_committed(self, job_id: str, pe_id: str) -> Optional[CheckpointEpoch]:
        """Return the newest committed epoch of one PE (never a torn one).

        Args:
            job_id: Owning job.
            pe_id: The PE to look up.

        Returns:
            The newest committed :class:`CheckpointEpoch`, or None.
        """
        chain = self._chains.get((job_id, pe_id), [])
        for entry in reversed(chain):
            if entry.committed:
                return entry
        return None

    def latest(self, job_id: str, pe_id: str) -> Optional[CheckpointEpoch]:
        """Return the newest recorded epoch, committed or torn.

        Args:
            job_id: Owning job.
            pe_id: The PE to look up.

        Returns:
            The newest :class:`CheckpointEpoch`, or None.
        """
        chain = self._chains.get((job_id, pe_id), [])
        return chain[-1] if chain else None

    def committed_watermark_floor(
        self, job_id: str, pe_id: str
    ) -> Optional[Dict[str, int]]:
        """Return the *oldest* retained committed epoch's link watermarks.

        Exactly-once transport persists per-link delivery watermarks into
        each checkpoint epoch under the reserved ``"__transport__"``
        payload key.  Replay buffers may only be truncated up to the
        oldest retained committed epoch — a torn newest commit makes
        recovery fall back that far — so this returns that epoch's
        ``{src_key: watermark}`` map.

        Args:
            job_id: Owning job.
            pe_id: The PE whose floor is requested.

        Returns:
            The oldest retained committed epoch's watermark map, or None
            when no committed epoch carries transport watermarks.
        """
        for entry in self._chains.get((job_id, pe_id), []):
            if entry.committed:
                payload = entry.payloads.get("__transport__")
                if payload is None:
                    return None
                return dict(payload.get("watermarks", {}))
        return None

    def epochs_of(self, job_id: str, pe_id: str) -> List[CheckpointEpoch]:
        """Return every retained epoch of one PE, oldest first.

        Args:
            job_id: Owning job.
            pe_id: The PE to look up.

        Returns:
            The retained epochs (committed and torn), oldest first.
        """
        return list(self._chains.get((job_id, pe_id), []))

    def all_chains(self) -> Dict[Tuple[str, str], List[CheckpointEpoch]]:
        """Every retained epoch chain, keyed by ``(job_id, pe_id)``.

        Returns:
            A detached mapping of shallow chain copies — the view the
            fuzzer's epoch-monotonicity oracle walks.
        """
        return {key: list(chain) for key, chain in self._chains.items()}

    def job_status(self, job_id: str) -> Dict[str, CheckpointEpoch]:
        """Return each of a job's PEs' newest committed epoch.

        Args:
            job_id: The job to summarize.

        Returns:
            ``pe_id -> newest committed epoch`` (PEs without a committed
            epoch are omitted).
        """
        status: Dict[str, CheckpointEpoch] = {}
        for (jid, pe_id), _chain in self._chains.items():
            if jid != job_id:
                continue
            latest = self.latest_committed(job_id, pe_id)
            if latest is not None:
                status[pe_id] = latest
        return status

    # -- lifecycle --------------------------------------------------------------

    def drop_pe(self, job_id: str, pe_id: str) -> None:
        """Forget every epoch of one PE gone for good (scale-in, cancellation).

        Args:
            job_id: Owning job.
            pe_id: The PE whose epochs are discarded.
        """
        self._chains.pop((job_id, pe_id), None)

    def __repr__(self) -> str:
        """Return a short debugging representation."""
        return (
            f"CheckpointStore({len(self._chains)} chains, "
            f"epoch={self.epochs.current}, retention={self.retention})"
        )
