"""Keyed-state movement for elastic regions: one mover, and the rescale's use of it.

One decision is hidden here: *which channel holds a key, and how its
entries get onto or off the live operator at the same chain position*.
:class:`KeyedMover` is the only code in :mod:`repro.elastic` that calls
:meth:`KeyedState.extract_partition <repro.spl.state.KeyedState.extract_partition>`
(:meth:`~KeyedMover.take`) or :meth:`KeyedState.install
<repro.spl.state.KeyedState.install>` (:meth:`~KeyedMover.place`).  Every
caller states only its policy — the ownership function (:func:`owner_at`,
or a constant origin channel for a rollback) and what an unplaced bucket
means (``keys_lost``, skip); the table is in ``docs/architecture.md``,
"Elastic regions".  The only caller is :class:`RegionMigration` below (a
rescale's state phase): keyed state moves during a rescale and at no
other time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CompilationError, UnknownPEError
from repro.runtime.job import Job
from repro.runtime.pe import PEState
from repro.spl.library import stable_channel_of
from repro.spl.operators import Operator
from repro.spl.parallel import ParallelRegionPlan
from repro.spl.state import estimate_value_size


@dataclass
class StateMigration:
    """What the migration phase of one rescale moved (or rolled back)."""

    region: str
    old_width: int
    new_width: int
    keys_moved: int = 0
    bytes_moved: int = 0
    #: (src channel, dst channel) -> keyed entries moved along that edge
    moves: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: channels whose PE was down at extraction time (their state was
    #: already lost to the crash; nothing could be migrated off them)
    skipped_channels: List[int] = field(default_factory=list)
    #: keyed entries whose *new* owner channel was down at install time —
    #: dropped with the crash semantics of the dead channel, not treated
    #: as a rescale failure
    keys_lost: int = 0
    #: non-keyed (global) states dropped with removed channels — global
    #: state cannot be re-partitioned, mirroring the paper's no-checkpoint
    #: stance for anything that is not keyed (and not merged)
    dropped_global_states: int = 0
    #: global states folded into a survivor via the region's user-defined
    #: ``global_merge`` hook instead of being dropped
    global_states_merged: int = 0
    #: True when a failed rewire reinstalled the partitions at the source
    rolled_back: bool = False


@dataclass
class Parcel:
    """Entries of one keyed state at one chain position, off or on a channel."""

    position: int
    state_name: str
    #: the channel the entries were taken from, are headed to, or sit on
    channel: int
    entries: Dict[Any, Any]
    #: the channel the entries were first taken from (rollback target)
    origin: int = -1


def migrates_keyed(plan: ParallelRegionPlan) -> bool:
    """Whether keyed state follows its keys: partitioned, migration enabled."""
    return plan.partition_by is not None and plan.migrate_state


def owner_at(width: int) -> Callable[[Any], int]:
    """The ownership function at ``width``: each key's ``hash(key) % width`` channel."""
    return lambda key: stable_channel_of(key, width)


class KeyedMover:
    """Takes keyed entries off, and places them on, one region's channels."""

    def __init__(self, job: Job, plan: ParallelRegionPlan) -> None:
        """Bind the mover to one region (``plan`` is read live across a rewire)."""
        self.job = job
        self.plan = plan

    def operator(self, channel: int, position: int) -> Optional[Operator]:
        """The live operator at chain ``position`` of ``channel``.

        None when the channel no longer exists, its PE is gone or not
        running, or it has no instance.
        """
        if channel >= len(self.plan.channel_ops):
            return None
        name = self.plan.channel_ops[channel][position]
        try:
            pe = self.job.pe_of_operator(name)
        except (CompilationError, UnknownPEError):
            return None
        return pe.operators.get(name) if pe.state is PEState.RUNNING else None

    @staticmethod
    def split(
        entries: Dict[Any, Any], channel_of: Callable[[Any], int]
    ) -> Dict[int, Dict[Any, Any]]:
        """Bucket entries by ``channel_of(key)``, channels in first-seen order."""
        buckets: Dict[int, Dict[Any, Any]] = {}
        for key, value in entries.items():
            buckets.setdefault(channel_of(key), {})[key] = value
        return buckets

    def take(
        self,
        channel: int,
        wanted: Callable[[Any], bool],
        position: Optional[int] = None,
        state_name: Optional[str] = None,
    ) -> List[Parcel]:
        """Remove the entries whose key is ``wanted`` from a channel.

        The caller owns them exclusively until it places them again.
        Positions whose operator is not live hold nothing and are skipped.

        Args:
            channel: Channel to take from (its ``origin`` from now on).
            wanted: Key predicate selecting the entries to remove.
            position: Restrict to one chain position (default: all).
            state_name: Restrict to one keyed state (default: all).

        Returns:
            One parcel per (position, keyed state) that gave up entries.
        """
        taken: List[Parcel] = []
        for at in range(len(self.plan.chain)) if position is None else (position,):
            operator = self.operator(channel, at)
            if operator is None:
                continue
            for name, keyed in operator.state.keyed_states().items():
                if state_name is not None and name != state_name:
                    continue
                entries = keyed.extract_partition(wanted)
                if entries:
                    taken.append(Parcel(at, name, channel, entries, origin=channel))
        return taken

    def place(
        self, parcel: Parcel, channel_of: Callable[[Any], int]
    ) -> Tuple[List[Parcel], List[Parcel]]:
        """Install a parcel's entries on the channels that own them.

        Each ``channel_of(key)`` bucket goes onto the live operator at the
        parcel's chain position of that channel; incoming entries win.

        Args:
            parcel: The entries to place (its ``channel`` is ignored).
            channel_of: Ownership function ``key -> channel``.

        Returns:
            ``(placed, unplaced)``, one parcel per bucket, carrying the
            bucket's channel and the parcel's origin; a bucket is unplaced
            when its channel has no live operator.
        """
        placed: List[Parcel] = []
        unplaced: List[Parcel] = []
        for channel, bucket in self.split(parcel.entries, channel_of).items():
            operator = self.operator(channel, parcel.position)
            if operator is None:
                unplaced.append(replace(parcel, channel=channel, entries=bucket))
                continue
            operator.state.keyed(parcel.state_name).install(bucket)
            placed.append(replace(parcel, channel=channel, entries=bucket))
        return placed, unplaced


def _has_content(value: Any) -> bool:
    """Whether dropping this global value loses application data.

    Default-initialized states (empty windows) are the fresh-instance
    baseline, and bare numbers are treated as channel-local bookkeeping
    (arrival-seq counters, cursors) — counting either as dropped would
    make every shrink of a region containing a Join or Dedup report
    phantom state loss on a loss-free rescale.  Only non-empty containers
    and other rich objects count.
    """
    if value is None or isinstance(value, (bool, int, float)):
        return False
    if isinstance(value, (str, bytes, list, tuple, set, frozenset, dict)):
        return len(value) > 0
    return True


class RegionMigration:
    """The state phase of one rescale, around the rewire.

    :meth:`extract` runs after the drain barrier (the region is empty, so
    state is stable) and *before* any graph or PE surgery (doomed
    channels' operator instances are still alive); :meth:`place_extracted`
    and :meth:`merge_globals` run after the rewire, while the splitter is
    still quiesced; :meth:`rollback` returns everything to its source
    channel when the rewire fails.  Between extract and install the
    entries are owned by this object alone.
    """

    def __init__(self, job: Job, plan: ParallelRegionPlan, new_width: int) -> None:
        """Start the state phase of a rescale of ``plan`` to ``new_width``."""
        self.plan = plan
        self.record = StateMigration(plan.name, plan.width, new_width)
        self.mover = KeyedMover(job, plan)
        self._extracted: List[Parcel] = []
        self._installed: List[Parcel] = []
        self._lost: List[Parcel] = []
        #: captured doomed-channel global states:
        #: (chain position, src channel, state name, detached value copy)
        self._globals: List[Tuple[int, int, str, Any]] = []

    def extract(self, keyed: bool) -> None:
        """Pull every keyed entry off its channel when ownership changes.

        A doomed channel (index >= the new width) gives up all its
        entries.  Its non-empty global states are captured as detached
        copies for :meth:`merge_globals` when the region declares a
        ``global_merge`` hook, and counted as dropped otherwise.

        Args:
            keyed: False skips the keyed extraction — regions without
                keyed ownership whose shrink still wants the global merge.
        """
        record, mover, new_width = self.record, self.mover, self.record.new_width
        owner = owner_at(new_width)
        for src, ops in enumerate(self.plan.channel_ops):
            doomed = src >= new_width
            operators = [mover.operator(src, position) for position in range(len(ops))]
            if None in operators:
                # a crashed channel's state died with it; nothing to move
                record.skipped_channels.append(src)
            if keyed:
                for parcel in mover.take(src, lambda key: doomed or owner(key) != src):
                    self._extracted.append(parcel)
                    record.keys_moved += len(parcel.entries)
                    record.bytes_moved += sum(
                        estimate_value_size(k) + estimate_value_size(v)
                        for k, v in parcel.entries.items()
                    )
                    for dst, bucket in mover.split(parcel.entries, owner).items():
                        edge = (src, dst)
                        record.moves[edge] = record.moves.get(edge, 0) + len(bucket)
            if not doomed:
                continue
            for position, operator in enumerate(operators):
                if operator is None:
                    continue
                for name, state in operator.state.global_states().items():
                    if not _has_content(state.value):
                        continue
                    if self.plan.global_merge is not None:
                        self._globals.append((position, src, name, state.snapshot()))
                    else:
                        record.dropped_global_states += 1

    def place_extracted(self) -> None:
        """Install the extracted entries on their new owner channels.

        ``plan.channel_ops`` is the *new* layout by now and freshly added
        channels have live operators.  A new owner that is down absorbs
        its entries the way the crash itself would have: they are counted
        lost, but kept so a rollback can still return them to their
        (alive) source channel.
        """
        owner = owner_at(self.plan.width)
        while self._extracted:
            placed, lost = self.mover.place(self._extracted[0], owner)
            self.record.keys_lost += sum(len(parcel.entries) for parcel in lost)
            self._lost += lost
            self._installed += placed
            del self._extracted[0]  # only now: a failure above leaves an exact split

    def merge_globals(self) -> None:
        """Fold captured doomed-channel global states into their survivors.

        The survivor of doomed channel ``c`` is ``c % width`` at the new
        width (stable and deterministic), and the region's
        ``global_merge(state_name, survivor_value, doomed_value)`` hook
        decides the folded value.  A survivor that is down absorbs the
        loss the way the crash itself would: dropped and counted.
        """
        for position, src, name, value in self._globals:
            survivor = self.mover.operator(src % self.plan.width, position)
            if survivor is None:
                self.record.dropped_global_states += 1
                continue
            state = survivor.state.global_(name)
            state.set(self.plan.global_merge(name, state.value, value))
            self.record.global_states_merged += 1

    def rollback(self) -> None:
        """Return every extracted entry to the channel it came from.

        Entries already installed on a new owner are pulled back out
        first; lost ones never reached their dead destination, so the
        (alive) source still owns them at the restored old width.  A
        source channel that no longer exists cannot take its entries back.
        """
        returning: List[Parcel] = []
        for parcel in self._installed:
            pulled = self.mover.take(
                parcel.channel,
                parcel.entries.__contains__,
                parcel.position,
                parcel.state_name,
            )
            returning += [replace(p, origin=parcel.origin) for p in pulled]
        self.record.keys_lost -= sum(len(parcel.entries) for parcel in self._lost)
        returning += self._extracted + self._lost
        for parcel in returning:
            self.mover.place(parcel, lambda key: parcel.origin)
        if returning:
            self.record.rolled_back = True
