"""Routing a parallel region around crashed channels, and back.

One decision is hidden here: *which channels of a region are masked, and
what happens to keyed state when one leaves or rejoins the ring*.

:meth:`ChannelRerouter.mask` (``pe_failure``) takes the crashed PE's
channels out of the splitter's hash ring / round-robin rotation and, for
a partitioned region with a committed checkpoint, *seeds* the detour
channels with the dead channel's last committed keyed state, so rerouted
keys continue from the checkpoint.  :meth:`ChannelRerouter.unmask`
(``pe_restart``) *reclaims* the detour-accrued keyed state onto the
restarted owner — it is the freshest continuation of those keys, so it
supersedes whatever rehydration restored — and lets the channels rejoin.

The rerouter's mask set is the single authority: the splitter's own set
is a copy, sent again when the splitter's PE restarts.  Both state moves
go through :class:`~repro.elastic.migration.KeyedMover`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.checkpoint.store import CheckpointStore
from repro.elastic.migration import (
    KeyedMover,
    Parcel,
    count_keys,
    detour_at,
    entries_bytes,
    migrates_keyed,
    owner_at,
)
from repro.runtime.events import RuntimeEvents
from repro.runtime.job import Job, JobState
from repro.runtime.pe import PERuntime, PEState
from repro.sim.kernel import Kernel
from repro.spl.parallel import ParallelRegionPlan


@dataclass
class ChannelReroute:
    """A splitter mask/unmask issued because a channel's PE crashed or
    finished restarting."""

    job_id: str
    region: str
    channel: int
    masked: bool  #: True: channel taken out of the ring; False: restored
    reason: str
    width: int
    pe_id: str
    time: float
    #: on unmask: detour keyed entries that could not be reclaimed (their
    #: owner operator was not live) and were dropped instead
    purged_keys: int = 0
    #: on unmask: detour keyed entries returned to the restarted channel
    reclaimed_keys: int = 0
    #: on mask: keyed entries installed on the detour channels from the
    #: dead channel's last committed checkpoint epoch
    seeded_keys: int = 0


@dataclass
class StateReclaim:
    """Keyed state returned to a channel when it rejoined the ring.

    Produced at unmask time for partitioned regions with migration
    enabled: every detour channel's entries whose owner is the unmasked
    channel are extracted and installed back on the (just restarted)
    owner.  ``epoch`` is drawn from the same clock as checkpoint commits
    and rescale epochs, so reclaims order totally with both.
    """

    job_id: str
    region: str
    channels: Tuple[int, ...]
    pe_id: str
    keys_reclaimed: int
    keys_purged: int
    bytes_reclaimed: int
    epoch: int
    time: float


class ChannelRerouter:
    """Masks crashed channels on their region's splitter and unmasks them
    on restart, moving keyed state with the routing."""

    def __init__(
        self,
        kernel: Kernel,
        events: RuntimeEvents,
        checkpoint_store: CheckpointStore,
    ) -> None:
        """Subscribe to ``pe_failure`` / ``pe_restart`` on ``events``.

        ``checkpoint_store`` holds the committed epochs detours are
        seeded from, and the clock that stamps reclaims.
        """
        self.kernel = kernel
        self.events = events
        self.checkpoint_store = checkpoint_store
        #: one transactional state-epoch clock for reconfiguration and
        #: fault tolerance (Fries-style): rescale, reclaim and checkpoint
        #: epochs are totally ordered
        self.epochs = checkpoint_store.epochs
        #: channel mask/unmask records (crashed-channel rerouting)
        self.reroutes: List[ChannelReroute] = []
        #: unmask-time reclaim records, newest last
        self.reclaims: List[StateReclaim] = []
        #: (job_id, region) -> channels currently masked.  A PE restart
        #: only unmasks (and reports) channels found here, so a graceful
        #: stop_pe + restart_pe never emits phantom reroutes.
        self._masked: Dict[Tuple[str, str], Set[int]] = {}
        events.subscribe(pe_failure=self.mask, pe_restart=self.unmask)

    def _masked_of(self, job: Job, plan: ParallelRegionPlan) -> Set[int]:
        """The live mask set of one region (mutate it in place)."""
        return self._masked.setdefault((job.job_id, plan.name), set())

    @staticmethod
    def _splitter_pe(job: Job, plan: ParallelRegionPlan) -> Optional[PERuntime]:
        """The region's splitter PE, or None while it cannot take commands."""
        pe = job.pe_of_operator(plan.splitter)
        return pe if pe.state is PEState.RUNNING else None

    @staticmethod
    def _channels_of(plan: ParallelRegionPlan, pe: PERuntime) -> List[int]:
        """The region's channels with an operator on ``pe``, ascending."""
        channels = {plan.channel_of(name) for name in pe.spec.operators}
        return sorted(channels - {None})

    def mask(self, pe: PERuntime, reason: str) -> None:
        """``pe_failure`` event: ``pe`` crashed — route around its channels.

        Traffic flows around the crash instead of into it until
        ``restart_pe`` completes and :meth:`unmask` runs.
        """
        job = pe.job
        if job.state is not JobState.RUNNING:
            return
        for plan in job.compiled.parallel_regions.values():
            masked = self._masked_of(job, plan)
            channels = [c for c in self._channels_of(plan, pe) if c not in masked]
            splitter_pe = self._splitter_pe(job, plan)
            if not channels or splitter_pe is None:
                continue
            for channel in channels:
                splitter_pe.send_control(plan.splitter, "maskChannel", {"channel": channel})
            masked.update(channels)
            # with the dead channels out of the ring, rerouted keys
            # continue from the crashed PE's checkpoint, not from scratch
            seeded = self._seed(job, plan, pe, set(channels))
            self._publish(job, plan, pe, channels, reason, masked=True, seeded_keys=seeded)

    def unmask(self, pe: PERuntime) -> None:
        """``pe_restart`` event: ``pe`` is back — its channels rejoin.

        A restarted splitter is a fresh instance with an empty mask: it is
        first sent the region's mask set again, and channels that came
        back while it was down (and so missed their unmask) rejoin now.
        """
        job = pe.job
        if job.state is not JobState.RUNNING:
            return
        for plan in job.compiled.parallel_regions.values():
            rejoining = [pe]
            if self._splitter_pe(job, plan) is pe:
                for channel in sorted(self._masked_of(job, plan)):
                    pe.send_control(plan.splitter, "maskChannel", {"channel": channel})
                rejoining = list(job.pes)
            for candidate in rejoining:
                self._rejoin(job, plan, candidate)

    def _rejoin(self, job: Job, plan: ParallelRegionPlan, pe: PERuntime) -> None:
        """Unmask the channels of a running ``pe`` that are found masked."""
        masked = self._masked_of(job, plan)
        splitter_pe = self._splitter_pe(job, plan)
        # only channels found masked rejoin
        channels = [c for c in self._channels_of(plan, pe) if c in masked]
        if not channels or splitter_pe is None or pe.state is not PEState.RUNNING:
            return
        reclaimed, purged = self._reclaim(job, plan, pe, channels)
        for channel in channels:
            splitter_pe.send_control(plan.splitter, "unmaskChannel", {"channel": channel})
        masked.difference_update(channels)
        # Channels still masked now detour onto the rejoined one, but
        # their mask-time seeding may have found no live channel to
        # install on (every channel was down at once).  Seed them before
        # any traffic flows, never over keys the detour holds: without
        # this, their eventual reclaim overwrites rehydrated state with
        # base-less detour accruals.
        seeded = 0
        for dead in sorted(masked):
            dead_pe = job.pe_of_operator(plan.channel_ops[dead][0])
            seeded += self._seed(job, plan, dead_pe, {dead}, only_missing=True)
        self._publish(
            job, plan, pe, channels, "restart_pe",
            masked=False, purged_keys=purged, reclaimed_keys=reclaimed, seeded_keys=seeded,
        )

    def _publish(
        self,
        job: Job,
        plan: ParallelRegionPlan,
        pe: PERuntime,
        channels: List[int],
        reason: str,
        **fields: int,
    ) -> None:
        """Record and publish one :class:`ChannelReroute` per channel.

        ``fields`` are the record's ``masked`` flag and key counts.  The
        reclaim / seed ran once for the whole channel set: the counts go
        on the first record only, so summing over events is accurate.
        """
        for channel in channels:
            record = ChannelReroute(
                job_id=job.job_id,
                region=plan.name,
                channel=channel,
                reason=reason,
                width=plan.width,
                pe_id=pe.pe_id,
                time=self.kernel.now,
                **fields,
            )
            fields = {"masked": record.masked}
            self.reroutes.append(record)
            self.events.publish("reroute", record)

    def _reclaim(
        self, job: Job, plan: ParallelRegionPlan, pe: PERuntime, channels: List[int]
    ) -> Tuple[int, int]:
        """Move detour-accrued keyed entries back to their owner channels.

        Every entry held by another channel whose key is owned by one of
        the rejoining ``channels`` is taken and placed on its owner;
        incoming entries win over rehydrated ones.  Entries whose owner
        operator is not live are dropped and counted as purged.  A
        :class:`StateReclaim` is recorded when anything moved.

        Returns:
            ``(keys_reclaimed, keys_purged)`` — zero for regions without
            keyed ownership or with migration disabled.
        """
        if not migrates_keyed(plan):
            return 0, 0
        mover, owner = KeyedMover(job, plan), owner_at(plan.width)
        placed: List[Parcel] = []
        unplaced: List[Parcel] = []
        for src in range(len(plan.channel_ops)):
            if src in channels:
                continue
            for parcel in mover.take(src, lambda key: owner(key) in channels):
                home, homeless = mover.place(parcel, owner)
                placed += home
                unplaced += homeless
        reclaimed, purged = count_keys(placed), count_keys(unplaced)
        if reclaimed or purged:
            record = StateReclaim(
                job_id=job.job_id,
                region=plan.name,
                channels=tuple(channels),
                pe_id=pe.pe_id,
                keys_reclaimed=reclaimed,
                keys_purged=purged,
                bytes_reclaimed=sum(entries_bytes(p.entries) for p in placed),
                epoch=self.epochs.next(),
                time=self.kernel.now,
            )
            self.reclaims.append(record)
            self.events.publish("reclaim", record)
        return reclaimed, purged

    def _seed(
        self,
        job: Job,
        plan: ParallelRegionPlan,
        dead_pe: PERuntime,
        channels: Set[int],
        only_missing: bool = False,
    ) -> int:
        """Install a dead channel's checkpointed keyed state on its detours.

        Detached copies of the entries ``dead_pe``'s last *committed* epoch
        holds for keys owned by the masked ``channels`` are placed where
        the mask set now detours each key, so per-key computations
        continue from the checkpoint during the outage; :meth:`_reclaim`
        brings them home at unmask.  A detour that is not live (every
        channel masked) is skipped.  ``only_missing`` (the deferred seeding
        at unmask) never clobbers live detour accruals or an earlier seed.

        Returns:
            Number of keyed entries installed (0 without a committed
            epoch or keyed ownership).
        """
        if not migrates_keyed(plan):
            return 0
        entry = self.checkpoint_store.latest_committed(job.job_id, dead_pe.pe_id)
        if entry is None:
            return 0
        mover, owner = KeyedMover(job, plan), owner_at(plan.width)
        detour = detour_at(plan.width, self._masked_of(job, plan))
        seeded = 0
        for op_name, payload in entry.payloads.items():
            channel = plan.channel_of(op_name)
            if channel is None:
                continue
            position = plan.channel_ops[channel].index(op_name)
            for state_name, entries in payload.get("store", {}).get("keyed", {}).items():
                for owned_by, bucket in mover.split(entries, owner).items():
                    if owned_by not in channels:
                        continue  # not a key the mask detours
                    seeds = Parcel(position, state_name, owned_by, copy.deepcopy(bucket))
                    placed, _ = mover.place(seeds, detour, only_missing)
                    seeded += count_keys(placed)
        return seeded
