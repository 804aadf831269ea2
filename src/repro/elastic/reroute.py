"""Masking a parallel region's crashed channels on the splitter, and back.

One decision is hidden here: *which channels of a region are masked*.

:meth:`ChannelRerouter.mask` (``pe_failure``) records the crashed PE's
channels as masked and tells the splitter: a round-robin region skips
them, a partitioned one parks their keyed tuples.
:meth:`ChannelRerouter.unmask` (``pe_restart``) lets the channels rejoin
once their PE runs again; the splitter releases the parked tuples behind
the replay the restart already put on the link.  Keyed state never
moves here: a key has one owner channel, and a crashed owner rebuilds its
state from its own epoch (Fries' rule: a routing change is consistent
only at a state boundary, and a crashed channel has none until it
restarts).

The rerouter's mask set is the single authority: the splitter's own set
is a copy, sent again when the splitter's PE restarts, each channel with
its mask's token and the splitter's stream position at the mask, so the
restarted splitter keeps only its epoch's lanes of the same masks and
its replay parks what the dead one had parked.  A channel that crashes
while the splitter is down is recorded all the same, with no position
(the dead splitter parked nothing for it), so that re-send covers it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.runtime.events import RuntimeEvents
from repro.runtime.job import Job, JobState
from repro.runtime.pe import PERuntime, PEState
from repro.sim.kernel import Kernel
from repro.spl.parallel import ParallelRegionPlan

#: a masked channel's (splitter position at the mask or None, mask token)
Mask = Tuple[Optional[int], int]


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


class ChannelRerouter:
    """Masks crashed channels on their region's splitter and unmasks them
    on restart."""

    def __init__(self, kernel: Kernel, events: RuntimeEvents) -> None:
        """Subscribe to ``pe_failure`` / ``pe_restart`` on ``events``."""
        self.kernel = kernel
        self.events = events
        #: channel mask/unmask records (crashed-channel rerouting)
        self.reroutes: List[ChannelReroute] = []
        #: (job_id, region) -> channels currently masked, each with the
        #: splitter's stream position at its mask (None: splitter was
        #: down) and a token per mask.  A PE restart only unmasks (and
        #: reports) channels found here, so a graceful stop_pe +
        #: restart_pe never emits phantom reroutes.
        self._masked: Dict[Tuple[str, str], Dict[int, Mask]] = {}
        self._tokens = itertools.count(1)
        events.subscribe(pe_failure=self.mask, pe_restart=self.unmask)

    def _masked_of(self, job: Job, plan: ParallelRegionPlan) -> Dict[int, Mask]:
        """The live mask set of one region (mutate it in place)."""
        return self._masked.setdefault((job.job_id, plan.name), {})

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

    def mask(self, pe: PERuntime, reason: str, detection_ts: float) -> None:
        """``pe_failure`` event: ``pe`` crashed — mask its channels.

        The mask is recorded even while the splitter is down: the
        splitter's restart re-sends the whole set (:meth:`unmask`).
        """
        job = pe.job
        if job.state is not JobState.RUNNING:
            return
        for plan in job.compiled.parallel_regions.values():
            masked = self._masked_of(job, plan)
            channels = [c for c in self._channels_of(plan, pe) if c not in masked]
            if not channels:
                continue
            since, token = None, next(self._tokens)
            splitter_pe = self._splitter_pe(job, plan)
            if splitter_pe is not None:
                since = splitter_pe.operators[plan.splitter].arrived
                for channel in channels:
                    splitter_pe.send_control(
                        plan.splitter, "maskChannel", {"channel": channel, "mask": token}
                    )
            masked.update(dict.fromkeys(channels, (since, token)))
            self._publish(job, plan, pe, channels, reason, masked=True)

    def unmask(self, pe: PERuntime) -> None:
        """``pe_restart`` event: ``pe`` is back — its channels rejoin.

        A restarted splitter holds its epoch's lanes at most: it is first
        sent the region's mask set again, and channels that came back
        while it was down (and so missed their unmask) rejoin now — the
        splitter releases them once its replay is through.
        """
        job = pe.job
        if job.state is not JobState.RUNNING:
            return
        for plan in job.compiled.parallel_regions.values():
            rejoining = [pe]
            if self._splitter_pe(job, plan) is pe:
                pe.send_control(
                    plan.splitter, "remask", {"masked": dict(self._masked_of(job, plan))}
                )
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
        for channel in channels:
            splitter_pe.send_control(plan.splitter, "unmaskChannel", {"channel": channel})
            del masked[channel]
        self._publish(job, plan, pe, channels, "restart_pe", masked=False)

    def _publish(
        self,
        job: Job,
        plan: ParallelRegionPlan,
        pe: PERuntime,
        channels: List[int],
        reason: str,
        **fields: bool,
    ) -> None:
        """Record and publish one :class:`ChannelReroute` per channel.

        ``fields`` is the record's ``masked`` flag.
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
            self.reroutes.append(record)
            self.events.publish("reroute", record)
