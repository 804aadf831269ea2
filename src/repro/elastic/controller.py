"""The elastic re-parallelization protocol.

Changing the channel width of a running parallel region must not lose,
duplicate, or reorder tuples.  The controller achieves this with the
epoch-aligned barrier protocol of Fries-style live reconfiguration
(Wang et al., PAPERS.md), mapped onto this repo's epoch machinery
(:class:`repro.orca.epochs.MetricEpochCounter` serves as the
reconfiguration epoch clock):

1. **Quiesce** — the region's splitter is told to stop forwarding; new
   arrivals are buffered at the barrier.  Everything the splitter already
   forwarded belongs to the closing epoch.
2. **Drain** — the controller polls until the closing epoch has fully
   flowed out of the region: no tuple in flight on the transport toward
   any channel operator or the merger, no tuple in any channel operator's
   internal buffer, no tuple waiting in the merger's reorder buffer.
3. **Migrate** — for a partitioned region (``partition_by`` set,
   ``migrate_state`` not disabled), keyed operator state moves with the
   routing change: every channel operator's keyed states are scanned for
   entries whose ``hash(key) % width'`` owner differs from their current
   channel (on a shrink, the doomed channels contribute *all* their
   entries), the moving partitions are extracted while the region is
   provably empty, and — after the rewire — installed on their new owner
   channels before the splitter resumes.  If the rewire fails, the
   extracted partitions are reinstalled on their source channels, so a
   rolled-back rescale loses no state either.
4. **Rewire** — with the region provably empty, channels are added or
   removed: logical graph surgery (:func:`repro.spl.parallel.resize_region`),
   compiled-plan surgery (PE specs, placement, inter/intra edges), live
   runtime changes (SAM places + starts new channel PEs / stops removed
   ones), and route rebuilds on the surviving PEs.
5. **Resume** — the splitter installs the new width, the epoch counter
   advances, and the tuples buffered at the barrier flush through the new
   routing as the first tuples of the new epoch.

The controller is also the reaction point for crashed channels outside
any rescale: SAM notifies it of PE failures and completed restarts, and
it masks / unmasks the affected channels on the region's splitter so
tuples are rerouted around the dead PE (``reroute`` records are
published on the runtime bus — the ORCA service turns them into
``channel_rerouted`` events).  When a checkpoint store is wired in, the detour channels are
*seeded* with the dead channel's last committed checkpoint at mask time
(rerouted keys continue from the checkpoint instead of from scratch).
At unmask the detour-accrued keyed state is *reclaimed* — extracted from
the detour channels and installed back on the restarted owner
(``state_reclaimed`` records); this replaces the old unmask-time purge
for every partitioned region with migration enabled, store or not (the
detour entries are the freshest continuation of those keys either way).
Scale-in gains a third state phase: a region's user-defined
``global_merge`` hook folds a doomed channel's global state into its
survivor instead of dropping it.  All three phases ride the same
:class:`~repro.spl.state.KeyedState` extraction/install primitives and
the same epoch clock as checkpoint commits (see :mod:`repro.checkpoint`).

Because tuples are only ever *held* (at the splitter) or *delivered*
(downstream) — never discarded — a rescale is tuple-loss-free by
construction; the sequence stamps of an ordered region additionally keep
global order across the barrier.
"""

from __future__ import annotations

import copy
import enum
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.checkpoint.store import CheckpointStore
from repro.errors import ElasticError
from repro.orca.epochs import MetricEpochCounter
from repro.sim.kernel import Kernel
from repro.spl.compiler import CompiledApplication, PESpec
from repro.spl.graph import OperatorSpec
from repro.spl.library import detour_channel_of, stable_channel_of
from repro.spl.parallel import ParallelRegionPlan, resize_region
from repro.spl.state import estimate_value_size
from repro.runtime.events import RuntimeEvents
from repro.runtime.job import Job, JobState
from repro.runtime.pe import PERuntime, PEState
from repro.runtime.transport import Transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.sam import SAM


class RescaleState(enum.Enum):
    """Lifecycle phase of one rescale operation."""

    DRAINING = "draining"
    MIGRATING = "migrating"
    REWIRING = "rewiring"
    COMPLETED = "completed"
    FAILED = "failed"
    NOOP = "noop"


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
    #: dropped with the crash semantics of the dead channel (it restarts
    #: empty anyway), not treated as a rescale failure
    keys_lost: int = 0
    #: keyed entries whose new owner was down but *masked with a live
    #: detour* at install time — installed on each key's detour channel
    #: (where the splitter is already routing that key's traffic) so the
    #: continuation survives; the unmask reclaim brings them home
    keys_detoured: int = 0
    #: non-keyed (global) states dropped with removed channels — global
    #: state cannot be re-partitioned, mirroring the paper's no-checkpoint
    #: stance for anything that is not keyed (and not merged)
    dropped_global_states: int = 0
    #: global states folded into a survivor via the region's user-defined
    #: ``global_merge`` hook instead of being dropped
    global_states_merged: int = 0
    #: True when a failed rewire reinstalled the partitions at the source
    rolled_back: bool = False
    #: wall-clock cost of extract + install (the simulated protocol pays
    #: its latency at the drain barrier; this measures the real state
    #: shuffling work)
    wall_ms: float = 0.0


#: One extracted partition: (chain position, src channel, dst channel,
#: keyed-state name, entries).
_Move = Tuple[int, int, int, str, Dict[Any, Any]]

#: One captured global state: (chain position, src channel, state name,
#: detached value copy).
_GlobalMove = Tuple[int, int, str, Any]


@dataclass(frozen=True)
class BarrierEvent:
    """One timestamped phase transition of the rescale protocol.

    The controller records these for every rescale — ``quiesce`` (the
    splitter stopped forwarding), ``drain_clean`` (the region proved
    empty), ``migrate`` (keyed extraction began), ``rewire`` (graph/PE
    surgery began), ``resume`` (the splitter resumed at the new width,
    ``epoch`` assigned), and ``failed`` — and publishes them as
    ``barrier`` events.  They are the instrumentation tap the chaos
    fuzzer (:mod:`repro.chaos.fuzz`) mines for adversarial step times:
    the nastiest fault interleavings land *exactly at* these instants.
    """

    job_id: str
    region: str
    phase: str
    time: float
    epoch: int = 0


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


@dataclass
class RescaleOperation:
    """One set_channel_width() request and its progress through the protocol."""

    job_id: str
    region: str
    old_width: int
    new_width: int
    state: RescaleState
    started_at: float
    completed_at: Optional[float] = None
    #: reconfiguration epoch assigned when the region resumed
    epoch: int = 0
    #: drain-poll rounds before the barrier was clean
    drain_polls: int = 0
    error: Optional[str] = None
    #: PE ids created / removed by the rewire step
    added_pe_ids: List[str] = field(default_factory=list)
    removed_pe_ids: List[str] = field(default_factory=list)
    #: keyed-state migration performed by this rescale (None: region not
    #: partitioned, migration disabled, or no-op rescale)
    migration: Optional[StateMigration] = None

    @property
    def duration(self) -> float:
        """Seconds from quiesce to resume (0.0 while still in flight)."""
        if self.completed_at is None:
            return 0.0
        return self.completed_at - self.started_at


class ElasticController:
    """Executes live channel-width changes for parallel regions."""

    def __init__(
        self,
        sam: "SAM",
        transport: Transport,
        kernel: Kernel,
        events: RuntimeEvents,
        drain_poll_interval: float = 0.05,
        drain_timeout: float = 60.0,
        epochs: Optional[MetricEpochCounter] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
    ) -> None:
        """Create the controller.

        Args:
            sam: Job/PE registry used to reach runtimes and place channels.
            transport: Tuple transport, polled for in-flight backlog.
            kernel: Simulation kernel the protocol is scheduled on.
            events: Runtime bus; the controller publishes ``barrier``,
                ``reroute``, ``reclaim``, ``rescale`` (every finished
                rescale, COMPLETED or FAILED, whoever initiated it) and
                ``topology`` (the rewired mapping is final), and hears
                ``pe_failure`` / ``pe_restart`` to mask / unmask channels.
            drain_poll_interval: Seconds between drain-barrier polls.
            drain_timeout: Give-up horizon for the drain barrier.
            epochs: Reconfiguration epoch clock; pass the checkpoint
                store's clock to totally order rescales, reclaims, and
                checkpoint commits (one transactional state-epoch
                mechanism).  A private counter is used when omitted.
            checkpoint_store: When provided, masked channels' detours are
                seeded from the dead channel's last committed epoch.
        """
        self.sam = sam
        self.transport = transport
        self.kernel = kernel
        self.events = events
        self.drain_poll_interval = drain_poll_interval
        self.drain_timeout = drain_timeout
        #: reconfiguration epoch clock (shared across all regions — and,
        #: when wired by SystemS, with checkpoint commits: one monotone
        #: logical clock for every state-bearing transition)
        self.epochs = epochs if epochs is not None else MetricEpochCounter()
        #: committed checkpoint epochs, consulted for detour seeding
        self.checkpoint_store = checkpoint_store
        self.history: List[RescaleOperation] = []
        self._active: Dict[Tuple[str, str], RescaleOperation] = {}
        #: channel mask/unmask records (crashed-channel rerouting)
        self.reroutes: List[ChannelReroute] = []
        #: unmask-time reclaim records, newest last
        self.reclaims: List[StateReclaim] = []
        #: timestamped rescale-phase transitions (quiesce / drain_clean /
        #: migrate / rewire / resume / failed), newest last — the barrier
        #: tap the chaos fuzzer targets mutations at
        self.barrier_events: List[BarrierEvent] = []
        #: (job_id, region) -> channels this controller actually masked;
        #: a PE restart only unmasks (and reports) channels found here, so
        #: a graceful stop_pe + restart_pe never emits phantom reroutes
        self._masked_channels: Dict[Tuple[str, str], Set[int]] = {}
        # crashed parallel-region channels are routed around automatically
        events.subscribe(
            pe_failure=self.handle_pe_failure, pe_restart=self.handle_pe_restarted
        )

    def _mark_barrier(
        self, job_id: str, region: str, phase: str, epoch: int = 0
    ) -> None:
        """Record one rescale-phase transition and publish it."""
        event = BarrierEvent(
            job_id=job_id,
            region=region,
            phase=phase,
            time=self.kernel.now,
            epoch=epoch,
        )
        self.barrier_events.append(event)
        self.events.publish("barrier", event)

    # -- public API --------------------------------------------------------------

    def rescale_in_progress(self, job_id: str, region: str) -> bool:
        """Whether a rescale of ``region`` of ``job_id`` is currently active.

        Args:
            job_id: The job owning the region.
            region: The parallel region name.

        Returns:
            True while a set_channel_width() protocol run is in flight.
        """
        return (job_id, region) in self._active

    def active_operations(self) -> List[RescaleOperation]:
        """The rescale operations currently in flight, any job or region.

        Returns:
            In-flight operations sorted by (job id, region) — empty when
            every started rescale has completed or failed (what the
            fuzzer's no-stuck-rescale oracle asserts post-drain).
        """
        return [self._active[key] for key in sorted(self._active)]

    def set_channel_width(
        self,
        job: Union[Job, str],
        region: str,
        new_width: int,
        on_complete: Optional[Callable[[RescaleOperation], None]] = None,
    ) -> RescaleOperation:
        """Start the rescale protocol for one region.

        The protocol itself runs asynchronously on the simulation kernel
        (quiesce now, drain over the following instants, rewire + resume
        when the barrier is clean).

        Args:
            job: The job (or job id) owning the region.
            region: Parallel region name.
            new_width: Desired channel count (within ``[1, max_width]``).
            on_complete: Fires when the region has resumed (state
                COMPLETED) or the protocol gave up (FAILED).

        Returns:
            The tracking :class:`RescaleOperation` (already appended to
            ``history`` for no-op requests).
        """
        if isinstance(job, str):
            job = self.sam.get_job(job)
        plan = job.compiled.parallel_regions.get(region)
        if plan is None:
            raise ElasticError(
                f"job {job.job_id}: no parallel region {region!r} "
                f"(has {sorted(job.compiled.parallel_regions)})"
            )
        if new_width < 1 or new_width > plan.max_width:
            raise ElasticError(
                f"region {region!r}: width {new_width} outside [1, {plan.max_width}]"
            )
        if job.state is not JobState.RUNNING:
            raise ElasticError(f"job {job.job_id} is not running")
        key = (job.job_id, region)
        if key in self._active:
            raise ElasticError(
                f"region {region!r} of job {job.job_id} is already rescaling"
            )
        op = RescaleOperation(
            job_id=job.job_id,
            region=region,
            old_width=plan.width,
            new_width=new_width,
            state=RescaleState.NOOP,
            started_at=self.kernel.now,
        )
        if new_width == plan.width:
            op.completed_at = self.kernel.now
            self.history.append(op)
            return op
        if new_width < plan.width:
            self._check_removable(job, plan, new_width)
        splitter_pe = job.pe_of_operator(plan.splitter)
        if splitter_pe.state is not PEState.RUNNING:
            raise ElasticError(
                f"region {region!r}: splitter PE {splitter_pe.pe_id} is not running"
            )
        self._active[key] = op
        op.state = RescaleState.DRAINING
        splitter_pe.send_control(plan.splitter, "quiesce", {})
        # transport batching: tuples coalescing in open batches must be
        # committed to the wire before the drain barrier starts counting,
        # or the region could be declared empty while tuples sit buffered
        self.transport.flush_open_batches()
        # reliable delivery: retried units waiting out a backoff interval
        # are in flight too — expedite them so the barrier sees them move
        self.transport.expedite_pending()
        self._mark_barrier(job.job_id, region, "quiesce")
        self.kernel.schedule(
            self.drain_poll_interval,
            self._poll_drain,
            job,
            plan,
            op,
            on_complete,
            label=f"elastic-drain-{job.job_id}-{region}",
        )
        return op

    # -- crashed-channel rerouting ------------------------------------------------

    def handle_pe_failure(self, pe: PERuntime, reason: str) -> None:
        """``pe_failure`` event: a PE crashed — mask its parallel-region channels.

        The splitter takes the dead channels out of its hash ring /
        round-robin rotation, so traffic flows around the crash instead of
        into it, until ``restart_pe`` completes and
        :meth:`handle_pe_restarted` unmasks them.  With a checkpoint
        store wired in, the detour channels are seeded from the dead
        channel's last committed epoch.

        Args:
            pe: The crashed PE.
            reason: Crash reason as reported by the host controller.
        """
        self._remask_channels_of(pe, masked=True, reason=reason)

    def handle_pe_restarted(self, pe: PERuntime) -> None:
        """``pe_restart`` event: a PE restart completed — unmask its channels.

        Detour-accrued keyed state is reclaimed onto the restarted
        channels before they rejoin the ring (``state_reclaimed``).

        Args:
            pe: The restarted PE.
        """
        self._remask_channels_of(pe, masked=False, reason="restart_pe")

    def _remask_channels_of(self, pe: PERuntime, masked: bool, reason: str) -> None:
        job = pe.job
        if job.state is not JobState.RUNNING:
            return
        for plan in job.compiled.parallel_regions.values():
            tracked = self._masked_channels.setdefault(
                (job.job_id, plan.name), set()
            )
            channels = sorted(
                {
                    channel
                    for channel in (
                        plan.channel_of(op_name) for op_name in pe.spec.operators
                    )
                    if channel is not None
                }
            )
            if not masked:
                # only channels this controller masked rejoin (a graceful
                # stop_pe + restart_pe must not emit phantom unmasks)
                channels = [c for c in channels if c in tracked]
            else:
                channels = [c for c in channels if c not in tracked]
            if not channels:
                continue
            try:
                splitter_pe = job.pe_of_operator(plan.splitter)
            except Exception:
                continue
            if splitter_pe.state is not PEState.RUNNING:
                continue
            purged = reclaimed = seeded = 0
            if not masked:
                # Return the detour-accrued keyed state to the restarted
                # owner before traffic routes home again: the detour
                # entries are the freshest continuation of those keys
                # (possibly seeded from the owner's checkpoint at mask
                # time), so they supersede whatever rehydration restored.
                reclaimed, purged, bytes_reclaimed = self._reclaim_detour_state(
                    job, plan, set(channels)
                )
                if reclaimed or purged:
                    reclaim = StateReclaim(
                        job_id=job.job_id,
                        region=plan.name,
                        channels=tuple(channels),
                        pe_id=pe.pe_id,
                        keys_reclaimed=reclaimed,
                        keys_purged=purged,
                        bytes_reclaimed=bytes_reclaimed,
                        epoch=self.epochs.next(),
                        time=self.kernel.now,
                    )
                    self.reclaims.append(reclaim)
                    self.events.publish("reclaim", reclaim)
            command = "maskChannel" if masked else "unmaskChannel"
            for channel in channels:
                splitter_pe.send_control(plan.splitter, command, {"channel": channel})
                if masked:
                    tracked.add(channel)
                else:
                    tracked.discard(channel)
            if not masked and tracked:
                # Channels of this region are still masked, and the
                # rejoining channel is now their detour — but their
                # mask-time seeding may have found no live channel to
                # install on (every channel was down at once).  Seed the
                # still-dead channels' committed state onto the now-live
                # detours before any traffic flows, installing only keys
                # the detour does not already hold; without this, the
                # eventual unmask reclaim overwrites rehydrated state
                # with base-less detour accruals (state loss found by
                # the chaos fuzzer's conservation oracle).
                for dead_channel in sorted(tracked):
                    dead_pe = self._channel_pe(job, plan, dead_channel)
                    if dead_pe is None:
                        continue
                    seeded += self._seed_detour_state(
                        job,
                        plan,
                        dead_pe,
                        {dead_channel},
                        splitter_pe,
                        only_missing=True,
                    )
            if masked:
                # With the dead channels now out of the ring, seed the
                # detour channels from the crashed PE's last committed
                # checkpoint epoch so rerouted keys continue from the
                # checkpoint instead of from scratch.
                seeded = self._seed_detour_state(
                    job, plan, pe, set(channels), splitter_pe
                )
            for channel in channels:
                record = ChannelReroute(
                    job_id=job.job_id,
                    region=plan.name,
                    channel=channel,
                    masked=masked,
                    reason=reason,
                    width=plan.width,
                    pe_id=pe.pe_id,
                    time=self.kernel.now,
                    # the reclaim/seed ran once for the whole channel set;
                    # report it on the first record so summing over events
                    # is accurate
                    purged_keys=purged,
                    reclaimed_keys=reclaimed,
                    seeded_keys=seeded,
                )
                purged = reclaimed = seeded = 0
                self.reroutes.append(record)
                self.events.publish("reroute", record)

    @staticmethod
    def _channel_pe(
        job: Job, plan: ParallelRegionPlan, channel: int
    ) -> Optional[PERuntime]:
        """The PE hosting a channel's first operator (None when gone)."""
        ops = plan.channel_ops[channel]
        if not ops:
            return None
        try:
            return job.pe_of_operator(ops[0])
        except Exception:
            return None

    def _reclaim_detour_state(
        self, job: Job, plan: ParallelRegionPlan, channels: Set[int]
    ) -> Tuple[int, int, int]:
        """Move detour-accrued keyed entries back to their owner channels.

        Every entry held by a surviving channel whose key is owned by one
        of the (just restarted) ``channels`` is extracted and installed on
        the owner's operator at the same chain position; incoming entries
        win over rehydrated ones (the detour is the freshest continuation
        of those keys).  Entries whose owner operator is not live are
        dropped and counted.

        Args:
            job: The job owning the region.
            plan: The (partitioned) region plan.
            channels: The channels rejoining the ring.

        Returns:
            ``(keys_reclaimed, keys_purged, bytes_reclaimed)``; all zero
            for regions without keyed ownership (no ``partition_by``) or
            with migration disabled.
        """
        if plan.partition_by is None or not getattr(plan, "migrate_state", True):
            return 0, 0, 0
        reclaimed = purged = bytes_reclaimed = 0
        for src_channel, ops in enumerate(plan.channel_ops):
            if src_channel in channels:
                continue
            for position, op_name in enumerate(ops):
                try:
                    src_pe = job.pe_of_operator(op_name)
                except Exception:
                    continue
                if src_pe.state is not PEState.RUNNING:
                    continue
                operator = src_pe.operators.get(op_name)
                if operator is None or not operator.state.in_use:
                    continue
                for state_name, keyed in operator.state.keyed_states().items():
                    extracted = keyed.extract_partition(
                        lambda key: stable_channel_of(key, plan.width)
                        in channels
                    )
                    if not extracted:
                        continue
                    buckets: Dict[int, Dict[Any, Any]] = {}
                    for key, value in extracted.items():
                        buckets.setdefault(
                            stable_channel_of(key, plan.width), {}
                        )[key] = value
                    for owner, entries in buckets.items():
                        target_name = plan.channel_ops[owner][position]
                        try:
                            target_pe = job.pe_of_operator(target_name)
                        except Exception:
                            purged += len(entries)
                            continue
                        target_op = target_pe.operators.get(target_name)
                        if (
                            target_pe.state is not PEState.RUNNING
                            or target_op is None
                        ):
                            purged += len(entries)
                            continue
                        target_op.state.keyed(state_name).install(entries)
                        reclaimed += len(entries)
                        bytes_reclaimed += sum(
                            estimate_value_size(k) + estimate_value_size(v)
                            for k, v in entries.items()
                        )
        return reclaimed, purged, bytes_reclaimed

    def _seed_detour_state(
        self,
        job: Job,
        plan: ParallelRegionPlan,
        dead_pe: PERuntime,
        channels: Set[int],
        splitter_pe: PERuntime,
        only_missing: bool = False,
    ) -> int:
        """Install a dead channel's checkpointed keyed state on its detours.

        Reads the crashed PE's last *committed* checkpoint epoch and
        installs (detached copies of) its keyed entries on the channels
        the splitter now detours those keys to, so per-key computations
        continue from the checkpoint during the outage.  The entries flow
        home again through :meth:`_reclaim_detour_state` at unmask.

        Args:
            job: The job owning the region.
            plan: The (partitioned) region plan.
            dead_pe: The crashed channel PE whose checkpoint is seeded.
            channels: The channels just masked (or, for deferred seeding,
                the channels still masked while a detour rejoined).
            splitter_pe: The splitter's PE (source of the live mask set).
            only_missing: Install only keys the detour does not already
                hold — the deferred-seeding mode, which must never
                clobber live detour accruals or a mask-time seed.

        Returns:
            Number of keyed entries installed on detour channels (0 when
            no store is wired, no committed epoch exists, or the region
            has no keyed ownership).
        """
        if self.checkpoint_store is None:
            return 0
        if plan.partition_by is None or not getattr(plan, "migrate_state", True):
            return 0
        entry = self.checkpoint_store.latest_committed(job.job_id, dead_pe.pe_id)
        if entry is None:
            return 0
        splitter_op = splitter_pe.operators.get(plan.splitter)
        if splitter_op is None:
            return 0
        masked_set = splitter_op.masked_channels
        seeded = 0
        for op_name, payload in entry.payloads.items():
            channel = plan.channel_of(op_name)
            if channel is None:
                continue
            position = plan.channel_ops[channel].index(op_name)
            for state_name, entries in (
                payload.get("store", {}).get("keyed", {}).items()
            ):
                buckets: Dict[int, Dict[Any, Any]] = {}
                for key, value in entries.items():
                    if stable_channel_of(key, plan.width) not in channels:
                        continue  # not a key the mask detours
                    detour = detour_channel_of(key, plan.width, masked_set)
                    if detour in masked_set:
                        continue  # every channel masked: nowhere to seed
                    buckets.setdefault(detour, {})[key] = copy.deepcopy(value)
                for detour, seed_entries in buckets.items():
                    target_name = plan.channel_ops[detour][position]
                    try:
                        target_pe = job.pe_of_operator(target_name)
                    except Exception:
                        continue
                    target_op = target_pe.operators.get(target_name)
                    if target_pe.state is not PEState.RUNNING or target_op is None:
                        continue
                    target_state = target_op.state.keyed(state_name)
                    if only_missing:
                        seed_entries = {
                            key: value
                            for key, value in seed_entries.items()
                            if key not in target_state
                        }
                        if not seed_entries:
                            continue
                    target_state.install(seed_entries)
                    seeded += len(seed_entries)
        return seeded

    # -- drain barrier -----------------------------------------------------------

    def _check_removable(self, job: Job, plan: ParallelRegionPlan, new_width: int) -> None:
        """Scale-in precondition: doomed channels must own their PEs alone.

        With the default ``manual`` compile strategy this always holds (the
        per-channel partition tags isolate channels); a ``fuse_all`` or
        ``balanced`` compilation may have packed channel operators together
        with foreign operators, in which case removing the channel would
        require evicting live operators from a shared process — refused.
        """
        doomed: Set[str] = {
            name for ops in plan.channel_ops[new_width:] for name in ops
        }
        for name in doomed:
            pe = job.pe_of_operator(name)
            foreign = [o for o in pe.spec.operators if o not in doomed]
            if foreign:
                raise ElasticError(
                    f"cannot remove channel operator {name!r}: its PE also "
                    f"hosts {foreign} (recompile with strategy='manual')"
                )

    def _region_backlog(self, job: Job, plan: ParallelRegionPlan) -> int:
        """Tuples still inside the region: in flight, buffered, or reordering."""
        backlog = 0
        names = plan.all_channel_operators() + [plan.merger]
        for name in names:
            pe = job.pe_of_operator(name)
            if pe.state is not PEState.RUNNING:
                continue  # a crashed channel cannot hold tuples
            operator = pe.operators.get(name)
            n_inputs = operator.n_inputs if operator is not None else 1
            for port in range(n_inputs):
                backlog += self.transport.queue_size(pe.pe_id, name, port)
            if operator is not None:
                backlog += operator.pending_items()
        return backlog

    def _poll_drain(
        self,
        job: Job,
        plan: ParallelRegionPlan,
        op: RescaleOperation,
        on_complete: Optional[Callable[[RescaleOperation], None]],
    ) -> None:
        if job.state is not JobState.RUNNING:
            self._fail(job, plan, op, on_complete, "job left RUNNING during drain")
            return
        op.drain_polls += 1
        # open batches count toward queue_size but would otherwise sit
        # until their linger expires; force them onto the wire so every
        # drain poll measures a region that is actually moving
        self.transport.flush_open_batches()
        self.transport.expedite_pending()
        if self._region_backlog(job, plan) == 0:
            self._mark_barrier(job.job_id, plan.name, "drain_clean")
            self._rewire_and_resume(job, plan, op, on_complete)
            return
        if self.kernel.now - op.started_at > self.drain_timeout:
            self._fail(
                job,
                plan,
                op,
                on_complete,
                f"drain did not complete within {self.drain_timeout}s",
            )
            return
        self.kernel.schedule(
            self.drain_poll_interval,
            self._poll_drain,
            job,
            plan,
            op,
            on_complete,
            label=f"elastic-drain-{job.job_id}-{plan.name}",
        )

    def _fail(
        self,
        job: Job,
        plan: ParallelRegionPlan,
        op: RescaleOperation,
        on_complete: Optional[Callable[[RescaleOperation], None]],
        reason: str,
    ) -> None:
        op.state = RescaleState.FAILED
        op.error = reason
        op.completed_at = self.kernel.now
        self._mark_barrier(op.job_id, op.region, "failed")
        self._active.pop((op.job_id, op.region), None)
        self.history.append(op)
        # Resume the splitter at the old width so the region keeps flowing.
        if job.state is JobState.RUNNING:
            splitter_pe = job.pe_of_operator(plan.splitter)
            if splitter_pe.state is PEState.RUNNING:
                splitter_pe.send_control(plan.splitter, "resume", {})
        # rollback restored the old mapping — still a topology event for
        # subscribers that refreshed mid-protocol
        self.events.publish("topology", job, "rescale_rollback")
        if on_complete is not None:
            on_complete(op)
        self.events.publish("rescale", op)

    # -- state migration -----------------------------------------------------------

    @staticmethod
    def _region_migrates(plan: ParallelRegionPlan) -> bool:
        return plan.partition_by is not None and getattr(
            plan, "migrate_state", True
        )

    def _extract_keyed_partitions(
        self,
        job: Job,
        plan: ParallelRegionPlan,
        new_width: int,
        migration: StateMigration,
        global_moves: Optional[List[_GlobalMove]] = None,
        migrate_keyed: bool = True,
    ) -> List[_Move]:
        """Pull every keyed entry off its channel when ownership changes.

        Runs after the drain barrier (the region is empty, so state is
        stable) and *before* any graph or PE surgery (doomed channels'
        operator instances are still alive).  Extraction removes the
        entries from the source stores: from this point the controller
        owns them exclusively until install or rollback.

        When the region declares a ``global_merge`` hook, the doomed
        channels' non-empty global states are additionally captured (as
        detached copies) into ``global_moves`` for the post-rewire merge
        instead of being counted as dropped.  ``migrate_keyed=False``
        skips the keyed extraction entirely — used for regions without
        keyed ownership (no ``partition_by``) whose shrink still wants
        the global merge.
        """
        moves: List[_Move] = []
        for src_channel, ops in enumerate(plan.channel_ops):
            shrinking = src_channel >= new_width
            for position, op_name in enumerate(ops):
                pe = job.pe_of_operator(op_name)
                if pe.state is not PEState.RUNNING:
                    # a crashed channel's state died with it; nothing to move
                    if src_channel not in migration.skipped_channels:
                        migration.skipped_channels.append(src_channel)
                    continue
                operator = pe.operators.get(op_name)
                if operator is None or not operator.state.in_use:
                    continue
                if migrate_keyed:
                    for state_name, keyed in operator.state.keyed_states().items():
                        extracted = keyed.extract_partition(
                            lambda key: shrinking
                            or stable_channel_of(key, new_width) != src_channel
                        )
                        if not extracted:
                            continue
                        buckets: Dict[int, Dict[Any, Any]] = {}
                        for key, value in extracted.items():
                            buckets.setdefault(
                                stable_channel_of(key, new_width), {}
                            )[key] = value
                        for dst_channel, entries in buckets.items():
                            moves.append(
                                (position, src_channel, dst_channel, state_name, entries)
                            )
                            migration.keys_moved += len(entries)
                            migration.bytes_moved += sum(
                                estimate_value_size(k) + estimate_value_size(v)
                                for k, v in entries.items()
                            )
                            edge = (src_channel, dst_channel)
                            migration.moves[edge] = migration.moves.get(edge, 0) + len(
                                entries
                            )
                if shrinking:
                    for state_name, gs in operator.state.global_states().items():
                        if not self._global_state_has_content(gs.value):
                            continue
                        if plan.global_merge is not None and global_moves is not None:
                            global_moves.append(
                                (position, src_channel, state_name, gs.snapshot())
                            )
                        else:
                            migration.dropped_global_states += 1
        return moves

    def _merge_global_states(
        self,
        job: Job,
        plan: ParallelRegionPlan,
        global_moves: List[_GlobalMove],
        new_width: int,
        migration: StateMigration,
    ) -> None:
        """Fold captured doomed-channel global states into their survivors.

        Runs after the rewire, while the region is still quiesced: the
        survivor of doomed channel ``c`` is ``c % new_width`` (stable and
        deterministic), and the region's ``global_merge(state_name,
        survivor_value, doomed_value)`` hook decides the folded value.  A
        survivor whose PE is down absorbs the loss the way the crash
        itself would: the state is dropped and counted.
        """
        for position, src_channel, state_name, value in global_moves:
            survivor_channel = src_channel % new_width
            target_name = plan.channel_ops[survivor_channel][position]
            try:
                target_pe = job.pe_of_operator(target_name)
            except Exception:
                migration.dropped_global_states += 1
                continue
            target_op = target_pe.operators.get(target_name)
            if target_pe.state is not PEState.RUNNING or target_op is None:
                migration.dropped_global_states += 1
                continue
            gs = target_op.state.global_(state_name)
            gs.set(plan.global_merge(state_name, gs.value, value))
            migration.global_states_merged += 1

    @staticmethod
    def _global_state_has_content(value: Any) -> bool:
        """Whether dropping this global value loses application data.

        Default-initialized states (empty windows) are the fresh-instance
        baseline, and bare numbers are treated as channel-local
        bookkeeping (arrival-seq counters, cursors) — counting either as
        dropped would make every shrink of a region containing a Join or
        Dedup report phantom state loss on a loss-free rescale.  Only
        non-empty containers and other rich objects count.
        """
        if value is None or isinstance(value, (bool, int, float)):
            return False
        if isinstance(value, (str, bytes, list, tuple, set, frozenset, dict)):
            return len(value) > 0
        return True

    def _install_keyed_partitions(
        self,
        job: Job,
        plan: ParallelRegionPlan,
        moves: List[_Move],
        migration: StateMigration,
        installed: List[_Move],
        dropped: List[_Move],
    ) -> None:
        """Install extracted partitions on their new owner channels.

        Runs after the rewire: ``plan.channel_ops`` is the *new* layout and
        freshly added channels already have live operator instances.  A
        new owner whose PE is down but *masked with a live detour* hands
        its entries to each key's detour channel — the splitter is already
        routing those keys there, so dropping the state would fork the
        continuation (the detour recounts from zero and the unmask reclaim
        would later clobber the owner's checkpoint restore with the broken
        fork).  A down owner with no detour absorbs its entries the way
        the crash itself would have: they are dropped and counted — but
        kept in ``dropped`` so a rollback can still return them to their
        (alive) source channel.

        Each processed move shifts from ``moves`` into ``installed`` or
        ``dropped`` as it completes, so a mid-loop failure leaves the
        caller an exact split: ``installed`` must be uninstalled and the
        rest reinstalled at the source — never both for the same move
        (which would duplicate keys across two channels).
        """
        while moves:
            position, _src, dst_channel, state_name, entries = moves[0]
            target_name = plan.channel_ops[dst_channel][position]
            pe = job.pe_of_operator(target_name)
            if pe.state is not PEState.RUNNING:
                move = moves.pop(0)
                left = self._install_via_detour(
                    job, plan, move, migration, installed
                )
                if left is not None:
                    migration.keys_lost += len(left[4])
                    dropped.append(left)
                continue
            operator = pe.operators.get(target_name)
            if operator is None:
                raise ElasticError(
                    f"migration target {target_name!r} has no live instance"
                )
            operator.state.keyed(state_name).install(entries)
            installed.append(moves.pop(0))

    def _install_via_detour(
        self,
        job: Job,
        plan: ParallelRegionPlan,
        move: _Move,
        migration: StateMigration,
        installed: List[_Move],
    ) -> Optional[_Move]:
        """Reroute a move whose new owner is down onto the live detours.

        Only applies when the dead destination channel is currently masked
        (the splitter is detouring its keys to survivors): each entry is
        installed on the channel ``detour_channel_of`` picks for its key,
        so migrated state lands exactly where that key's traffic is
        flowing.  Rerouted buckets are appended to ``installed`` with the
        detour channel as their destination, keeping rollback
        (`_uninstall_keyed_partitions`) exact.  Returns a residual move
        holding any entries that could not be rerouted (destination not
        masked, or the detour target itself down) — ``None`` when every
        entry found a home.
        """
        position, src_channel, dst_channel, state_name, entries = move
        masked = self._masked_channels.get((job.job_id, plan.name)) or set()
        if dst_channel not in masked:
            return move
        leftover: Dict[Any, Any] = {}
        buckets: Dict[int, Dict[Any, Any]] = {}
        for key, value in entries.items():
            buckets.setdefault(
                detour_channel_of(key, plan.width, masked), {}
            )[key] = value
        for detour_channel, bucket in sorted(buckets.items()):
            if detour_channel == dst_channel:
                leftover.update(bucket)  # no live detour exists
                continue
            target_name = plan.channel_ops[detour_channel][position]
            target_pe = job.pe_of_operator(target_name)
            target_op = target_pe.operators.get(target_name)
            if target_pe.state is not PEState.RUNNING or target_op is None:
                leftover.update(bucket)
                continue
            target_op.state.keyed(state_name).install(bucket)
            migration.keys_detoured += len(bucket)
            installed.append(
                (position, src_channel, detour_channel, state_name, bucket)
            )
        if leftover:
            return (position, src_channel, dst_channel, state_name, leftover)
        return None

    def _uninstall_keyed_partitions(
        self, job: Job, plan: ParallelRegionPlan, installed: List[_Move]
    ) -> List[_Move]:
        """Undo a completed install: pull the exact migrated key sets back
        out of their destination stores so they can be reinstalled at the
        source (rollback after a post-install rewire failure)."""
        recovered: List[_Move] = []
        for position, src_channel, dst_channel, state_name, entries in installed:
            if dst_channel >= len(plan.channel_ops):
                continue
            target_name = plan.channel_ops[dst_channel][position]
            try:
                pe = job.pe_of_operator(target_name)
            except Exception:
                continue
            operator = pe.operators.get(target_name)
            if operator is None:
                continue
            pulled = operator.state.keyed(state_name).extract_partition(
                lambda key: key in entries
            )
            if pulled:
                recovered.append(
                    (position, src_channel, dst_channel, state_name, pulled)
                )
        return recovered

    def _reinstall_extracted(
        self, job: Job, plan: ParallelRegionPlan, moves: List[_Move]
    ) -> None:
        """Rollback: put extracted partitions back on their source channels."""
        for position, src_channel, _dst, state_name, entries in moves:
            if src_channel >= len(plan.channel_ops):
                continue  # source channel no longer exists; nowhere to go
            source_name = plan.channel_ops[src_channel][position]
            try:
                pe = job.pe_of_operator(source_name)
            except Exception:
                continue
            operator = pe.operators.get(source_name)
            if operator is not None:
                operator.state.keyed(state_name).install(entries)

    # -- rewire ------------------------------------------------------------------

    def _rewire_and_resume(
        self,
        job: Job,
        plan: ParallelRegionPlan,
        op: RescaleOperation,
        on_complete: Optional[Callable[[RescaleOperation], None]],
    ) -> None:
        compiled = job.compiled
        graph = compiled.application.graph
        moves: List[_Move] = []
        installed: List[_Move] = []
        dropped: List[_Move] = []
        global_moves: List[_GlobalMove] = []
        migration: Optional[StateMigration] = None
        try:
            # The whole rewire runs synchronously inside one kernel event, so
            # nothing can crash *during* it — but the merger or splitter PE
            # may have died while the drain was polling.  Verify both before
            # touching any state, so a doomed rescale fails without ever
            # extracting a partition.
            for endpoint in (plan.splitter, plan.merger):
                endpoint_pe = job.pe_of_operator(endpoint)
                if endpoint_pe.state is not PEState.RUNNING:
                    raise ElasticError(
                        f"PE of {endpoint!r} is {endpoint_pe.state.value}; "
                        "cannot rewire"
                    )
            migrates_keyed = self._region_migrates(plan)
            wants_global_merge = (
                plan.global_merge is not None and op.new_width < op.old_width
            )
            if migrates_keyed or wants_global_merge:
                op.state = RescaleState.MIGRATING
                self._mark_barrier(job.job_id, plan.name, "migrate")
                migration = StateMigration(
                    region=plan.name,
                    old_width=op.old_width,
                    new_width=op.new_width,
                )
                wall_start = _time.perf_counter()
                moves = self._extract_keyed_partitions(
                    job,
                    plan,
                    op.new_width,
                    migration,
                    global_moves,
                    migrate_keyed=migrates_keyed,
                )
                migration.wall_ms += (_time.perf_counter() - wall_start) * 1000.0
                op.migration = migration

            op.state = RescaleState.REWIRING
            self._mark_barrier(job.job_id, plan.name, "rewire")
            added_specs, removed_names = resize_region(graph, plan, op.new_width)

            # Physical plan surgery, then live PE set changes.
            removed_pe_ids = self._shrink_compiled(job, compiled, removed_names)
            new_pe_specs = self._extend_compiled(compiled, added_specs)
            self._recompute_edge_split(compiled)
            if removed_pe_ids:
                self.sam.remove_pes(job.job_id, removed_pe_ids)
                op.removed_pe_ids = removed_pe_ids
            if new_pe_specs:
                try:
                    added_pes = self.sam.add_pes(job.job_id, new_pe_specs)
                except Exception:
                    # No runtimes were created: undo the logical and
                    # physical plan surgery so the region is exactly as it
                    # was, reinstall any extracted state on its source
                    # channels, then fail the operation (the splitter
                    # resumes at the old width and the job keeps flowing).
                    self._rollback_scale_out(job, compiled, plan, op.old_width)
                    if moves:
                        self._reinstall_extracted(job, plan, moves)
                        moves = []
                        if migration is not None:
                            migration.rolled_back = True
                    raise
                op.added_pe_ids = [pe.pe_id for pe in added_pes]
            for pe in job.pes:
                if pe.state is PEState.RUNNING:
                    pe.rebuild_routes()

            # Install migrated partitions on their new owners while the
            # region is still quiesced — state must be in place before the
            # first post-resume tuple reaches its rehashed channel.
            if moves:
                wall_start = _time.perf_counter()
                self._install_keyed_partitions(
                    job, plan, moves, migration, installed, dropped
                )
                migration.wall_ms += (_time.perf_counter() - wall_start) * 1000.0

            # Fold captured doomed-channel global states into their
            # survivors (user-defined merge hook) before traffic resumes.
            if global_moves:
                self._merge_global_states(
                    job, plan, global_moves, op.new_width, migration
                )

            # Live operator updates: merger first (its ports must exist
            # before the splitter routes to them), then the splitter resumes
            # and the barrier buffer flushes into the new epoch.
            merger_pe = job.pe_of_operator(plan.merger)
            merger_pe.send_control(plan.merger, "setWidth", {"width": op.new_width})
            op.epoch = self.epochs.next()
            splitter_pe = job.pe_of_operator(plan.splitter)
            splitter_pe.send_control(
                plan.splitter, "resume", {"width": op.new_width, "epoch": op.epoch}
            )
            self._mark_barrier(job.job_id, plan.name, "resume", epoch=op.epoch)
        except Exception as exc:
            # Never let a rewire error escape into the kernel: the splitter
            # must be resumed or the region would buffer forever.  Any
            # still-extracted partitions go back to their sources, and
            # partitions already installed on their new owners are pulled
            # back out first (best effort — surviving channels reabsorb
            # their keys, so a rolled-back rescale loses no state).
            if installed:
                moves = self._uninstall_keyed_partitions(job, plan, installed) + moves
            if dropped:
                # their dead *destination* never received them; the (alive)
                # source still owns the keys at the restored old width
                if migration is not None:
                    migration.keys_lost -= sum(len(m[4]) for m in dropped)
                moves = moves + dropped
            if moves:
                self._reinstall_extracted(job, plan, moves)
                if migration is not None:
                    migration.rolled_back = True
            self._fail(job, plan, op, on_complete, f"rewire failed: {exc}")
            return

        # Mirror the splitter's width clamp on the mask-tracking set: a
        # removed masked channel must not leave a stale entry behind, or a
        # later graceful restart of a *new* PE at that index would emit
        # the phantom unmask the tracking exists to prevent.
        tracked = self._masked_channels.get((op.job_id, op.region))
        if tracked:
            self._masked_channels[(op.job_id, op.region)] = {
                channel for channel in tracked if channel < op.new_width
            }

        op.state = RescaleState.COMPLETED
        op.completed_at = self.kernel.now
        self._active.pop((op.job_id, op.region), None)
        self.history.append(op)
        # the rewired channel->PE mapping is only final now (a subscriber
        # that refreshed at the mid-protocol add_pes holds a stale view):
        # every subscriber refreshes, owning orchestrator or not
        self.events.publish("topology", job, "rescale")
        if on_complete is not None:
            on_complete(op)
        self.events.publish("rescale", op)

    def _rollback_scale_out(
        self,
        job: Job,
        compiled: CompiledApplication,
        plan: ParallelRegionPlan,
        old_width: int,
    ) -> None:
        """Undo a scale-out whose new channels could not be placed."""
        graph = compiled.application.graph
        _, removed_names = resize_region(graph, plan, old_width)
        self._shrink_compiled(job, compiled, removed_names)
        self._recompute_edge_split(compiled)

    def _shrink_compiled(
        self, job: Job, compiled: CompiledApplication, removed_names: List[str]
    ) -> List[str]:
        """Drop removed operators from the physical plan; return doomed PE ids."""
        if not removed_names:
            return []
        doomed = set(removed_names)
        removed_indices = {compiled.placement[name] for name in doomed}
        removed_pe_ids = [
            pe.pe_id for pe in job.pes if pe.index in removed_indices
        ]
        compiled.pes = [pe for pe in compiled.pes if pe.index not in removed_indices]
        for name in doomed:
            del compiled.placement[name]
        return removed_pe_ids

    def _extend_compiled(
        self, compiled: CompiledApplication, added_specs: List[OperatorSpec]
    ) -> List[PESpec]:
        """Build PE specs for newly added channel operators.

        Mirrors the compiler's ``manual`` grouping: operators sharing a
        partition tag fuse into one PE; untagged operators get singleton
        PEs.  Channel tags are suffixed per channel, so fusion never
        crosses channels.
        """
        if not added_specs:
            return []
        by_tag: Dict[str, List[OperatorSpec]] = {}
        groups: List[List[OperatorSpec]] = []
        for spec in added_specs:
            if spec.partition is not None:
                group = by_tag.get(spec.partition)
                if group is None:
                    group = []
                    by_tag[spec.partition] = group
                    groups.append(group)
                group.append(spec)
            else:
                groups.append([spec])
        next_index = max((pe.index for pe in compiled.pes), default=0) + 1
        new_pe_specs: List[PESpec] = []
        for group in groups:
            pool = next(
                (s.host_pool for s in group if s.host_pool is not None), None
            )
            pe_spec = PESpec(
                index=next_index,
                operators=[s.full_name for s in group],
                host_pool=pool,
                host_exlocations={
                    s.host_exlocation for s in group if s.host_exlocation is not None
                },
                host_colocations={
                    s.host_colocation for s in group if s.host_colocation is not None
                },
                stateful_ops=[
                    s.full_name
                    for s in group
                    if getattr(s.op_class, "STATEFUL", False)
                ],
            )
            next_index += 1
            compiled.pes.append(pe_spec)
            for spec in group:
                compiled.placement[spec.full_name] = pe_spec.index
            new_pe_specs.append(pe_spec)
        return new_pe_specs

    @staticmethod
    def _recompute_edge_split(compiled: CompiledApplication) -> None:
        inter, intra = [], []
        for edge in compiled.application.graph.edges:
            if (
                compiled.placement[edge.src.full_name]
                == compiled.placement[edge.dst.full_name]
            ):
                intra.append(edge)
            else:
                inter.append(edge)
        compiled.inter_pe_edges = inter
        compiled.intra_pe_edges = intra
