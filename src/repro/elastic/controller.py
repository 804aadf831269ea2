"""The elastic re-parallelization protocol.

Changing the channel width of a running parallel region must not lose,
duplicate, or reorder tuples.  :class:`ElasticController` runs the
epoch-aligned barrier protocol of Fries-style live reconfiguration
(Wang et al., PAPERS.md) on this repo's epoch clock
(:class:`repro.checkpoint.store.EpochClock`, shared with checkpoint
commits):

1. **Quiesce** — the region's splitter stops forwarding; new arrivals
   are buffered at the barrier.  Everything already forwarded belongs to
   the closing epoch.
2. **Drain** — the controller polls until the closing epoch has flowed
   out of the region: nothing in flight toward any channel operator or
   the merger, nothing in a channel operator's buffer, nothing waiting
   in the merger's reorder buffer.
3. **Migrate** — keyed state whose owner changes at the new width is
   extracted while the region is provably empty
   (:class:`repro.elastic.migration.RegionMigration`); on a scale-in the
   doomed channels' global state is captured for the region's
   ``global_merge`` hook.
4. **Rewire** — channels are added or removed: logical graph surgery
   (:func:`repro.spl.parallel.resize_region`), compiled-plan surgery
   (the compiler's own PE grouping), live PE changes through SAM, and
   route rebuilds on the surviving PEs.  The extracted state is then
   installed on its new owners.
5. **Resume** — the splitter installs the new width, the epoch advances,
   and the barrier buffer flushes through the new routing as the first
   tuples of the new epoch.

A failure at any step rolls the extracted state back to its source
channels and resumes the splitter at the old width.  Tuples are only
ever *held* (at the splitter) or *delivered* (downstream), never
discarded, so a rescale is tuple-loss-free by construction; the sequence
stamps of an ordered region keep global order across the barrier.

The controller is also a :class:`~repro.elastic.reroute.ChannelRerouter`:
crashed channels are masked on their splitter and unmasked on restart
(see :mod:`repro.elastic.reroute`).  This module keeps only the protocol
and its records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.checkpoint.store import CheckpointStore
from repro.elastic.migration import RegionMigration, StateMigration, migrates_keyed
from repro.elastic.reroute import ChannelReroute, ChannelRerouter  # noqa: F401
from repro.errors import ElasticError
from repro.sim.kernel import Kernel
from repro.spl.compiler import CompiledApplication, SPLCompiler
from repro.spl.parallel import ParallelRegionPlan, resize_region
from repro.runtime.events import RuntimeEvents
from repro.runtime.job import Job, JobState
from repro.runtime.pe import PEState
from repro.runtime.transport import Transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.sam import SAM
    from repro.runtime.system import SystemConfig


class RescaleState(enum.Enum):
    """Lifecycle phase of one rescale operation."""

    DRAINING = "draining"
    MIGRATING = "migrating"
    REWIRING = "rewiring"
    COMPLETED = "completed"
    FAILED = "failed"
    NOOP = "noop"


@dataclass(frozen=True)
class BarrierEvent:
    """One timestamped phase transition of the rescale protocol.

    The controller publishes these for every rescale — ``quiesce`` (the
    splitter stopped forwarding), ``drain_clean`` (the region proved
    empty), ``migrate`` (keyed extraction began), ``rewire`` (graph/PE
    surgery began), ``resume`` (the splitter resumed at the new width,
    ``epoch`` assigned), and ``failed`` — as ``barrier`` events.  They
    are the instrumentation tap the chaos fuzzer (:mod:`repro.chaos.fuzz`)
    mines for adversarial step times: the nastiest fault interleavings
    land *exactly at* these instants.
    """

    job_id: str
    region: str
    phase: str
    time: float
    epoch: int = 0


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


class ElasticController(ChannelRerouter):
    """Executes live channel-width changes for parallel regions."""

    def __init__(
        self,
        sam: "SAM",
        transport: Transport,
        kernel: Kernel,
        events: RuntimeEvents,
        checkpoint_store: CheckpointStore,
        config: "SystemConfig",
    ) -> None:
        """Create the controller.

        Args:
            sam: Job/PE registry used to reach runtimes and place channels.
            transport: Tuple transport, polled for in-flight backlog.
            kernel: Simulation kernel the protocol is scheduled on.
            events: Runtime bus; the controller publishes ``barrier``,
                ``reroute`` and ``rescale`` (every finished
                rescale, COMPLETED or FAILED, whoever initiated it), and
                hears ``pe_failure`` / ``pe_restart`` to mask / unmask
                channels.
            checkpoint_store: Its clock is the reconfiguration epoch
                clock, so rescales and checkpoint commits are totally
                ordered.
            config: The system's configuration; ``elastic_drain_poll``
                and ``elastic_drain_timeout`` are read at every poll.
        """
        super().__init__(kernel, events)
        #: one transactional state-epoch clock for reconfiguration and
        #: fault tolerance (Fries-style): rescale and checkpoint epochs
        #: are totally ordered
        self.epochs = checkpoint_store.epochs
        self.sam = sam
        self.transport = transport
        self.config = config
        self.history: List[RescaleOperation] = []
        self._active: Dict[Tuple[str, str], RescaleOperation] = {}

    def _mark_barrier(
        self, job_id: str, region: str, phase: str, epoch: int = 0
    ) -> None:
        """Publish one rescale-phase transition (the ``barrier`` topic)."""
        self.events.publish(
            "barrier",
            BarrierEvent(
                job_id=job_id,
                region=region,
                phase=phase,
                time=self.kernel.now,
                epoch=epoch,
            ),
        )

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
        self._push_in_flight()
        self._mark_barrier(job.job_id, region, "quiesce")
        self._schedule_poll(job, plan, op, on_complete)
        return op

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
            self._finish(job, plan, op, on_complete, "job left RUNNING during drain")
            return
        op.drain_polls += 1
        self._push_in_flight()
        if self._region_backlog(job, plan) == 0:
            self._mark_barrier(job.job_id, plan.name, "drain_clean")
            self._rewire_and_resume(job, plan, op, on_complete)
            return
        if self.kernel.now - op.started_at > self.config.elastic_drain_timeout:
            self._finish(
                job,
                plan,
                op,
                on_complete,
                f"drain did not complete within {self.config.elastic_drain_timeout}s",
            )
            return
        self._schedule_poll(job, plan, op, on_complete)

    def _push_in_flight(self) -> None:
        """Put everything the transport is sitting on onto the wire.

        Open batches and retried units waiting out a backoff count as in
        flight but would otherwise sit until a timer expires; forcing them
        out makes every drain poll measure a region that is actually
        moving (and never declares it empty while tuples sit buffered).
        """
        self.transport.flush_open_batches()
        self.transport.expedite_pending()

    def _schedule_poll(self, job: Job, plan: ParallelRegionPlan, *rest: Any) -> None:
        self.kernel.schedule(
            self.config.elastic_drain_poll,
            self._poll_drain,
            job,
            plan,
            *rest,
            label=f"elastic-drain-{job.job_id}-{plan.name}",
        )

    def _finish(
        self,
        job: Job,
        plan: ParallelRegionPlan,
        op: RescaleOperation,
        on_complete: Optional[Callable[[RescaleOperation], None]],
        error: Optional[str] = None,
    ) -> None:
        """Close an operation as COMPLETED, or as FAILED with ``error``."""
        op.state = RescaleState.COMPLETED if error is None else RescaleState.FAILED
        op.error = error
        op.completed_at = self.kernel.now
        if error is not None:
            self._mark_barrier(op.job_id, op.region, "failed")
        self._active.pop((op.job_id, op.region), None)
        self.history.append(op)
        if error is not None and job.state is JobState.RUNNING:
            # resume the splitter at the old width so the region keeps flowing
            splitter_pe = self._splitter_pe(job, plan)
            if splitter_pe is not None:
                splitter_pe.send_control(plan.splitter, "resume", {})
        if on_complete is not None:
            on_complete(op)
        self.events.publish("rescale", op)

    # -- rewire ------------------------------------------------------------------

    def _rewire_and_resume(
        self,
        job: Job,
        plan: ParallelRegionPlan,
        op: RescaleOperation,
        on_complete: Optional[Callable[[RescaleOperation], None]],
    ) -> None:
        compiled = job.compiled
        migration: Optional[RegionMigration] = None
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
            keyed = migrates_keyed(plan)
            if keyed or (plan.global_merge is not None and op.new_width < op.old_width):
                op.state = RescaleState.MIGRATING
                self._mark_barrier(job.job_id, plan.name, "migrate")
                migration = RegionMigration(job, plan, op.new_width)
                op.migration = migration.record
                migration.extract(keyed)

            op.state = RescaleState.REWIRING
            self._mark_barrier(job.job_id, plan.name, "rewire")
            added_specs, removed_names = resize_region(
                compiled.application.graph, plan, op.new_width
            )

            # Physical plan surgery, then live PE set changes.  New channels
            # are grouped as at compile time (``manual``: operators sharing a
            # partition tag fuse; channel tags never cross channels).
            removed_pe_ids = self._shrink_compiled(job, compiled, removed_names)
            new_pe_specs = SPLCompiler().extend(compiled, added_specs)
            if removed_pe_ids:
                self.sam.remove_pes(job.job_id, removed_pe_ids)
                op.removed_pe_ids = removed_pe_ids
            if new_pe_specs:
                try:
                    added_pes = self.sam.add_pes(job.job_id, new_pe_specs)
                except Exception:
                    # No runtimes were created: undo the logical and
                    # physical plan surgery so the region is exactly as it
                    # was before the state goes back to its sources.
                    _, doomed_names = resize_region(
                        compiled.application.graph, plan, op.old_width
                    )
                    self._shrink_compiled(job, compiled, doomed_names)
                    compiled.split_edges()
                    raise
                op.added_pe_ids = [pe.pe_id for pe in added_pes]
            for pe in job.pes:
                if pe.state is PEState.RUNNING:
                    pe.rebuild_routes()

            if migration is not None:
                # State must be in place before the first post-resume tuple
                # reaches its rehashed channel; doomed channels' global
                # state folds into the survivors (user-defined merge hook).
                migration.place_extracted()
                migration.merge_globals()

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
            # must be resumed or the region would buffer forever, and the
            # extracted state goes back to its sources (best effort —
            # surviving channels reabsorb their keys, so a rolled-back
            # rescale loses no state).
            if migration is not None:
                migration.rollback()
            self._finish(job, plan, op, on_complete, f"rewire failed: {exc}")
            return

        # Mirror the splitter's width clamp on the mask set: a removed
        # masked channel must not leave a stale entry behind, or a later
        # graceful restart of a *new* PE at that index would emit the
        # phantom unmask the tracking exists to prevent.
        masked = self._masked_of(job, plan)
        for channel in [c for c in masked if c >= op.new_width]:
            del masked[channel]
        self._finish(job, plan, op, on_complete)

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
