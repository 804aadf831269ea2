"""OrcaService — the orchestrator runtime daemon.

Fig. 4 of the paper: users submit the orchestrator descriptor to SAM,
which forks a process for the ORCA service; the service loads the ORCA
logic shared library, invokes the start callback, and from then on

* **generates events**: from itself (start, job submission/cancellation,
  timers), from SRM metric polls (default every 15 s, adjustable), from
  the runtime event bus (PE failures, one extra RPC later; host failures,
  rescales, reroutes, checkpoints, chaos, health), and from the command
  tool (user events).  An emitter is *ownership check → context →
  ``_emit``*, the one place an event is matched, stamped and queued; what
  a kind is — type, handler, which context fields are scope attributes —
  is declared on the context class (``repro.orca.contexts.EVENT_KINDS``);
* **matches** every event against the registered scope (disjunction of
  subscopes; delivered once with *all* matching keys);
* **delivers** events to the ORCA logic one at a time, in arrival order,
  with context + epoch;
* **actuates** on behalf of the logic: submit/cancel managed applications,
  restart/stop PEs, rewrite host pools to exclusive, send operator control
  commands, run external commands — refusing to act on jobs this
  orchestrator did not start (Sec. 3);
* **inspects**: the in-memory stream graph queries of Sec. 4.2.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.errors import (
    ActuationError,
    DescriptorError,
    InspectionError,
    OrcaPermissionError,
)
from repro.orca.commandtool import OrcaCommandTool
from repro.orca.contexts import (
    ChannelCongestedContext,
    ChannelReroutedContext,
    ChaosInjectedContext,
    CheckpointCommittedContext,
    HealthAlertContext,
    HostFailureContext,
    JobCancellationContext,
    JobSubmissionContext,
    OperatorMetricContext,
    OperatorPortMetricContext,
    OrcaStartContext,
    PEFailureContext,
    PEMetricContext,
    RegionRescaledContext,
    RegionStateMigratedContext,
    RehydrateSkippedContext,
    TimerContext,
    UserEventContext,
)
from repro.orca.dependencies import DependencyManager
from repro.orca.descriptor import ManagedApplication, OrcaDescriptor
from repro.orca.epochs import FailureEpochTracker, MetricEpochCounter
from repro.orca.events import EventQueue, OrcaEvent, QueueLatencyStats
from repro.orca.scopes import ScopeRegistry, EventScope
from repro.orca.streamgraph import StreamGraph
from repro.orca.timers import TimerHandle, TimerService
from repro.spl.adl import adl_from_xml, adl_model_of
from repro.spl.compiler import CompiledApplication
from repro.runtime.job import Job, JobState
from repro.runtime.pe import PERuntime
from repro.runtime.srm import MetricSample
from repro.runtime.system import SystemS

#: entries each of the service's two logs (actuations, handler errors)
#: keeps; a long-running orchestrator's logs stay this size
LOG_WINDOW = 4096


@dataclass
class ActuationRecord:
    """One actuation, attributed to the event transaction that caused it.

    Implements the future-work hook of Sec. 7 (actuation replay): every
    actuation is logged with the transaction id of the event being handled
    (0 when issued outside a handler).
    """

    txn_id: int
    action: str
    detail: str
    time: float


def _context_from(cls: type, record: Any, **extra: Any) -> Any:
    """A ``cls`` context: ``extra``, and every other field copied from the
    runtime record, which carries it under the same name."""
    names = (f.name for f in dataclasses.fields(cls) if f.name not in extra)
    return cls(**{name: getattr(record, name) for name in names}, **extra)


class OrcaService:
    """The runtime half of an orchestrator."""

    def __init__(self, orca_id: str, system: SystemS, descriptor: OrcaDescriptor) -> None:
        self.orca_id = orca_id
        self.system = system
        self.descriptor = descriptor
        self.kernel = system.kernel
        self.logic = descriptor.create_logic()
        self.logic._orca = self
        self.scopes = ScopeRegistry()
        self.queue = EventQueue()
        self.deps = DependencyManager(self)
        self.timers = TimerService(self)
        self.command_tool = OrcaCommandTool(self)
        self.metric_epochs = MetricEpochCounter()
        self.failure_epochs = FailureEpochTracker()
        self.jobs: Dict[str, Job] = {}
        #: the stream graph's per-job side is a live view over ``jobs``
        self.graph = StreamGraph(self.jobs)
        #: the newest ``LOG_WINDOW`` actuations (each with the transaction
        #: id of the event whose handler issued it, Sec. 7) and isolated
        #: handler failures; older entries fall off,
        #: ``queue.delivered_count`` still counts every event
        self.actuation_log: Deque[ActuationRecord] = deque(maxlen=LOG_WINDOW)
        self.handler_errors: Deque[tuple] = deque(maxlen=LOG_WINDOW)
        self._compiled: Dict[str, CompiledApplication] = {}
        self._poll_interval = (
            descriptor.metric_poll_interval
            if descriptor.metric_poll_interval is not None
            else system.config.orca_poll_interval
        )
        self._poll_handle = None
        self._drain_scheduled = False
        self._current_txn = 0
        self._alive = True
        #: detach handle of the runtime-bus subscriptions made in _boot
        self._unsubscribe: Optional[Callable[[], None]] = None

    # -- boot / shutdown ---------------------------------------------------------

    def _boot(self) -> None:
        """Load managed applications, deliver the start event, start polling."""
        for managed in self.descriptor.applications:
            self._register_application(managed)
        self._emit(OrcaStartContext(orca_id=self.orca_id, time=self.now))
        self._schedule_poll()
        # Runtime events become ORCA events — also for changes driven
        # outside this service (autoscalers, chaos campaigns, direct
        # controller calls).
        self._unsubscribe = self.system.events.subscribe(
            pe_failure=self._on_pe_failure,
            host_failure=self._on_host_failure,
            reroute=self._on_channel_rerouted,
            rescale=self._on_region_rescaled,
            checkpoint=self._on_checkpoint_committed,
            pe_restart=self._on_pe_restarted,
            injection=self._on_chaos_injected,
            health_alert=self._on_health_alert,
        )

    def _register_application(self, managed: ManagedApplication) -> None:
        if managed.application is not None:
            compiled = self.system.compile(
                managed.application,
                managed.compile_strategy,
                managed.compile_target_pe_count,
            )
            self._compiled[managed.name] = compiled
            self.graph.add_application(adl_model_of(compiled))
        elif managed.adl_xml is not None:
            self.graph.add_application(adl_from_xml(managed.adl_xml))

    def add_managed_application(self, managed: ManagedApplication) -> None:
        """Dynamically add an application to a *running* orchestrator.

        This is the paper's Sec. 7 future-work item ("allow developers to
        dynamically add an application to the orchestrator, e.g.
        applications developed after orchestrator deployment").
        """
        if self.descriptor.manages(managed.name):
            raise DescriptorError(f"application {managed.name!r} already managed")
        self.descriptor.applications.append(managed)
        self._register_application(managed)

    def shutdown(self) -> None:
        """Stop raising *and delivering* events: a handler must not actuate
        for an orchestrator that no longer exists, so what is still queued
        is dropped (and counted in ``queue.dropped_count``).  Its jobs lose
        their owner, so SAM's ``auto_restart_pes`` fallback covers them."""
        self._alive = False
        for job in self.jobs.values():
            job.owner_orca = None
        self.queue.drop_all()
        if self._poll_handle is not None:
            self._poll_handle.cancel()
        self.timers.cancel_all()
        if self._unsubscribe is not None:
            self._unsubscribe()  # idempotent: no need to forget the handle

    # -- time ------------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.kernel.now

    # -- scope registration -------------------------------------------------------------

    def register_event_scope(self, scope: EventScope) -> None:
        self.scopes.register(scope)

    def unregister_event_scope(self, key: str) -> bool:
        return self.scopes.unregister(key)

    # paper-parity aliases (Fig. 5: _orca->registerEventScope(oms))
    registerEventScope = register_event_scope  # noqa: N815
    unregisterEventScope = unregister_event_scope  # noqa: N815

    # -- event machinery ---------------------------------------------------------------------

    def _emit(self, context: Any, **computed: Any) -> bool:
        """The one place an ORCA event is made.  Returns True if queued.

        ``context.KIND`` (a row of ``repro.orca.contexts.EVENT_KINDS``) says
        which context fields subscopes filter on; ``computed`` carries the
        attributes the row declares but the context does not store.  An
        event of a scoped kind that no subscope matches is dropped.
        """
        if not self._alive:
            return False
        kind = context.KIND
        keys = self.scopes.matching_keys(
            kind.event_type, kind.scope_attributes(context, computed)
        )
        if kind.scopes and not keys:
            self.queue.dropped_count += 1
            return False
        self.queue.push(
            OrcaEvent(
                event_type=kind.event_type,
                context=context,
                scope_keys=keys,
                enqueued_at=self.now,
            )
        )
        self._schedule_drain()
        return True

    def _schedule_drain(self) -> None:
        if not self._drain_scheduled and self.queue:
            self._drain_scheduled = True
            self.kernel.call_soon(self._drain_one, label=f"{self.orca_id}-deliver")

    def _drain_one(self) -> None:
        self._drain_scheduled = False
        event = self.queue.pop()
        if event is None:
            return
        self._deliver(event)
        self._schedule_drain()

    def _deliver(self, event: OrcaEvent) -> None:
        kind = event.context.KIND
        handler = getattr(self.logic, kind.handler)
        self.queue.record_delivery(event, self.now)
        obs = self.system.obs
        if obs.trace_enabled:
            # the event->actuation chain: this span covers the event's
            # queue residence; actuations the handler issues are stamped
            # with the same txn id by _log_actuation
            obs.record_orca_event(
                self.orca_id, event.event_type, event.enqueued_at, self.now
            )
        self._current_txn = event.txn_id
        try:
            if kind.scopes:
                handler(event.context, list(event.scope_keys))
            else:
                handler(event.context)
        except Exception as exc:  # isolate user-code failures (memory isolation)
            self.handler_errors.append((event.event_type, exc))
        finally:
            self._current_txn = 0

    # -- metric polling -------------------------------------------------------------------------

    @property
    def metric_poll_interval(self) -> float:
        return self._poll_interval

    def set_metric_poll_interval(self, seconds: float) -> None:
        """Change the SRM polling rate at any point of execution (Sec. 4.2)."""
        if seconds <= 0:
            raise ActuationError("poll interval must be positive")
        self._poll_interval = seconds
        if self._poll_handle is not None:
            self._poll_handle.cancel()
        if self._alive:
            self._schedule_poll()

    def _schedule_poll(self) -> None:
        self._poll_handle = self.kernel.schedule(
            self._poll_interval, self._poll_metrics, label=f"{self.orca_id}-poll"
        )

    def _poll_metrics(self) -> None:
        job_ids = [job_id for job_id in self.jobs if self.job_is_running(job_id)]
        samples = self.system.srm.get_metrics(job_ids)
        epoch = self.metric_epochs.next()
        # every sample names a PE / operator of the live job: a rescale
        # changes ``job.pes`` and SRM's samples inside one kernel event
        for sample in samples:
            self._emit_metric_event(sample, epoch)
        self._check_region_congestion(epoch)
        self._schedule_poll()

    def _check_region_congestion(self, epoch: int) -> None:
        """Emit channel_congested for overloaded parallel-region channels.

        Runs on every metric poll: the region's congestion metric is
        aggregated per channel (SRM keeps per-operator values; a channel's
        backlog is the sum over its operators); channels above the region's
        threshold raise one event each, all sharing the poll's epoch.
        """
        for job_id, job in self.jobs.items():
            if job.state is not JobState.RUNNING:
                continue
            for plan in job.compiled.parallel_regions.values():
                backlogs = self._channel_sums(job_id, plan, plan.congestion_metric)
                for channel, backlog in sorted(backlogs.items()):
                    if backlog <= plan.congestion_threshold:
                        continue
                    self._emit(
                        ChannelCongestedContext(
                            job_id=job_id,
                            app_name=job.app_name,
                            region=plan.name,
                            channel=channel,
                            value=backlog,
                            threshold=plan.congestion_threshold,
                            metric=plan.congestion_metric,
                            width=plan.width,
                            epoch=epoch,
                            time=self.now,
                        )
                    )

    def _emit_metric_event(self, sample: MetricSample, epoch: int) -> None:
        measured: Dict[str, Any] = dict(
            metric=sample.name,
            value=sample.value,
            epoch=epoch,
            job_id=sample.job_id,
            app_name=sample.app_name,
            pe_id=sample.pe_id,
            collection_ts=sample.collection_ts,
            is_custom=sample.is_custom,
        )
        if sample.operator is None:
            placed = self.graph.pe_event_attrs(sample.job_id, sample.pe_id)
            context = PEMetricContext(host=placed["host"], **measured)
        else:
            placed = self.graph.operator_event_attrs(sample.job_id, sample.operator)
            measured.update(
                instance_name=sample.operator, operator_kind=placed["operator_type"]
            )
            if sample.port is None:
                context = OperatorMetricContext(**measured)
            else:
                context = OperatorPortMetricContext(port=sample.port, **measured)
        self._emit(context, **placed)

    # -- failure events -----------------------------------------------------------------------------

    def _on_pe_failure(self, pe: PERuntime, reason: str, detection_ts: float) -> None:
        """``pe_failure`` event: a PE of an owned job crashed (Sec. 4.2).

        The reaction is delayed by one extra remote procedure call from SAM
        to the ORCA service (Sec. 3) — modelled as ``orca_rpc_latency``.
        """
        if pe.job.job_id not in self.jobs:
            return  # not a job this orchestrator owns
        self.kernel.schedule(
            self.system.config.orca_rpc_latency,
            self._emit_pe_failure,
            pe,
            reason,
            detection_ts,
            label=f"{self.orca_id}-pefailure-rpc",
        )

    def _emit_pe_failure(self, pe: PERuntime, reason: str, detection_ts: float) -> None:
        job = pe.job
        context = PEFailureContext(
            pe_id=pe.pe_id,
            pe_index=pe.index,
            job_id=job.job_id,
            app_name=job.app_name,
            reason=reason,
            detection_ts=detection_ts,
            epoch=self.failure_epochs.epoch_for(reason, detection_ts),
            host=pe.host_name,
            operators=tuple(pe.spec.operators),
        )
        self._emit(context, **self.graph.pe_event_attrs(job.job_id, pe.pe_id))

    def _on_host_failure(self, host_name: str, detection_ts: float) -> None:
        """``host_failure`` event: every live orchestrator hears it."""
        affected = tuple(
            pe.pe_id
            for job in self.jobs.values()
            if job.state is JobState.RUNNING
            for pe in job.pes
            if pe.host_name == host_name
        )
        self._emit(
            HostFailureContext(
                host=host_name,
                detection_ts=detection_ts,
                epoch=self.failure_epochs.epoch_for("host_failure", detection_ts),
                affected_pe_ids=affected,
            )
        )

    # -- timers and user events ---------------------------------------------------------------------

    def create_timer(
        self,
        delay: float,
        payload: Any = None,
        periodic: bool = False,
        timer_id: Optional[str] = None,
    ) -> TimerHandle:
        return self.timers.create_timer(delay, payload, periodic, timer_id)

    def _emit_timer_event(self, handle: TimerHandle, payload: Any) -> None:
        self._emit(_context_from(TimerContext, handle, time=self.now, payload=payload))

    def inject_user_event(self, name: str, payload: Dict[str, Any]) -> None:
        self._emit(UserEventContext(name=name, time=self.now, payload=dict(payload)))

    # -- actuation: job lifecycle ----------------------------------------------------------------------

    def submit_application(
        self, app_name: str, params: Optional[Dict[str, str]] = None
    ) -> Job:
        """Submit a managed application directly (outside the config system)."""
        return self._submit_managed(app_name, params, config_id=None, explicit=True)

    def _submit_managed(
        self,
        app_name: str,
        params: Optional[Dict[str, str]],
        config_id: Optional[str],
        explicit: bool,
    ) -> Job:
        compiled = self._get_compiled(app_name)
        job = self.system.sam.submit_job(compiled, params=params, owner_orca=self.orca_id)
        self.jobs[job.job_id] = job
        self._log_actuation("submit", f"{app_name} -> {job.job_id}")
        self._emit(
            JobSubmissionContext(
                job_id=job.job_id,
                app_name=app_name,
                config_id=config_id,
                time=self.now,
                explicit=explicit,
            )
        )
        return job

    def cancel_job(self, job_id: str) -> None:
        """Cancel a job this orchestrator started."""
        self._cancel_managed(job_id, config_id=None, garbage_collected=False)

    def _cancel_managed(
        self, job_id: str, config_id: Optional[str], garbage_collected: bool
    ) -> None:
        job = self._check_owned(job_id)
        self.system.sam.cancel_job(job_id)
        self._log_actuation(
            "cancel", f"{job.app_name} ({job_id}) gc={garbage_collected}"
        )
        self._emit(
            JobCancellationContext(
                job_id=job_id,
                app_name=job.app_name,
                config_id=config_id,
                time=self.now,
                garbage_collected=garbage_collected,
            )
        )

    def _get_compiled(self, app_name: str) -> CompiledApplication:
        self.descriptor.application(app_name)  # raises for an unmanaged name
        compiled = self._compiled.get(app_name)
        if compiled is None:
            # _register_application compiled every application that has a graph
            raise ActuationError(
                f"application {app_name!r} was registered by ADL only; "
                "it cannot be submitted from this orchestrator"
            )
        return compiled

    def _check_owned(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise OrcaPermissionError(
                f"orchestrator {self.orca_id} did not start job {job_id!r} "
                "(Sec. 3: acting on foreign jobs is a runtime error)"
            )
        return job

    def job_is_running(self, job_id: str) -> bool:
        job = self.jobs.get(job_id)
        return job is not None and job.state in (JobState.SUBMITTED, JobState.RUNNING)

    # -- actuation: PE control ------------------------------------------------------------------------------

    def restart_pe(self, pe_id: str, rehydrate: bool = False) -> None:
        """Restart a crashed/stopped PE of a job this orchestrator owns.

        ``rehydrate=True`` restores each stateful operator from the PE's
        latest committed epoch (a checkpoint or a graceful stop's snapshot);
        the default keeps the paper's restart-empty semantics.
        """
        job_id = self.graph.job_of_pe(pe_id)  # finds PEs of owned jobs only
        self.system.sam.restart_pe(job_id, pe_id, rehydrate=rehydrate)
        self._log_actuation(
            "restart_pe", f"{pe_id} rehydrate={rehydrate}" if rehydrate else pe_id
        )

    def stop_pe(self, pe_id: str) -> None:
        job_id = self.graph.job_of_pe(pe_id)  # finds PEs of owned jobs only
        self.system.sam.stop_pe(job_id, pe_id)
        self._log_actuation("stop_pe", pe_id)

    def send_control(
        self, job_id: str, op_full_name: str, command: str, payload: Dict[str, Any]
    ) -> None:
        """Deliver a control command to a running operator instance (Sec. 3)."""
        job = self._check_owned(job_id)
        pe = job.pe_of_operator(op_full_name)
        pe.send_control(op_full_name, command, payload)
        self._log_actuation("control", f"{op_full_name}:{command}")

    # -- actuation: checkpointing ----------------------------------------------------------------

    def checkpoint_now(self, job_id: str):
        """Force an immediate checkpoint of every stateful PE of a job.

        The policy hook for stale-checkpoint reactions: a routine that
        observes a high ``checkpointLag`` gauge (or infrequent
        ``checkpoint_committed`` events) can force a capture instead of
        waiting for the next periodic round.  Returns the list of
        :class:`~repro.checkpoint.service.CheckpointRecord` produced.
        """
        job = self._check_owned(job_id)
        records = self.system.checkpoints.checkpoint_job(job)
        self._log_actuation("checkpoint", f"{job_id} ({len(records)} PEs)")
        return records

    def set_checkpoint_interval(self, seconds: float) -> None:
        """Change the background checkpoint cadence at runtime.

        Args:
            seconds: New interval in sim-seconds; 0 stops periodic
                checkpointing (the paper's no-checkpoint default).
        """
        self.system.checkpoints.set_interval(seconds)
        self._log_actuation("checkpoint_interval", str(seconds))

    def checkpoint_status(self, job_id: str) -> Dict[str, Dict[str, Any]]:
        """Newest committed checkpoint epoch of each of a job's PEs.

        Returns:
            ``pe_id -> {"epoch", "committed_at", "age", "keys_total"}``
            for every PE with at least one committed epoch.
        """
        self._check_owned(job_id)
        status: Dict[str, Dict[str, Any]] = {}
        for pe_id, entry in self.system.checkpoint_store.job_status(job_id).items():
            status[pe_id] = {
                "epoch": entry.epoch,
                "committed_at": entry.time,
                "age": self.now - entry.time,
                "keys_total": entry.keys_total,
            }
        return status

    # -- actuation: elastic parallel regions ---------------------------------------------------

    def set_channel_width(self, job_id: str, region: str, width: int):
        """Re-parallelize a region of an owned job to ``width`` channels.

        Runs the tuple-loss-free rescale protocol of
        :class:`repro.elastic.controller.ElasticController`; when the
        region resumes, a ``region_rescaled`` event is delivered to the
        ORCA logic (subject to scope matching); inspection answers from
        the live job, so the new channel operators and PEs are visible.
        Returns the :class:`~repro.elastic.controller.RescaleOperation`.
        """
        job = self._check_owned(job_id)
        # completion flows through the ``rescale`` runtime event
        # (subscribed at boot), same as externally-driven rescales
        operation = self.system.elastic.set_channel_width(job, region, width)
        self._log_actuation("set_channel_width", f"{job_id}:{region}->{width}")
        return operation

    def _on_region_rescaled(self, operation) -> None:
        from repro.elastic.controller import RescaleState  # late: layer cycle

        job = self.jobs.get(operation.job_id)
        if job is None:
            return  # not a job this orchestrator owns
        succeeded = operation.state is RescaleState.COMPLETED
        migration = operation.migration
        # both events are region-wide: they match any addChannelFilter choice
        every_channel = tuple(range(max(operation.old_width, operation.new_width)))
        if (
            succeeded
            and migration is not None
            and (
                migration.keys_moved
                or migration.dropped_global_states
                or migration.global_states_merged
            )
        ):
            # Delivered before the matching region_rescaled so handlers see
            # the state movement in causal order.
            self._emit(
                _context_from(
                    RegionStateMigratedContext,
                    migration,
                    job_id=operation.job_id,
                    app_name=job.app_name,
                    moves=dict(migration.moves),
                    skipped_channels=tuple(migration.skipped_channels),
                    epoch=operation.epoch,
                    time=self.now,
                ),
                channel=every_channel,
            )
        self._emit(
            _context_from(
                RegionRescaledContext,
                operation,
                app_name=job.app_name,
                time=self.now,
                succeeded=succeeded,
            ),
            channel=every_channel,
        )

    def _on_channel_rerouted(self, record) -> None:
        """``reroute`` event: a splitter mask/unmask happened."""
        job = self.jobs.get(record.job_id)
        if job is None:
            return  # not a job this orchestrator owns
        self._emit(
            _context_from(
                ChannelReroutedContext, record, app_name=job.app_name, time=self.now
            )
        )

    # -- checkpointing and recovery events -----------------------------------------------------

    def _on_checkpoint_committed(self, record) -> None:
        """``checkpoint`` event: forward committed epochs (torn ones are skipped)."""
        job = self.jobs.get(record.job_id)
        if job is None or not record.committed:
            return  # torn, or not a job this orchestrator owns
        self._emit(
            _context_from(
                CheckpointCommittedContext,
                record,
                app_name=job.app_name,
                host=self.graph.host_of_pe(record.pe_id),
                time=self.now,
            )
        )

    def _on_chaos_injected(self, injection) -> None:
        """``injection`` event: a campaign step fired.

        Unlike the job-scoped events this forwards every injection — chaos
        is system-level, like host failures — but delivery still depends
        on a registered :class:`~repro.orca.scopes.ChaosScope`, so logic
        not opted in stays blind to the campaign.
        """
        job = self.jobs.get(injection.job_id) if injection.job_id else None
        self._emit(
            _context_from(
                ChaosInjectedContext,
                injection,
                app_name=job.app_name if job is not None else None,
                detail=injection.public_detail(),
                time=self.now,
            )
        )

    def _on_health_alert(self, alert) -> None:
        """``health_alert`` event: an SLO alert raised or escalated.

        Like chaos injections this forwards every alert (health is
        system-level), and delivery still requires a registered
        :class:`~repro.orca.scopes.HealthScope` — logic not opted in
        stays blind to the health plane.
        """
        self._emit(_context_from(HealthAlertContext, alert))

    def _on_pe_restarted(self, pe: PERuntime) -> None:
        """``pe_restart`` event: emit ``rehydrate_skipped`` for empty rehydrations."""
        job = self.jobs.get(pe.job.job_id)
        if job is None:
            return
        report = pe.last_restore
        if report is None or report.source != "none":
            return  # restart did not request rehydration, or it restored
        self._emit(
            RehydrateSkippedContext(
                job_id=job.job_id,
                app_name=job.app_name,
                pe_id=pe.pe_id,
                pe_index=pe.index,
                host=pe.host_name,
                reason="no_snapshot",
                time=self.now,
            )
        )

    # -- actuation: placement ----------------------------------------------------------------------------------

    def set_exclusive_host_pools(self, app_name: str) -> None:
        """Rewrite an application's host pools to exclusive (Sec. 4.3).

        Must happen before the application is submitted; the pool change is
        interpreted by SAM when instantiating the PEs.
        """
        managed = self.descriptor.application(app_name)
        if managed.application is None:
            raise ActuationError(
                f"application {app_name!r} was registered by ADL only"
            )
        for job in self.jobs.values():
            if job.app_name == app_name and self.job_is_running(job.job_id):
                raise ActuationError(
                    "host pool configuration change must occur before the "
                    f"application is submitted; {app_name!r} is running as "
                    f"{job.job_id}"
                )
        managed.application.host_pools.make_all_exclusive()
        self._compiled.pop(app_name, None)  # recompile with the new ADL
        self._register_application(managed)
        self._log_actuation("exclusive_pools", app_name)

    # -- actuation: external commands ----------------------------------------------------------------------------

    def run_external(
        self,
        command: Callable[[], Any],
        duration: float = 0.0,
        on_complete: Optional[Callable[[Any], None]] = None,
    ):
        """Invoke an external component (e.g. the Hadoop job of Sec. 5.1).

        ``command`` runs after ``duration`` simulated seconds (the external
        job's latency); its return value is passed to ``on_complete``.
        """
        self._log_actuation("external", getattr(command, "__name__", "command"))

        def finish() -> None:
            result = command()
            if on_complete is not None:
                on_complete(result)

        return self.kernel.schedule(duration, finish, label=f"{self.orca_id}-external")

    def _log_actuation(self, action: str, detail: str) -> None:
        self.actuation_log.append(
            ActuationRecord(
                txn_id=self._current_txn, action=action, detail=detail, time=self.now
            )
        )
        obs = self.system.obs
        if obs.trace_enabled:
            obs.record_control_event(
                f"actuation:{action}",
                self.now,
                orca=self.orca_id,
                txn=self._current_txn,
                detail=detail,
            )

    def actuations_for(self, txn_id: int) -> List[ActuationRecord]:
        """Actuations attributed to one event transaction (Sec. 7), within the log window."""
        return [r for r in self.actuation_log if r.txn_id == txn_id]

    # -- inspection API (Sec. 4.2) -----------------------------------------------------------------------------------

    def operators_in_pe(self, pe_id: str) -> List[str]:
        return self.graph.operators_in_pe(pe_id)

    def composites_in_pe(self, pe_id: str):
        return self.graph.composites_in_pe(pe_id)

    def enclosing_composite(self, app_name: str, op_full_name: str) -> Optional[str]:
        return self.graph.enclosing_composite(app_name, op_full_name)

    def pe_of_operator(self, job_id: str, op_full_name: str) -> str:
        return self.graph.pe_of_operator(job_id, op_full_name)

    def host_of_pe(self, pe_id: str) -> Optional[str]:
        return self.graph.host_of_pe(pe_id)

    def pes_of_job(self, job_id: str) -> List[str]:
        return self.graph.pes_of_job(job_id)

    def job_of_pe(self, pe_id: str) -> str:
        return self.graph.job_of_pe(pe_id)

    def operators_of_type(self, app_name: str, kind: str) -> List[str]:
        return self.graph.operators_of_type(app_name, kind)

    def colocated_operators(self, job_id: str, op_full_name: str) -> List[str]:
        return self.graph.colocated_operators(job_id, op_full_name)

    def job(self, job_id: str) -> Job:
        return self._check_owned(job_id)

    # -- inspection: parallel regions ----------------------------------------------------------

    def _region_plan(self, job_id: str, region: str):
        job = self._check_owned(job_id)
        plan = job.compiled.parallel_regions.get(region)
        if plan is None:
            raise InspectionError(
                f"job {job_id}: no parallel region {region!r} "
                f"(has {sorted(job.compiled.parallel_regions)})"
            )
        return plan

    def _channel_sums(self, job_id: str, plan, metric: str) -> Dict[int, float]:
        """Channel index -> ``metric`` summed over the channel's operators (SRM)."""
        return self.system.srm.sum_operator_metric_by_group(
            job_id, dict(enumerate(plan.channel_ops)), metric
        )

    def parallel_regions(self, job_id: str) -> Dict[str, int]:
        """Region name -> current channel width, for an owned job."""
        job = self._check_owned(job_id)
        return {
            name: plan.width
            for name, plan in job.compiled.parallel_regions.items()
        }

    def channel_width(self, job_id: str, region: str) -> int:
        """Current channel width of one region (reflects completed rescales)."""
        return self._region_plan(job_id, region).width

    def region_channels(self, job_id: str, region: str) -> List[List[str]]:
        """Per channel, the operator full names running that channel."""
        return [list(ops) for ops in self._region_plan(job_id, region).channel_ops]

    def region_channel_backlogs(self, job_id: str, region: str) -> Dict[int, float]:
        """Channel index -> aggregated congestion-metric value (from SRM)."""
        plan = self._region_plan(job_id, region)
        return self._channel_sums(job_id, plan, plan.congestion_metric)

    def region_state_sizes(self, job_id: str, region: str) -> Dict[int, float]:
        """Channel index -> aggregated ``stateBytes`` of the channel (SRM).

        The per-operator gauges are refreshed by the host controllers at
        every metric push, so this reflects state as of the last push —
        the same freshness contract as every other SRM-backed query.
        """
        return self._channel_sums(job_id, self._region_plan(job_id, region), "stateBytes")

    def region_key_owner(self, job_id: str, region: str, key) -> int:
        """The channel that owns ``key`` at the region's current width."""
        from repro.spl.library import stable_channel_of  # late: layer cycle

        plan = self._region_plan(job_id, region)
        if plan.partition_by is None:
            raise InspectionError(
                f"region {region!r} is not partitioned (no partition_by)"
            )
        return stable_channel_of(key, plan.width)

    def state_of(self, job_id: str, region: str, key) -> Dict[str, Any]:
        """Live keyed state of one partition key (Sec. 4.2 extended).

        Returns ``{"channel": owner, "values": {op_full_name: {state_name:
        value}}}``, read from the owner channel's live operator instances.
        Only keys the operators actually stored appear in ``values``; a key
        the region has never seen yields an empty values map.  This is the
        inspection hook that lets user routines write state-aware policies
        (e.g. pin a hot key's channel before deciding a width).
        """
        job = self._check_owned(job_id)
        plan = self._region_plan(job_id, region)
        channel = self.region_key_owner(job_id, region, key)
        values: Dict[str, Dict[str, Any]] = {}
        for op_name in plan.channel_ops[channel]:
            instance = job.operator_instance(op_name)
            if instance is None or not instance.state.in_use:
                continue
            found = {
                state_name: keyed.get(key)
                for state_name, keyed in instance.state.keyed_states().items()
                if key in keyed
            }
            if found:
                values[op_name] = found
        return {"channel": channel, "values": values}

    def region_observation(self, job_id: str, region: str):
        """A :class:`repro.elastic.policy.RegionObservation` for policies."""
        from repro.elastic.policy import RegionObservation  # late: layer cycle

        plan = self._region_plan(job_id, region)
        return RegionObservation(
            job_id=job_id,
            region=region,
            width=plan.width,
            channel_backlogs=self.region_channel_backlogs(job_id, region),
            channel_state_sizes=self.region_state_sizes(job_id, region),
            time=self.now,
        )

    def queue_latency_stats(self) -> QueueLatencyStats:
        """Queue-wait statistics of delivered events (one-at-a-time FIFO)."""
        return self.queue.latency_stats()

    # -- inspection: chaos campaigns -----------------------------------------------------------

    def chaos_status(self) -> Dict[str, Any]:
        """Campaign and injector counters (the chaos inspection hook).

        Returns:
            ``{"runs", "runs_done", "injections", "step_errors",
            "cancelled_steps", "active_link_faults",
            "active_link_faults_by_effect", "injector": {"injected",
            "by_kind", "noops", "pending"}, "last_injection"}`` — the
            failure injector's per-kind counters and recorded no-ops
            plus the chaos engine's journal summary (with active link
            faults broken down by latency/partition/loss effect), so
            routines, tests, and mid-flight fuzz searches can correlate
            their reactions with the fault mix actually injected.
        """
        return self.system.chaos.status()

    # -- inspection: health plane --------------------------------------------------------------

    def health_status(self) -> Dict[str, Any]:
        """The health plane's deterministic summary (the health hook).

        Returns:
            ``{"ticks", "interval", "alerts_fired", "pages_fired",
            "active_alerts", "slos", "max_lag", "regions", "bottleneck",
            "peak_link_lag", "peak_queue_depth",
            "peak_retry_pressure"}`` — the monitor's windowed state at
            the last evaluation tick, so routines can poll lag
            watermarks and the current bottleneck attribution between
            alerts.
        """
        return self.system.obs.health.status()

    def register_slo(self, slo) -> Any:
        """Register a health-plane SLO; its burn windows start now.

        Alerts the objective raises are delivered as ``health_alert``
        events to registered :class:`~repro.orca.scopes.HealthScope`
        subscopes (and recorded on :meth:`health_status`).
        """
        return self.system.obs.health.add_slo(slo)

    def __repr__(self) -> str:
        return f"OrcaService({self.orca_id}, logic={type(self.logic).__name__})"
