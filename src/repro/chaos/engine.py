"""The deterministic chaos engine: the one fault layer.

:class:`ChaosEngine` applies every
:class:`~repro.chaos.perturbations.Perturbation` — a direct
``system.chaos.inject(...)`` or a scenario step — counts the kills,
restarts and revives that landed, records the no-ops
(:class:`NoopInjection`), and schedules each windowed fault's undo as a
cancellable handle.

The engine executes :class:`~repro.chaos.scenario.Scenario` objects on a
running :class:`~repro.runtime.system.SystemS`: every step is scheduled
on the simulation kernel (jitter drawn from a per-scenario seeded
stream), fired through its perturbation, and recorded as a
:class:`ChaosInjection`.  Each injection is

* appended to :attr:`ChaosEngine.injections` (the campaign journal),
* published as an ``injection`` runtime event — the ORCA service
  subscribes and turns injections into ``chaos_injected`` events
  (subject to :class:`~repro.orca.scopes.ChaosScope` matching, so a
  routine can equally be tested *blind* to injected faults by simply not
  registering the scope),
* counted in ``repro_chaos_*`` gauges of the system's metrics registry,
  labeled with the synthetic ``__chaos__`` job, so campaign progress
  shows in the same exposition as every runtime metric.

Recovery is tracked automatically: the engine observes SAM's completed
PE restarts and stamps ``recovered_at`` on the matching crash-class
injections, which is where scorecard recovery times come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.chaos.perturbations import Perturbation, detail_public_view
from repro.chaos.scenario import Scenario
from repro.runtime.pe import PERuntime, PEState
from repro.runtime.srm import SRM_HELP
from repro.sim.kernel import OutstandingHandles, ScheduledEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.job import Job
    from repro.runtime.system import SystemS

#: injection kinds whose targets are expected to come back (flaps and
#: crashes) — only these get recovery stamps, and only these count as
#: unrecovered in scorecards (the single source of truth for both)
RECOVERABLE_KINDS = frozenset(
    {"crash_pe", "pe_flap", "fail_host", "host_flap"}
)

#: ``job`` label of the engine's gauges (never a real job's id)
CHAOS_JOB_ID = "__chaos__"


@dataclass(frozen=True)
class NoopInjection:
    """A fault that fired but found nothing left to do.

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
class ChaosInjection:
    """One fired chaos step, as recorded in the campaign journal.

    Attributes:
        run_id: The owning scenario run.
        scenario: Scenario name.
        step_index: Index of the step within the scenario.
        kind: Perturbation kind (``pe_flap``, ``latency_spike``, ...).
        target: Human-readable target (PE id, host, region, "feed").
        time: Sim time the step fired.
        job_id: The run's job, when job-scoped.
        detail: Perturbation-specific payload; ``_``-prefixed keys are
            engine-internal (state snapshots) and excluded from events.
        recovered_at: Sim time the target finished recovering (crash
            kinds only; None while down or for irreversible kinds).
    """

    run_id: str
    scenario: str
    step_index: int
    kind: str
    target: str
    time: float
    job_id: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)
    recovered_at: Optional[float] = None

    @property
    def recovery_time(self) -> Optional[float]:
        """Seconds from injection to recovery (None while unrecovered)."""
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.time

    def public_detail(self) -> Dict[str, Any]:
        """The detail map with engine-internal keys stripped."""
        return detail_public_view(self.detail)


@dataclass
class ScenarioRun:
    """One scheduled execution of a scenario.

    Attributes:
        run_id: Unique id (``chaos-1``, ``chaos-2``, ...).
        scenario: The scenario being executed.
        job: The job perturbations resolve operators against (optional).
        feed: The :class:`~repro.apps.workloads.ChaosFeed` load
            perturbations control (optional).
        started_at: Sim time of the scenario's t=0.
        step_times: Resolved absolute firing time per step (seeded
            jitter applied).
        injections: The run's fired injections, in order.
        errors: ``(step_index, repr(exc))`` for steps whose perturbation
            raised — recorded, never propagated into the kernel.
    """

    run_id: str
    scenario: Scenario
    job: Optional["Job"] = None
    feed: Optional[Any] = None
    started_at: float = 0.0
    step_times: List[float] = field(default_factory=list)
    injections: List[ChaosInjection] = field(default_factory=list)
    errors: List[tuple] = field(default_factory=list)
    cancelled_steps: int = 0
    #: system-lifetime counter values at run start, so scorecards can
    #: report per-run deltas even when several runs share one system
    baselines: Dict[str, int] = field(default_factory=dict)
    _handles: List[ScheduledEvent] = field(default_factory=list)

    @property
    def steps_fired(self) -> int:
        """How many steps have fired so far."""
        return len(self.injections) + len(self.errors)

    @property
    def done(self) -> bool:
        """Whether every step has fired or been cancelled."""
        return self.steps_fired + self.cancelled_steps >= len(self.step_times)


class ChaosEngine:
    """Applies, counts and schedules every fault; journals scenarios."""

    def __init__(self, system: "SystemS", metrics: "MetricsRegistry") -> None:
        """Wire the engine into a system (done by ``SystemS.__init__``).

        Args:
            system: The simulated middleware instance to disturb.
            metrics: The system's registry, where the campaign gauges live.
        """
        self.system = system
        self.kernel = system.kernel
        self.metrics = metrics
        #: every fired injection across all runs, in firing order
        self.injections: List[ChaosInjection] = []
        #: every scenario run ever scheduled, in creation order
        self.runs: List[ScenarioRun] = []
        self._next_run = 1
        #: refcount of open CheckpointFault windows (commits stay torn
        #: while > 0; the pre-campaign hook is restored when it hits 0)
        self._ckpt_fault_depth = 0
        self._ckpt_fault_previous = None
        #: kills, restarts and revives that landed
        self.injected = 0
        #: ``crash_pe`` / ``restart_pe`` / ``fail_host`` / ``revive_host``
        #: -> landed count
        self.by_kind: Dict[str, int] = {}
        #: faults that found their target already down (or up), in order
        self.noops: List[NoopInjection] = []
        #: timed faults and undos that have neither fired nor been cancelled
        self._pending = OutstandingHandles()
        system.events.subscribe(pe_restart=self._on_pe_restarted)

    # -- applying faults ----------------------------------------------------

    def inject(
        self,
        perturbation: Perturbation,
        job: Optional["Job"] = None,
        feed: Optional[Any] = None,
        at: Optional[float] = None,
    ) -> Optional[ScheduledEvent]:
        """Apply one fault by hand, now or at an absolute sim time.

        Nothing is journaled or published; the fault only shows in the
        counters.  A fault aimed at a target that is already down is a
        recorded no-op (see :class:`NoopInjection`), never an error.

        Args:
            perturbation: The fault (e.g. ``CrashPE(operator="work")``).
            job: The job PE- and operator-targeted faults resolve against.
            feed: The feed load faults control.
            at: Absolute sim time to fire (None: immediately).  The target
                is resolved now, for the kernel label, and again at fire
                time.

        Returns:
            The cancellable handle when ``at`` is given, else None.
        """
        if at is None:
            self._apply(perturbation, job, feed)
            return None
        handle = self.kernel.schedule_at(
            at, self._apply, perturbation, job, feed,
            label=perturbation.label(self.system, job),
        )
        self._pending.add(handle)
        return handle

    def _apply(
        self, perturbation: Perturbation, job: Optional["Job"], feed: Optional[Any]
    ) -> Tuple[str, Dict[str, Any]]:
        """Apply ``perturbation``; schedule its undo, if it has a window."""
        target, detail = perturbation.apply(self.system, job, feed)
        undo = detail.pop("_undo", None)
        if undo is not None:
            delay, label, callback = undo
            self._pending.add(self.kernel.schedule(delay, callback, label=label))
        return target, detail

    def record(self, kind: str) -> None:
        """Count one kill, restart or revive that landed."""
        self.injected += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    def record_noop(self, kind: str, target: str, reason: str) -> None:
        """Record a fault that found nothing to do (e.g. ``pe_crashed``)."""
        self.noops.append(NoopInjection(kind, target, reason, self.kernel.now))

    def pending_count(self) -> int:
        """Timed faults and undos that have neither fired nor been cancelled."""
        return len(self._pending.outstanding())

    def cancel_all(self) -> int:
        """Cancel every pending timed fault and undo.

        A cancelled undo leaves its fault in place: a host stays down, a
        surge or skew stays on, commits stay torn.

        Returns:
            How many handles were actually retracted.
        """
        return self._pending.cancel_all()

    # -- scheduling ---------------------------------------------------------

    def run_scenario(
        self,
        scenario: Scenario,
        job: Optional["Job"] = None,
        feed: Optional[Any] = None,
        start_in: float = 0.0,
    ) -> ScenarioRun:
        """Schedule every step of a scenario on the kernel.

        Args:
            scenario: The scenario to execute.
            job: Job that operator-targeted perturbations resolve
                against (required for PE/region perturbations).
            feed: The workload feed load perturbations control.
            start_in: Seconds from now until the scenario's t=0.

        Returns:
            The tracking :class:`ScenarioRun` (already in ``runs``).

        Raises:
            ChaosError: The scenario fails :meth:`Scenario.validate`
                (empty, blank name, negative step times/jitter) —
                rejected before anything is scheduled.
        """
        scenario.validate()
        rng = self.system.random.stream(f"chaos:{scenario.name}")
        run = ScenarioRun(
            run_id=f"chaos-{self._next_run}",
            scenario=scenario,
            job=job,
            feed=feed,
            started_at=self.kernel.now + start_in,
            baselines={
                "noops": len(self.noops),
                "dropped_in_flight": self.system.transport.dropped_in_flight,
                "dropped_by_fault": self.system.transport.dropped_by_fault,
                "total_dropped": self.system.transport.total_dropped,
                "retransmissions": self.system.transport.retransmissions,
                "acks": self.system.transport.acks,
                "duplicates_suppressed": (
                    self.system.transport.duplicates_suppressed
                ),
                "replayed": self.system.transport.replayed,
            },
        )
        self._next_run += 1
        for index, scenario_step in enumerate(scenario.steps):
            at = run.started_at + scenario_step.resolve_at(rng)
            run.step_times.append(at)
            run._handles.append(
                self.kernel.schedule_at(
                    max(at, self.kernel.now),
                    self._fire,
                    run,
                    index,
                    label=f"{run.run_id}-step{index}",
                )
            )
        self.runs.append(run)
        # the scenario's t=0 lands in the flight recorder, so a dump
        # shows where the campaign started relative to its injections
        self.system.obs.record_control_event(
            "chaos:scenario",
            run.started_at,
            run=run.run_id,
            scenario=scenario.name,
            steps=len(scenario.steps),
            job="" if job is None else job.job_id,
        )
        return run

    def cancel_run(self, run: ScenarioRun) -> int:
        """Cancel every not-yet-fired step of a run.

        Steps are judged by the run's own journal (injections + errors),
        not by timestamps — a step firing at the *current* sim instant
        is never double-counted as retracted.

        Args:
            run: The run to stop.

        Returns:
            How many steps were retracted.
        """
        fired = {i.step_index for i in run.injections}
        fired.update(index for index, _ in run.errors)
        cancelled = 0
        for index, handle in enumerate(run._handles):
            if index not in fired and not handle.cancelled:
                handle.cancel()
                cancelled += 1
        run.cancelled_steps += cancelled
        return cancelled

    def _fire(self, run: ScenarioRun, index: int) -> None:
        perturbation = run.scenario.steps[index].perturbation
        try:
            target, detail = self._apply(perturbation, run.job, run.feed)
        except Exception as exc:  # record, never crash the kernel
            run.errors.append((index, repr(exc)))
            return
        injection = ChaosInjection(
            run_id=run.run_id,
            scenario=run.scenario.name,
            step_index=index,
            kind=perturbation.KIND,
            target=target,
            time=self.kernel.now,
            job_id=run.job.job_id if run.job is not None else None,
            detail=detail,
        )
        if (
            injection.kind in RECOVERABLE_KINDS
            and not injection.detail.get("pe_ids")
        ):
            # no victim PEs (e.g. a host flap on an empty host): there is
            # nothing whose restart could ever stamp recovery — the fault
            # is trivially recovered the moment it lands
            injection.recovered_at = injection.time
        run.injections.append(injection)
        self.injections.append(injection)
        self._publish_gauges(run)
        self.system.events.publish("injection", injection)

    # -- checkpoint-fault window (refcounted for overlapping steps) ---------

    def arm_checkpoint_fault(self) -> None:
        """Open one commit-fault window (stacks with open windows)."""
        if self._ckpt_fault_depth == 0:
            self._ckpt_fault_previous = self.system.checkpoints.commit_fault
            self.system.checkpoints.commit_fault = lambda pe: True
        self._ckpt_fault_depth += 1

    def disarm_checkpoint_fault(self) -> None:
        """Close one commit-fault window; commits resume when all closed."""
        if self._ckpt_fault_depth == 0:
            return
        self._ckpt_fault_depth -= 1
        if self._ckpt_fault_depth == 0:
            self.system.checkpoints.commit_fault = self._ckpt_fault_previous
            self._ckpt_fault_previous = None

    # -- recovery tracking --------------------------------------------------

    def find_pe(self, pe_id: str) -> Optional[PERuntime]:
        """Find a PE by id across every job SAM knows (host faults can span
        jobs; a rescale may have removed it: None)."""
        for job in self.system.sam.jobs.values():
            for pe in job.pes:
                if pe.pe_id == pe_id:
                    return pe
        return None

    def _on_pe_restarted(self, pe: PERuntime) -> None:
        """``pe_restart`` event: stamp recovery on *every* matching crash injection.

        A PE can be the victim of several journaled injections (a flap
        plus a recorded-no-op crash, or two faults racing) — all of them
        recover together when the last victim PE is RUNNING again.
        """
        for injection in self.injections:
            if injection.recovered_at is not None:
                continue
            if injection.kind not in RECOVERABLE_KINDS:
                continue
            pe_ids = injection.detail.get("pe_ids", ())
            if pe.pe_id not in pe_ids:
                continue
            victims = [self.find_pe(pe_id) for pe_id in pe_ids]
            all_up = all(
                victim.state is PEState.RUNNING
                for victim in victims
                if victim is not None  # removed PEs can never come back
            )
            if all_up:
                injection.recovered_at = self.kernel.now

    # -- registry gauges --------------------------------------------------

    def _publish_gauges(self, run: ScenarioRun) -> None:
        """Set one run's progress gauges.

        Counts cover the *run* only (the gauges are labeled per scenario,
        and concurrent campaigns must not clobber each other's numbers).
        """
        by_kind: Dict[str, int] = {}
        for injection in run.injections:
            by_kind[injection.kind] = by_kind.get(injection.kind, 0) + 1
        values = {
            "repro_chaos_injections": len(run.injections),
            "repro_chaos_active_link_faults": len(
                self.system.transport.active_link_faults()
            ),
        }
        for kind, count in by_kind.items():
            values[f"repro_chaos_injections_{kind}"] = count
        self.publish_scorecard_gauges(run.scenario.name, values)

    def publish_scorecard_gauges(
        self, scenario_name: str, values: Dict[str, float]
    ) -> None:
        """Set ``repro_chaos_*`` gauges labeled with one scenario.

        Args:
            scenario_name: The ``pe`` label is ``chaos:<scenario_name>``,
                so concurrent campaigns do not clobber each other.
            values: Exported gauge name -> value (e.g.
                ``{"repro_chaos_tuples_lost": 0}``).
        """
        labels = {"job": CHAOS_JOB_ID, "pe": f"chaos:{scenario_name}"}
        for name, value in values.items():
            self.metrics.gauge(name, labels, help_text=SRM_HELP).set(float(value))

    # -- inspection ---------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """Snapshot served by the ORCA ``chaos_status()`` inspection.

        Beyond the fault counters (``injector``: landed kills, restarts
        and revives by kind, recorded no-ops, pending timed faults and
        undos) and the journal summary, the snapshot breaks active link
        faults down by effect (``latency``/``partition``/``loss`` — one
        fault can count toward several) and totals run progress
        (``runs_done``, ``step_errors``, ``cancelled_steps``) so long
        fuzz searches are inspectable from ORCA mid-flight.
        """
        link_faults = self.system.transport.active_link_faults()
        by_effect = {"latency": 0, "partition": 0, "loss": 0}
        for fault in link_faults:
            if fault.extra_latency > 0.0:
                by_effect["latency"] += 1
            if fault.partition:
                by_effect["partition"] += 1
            if fault.drop_probability > 0.0:
                by_effect["loss"] += 1
        return {
            "runs": len(self.runs),
            "runs_done": sum(1 for run in self.runs if run.done),
            "injections": len(self.injections),
            "step_errors": sum(len(run.errors) for run in self.runs),
            "cancelled_steps": sum(run.cancelled_steps for run in self.runs),
            "active_link_faults": len(link_faults),
            "active_link_faults_by_effect": by_effect,
            "injector": {
                "injected": self.injected,
                "by_kind": dict(self.by_kind),
                "noops": len(self.noops),
                "pending": self.pending_count(),
            },
            "last_injection": (
                {
                    "scenario": self.injections[-1].scenario,
                    "kind": self.injections[-1].kind,
                    "target": self.injections[-1].target,
                    "time": self.injections[-1].time,
                }
                if self.injections
                else None
            ),
        }
