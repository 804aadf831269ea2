"""Sec. 3 claims — orchestration overhead.

The paper asserts that (i) generating failure events adds no cost to the
managed applications, but *handling* them through an orchestrator delays
recovery by one extra RPC plus the user handler; and (ii) metric event
generation does not touch the application hot path (the ORCA service
polls SRM, which is fed by the host controllers' fixed-rate pushes).

Benchmark A measures PE recovery latency with SAM auto-restart vs with an
orchestrator in the loop.  Benchmark B measures application throughput
with no orchestrator, with a slow-polling and with a fast-polling
orchestrator — the three must agree (no hot-path effect).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import (
    ManagedApplication,
    Orchestrator,
    OrcaDescriptor,
    SystemConfig,
    SystemS,
)
from repro.orca.scopes import OperatorMetricScope, PEFailureScope
from repro.runtime.pe import PEState

from benchmarks.conftest import emit
from tests.conftest import make_linear_app


@dataclass
class RecoveryResult:
    auto_restart_latency: float
    orca_restart_latency: float
    extra_rpc_cost: float


class RestartOrca(Orchestrator):
    def __init__(self):
        super().__init__()
        self.job = None

    def handleOrcaStart(self, context):
        self.orca.registerEventScope(
            PEFailureScope("f").addApplicationFilter("Linear")
        )
        self.job = self.orca.submit_application("Linear")

    def handlePEFailureEvent(self, context, scopes):
        self.orca.restart_pe(context.pe_id)


def _time_until_running(system, victim) -> float:
    """Advance the kernel event by event until the PE is back up.

    Stepping per-event (instead of fixed increments) measures the exact
    simulated recovery instant, so the extra ORCA RPC (2 ms) is visible.
    """
    start = system.now
    while victim.state is not PEState.RUNNING:
        if not system.kernel.step():
            raise AssertionError("kernel drained before the PE recovered")
    return system.now - start


def measure_auto_restart() -> float:
    system = SystemS(hosts=2, config=SystemConfig(auto_restart_pes=True))
    job = system.submit_job(make_linear_app())
    system.run_for(5.0)
    victim = job.pes[0]
    victim.crash("bench")
    return _time_until_running(system, victim)


def measure_orca_restart() -> float:
    system = SystemS(hosts=2)
    app = make_linear_app()
    logic = RestartOrca()
    system.submit_orchestrator(
        OrcaDescriptor(
            name="R",
            logic=lambda: logic,
            applications=[ManagedApplication(name="Linear", application=app)],
        )
    )
    system.run_for(5.0)
    victim = logic.job.pes[0]
    victim.crash("bench")
    return _time_until_running(system, victim)


def run_recovery_comparison() -> RecoveryResult:
    auto = measure_auto_restart()
    orca = measure_orca_restart()
    return RecoveryResult(
        auto_restart_latency=auto,
        orca_restart_latency=orca,
        extra_rpc_cost=orca - auto,
    )


def test_recovery_latency_overhead(results_dir):
    result = run_recovery_comparison()

    lines = [
        f"SAM auto-restart recovery latency:     {result.auto_restart_latency * 1000:8.1f} ms",
        f"orchestrator-driven recovery latency:  {result.orca_restart_latency * 1000:8.1f} ms",
        f"orchestration overhead (extra RPC +    {result.extra_rpc_cost * 1000:8.1f} ms",
        " handler execution)",
    ]
    emit(results_dir, "overhead_recovery", lines)

    # Shape (Sec. 3): the orchestrated path is slower, but only by the
    # extra RPC + handler time — a small constant, not a multiple.
    assert result.orca_restart_latency > result.auto_restart_latency
    assert result.extra_rpc_cost < 0.25 * result.auto_restart_latency


@dataclass
class HotPathResult:
    tuples_no_orca: float
    tuples_slow_poll: float
    tuples_fast_poll: float


class WatchingOrca(Orchestrator):
    def __init__(self):
        super().__init__()
        self.job = None
        self.events = 0

    def handleOrcaStart(self, context):
        self.orca.registerEventScope(
            OperatorMetricScope("m").addOperatorMetric("nTuplesProcessed")
        )
        self.job = self.orca.submit_application("Linear")

    def handleOperatorMetricEvent(self, context, scopes):
        self.events += 1


def _throughput(poll_interval=None, horizon=120.0) -> float:
    system = SystemS(hosts=2)
    app = make_linear_app(per_tick=20, period=0.5)
    if poll_interval is None:
        job = system.submit_job(app)
        system.run_for(horizon)
        sink = job.operator_instance("sink")
        return len(sink.seen) / horizon
    logic = WatchingOrca()
    system.submit_orchestrator(
        OrcaDescriptor(
            name="W",
            logic=lambda: logic,
            applications=[ManagedApplication(name="Linear", application=app)],
            metric_poll_interval=poll_interval,
        )
    )
    system.run_for(horizon)
    sink = logic.job.operator_instance("sink")
    assert logic.events > 0
    return len(sink.seen) / horizon


def run_hot_path_comparison() -> HotPathResult:
    return HotPathResult(
        tuples_no_orca=_throughput(None),
        tuples_slow_poll=_throughput(15.0),
        tuples_fast_poll=_throughput(1.0),
    )


def test_metric_polling_off_hot_path(results_dir):
    result = run_hot_path_comparison()

    lines = [
        f"throughput, no orchestrator:        {result.tuples_no_orca:8.2f} tuples/s",
        f"throughput, 15 s metric polling:    {result.tuples_slow_poll:8.2f} tuples/s",
        f"throughput, 1 s metric polling:     {result.tuples_fast_poll:8.2f} tuples/s",
    ]
    emit(results_dir, "overhead_hotpath", lines)

    # Shape (Sec. 3): metric polling must not perturb application
    # throughput at all — SRM is fed by fixed-rate pushes either way.
    assert result.tuples_no_orca == result.tuples_slow_poll == result.tuples_fast_poll
