"""Scale ablation for the dependency manager (Sec. 4.3).

**Dependency bring-up at scale** — the submission-thread algorithm walks
snapshots and sleeps per uptime requirement; this measures bring-up
latency (in simulated seconds) for chains and fan-ins far larger than
Fig. 7's six applications.

Event- and tuple-delivery *rates* are wall time, so ``python3 -m bench``
measures them: ``orca.dispatch_ns`` for the FIFO + dispatch path,
``transport.send_ns`` / ``transport.send_batch_ns`` for the one-at-a-time
vs batched wire (CI ``bench-ratios`` gates their ratio).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro import ManagedApplication, Orchestrator, OrcaDescriptor, SystemS
from repro.spl.application import Application
from repro.spl.library import Beacon, Sink

from benchmarks.conftest import emit


def tiny_app(name: str) -> Application:
    app = Application(name)
    g = app.graph
    src = g.add_operator("src", Beacon, params={"values": {}})
    sink = g.add_operator("sink", Sink, params={"record": False})
    g.connect(src.oport(0), sink.iport(0))
    return app


class ChainOrca(Orchestrator):
    """Builds a dependency chain a0 <- a1 <- ... and starts the head."""

    def __init__(self, depth: int, uptime: float):
        super().__init__()
        self.depth = depth
        self.uptime = uptime

    def handleOrcaStart(self, context):
        deps = self.orca.deps
        for i in range(self.depth):
            deps.create_app_config(f"a{i}", f"a{i}")
        for i in range(1, self.depth):
            deps.register_dependency(f"a{i}", f"a{i-1}", self.uptime)
        deps.start(f"a{self.depth - 1}")


@dataclass
class DependencyScaleResult:
    depths: List[int]
    bring_up_times: List[float]
    fanin_time: float
    fanin_width: int


def run_dependency_scale() -> DependencyScaleResult:
    uptime = 2.0
    depths = [2, 8, 24]
    times = []
    for depth in depths:
        system = SystemS(hosts=4)
        logic = ChainOrca(depth, uptime)
        service = system.submit_orchestrator(
            OrcaDescriptor(
                name="Chain",
                logic=lambda: logic,
                applications=[
                    ManagedApplication(name=f"a{i}", application=tiny_app(f"a{i}"))
                    for i in range(depth)
                ],
            )
        )
        horizon = depth * uptime + 10.0
        system.run_for(horizon)
        head = f"a{depth - 1}"
        assert service.deps.is_running(head), f"chain of {depth} never completed"
        times.append(service.deps.submit_time_of(head))

    # fan-in: one app depending on N leaves with staggered uptimes
    width = 30
    system = SystemS(hosts=4)

    class FanInOrca(Orchestrator):
        def handleOrcaStart(self, context):
            deps = self.orca.deps
            deps.create_app_config("top", "top")
            for i in range(width):
                deps.create_app_config(f"leaf{i}", f"leaf{i}")
                deps.register_dependency("top", f"leaf{i}", float(i % 7))
            deps.start("top")

    apps = [ManagedApplication(name="top", application=tiny_app("top"))]
    apps += [
        ManagedApplication(name=f"leaf{i}", application=tiny_app(f"leaf{i}"))
        for i in range(width)
    ]
    service = system.submit_orchestrator(
        OrcaDescriptor(name="FanIn", logic=FanInOrca, applications=apps)
    )
    system.run_for(20.0)
    assert service.deps.is_running("top")
    return DependencyScaleResult(
        depths=depths,
        bring_up_times=times,
        fanin_time=service.deps.submit_time_of("top"),
        fanin_width=width,
    )


def test_dependency_bring_up_scale(results_dir):
    result = run_dependency_scale()

    lines = [f"{'chain depth':>12}  {'head submitted at (s)':>22}"]
    for depth, t in zip(result.depths, result.bring_up_times):
        lines.append(f"{depth:12d}  {t:22.1f}")
    lines.append("")
    lines.append(
        f"fan-in of {result.fanin_width} leaves (uptimes 0..6 s): top "
        f"submitted at {result.fanin_time:.1f} s"
    )
    emit(results_dir, "scaling_dependencies", lines)

    # bring-up time = (depth - 1) * uptime exactly: no scheduling slack
    for depth, t in zip(result.depths, result.bring_up_times):
        assert t == (depth - 1) * 2.0
    # fan-in waits for the slowest leaf only (max, not sum)
    assert result.fanin_time == 6.0
