"""Figure 7 — application dependency schedule and garbage collection
(Sec. 4.4).

Paper walk-through: with the six-application dependency graph, starting
`all` submits the dependency-free fb/tw/fox/msnbc immediately, then sleeps
80 seconds (the largest uptime requirement) before submitting `all`; `sn`,
started in the same round, goes first because its required sleep (20 s) is
lower.  Cancelling `sn` leaves fb/tw running (still feeding `all`);
cancelling `all` garbage-collects fb/tw/msnbc but keeps fox (not
garbage-collectable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro import ManagedApplication, Orchestrator, OrcaDescriptor, SystemS
from repro.errors import StarvationError
from repro.orca.scopes import JobCancellationScope, JobSubmissionScope
from repro.spl.application import Application
from repro.spl.library import Beacon, Sink

from benchmarks.conftest import emit

#: (dependent, dependency, uptime requirement) — the Fig. 7 arcs
EDGES = [
    ("sn", "fb", 20.0),
    ("sn", "tw", 20.0),
    ("all", "fb", 80.0),
    ("all", "tw", 30.0),
    ("all", "fox", 45.0),
    ("all", "msnbc", 30.0),
]
#: garbage-collection flags (fox is the paper's F example)
GC_FLAGS = {"fb": True, "tw": True, "fox": False, "msnbc": True,
            "sn": True, "all": True}
APP_NAMES = {"fb": "fb", "tw": "tw", "fox": "fox", "msnbc": "msnbc",
             "sn": "sn", "all": "allmedia"}


def make_feed_app(name: str) -> Application:
    app = Application(name)
    g = app.graph
    src = g.add_operator("src", Beacon, params={"values": {}})
    sink = g.add_operator("sink", Sink, params={"record": False})
    g.connect(src.oport(0), sink.iport(0))
    return app


class Fig7Orca(Orchestrator):
    def __init__(self) -> None:
        super().__init__()
        self.timeline: List[Tuple[float, str, str]] = []

    def handleOrcaStart(self, context) -> None:
        self.orca.registerEventScope(JobSubmissionScope("subs"))
        self.orca.registerEventScope(JobCancellationScope("cans"))
        deps = self.orca.deps
        for config_id, app_name in APP_NAMES.items():
            deps.create_app_config(
                config_id, app_name,
                garbage_collectable=GC_FLAGS[config_id],
                gc_timeout=1.0 if GC_FLAGS[config_id] else 0.0,
            )
        for dependent, dependency, uptime in EDGES:
            deps.register_dependency(dependent, dependency, uptime)
        deps.start("all")
        deps.start("sn")

    def handleJobSubmissionEvent(self, context, scopes) -> None:
        self.timeline.append((context.time, "submit", context.config_id))

    def handleJobCancellationEvent(self, context, scopes) -> None:
        kind = "gc" if context.garbage_collected else "cancel"
        self.timeline.append((context.time, kind, context.config_id))


@dataclass
class Fig7Result:
    timeline: List[Tuple[float, str, str]]
    starvation_rejected: bool
    running_after_sn_cancel: List[str]
    running_after_all_cancel: List[str]


def run_fig7_scenario() -> Fig7Result:
    system = SystemS(hosts=4, seed=42)
    service = system.submit_orchestrator(
        OrcaDescriptor(
            name="Fig7Orca",
            logic=Fig7Orca,
            applications=[
                ManagedApplication(name=n, application=make_feed_app(n))
                for n in APP_NAMES.values()
            ],
        )
    )
    logic = service.logic
    system.run_for(100.0)
    starvation_rejected = False
    try:
        service.deps.cancel("fb")  # feeds sn and all
    except StarvationError:
        starvation_rejected = True
    service.deps.cancel("sn")
    system.run_for(10.0)
    after_sn = sorted(j.app_name for j in system.sam.running_jobs())
    service.deps.cancel("all")
    system.run_for(10.0)
    after_all = sorted(j.app_name for j in system.sam.running_jobs())
    return Fig7Result(
        timeline=list(logic.timeline),
        starvation_rejected=starvation_rejected,
        running_after_sn_cancel=after_sn,
        running_after_all_cancel=after_all,
    )


def test_fig7_dependency_schedule(results_dir):
    result = run_fig7_scenario()

    lines = ["dependency graph of Fig. 7 (uptime requirements on arcs)", ""]
    for when, kind, config in result.timeline:
        lines.append(f"  t={when:6.1f}  {kind:7s}  {config}")
    lines.append("")
    lines.append(f"cancel(fb) while in use rejected: {result.starvation_rejected}")
    lines.append(f"running after cancel(sn):  {result.running_after_sn_cancel}")
    lines.append(f"running after cancel(all): {result.running_after_all_cancel}")
    emit(results_dir, "fig07_dependencies", lines)

    submits = {c: t for t, k, c in result.timeline if k == "submit"}
    # "fb, tw, fox, and msnbc are all submitted at the same time"
    assert submits["fb"] == submits["tw"] == submits["fox"] == submits["msnbc"] == 0.0
    # "sn would be submitted first because its required sleeping time (20)
    #  is lower than all's (80)"
    assert submits["sn"] == 20.0
    assert submits["all"] == 80.0
    assert result.starvation_rejected
    # after sn: everything still running (fb/tw feed all)
    assert result.running_after_sn_cancel == [
        "allmedia", "fb", "fox", "msnbc", "tw",
    ]
    # after all: fox survives (not collectable), the rest are GC'd
    assert result.running_after_all_cancel == ["fox"]
    gcs = sorted(c for _, k, c in result.timeline if k == "gc")
    assert gcs == ["fb", "msnbc", "tw"]
