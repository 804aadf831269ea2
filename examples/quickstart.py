#!/usr/bin/env python
"""Quickstart: compose an application, orchestrate it, react to events.

Walks through the paper's core concepts in ~80 lines:

1. assemble the Fig. 2 application (a reusable split/merge composite
   instantiated twice);
2. write an ORCA logic that registers the exact event scopes of the
   paper's Fig. 5 — queueSize metrics of Split/Merge operators inside
   composite1, plus PE failures of the application;
3. submit the orchestrator, watch metric events arrive with epochs,
   crash a PE, and watch the failure handler restart it.

Run:  python examples/quickstart.py
"""

from repro import ManagedApplication, Orchestrator, OrcaDescriptor, SystemS
from repro.apps.figure2 import build_figure2_application
from repro.chaos import CrashPE
from repro.orca import OperatorMetricScope, PEFailureScope


class QuickstartOrca(Orchestrator):
    """The ORCA logic of the paper's Figs. 5-6, in Python."""

    def handleOrcaStart(self, context):
        # Fig. 5: operator metric subscope with composite-type, operator-
        # type and metric-name filters ...
        oms = OperatorMetricScope("opMetricScope")
        oms.addCompositeTypeFilter("composite1")
        oms.addOperatorTypeFilter(["Split", "Merge"])
        oms.addOperatorMetric(OperatorMetricScope.queueSize)
        # ... and a PE failure subscope with an application filter.
        pfs = PEFailureScope("failureScope")
        pfs.addApplicationFilter("Figure2")
        self.orca.registerEventScope(oms)
        self.orca.registerEventScope(pfs)
        self.job = self.orca.submit_application("Figure2")
        print(f"[{self.orca.now:7.2f}] orchestrator started; submitted {self.job.job_id}")

    def handleOperatorMetricEvent(self, context, scopes):
        print(
            f"[{self.orca.now:7.2f}] metric event: {context.instanceName} "
            f"{context.metric}={context.value:.0f} epoch={context.epoch} "
            f"scopes={scopes}"
        )

    def handlePEFailureEvent(self, context, scopes):
        inside = self.orca.operators_in_pe(context.pe_id)
        composites = self.orca.composites_in_pe(context.pe_id)
        print(
            f"[{self.orca.now:7.2f}] PE FAILURE: {context.pe_id} "
            f"reason={context.reason} epoch={context.epoch}"
        )
        print(f"          operators in failed PE: {inside}")
        print(f"          composites touching it: {sorted(composites)}")
        self.orca.restart_pe(context.pe_id)
        print(f"          -> restart requested")


def main() -> None:
    system = SystemS(hosts=2, seed=42)
    app = build_figure2_application(per_tick=3, period=0.5)

    descriptor = OrcaDescriptor(
        name="QuickstartOrca",
        logic=QuickstartOrca,
        applications=[ManagedApplication(name=app.name, application=app)],
        metric_poll_interval=15.0,  # the paper's default SRM poll rate
    )
    service = system.submit_orchestrator(descriptor)

    print("== running 35 s: two metric poll rounds ==")
    system.run_for(35.0)

    print("== crashing the shared PE (c1.op4/op6 + c2.op4/op6, Fig. 3) ==")
    job = service.logic.job
    system.chaos.inject(CrashPE(pe_index=2, reason="injected_fault"), job=job)
    system.run_for(20.0)

    print("== done ==")
    states = {pe.pe_id: pe.state.value for pe in job.pes}
    print(f"final PE states: {states}")
    assert all(state == "running" for state in states.values())


if __name__ == "__main__":
    main()
