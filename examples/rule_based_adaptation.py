#!/usr/bin/env python
"""Rule-based orchestration — the paper's Sec. 7 outlook, implemented.

Instead of subclassing Orchestrator and hand-writing handlers, policies
are declared as event-condition-action rules; events no rule handles fall
back to default actions (automatic PE restart for failures — the paper's
own example of a sensible default).

The scenario: run the Figure 2 application under two rules —

1. if a sink has processed 200+ tuples, log a milestone (once);
2. if a PE of composite c1 fails, restart it AND notify (custom action);
   failures elsewhere are auto-restarted by the default action.

Run:  python examples/rule_based_adaptation.py
"""

from repro import ManagedApplication, OrcaDescriptor, SystemS
from repro.apps.figure2 import build_figure2_application
from repro.chaos import CrashPE
from repro.orca.rules import RuleOrchestrator, when
from repro.orca.scopes import OperatorMetricScope, PEFailureScope


def main() -> None:
    system = SystemS(hosts=2, seed=42)
    app = build_figure2_application(per_tick=4, period=0.5)

    milestones = []
    c1_failovers = []

    rules = [
        when(
            "milestone",
            OperatorMetricScope("milestone")
            .addOperatorTypeFilter("Sink")
            .addOperatorMetric("nTuplesProcessed"),
        )
        .given(lambda ctx: ctx.value >= 200)
        .once()
        .then(
            lambda orca, ctx: milestones.append(
                (orca.now, ctx.instance_name, ctx.value)
            )
        ),
        when(
            "c1-failure",
            PEFailureScope("c1-failure").addCompositeInstanceFilter("c1"),
        )
        .then(
            lambda orca, ctx: (
                c1_failovers.append((orca.now, ctx.pe_id)),
                orca.restart_pe(ctx.pe_id),
            )
        ),
    ]

    logic = RuleOrchestrator(rules, submit=["Figure2"])
    service = system.submit_orchestrator(
        OrcaDescriptor(
            name="RuleOrca",
            logic=lambda: logic,
            applications=[ManagedApplication(name=app.name, application=app)],
        )
    )

    print("running 60 s ...")
    system.run_for(60.0)
    print(f"milestone rule fired (once): {milestones}")

    job = logic.jobs[0]
    print("\nkilling PE 1 (contains c1 operators -> matched by the c1 rule)")
    system.chaos.inject(CrashPE(pe_index=1), job=job)
    system.run_for(5.0)
    print(f"c1 rule handled: {c1_failovers}")
    print(f"defaulted failures so far: {len(logic.defaulted)}")

    print("\nkilling PE 3 (only c2 operators -> default auto-restart)")
    system.chaos.inject(CrashPE(pe_index=3), job=job)
    system.run_for(5.0)
    print(f"defaulted failures now: {len(logic.defaulted)}")
    states = {pe.pe_id: pe.state.value for pe in job.pes}
    print(f"final PE states: {states}")
    assert all(s == "running" for s in states.values())

    print("\nactuation log (txn-id -> action):")
    for record in service.actuation_log:
        print(f"  txn={record.txn_id:3d}  {record.action:12s} {record.detail}")


if __name__ == "__main__":
    main()
