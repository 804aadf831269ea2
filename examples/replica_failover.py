#!/usr/bin/env python
"""Use case 5.2 — adaptation to failures via replica failover (Fig. 9).

The "Trend Calculator" computes min/max/average/Bollinger bands per stock
symbol over a 600-second sliding window and uses *no checkpointing* — a
crashed PE loses all its window state.  The orchestrator therefore runs
three replicas in exclusive host pools; when a PE of the *active* replica
crashes, it promotes the oldest healthy replica, demotes the failed one,
and restarts the crashed PE, which then needs 600 s of fresh data before
its output is trustworthy again.

Run:  python examples/replica_failover.py
"""

import io

from repro import ManagedApplication, OrcaDescriptor, SystemS
from repro.apps.orchestrators import FailoverOrca
from repro.apps.trend import TrendRecorderHub, build_trend_application
from repro.apps.workloads import TradeWorkload
from repro.chaos import CrashPE


def main() -> None:
    system = SystemS(hosts=8, seed=42)
    hub = TrendRecorderHub()
    status_file = io.StringIO()  # the file the paper's GUI reads
    app = build_trend_application(
        lambda: TradeWorkload(seed=11), hub=hub, window_span=600.0
    )
    logic = FailoverOrca(n_replicas=3, status_stream=status_file)
    descriptor = OrcaDescriptor(
        name="FailoverOrca",
        logic=lambda: logic,
        applications=[ManagedApplication(name=app.name, application=app)],
    )
    service = system.submit_orchestrator(descriptor)

    print("running 650 s so all windows are full ...")
    system.run_for(650.0)
    print(f"exclusive host reservations: {system.sam.reserved_hosts}")
    for job_id, record in logic.replicas.items():
        hosts = sorted({pe.host_name for pe in service.job(job_id).pes})
        print(
            f"  replica {record['replica']} ({job_id}): {record['status']:6s} "
            f"hosts={hosts}"
        )

    active = logic.active_job_id()
    job = service.job(active)
    print(f"\nkilling the calculator PE of the ACTIVE replica ({active}) ...")
    system.chaos.inject(CrashPE(operator="calc"), job=job)
    system.run_for(60.0)

    for when, failed, promoted in logic.failovers:
        print(f"failover at t={when:.2f}: {failed} -> {promoted}")
    print("status after failover:")
    for job_id, record in sorted(logic.replicas.items()):
        print(f"  replica {record['replica']}: {record['status']}")

    # Fig. 9(b): the failed replica's output diverges until its windows
    # refill; the promoted replica's output is continuous.
    failed_replica = logic.replicas[active]["replica"]
    promoted_replica = logic.replicas[logic.failovers[0][2]]["replica"]
    failed_points = {p.ts: p for p in hub.points_for(failed_replica, "IBM")}
    good_points = {p.ts: p for p in hub.points_for(promoted_replica, "IBM")}
    common = sorted(set(failed_points) & set(good_points))
    print("\n   t      active avg   restarted avg   |diff|   coverage")
    for ts in common:
        if ts > 651 and int(ts) % 10 == 0:
            good = good_points[ts]
            bad = failed_points[ts]
            print(
                f"{ts:7.1f}  {good.average:11.3f}  {bad.average:13.3f}  "
                f"{abs(good.average - bad.average):7.3f}  {bad.coverage:7.1f}s"
            )

    print("\nstatus file written for the GUI (last lines):")
    for line in status_file.getvalue().splitlines()[-3:]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
