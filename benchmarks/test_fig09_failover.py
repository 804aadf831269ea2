"""Figure 9 — Trend Calculator replica failover (Sec. 5.2).

Paper behaviour: (a) with all replicas healthy, the active and backup
graphs are identical; (b) after a PE of the active replica is killed, the
orchestrator fails over to the oldest backup (its graph keeps updating),
while the failed replica produces no output while its PE is down and
*incorrect* output after restart until its 600-second windows refill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import ManagedApplication, OrcaDescriptor, SystemS
from repro.apps.orchestrators import FailoverOrca
from repro.apps.trend import TrendRecorderHub, build_trend_application
from repro.apps.workloads import TradeWorkload

from benchmarks.conftest import emit

WINDOW = 600.0
CRASH_AT = 650.0
SYMBOL = "IBM"


@dataclass
class Fig9Result:
    failovers: List[Tuple[float, str, str]]
    statuses: Dict[str, str]
    active_series: List[Tuple[float, float]]
    failed_series: List[Tuple[float, float]]
    failed_coverage: List[Tuple[float, float]]
    gap_seconds: float
    reserved_hosts: int


def run_fig9_scenario(horizon_after: float = 700.0) -> Fig9Result:
    system = SystemS(hosts=8, seed=42)
    hub = TrendRecorderHub()
    app = build_trend_application(
        lambda: TradeWorkload(seed=11), hub=hub, window_span=WINDOW
    )
    logic = FailoverOrca(n_replicas=3)
    service = system.submit_orchestrator(
        OrcaDescriptor(
            name="FailoverOrca",
            logic=lambda: logic,
            applications=[ManagedApplication(name=app.name, application=app)],
        )
    )
    system.run_until(CRASH_AT)
    active = logic.active_job_id()
    job = service.job(active)
    failed_replica = logic.replicas[active]["replica"]
    system.failures.crash_pe(active, pe_index=job.compiled.pe_of("calc"))
    system.run_for(horizon_after)

    promoted = logic.failovers[0][2]
    promoted_replica = logic.replicas[promoted]["replica"]
    failed_points = hub.points_for(failed_replica, SYMBOL)
    ts = [p.ts for p in failed_points]
    gap = max((b - a) for a, b in zip(ts, ts[1:]))
    return Fig9Result(
        failovers=list(logic.failovers),
        statuses={r["replica"]: r["status"] for r in logic.replicas.values()},
        active_series=hub.series(promoted_replica, SYMBOL),
        failed_series=hub.series(failed_replica, SYMBOL),
        failed_coverage=[(p.ts, p.coverage) for p in failed_points],
        gap_seconds=gap,
        reserved_hosts=len(system.sam.reserved_hosts),
    )


def test_fig9_failover(results_dir):
    result = run_fig9_scenario()

    active = dict(result.active_series)
    failed = dict(result.failed_series)
    coverage = dict(result.failed_coverage)
    lines = [
        f"PE of active replica killed at t={CRASH_AT:.0f}; "
        f"window span = {WINDOW:.0f} s",
        f"failover: {result.failovers}",
        f"statuses after failover: {result.statuses}",
        f"exclusive hosts reserved: {result.reserved_hosts}",
        f"failed replica max output gap: {result.gap_seconds:.2f} s",
        "",
        f"{'t':>7}  {'active avg':>11}  {'failed avg':>11}  "
        f"{'|diff|':>8}  {'coverage':>9}",
    ]
    common = sorted(set(active) & set(failed))
    post_crash = [t for t in common if t > CRASH_AT]
    sampled = common[::100] + post_crash[:8] + post_crash[40::100]
    for t in sorted(set(sampled)):
        diff = abs(active[t] - failed[t])
        lines.append(
            f"{t:7.1f}  {active[t]:11.3f}  {failed[t]:11.3f}  "
            f"{diff:8.3f}  {coverage.get(t, 0):8.1f}s"
        )
    emit(results_dir, "fig09_failover", lines)

    # Shape of Fig. 9:
    assert len(result.failovers) == 1
    assert sorted(result.statuses.values()) == ["active", "backup", "backup"]
    # (a) before the crash both replicas' outputs are identical
    pre = [t for t in sorted(set(active) & set(failed)) if t < CRASH_AT]
    assert pre and all(abs(active[t] - failed[t]) < 1e-9 for t in pre)
    # (b) output gap while the PE is down
    assert result.gap_seconds > 1.0
    # (b) incorrect output right after restart (windows refilling)
    just_after = [
        t for t in sorted(set(active) & set(failed))
        if CRASH_AT + 2 < t < CRASH_AT + 60
    ]
    assert just_after
    assert max(abs(active[t] - failed[t]) for t in just_after) > 0.5
    assert all(coverage[t] < 60.0 for t in just_after)
    # full recovery: after one window span the outputs coincide again
    recovered = [
        t for t in sorted(set(active) & set(failed))
        if t > CRASH_AT + WINDOW + 20
    ]
    assert recovered
    assert all(abs(active[t] - failed[t]) < 1e-9 for t in recovered)
