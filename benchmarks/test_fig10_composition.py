"""Figure 10 — on-demand dynamic application composition (Sec. 5.3).

Paper behaviour: C1 and C2 applications are brought up through registered
dependencies; whenever 1500 *new* profiles with a segmentation attribute
accumulate, the orchestrator expands the graph with a C3 job for that
attribute; when the C3 sink observes final punctuation the job is
cancelled, contracting the graph again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro import ManagedApplication, OrcaDescriptor, SystemS
from repro.apps.datastore import ProfileDataStore
from repro.apps.orchestrators import CompositionOrca
from repro.apps.socialmedia import build_all_socialmedia_applications
from repro.tools import render_system_dot

from benchmarks.conftest import emit

THRESHOLD = 1500


@dataclass
class Fig10Result:
    events: List[Tuple[str, str, float]]
    c3_history: List[Tuple[float, str, str]]
    results: List[dict]
    store_size: int
    store_writes: int
    job_count_series: List[Tuple[float, int]]
    final_running: List[str]
    graph_dot: str = ""


def run_fig10_scenario(horizon: float = 400.0, rate: int = 15) -> Fig10Result:
    system = SystemS(hosts=6, seed=42)
    store = ProfileDataStore()
    results: List[dict] = []
    apps = build_all_socialmedia_applications(
        store, results=results, profile_rate=rate
    )
    logic = CompositionOrca(threshold=THRESHOLD)
    system.submit_orchestrator(
        OrcaDescriptor(
            name="CompositionOrca",
            logic=lambda: logic,
            applications=[
                ManagedApplication(name=n, application=a)
                for n, a in apps.items()
            ],
            metric_poll_interval=5.0,
        )
    )
    system.run_for(horizon)
    # job-count series from the submit/cancel event log
    count = 0
    series: List[Tuple[float, int]] = []
    for kind, _, when in sorted(logic.events, key=lambda e: e[2]):
        count += 1 if kind == "submit" else -1
        series.append((when, count))
    return Fig10Result(
        events=list(logic.events),
        c3_history=list(logic.c3_history),
        results=list(results),
        store_size=len(store),
        store_writes=store.total_writes,
        job_count_series=series,
        final_running=sorted(j.app_name for j in system.sam.running_jobs()),
        graph_dot=render_system_dot(system),
    )


def test_fig10_composition(results_dir):
    result = run_fig10_scenario()

    lines = [f"profile threshold: {THRESHOLD} new profiles per attribute", ""]
    lines.append(f"{'t':>7}  {'event':>7}  app")
    for kind, app, when in result.events[:40]:
        lines.append(f"{when:7.1f}  {kind:>7}  {app}")
    lines.append("")
    lines.append(f"C3 spawns: {len(result.c3_history)}")
    for when, attr, job_id in result.c3_history[:15]:
        lines.append(f"  t={when:7.1f}  attribute={attr:9s}  {job_id}")
    lines.append("")
    lines.append(f"running job count over time (expansion/contraction):")
    for when, count in result.job_count_series[:40]:
        lines.append(f"  t={when:7.1f}  jobs={count}  {'#' * count}")
    lines.append("")
    lines.append(f"profile store: {result.store_size} unique profiles, "
                 f"{result.store_writes} writes (duplicates included)")
    lines.append(f"running at the end: {result.final_running}")
    emit(results_dir, "fig10_composition", lines)
    # the figure itself is a graph visualization: emit the DOT rendering
    (results_dir / "fig10_composition.dot").write_text(result.graph_dot + "\n")
    assert "TwitterStreamReader" in result.graph_dot
    assert "dashed" in result.graph_dot  # dynamic import/export connections

    # Shape of Fig. 10:
    submits = [e for e in result.events if e[0] == "submit"]
    cancels = [e for e in result.events if e[0] == "cancel"]
    # C1 + C2 dependency bring-up: the first five submissions
    first_apps = sorted(app for _, app, _ in submits[:5])
    assert first_apps == [
        "BlogQuery", "FacebookQuery", "MySpaceStreamReader",
        "TwitterQuery", "TwitterStreamReader",
    ]
    # expansion: C3 jobs spawned for at least two attributes
    assert len({attr for _, attr, _ in result.c3_history}) >= 2
    # contraction: C3 jobs cancelled after final punctuation
    assert cancels and all(app == "AttributeAggregator" for _, app, _ in cancels)
    # every C3 produced a segmentation result before being cancelled
    assert len(result.results) >= len(cancels)
    # the orchestrator's counts include duplicates, the store does not
    assert result.store_writes > result.store_size
    # the base C1/C2 layer never contracts (always 5 base jobs running)
    assert all(count >= 5 for _, count in result.job_count_series[4:])
