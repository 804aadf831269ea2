"""Figure 8 — unknown/known sentiment-cause ratio over time (Sec. 5.1).

Paper series: ratio below 1.0 during startup (known causes dominate);
around epoch 250 the antenna complaints start and the ratio climbs past
the 1.0 actuation threshold; the ORCA logic triggers one Hadoop job
(guarded to at most one per 10 minutes); once the streaming job reloads
the refreshed model the ratio stabilizes below 1.0 again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro import ManagedApplication, OrcaDescriptor, SystemS
from repro.apps.datastore import CauseModelStore, CorpusStore
from repro.apps.hadoop import SimulatedHadoopCluster
from repro.apps.orchestrators import SentimentOrca
from repro.apps.sentiment import build_sentiment_application
from repro.apps.workloads import TweetWorkload

from benchmarks.conftest import emit


@dataclass
class Fig8Result:
    series: List[Tuple[int, float]]
    trigger_times: List[float]
    job_windows: List[Tuple[float, float]]
    model_versions: int
    final_causes: tuple


def run_fig8_scenario(
    horizon: float = 400.0,
    shift_at: float = 250.0,
    threshold: float = 1.0,
    hadoop_duration: float = 30.0,
    seed: int = 7,
) -> Fig8Result:
    system = SystemS(hosts=4, seed=42)
    corpus = CorpusStore()
    models = CauseModelStore(("flash", "screen"))
    hadoop = SimulatedHadoopCluster(
        system.kernel, corpus, models, duration=hadoop_duration
    )
    workload = TweetWorkload(seed=seed, rate=20)
    app = build_sentiment_application(workload, corpus, models)
    logic = SentimentOrca(hadoop, threshold=threshold)
    descriptor = OrcaDescriptor(
        name="SentimentOrca",
        logic=lambda: logic,
        applications=[ManagedApplication(name=app.name, application=app)],
        metric_poll_interval=1.0,  # 1 epoch == 1 second, like the figure
    )
    system.submit_orchestrator(descriptor)
    system.run_for(horizon)
    return Fig8Result(
        series=list(logic.ratio_series),
        trigger_times=list(logic.trigger_times),
        job_windows=[
            (j.submitted_at, j.completed_at or horizon) for j in hadoop.jobs
        ],
        model_versions=models.version,
        final_causes=tuple(sorted(models.current.causes)),
    )


def test_fig8_ratio_series(results_dir):
    result = run_fig8_scenario()

    lines = [f"{'epoch':>6}  {'unknown/known ratio':>20}"]
    for epoch, ratio in result.series:
        if epoch % 10 == 0:
            lines.append(f"{epoch:6d}  {ratio:20.3f}")
    lines.append("")
    lines.append(f"actuation threshold: 1.0")
    lines.append(f"hadoop trigger(s) at: {result.trigger_times}")
    lines.append(f"hadoop job window(s): {result.job_windows}")
    lines.append(f"model versions: {result.model_versions}; "
                 f"final causes: {result.final_causes}")
    emit(results_dir, "fig08_sentiment_ratio", lines)

    series = dict(result.series)
    pre_shift = [r for e, r in series.items() if 50 < e < 250]
    post_recovery = [r for e, r in series.items() if e > 320]
    peak = max(r for _, r in series.items())

    # Shape of Fig. 8:
    assert pre_shift and max(pre_shift) < 1.0, "ratio must start below 1.0"
    assert peak > 1.0, "shift must push the ratio past the threshold"
    assert len(result.trigger_times) == 1, "re-trigger guard: exactly one job"
    assert 250.0 <= result.trigger_times[0] <= 290.0, "trigger follows shift"
    assert post_recovery and max(post_recovery) < 1.0, (
        "ratio must stabilize below 1.0 after the model refresh"
    )
    assert "antenna" in result.final_causes
