"""Ablation — Fig. 1's embedded adaptation vs. the orchestrator.

The paper's motivating argument (Sec. 1): embedding the control logic in
the stream graph (extra operators op8/op9) works, but couples control and
data processing — "neither the data processing logic nor the adaptation
logic can be reused by other applications".

This ablation runs BOTH designs on the same shifted workload and
compares:

* adaptation effectiveness — both must trigger the model recomputation
  after the shift and recover (shape equal);
* coupling — the embedded variant carries extra control operators in the
  application graph, the orchestrated variant keeps the graph pure and
  the policy in a reusable ORCA class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import ManagedApplication, OrcaDescriptor, SystemS
from repro.apps.datastore import CauseModelStore, CorpusStore
from repro.apps.hadoop import SimulatedHadoopCluster
from repro.apps.orchestrators import SentimentOrca, orca_logic_loc
from repro.apps.sentiment import (
    build_embedded_adaptation_application,
    build_sentiment_application,
)
from repro.apps.workloads import TweetWorkload

from benchmarks.conftest import emit

HORIZON = 400.0


@dataclass
class VariantResult:
    trigger_times: list
    final_causes: tuple
    graph_operator_count: int
    control_operator_count: int


def run_embedded_variant() -> VariantResult:
    system = SystemS(hosts=4, seed=42)
    corpus = CorpusStore()
    models = CauseModelStore(("flash", "screen"))
    hadoop = SimulatedHadoopCluster(system.kernel, corpus, models, duration=30.0)
    triggers = []

    def script():
        triggers.append(system.now)
        hadoop.submit_cause_recomputation()

    app = build_embedded_adaptation_application(
        TweetWorkload(seed=7, rate=20), corpus, models, script=script
    )
    system.submit_job(app)
    system.run_for(HORIZON)
    control_ops = [
        name
        for name in app.graph.operators
        if name in ("op8", "op9")
    ]
    return VariantResult(
        trigger_times=triggers,
        final_causes=tuple(sorted(models.current.causes)),
        graph_operator_count=len(app.graph.operators),
        control_operator_count=len(control_ops),
    )


def run_orchestrated_variant() -> VariantResult:
    system = SystemS(hosts=4, seed=42)
    corpus = CorpusStore()
    models = CauseModelStore(("flash", "screen"))
    hadoop = SimulatedHadoopCluster(system.kernel, corpus, models, duration=30.0)
    app = build_sentiment_application(
        TweetWorkload(seed=7, rate=20), corpus, models
    )
    logic = SentimentOrca(hadoop)
    system.submit_orchestrator(
        OrcaDescriptor(
            name="S",
            logic=lambda: logic,
            applications=[ManagedApplication(name=app.name, application=app)],
            metric_poll_interval=1.0,
        )
    )
    system.run_for(HORIZON)
    return VariantResult(
        trigger_times=list(logic.trigger_times),
        final_causes=tuple(sorted(models.current.causes)),
        graph_operator_count=len(app.graph.operators),
        control_operator_count=0,
    )


def test_embedded_vs_orchestrated(results_dir):
    embedded, orchestrated = run_embedded_variant(), run_orchestrated_variant()

    lines = [
        f"{'':<28} {'embedded (Fig. 1)':>18} {'orchestrated':>14}",
        f"{'graph operators':<28} {embedded.graph_operator_count:>18} "
        f"{orchestrated.graph_operator_count:>14}",
        f"{'control ops inside graph':<28} {embedded.control_operator_count:>18} "
        f"{orchestrated.control_operator_count:>14}",
        f"{'policy location':<28} {'welded into graph':>18} "
        f"{'SentimentOrca':>14}",
        f"{'policy LoC (reusable)':<28} {'n/a':>18} "
        f"{orca_logic_loc(SentimentOrca):>14}",
        f"{'triggers':<28} {str(embedded.trigger_times):>18} "
        f"{str(orchestrated.trigger_times):>14}",
        f"{'final causes':<28} {str(embedded.final_causes):>18} "
        f"{str(orchestrated.final_causes):>14}",
    ]
    emit(results_dir, "ablation_embedded", lines)

    # Both designs adapt: one trigger after the shift, model refreshed.
    assert len(embedded.trigger_times) == 1
    assert len(orchestrated.trigger_times) == 1
    assert 250.0 <= embedded.trigger_times[0] <= 300.0
    assert 250.0 <= orchestrated.trigger_times[0] <= 300.0
    assert "antenna" in embedded.final_causes
    assert "antenna" in orchestrated.final_causes
    # The coupling cost is structural: extra control operators in the graph.
    assert embedded.control_operator_count == 2
    assert orchestrated.control_operator_count == 0
    assert (
        embedded.graph_operator_count > orchestrated.graph_operator_count
    )
