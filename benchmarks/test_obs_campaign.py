"""Byte-stable observability artifacts of a fixed-seed chaos campaign.

The repro.obs acceptance bar: a traced chaos campaign on a fixed seed
must produce a byte-identical Prometheus export and flight-recorder
timeline every time it runs, because every recorded value derives from
the simulation clock and seeded streams — never from wall clocks or
hash order.  This benchmark runs the same campaign twice on fresh
systems, asserts both artifacts match byte-for-byte, and commits them
under ``benchmarks/results/`` so any determinism regression shows up
as a diff.
"""

from __future__ import annotations

from typing import Tuple

from repro import SystemS
from repro.chaos import Scenario
from repro.chaos.perturbations import LatencySpike, PEFlap
from repro.runtime.system import SystemConfig
from repro.spl.application import Application
from repro.spl.library import CallbackSource, KeyedCounter, Sink
from repro.spl.parallel import parallel

from benchmarks.conftest import emit

SEED = 29


def build_region_app(width: int = 2) -> Application:
    app = Application("ObsCampaign")
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={
            "generator": lambda now, count: [
                {"key": f"k{count % 8}", "seq": count}
            ],
            "period": 0.05,
        },
        partition="feed",
    )
    work = g.add_operator(
        "work",
        KeyedCounter,
        params={"key": "key"},
        parallel=parallel(width=width, name="region", partition_by="key"),
    )
    sink = g.add_operator("sink", Sink, params={"record": False}, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


def campaign_scenario() -> Scenario:
    return (
        Scenario(
            "obs_campaign",
            description="latency noise racing a traced channel flap",
        )
        .add(1.0, LatencySpike(extra=0.05, duration=2.0))
        .add(2.0, PEFlap(operator="work__c0", downtime=1.5, rehydrate=True))
    )


def run_campaign() -> Tuple[str, str]:
    """One traced campaign: (prometheus export, flight timeline)."""
    config = SystemConfig(
        trace_enabled=True,
        trace_sample_every=8,
        flight_capacity=512,
        checkpoint_interval=0.5,
    )
    system = SystemS(hosts=4, seed=SEED, config=config)
    job = system.submit_job(build_region_app())
    system.run_for(0.5)
    system.chaos.run_scenario(campaign_scenario(), job=job)
    system.run_for(10.0)
    prometheus = system.obs.render_prometheus()
    timeline = system.obs.dump_flight(
        "campaign_complete", job_id=job.job_id
    ).render()
    return prometheus, timeline


def test_campaign_artifacts_are_byte_stable(results_dir):
    first_prom, first_timeline = run_campaign()
    second_prom, second_timeline = run_campaign()
    assert first_prom == second_prom
    assert first_timeline == second_timeline
    assert first_timeline.startswith("# flight-recorder dump")
    # the campaign actually produced data-plane spans and SRM series
    assert "] data" in first_timeline
    assert "repro_tuples_processed_total{" in first_prom
    assert "repro_chaos_injections_total" in first_prom
    emit(
        results_dir,
        "obs_campaign_prometheus",
        first_prom.rstrip("\n").splitlines(),
    )
    emit(
        results_dir,
        "obs_campaign_timeline",
        first_timeline.rstrip("\n").splitlines(),
    )
