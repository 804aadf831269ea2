"""End-to-end integration tests for the paper's three use cases (Sec. 5)."""

import io

import pytest

from repro import ManagedApplication, OrcaDescriptor, SystemS
from repro.apps.datastore import CauseModelStore, CorpusStore, ProfileDataStore
from repro.apps.hadoop import SimulatedHadoopCluster
from repro.apps.orchestrators import (
    CompositionOrca,
    FailoverOrca,
    SentimentOrca,
    orca_logic_loc,
)
from repro.apps.sentiment import build_sentiment_application
from repro.apps.socialmedia import build_all_socialmedia_applications
from repro.apps.trend import TrendRecorderHub, build_trend_application
from repro.apps.workloads import TradeWorkload, TweetWorkload
from repro.chaos import CrashPE
from repro.runtime.pe import PEState


@pytest.fixture
def sentiment_setup():
    system = SystemS(hosts=4, seed=42)
    corpus = CorpusStore()
    models = CauseModelStore(("flash", "screen"))
    hadoop = SimulatedHadoopCluster(system.kernel, corpus, models, duration=30.0)
    workload = TweetWorkload(seed=7, rate=20)
    app = build_sentiment_application(workload, corpus, models)
    logic = SentimentOrca(hadoop)
    descriptor = OrcaDescriptor(
        name="S",
        logic=lambda: logic,
        applications=[ManagedApplication(name=app.name, application=app)],
        metric_poll_interval=1.0,
    )
    system.submit_orchestrator(descriptor)
    return system, logic, hadoop, models


class TestSentimentUseCase:
    def test_fig8_shape(self, sentiment_setup):
        """Fig. 8: ratio < 1 before the shift, > 1 after, < 1 post-refresh."""
        system, logic, hadoop, models = sentiment_setup
        system.run_for(400.0)
        series = dict(logic.ratio_series)
        pre = [r for e, r in series.items() if 50 < e < 250]
        post = [r for e, r in series.items() if e > 320]
        assert pre and max(pre) < 1.0
        assert max(r for _, r in series.items()) > 1.0
        assert post and max(post) < 1.0

    def test_single_trigger_thanks_to_guard(self, sentiment_setup):
        """Sec. 5.1: no new job within 10 minutes of the last one."""
        system, logic, hadoop, _ = sentiment_setup
        system.run_for(400.0)
        assert len(hadoop.jobs) == 1
        assert 250.0 <= hadoop.jobs[0].submitted_at <= 280.0

    def test_model_refreshed_with_new_cause(self, sentiment_setup):
        system, logic, hadoop, models = sentiment_setup
        system.run_for(400.0)
        assert models.version == 2
        assert "antenna" in models.current.causes

    def test_no_trigger_without_shift(self):
        system = SystemS(hosts=4, seed=42)
        corpus = CorpusStore()
        models = CauseModelStore(("flash", "screen"))
        hadoop = SimulatedHadoopCluster(system.kernel, corpus, models)
        from repro.apps.workloads import CausePhase

        workload = TweetWorkload(
            seed=7, rate=20,
            phases=(CausePhase(0.0, {"flash": 0.6, "screen": 0.4}),),
        )
        app = build_sentiment_application(workload, corpus, models)
        logic = SentimentOrca(hadoop)
        system.submit_orchestrator(
            OrcaDescriptor(
                name="S",
                logic=lambda: logic,
                applications=[ManagedApplication(name=app.name, application=app)],
                metric_poll_interval=1.0,
            )
        )
        system.run_for(200.0)
        assert hadoop.jobs == []


@pytest.fixture
def failover_setup():
    system = SystemS(hosts=8, seed=42)
    hub = TrendRecorderHub()
    status = io.StringIO()
    app = build_trend_application(
        lambda: TradeWorkload(seed=11), hub=hub, window_span=600.0
    )
    logic = FailoverOrca(n_replicas=3, status_stream=status)
    descriptor = OrcaDescriptor(
        name="F",
        logic=lambda: logic,
        applications=[ManagedApplication(name=app.name, application=app)],
    )
    service = system.submit_orchestrator(descriptor)
    return system, service, logic, hub, status


class TestFailoverUseCase:
    def test_replicas_on_disjoint_exclusive_hosts(self, failover_setup):
        system, service, logic, _, _ = failover_setup
        system.run_for(5.0)
        assert len(logic.replicas) == 3
        host_sets = [
            {pe.host_name for pe in service.job(job_id).pes}
            for job_id in logic.replicas
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (host_sets[i] & host_sets[j])
        assert len(system.sam.reserved_hosts) == 6

    def test_one_active_rest_backup(self, failover_setup):
        system, _, logic, _, _ = failover_setup
        system.run_for(5.0)
        statuses = sorted(r["status"] for r in logic.replicas.values())
        assert statuses == ["active", "backup", "backup"]

    def test_healthy_replicas_produce_identical_output(self, failover_setup):
        """Fig. 9(a): when all replicas are healthy the graphs coincide."""
        system, _, logic, hub, _ = failover_setup
        system.run_for(120.0)
        a = hub.series("0", "IBM")
        b = hub.series("1", "IBM")
        assert a and a == b

    def test_failover_promotes_oldest_healthy(self, failover_setup):
        system, service, logic, _, _ = failover_setup
        system.run_for(650.0)
        active = logic.active_job_id()
        job = service.job(active)
        system.chaos.inject(CrashPE(operator="calc"), job=job)
        system.run_for(10.0)
        assert len(logic.failovers) == 1
        _, failed, promoted = logic.failovers[0]
        assert failed == active
        assert logic.replicas[promoted]["status"] == "active"
        assert logic.replicas[failed]["status"] == "backup"

    def test_failed_pe_restarted(self, failover_setup):
        system, service, logic, _, _ = failover_setup
        system.run_for(650.0)
        active = logic.active_job_id()
        job = service.job(active)
        victim = job.pe_by_index(job.compiled.pe_of("calc"))
        system.chaos.inject(CrashPE(pe_index=victim.index), job=job)
        system.run_for(10.0)
        assert victim.state is PEState.RUNNING

    def test_restarted_replica_diverges_then_recovers(self, failover_setup):
        """Fig. 9(b): wrong output until the 600 s window refills."""
        system, service, logic, hub, _ = failover_setup
        system.run_for(650.0)
        active = logic.active_job_id()
        failed_replica = logic.replicas[active]["replica"]
        job = service.job(active)
        system.chaos.inject(CrashPE(operator="calc"), job=job)
        system.run_for(60.0)
        promoted = logic.failovers[0][2]
        promoted_replica = logic.replicas[promoted]["replica"]
        bad = {p.ts: p for p in hub.points_for(failed_replica, "IBM")}
        good = {p.ts: p for p in hub.points_for(promoted_replica, "IBM")}
        after = [t for t in sorted(set(bad) & set(good)) if t > 655.0]
        assert after
        divergence = [abs(bad[t].average - good[t].average) for t in after]
        assert max(divergence) > 0.5  # clearly wrong right after restart
        assert bad[after[0]].coverage < 60.0  # window still refilling
        # run until the window is full again: outputs re-converge
        system.run_for(650.0)
        bad = {p.ts: p for p in hub.points_for(failed_replica, "IBM")}
        good = {p.ts: p for p in hub.points_for(promoted_replica, "IBM")}
        tail = [t for t in sorted(set(bad) & set(good)) if t > 1320.0]
        assert tail
        assert all(abs(bad[t].average - good[t].average) < 1e-9 for t in tail)

    def test_backup_failure_needs_no_failover(self, failover_setup):
        system, service, logic, _, _ = failover_setup
        system.run_for(10.0)
        backup = next(
            job_id
            for job_id, r in logic.replicas.items()
            if r["status"] == "backup"
        )
        job = service.job(backup)
        system.chaos.inject(CrashPE(operator="calc"), job=job)
        system.run_for(10.0)
        assert logic.failovers == []
        assert logic.replicas[backup]["status"] == "backup"

    def test_status_file_written(self, failover_setup):
        system, service, logic, _, status = failover_setup
        system.run_for(650.0)
        active = logic.active_job_id()
        job = service.job(active)
        system.chaos.inject(CrashPE(operator="calc"), job=job)
        system.run_for(10.0)
        lines = status.getvalue().splitlines()
        assert any("status=active" in line for line in lines)
        # the failover rewrote the statuses
        assert len(lines) >= 6


@pytest.fixture
def composition_setup():
    system = SystemS(hosts=6, seed=42)
    store = ProfileDataStore()
    results = []
    apps = build_all_socialmedia_applications(store, results=results,
                                              profile_rate=15)
    logic = CompositionOrca(threshold=1500)
    descriptor = OrcaDescriptor(
        name="C",
        logic=lambda: logic,
        applications=[
            ManagedApplication(name=n, application=a) for n, a in apps.items()
        ],
        metric_poll_interval=5.0,
    )
    system.submit_orchestrator(descriptor)
    return system, logic, store, results


class TestCompositionUseCase:
    def test_c1_and_c2_start_through_dependencies(self, composition_setup):
        system, logic, _, _ = composition_setup
        system.run_for(10.0)
        running = sorted(
            {j.app_name for j in system.sam.running_jobs()}
        )
        assert running == [
            "BlogQuery", "FacebookQuery", "MySpaceStreamReader",
            "TwitterQuery", "TwitterStreamReader",
        ]

    def test_c3_spawned_on_threshold(self, composition_setup):
        system, logic, _, _ = composition_setup
        system.run_for(120.0)
        assert logic.c3_history
        attrs = {attr for _, attr, _ in logic.c3_history}
        assert attrs <= {"gender", "age", "location"}

    def test_c3_cancelled_on_final_punctuation(self, composition_setup):
        system, logic, _, results = composition_setup
        system.run_for(200.0)
        submits = [e for e in logic.events if e[0] == "submit"]
        cancels = [e for e in logic.events if e[0] == "cancel"]
        assert len(cancels) >= 1
        assert results  # segmentation results were produced before cancel
        # every cancel follows a submit of the same app
        assert len(submits) >= len(cancels)

    def test_expansion_repeats_as_profiles_accumulate(self, composition_setup):
        system, logic, _, _ = composition_setup
        system.run_for(300.0)
        per_attr = {}
        for _, attr, _ in logic.c3_history:
            per_attr[attr] = per_attr.get(attr, 0) + 1
        assert max(per_attr.values()) >= 2  # expand/contract cycles

    def test_c3_reads_deduplicated_store(self, composition_setup):
        """Sec. 5.3: C3 never sees duplicates (store dedups), while the
        orchestrator's aggregate counts do include duplicates."""
        system, logic, store, results = composition_setup
        system.run_for(200.0)
        assert store.total_writes > len(store)  # C2 wrote duplicates
        for result in results:
            assert result["profiles"] <= len(store) + 1000

    def test_segmentation_buckets_sensible(self, composition_setup):
        system, logic, _, results = composition_setup
        system.run_for(200.0)
        gender_results = [r for r in results if r["attribute"] == "gender"]
        if gender_results:
            buckets = set(gender_results[0]["segmentation"])
            assert buckets <= {"f", "m"}


class TestOrcaLogicSize:
    def test_loc_in_same_ballpark_as_paper(self):
        """Paper: 114 / 196 / 139 lines of C++ for the three ORCA logics."""
        sizes = {
            "sentiment": orca_logic_loc(SentimentOrca),
            "failover": orca_logic_loc(FailoverOrca),
            "composition": orca_logic_loc(CompositionOrca),
        }
        for name, loc in sizes.items():
            assert 30 <= loc <= 250, f"{name} is {loc} lines"
