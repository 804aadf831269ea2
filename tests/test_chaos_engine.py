"""Tests for the repro.chaos subsystem: perturbations, DSL, engine,
scorecards, the hardened failure injector, and the ORCA chaos surface."""

from __future__ import annotations

import pytest

from repro import (
    ManagedApplication,
    Orchestrator,
    OrcaDescriptor,
    SystemConfig,
    SystemS,
)
from repro.apps.workloads import ChaosFeed
from repro.chaos import (
    CheckpointFault,
    CrashPE,
    KeySkewShift,
    LatencySpike,
    PEFlap,
    RateSurge,
    Scenario,
    collect_scorecard,
    flash_crowd,
    gray_network,
    live_keyed_state,
    rolling_channel_outage,
    rolling_host_outage,
    state_recovery_fraction,
    step,
    torn_checkpoints,
    tuple_accounting,
)
from repro.orca.scopes import ChaosScope
from repro.runtime.pe import PEState
from repro.spl.application import Application
from repro.spl.library import CallbackSource, KeyedCounter, Sink
from repro.spl.parallel import parallel


def build_keyed_app(feed, width=2, name="ChaosApp", period=0.05):
    app = Application(name)
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": feed.generator(), "period": period},
        partition="feed",
    )
    work = g.add_operator(
        "work",
        KeyedCounter,
        params={"key": "key"},
        parallel=parallel(
            width=width,
            name="region",
            partition_by="key",
            max_width=8,
            reorder_grace=1.0,
        ),
    )
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


def chaos_system(hosts=10, seed=42, checkpoint_interval=0.25):
    return SystemS(
        hosts=hosts,
        seed=seed,
        config=SystemConfig(
            checkpoint_interval=checkpoint_interval,
            failure_notification_delay=0.001,
        ),
    )


# ---------------------------------------------------------------------------
# hardened failure injector
# ---------------------------------------------------------------------------


class TestFailureInjector:
    def test_per_kind_counters(self):
        system = chaos_system()
        feed = ChaosFeed(seed=3)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(1.0)
        pe = job.pe_of_operator("work__c0")
        system.failures.crash_pe(job.job_id, pe_id=pe.pe_id)
        system.failures.restart_pe(job.job_id, pe.pe_id)
        system.run_for(2.0)
        stats = system.failures.stats()
        assert stats.by_kind == {"crash_pe": 1, "restart_pe": 1}
        assert stats.injected == 2

    def test_crash_on_non_running_pe_is_recorded_noop(self):
        system = chaos_system()
        feed = ChaosFeed(seed=3)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(1.0)
        pe = job.pe_of_operator("work__c0")
        pe.crash("first")
        before = system.failures.injected
        system.failures.crash_pe(job.job_id, pe_id=pe.pe_id)
        assert system.failures.injected == before
        assert len(system.failures.noops) == 1
        noop = system.failures.noops[0]
        assert noop.kind == "crash_pe"
        assert noop.target == pe.pe_id
        assert noop.reason == "pe_crashed"

    def test_scheduled_injection_is_cancellable(self):
        system = chaos_system()
        feed = ChaosFeed(seed=3)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(1.0)
        pe = job.pe_of_operator("work__c0")
        handle = system.failures.crash_pe(job.job_id, pe_id=pe.pe_id, at=5.0)
        assert handle is not None
        assert system.failures.pending_count() == 1
        handle.cancel()
        system.run_for(6.0)
        assert pe.state is PEState.RUNNING
        assert system.failures.injected == 0

    def test_cancel_all_retracts_pending(self):
        system = chaos_system()
        feed = ChaosFeed(seed=3)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(1.0)
        system.failures.crash_pe(job.job_id, pe_id=job.pes[0].pe_id, at=5.0)
        system.failures.fail_host(job.pes[0].host_name, at=6.0)
        assert system.failures.cancel_all() == 2
        system.run_for(7.0)
        assert system.failures.injected == 0
        assert all(pe.state is PEState.RUNNING for pe in job.pes)

    def test_scheduled_restart_of_removed_pe_is_recorded_noop(self):
        """A flap's scheduled restart racing a rescale that removed the
        PE must be a recorded no-op, never an exception into the kernel
        (found by the corpus replay of the doomed-channel race)."""
        system = chaos_system()
        feed = ChaosFeed(seed=3)
        job = system.submit_job(build_keyed_app(feed, width=3))
        system.run_for(1.0)
        doomed = job.pe_of_operator("work__c2")
        doomed.crash("chaos")
        system.failures.restart_pe(
            job.job_id, doomed.pe_id, at=system.now + 3.0
        )
        system.elastic.set_channel_width(job, "region", 2)
        system.run_for(5.0)  # the rescale removes the PE, then the restart fires
        assert job.compiled.parallel_regions["region"].width == 2
        noop = system.failures.noops[-1]
        assert noop.kind == "restart_pe"
        assert noop.reason == "pe_removed"

    def test_revive_host_roundtrip_and_noops(self):
        system = chaos_system()
        host = next(iter(system.hcs))
        system.failures.fail_host(host)
        assert not system.hcs[host].alive
        system.failures.fail_host(host)  # second kill: recorded no-op
        system.failures.revive_host(host)
        assert system.hcs[host].alive
        system.failures.revive_host(host)  # second revive: recorded no-op
        assert [n.kind for n in system.failures.noops] == [
            "fail_host",
            "revive_host",
        ]
        assert system.failures.by_kind == {"fail_host": 1, "revive_host": 1}


# ---------------------------------------------------------------------------
# scenario DSL + engine
# ---------------------------------------------------------------------------


class TestEngine:
    def test_steps_fire_in_order_and_are_journaled(self):
        system = chaos_system()
        feed = ChaosFeed(seed=3)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(1.0)
        scenario = Scenario("two_flaps").add(
            1.0, PEFlap(operator="work__c0", downtime=0.5)
        ).add(3.0, PEFlap(operator="work__c1", downtime=0.5))
        run = system.chaos.run_scenario(scenario, job=job, feed=feed)
        system.run_for(8.0)
        assert [i.kind for i in run.injections] == ["pe_flap", "pe_flap"]
        assert run.injections[0].time == pytest.approx(2.0)
        assert run.injections[1].time == pytest.approx(4.0)
        assert run.done
        # engine-level journal mirrors the run
        assert system.chaos.injections == run.injections

    def test_recovery_times_are_stamped(self):
        system = chaos_system()
        feed = ChaosFeed(seed=3)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(1.0)
        scenario = Scenario("flap").add(
            0.5, PEFlap(operator="work__c0", downtime=1.0)
        )
        run = system.chaos.run_scenario(scenario, job=job, feed=feed)
        system.run_for(5.0)
        injection = run.injections[0]
        # downtime (1.0) + SAM restart delay (1.0)
        assert injection.recovery_time == pytest.approx(2.0)

    def test_jittered_schedule_is_deterministic_per_seed(self):
        def times(seed):
            system = chaos_system(seed=seed)
            feed = ChaosFeed(seed=3)
            job = system.submit_job(build_keyed_app(feed))
            system.run_for(1.0)
            scenario = Scenario("jittered").add(
                1.0, PEFlap(operator="work__c0", downtime=0.5), jitter=2.0
            ).add(4.0, PEFlap(operator="work__c1", downtime=0.5), jitter=2.0)
            run = system.chaos.run_scenario(scenario, job=job, feed=feed)
            return list(run.step_times)

        assert times(7) == times(7)
        assert times(7) != times(8)  # different seed, different schedule
        # jitter stays inside its window
        t0, t1 = times(7)
        assert 2.0 <= t0 < 4.0 and 5.0 <= t1 < 7.0

    def test_step_errors_are_recorded_not_raised(self):
        system = chaos_system()
        feed = ChaosFeed(seed=3)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(1.0)
        # RateSurge without a feed is a step error, not a kernel crash
        scenario = Scenario("bad").add(0.5, RateSurge(factor=2.0))
        run = system.chaos.run_scenario(scenario, job=job, feed=None)
        system.run_for(2.0)
        assert len(run.errors) == 1 and run.errors[0][0] == 0
        assert run.injections == []
        assert run.done

    def test_cancel_run_retracts_future_steps(self):
        system = chaos_system()
        feed = ChaosFeed(seed=3)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(1.0)
        scenario = Scenario("two").add(
            0.5, PEFlap(operator="work__c0", downtime=0.5)
        ).add(10.0, PEFlap(operator="work__c1", downtime=0.5))
        run = system.chaos.run_scenario(scenario, job=job, feed=feed)
        system.run_for(2.0)
        assert system.chaos.cancel_run(run) == 1
        system.run_for(12.0)
        assert len(run.injections) == 1
        assert run.done

    def test_crash_injections_capture_state_at_crash(self):
        system = chaos_system()
        feed = ChaosFeed(seed=3)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(3.0)
        scenario = Scenario("crash").add(0.02, CrashPE(operator="work__c0"))
        run = system.chaos.run_scenario(scenario, job=job, feed=feed)
        system.run_for(1.0)
        snapshot = run.injections[0].detail["_state_at_crash"]
        assert snapshot.get("counts")  # KeyedCounter state captured
        # private keys never leak into the public/event view
        assert "_state_at_crash" not in run.injections[0].public_detail()

    def test_srm_gauges_published(self):
        system = chaos_system()
        feed = ChaosFeed(seed=3)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(1.0)
        scenario = Scenario("gauged").add(
            0.5, PEFlap(operator="work__c0", downtime=0.5)
        )
        system.chaos.run_scenario(scenario, job=job, feed=feed)
        system.run_for(3.0)
        assert (
            system.srm.metric_value(
                "__chaos__", "chaos:gauged", None, "chaosInjections"
            )
            == 1.0
        )
        assert (
            system.srm.metric_value(
                "__chaos__", "chaos:gauged", None, "chaosInjections.pe_flap"
            )
            == 1.0
        )


# ---------------------------------------------------------------------------
# perturbations over transport, feed, and checkpoints
# ---------------------------------------------------------------------------


class TestPerturbations:
    def test_latency_spike_delays_but_loses_nothing(self):
        system = chaos_system()
        feed = ChaosFeed(seed=3, base_rate=2)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(2.0)
        scenario = Scenario("slow").add(
            0.5, LatencySpike(extra=0.1, duration=2.0)
        )
        run = system.chaos.run_scenario(scenario, job=job, feed=feed)
        system.run_for(10.0)
        assert run.injections[0].kind == "latency_spike"
        sink_op = job.operator_instance("sink")
        seqs = [t["seq"] for t in sink_op.seen]
        received, lost, dups = tuple_accounting(seqs, feed.emitted)
        # delays only: a fully drained run loses and duplicates nothing
        assert lost <= feed.base_rate  # at most the last in-flight tick
        assert dups == 0
        assert system.transport.dropped_by_fault == 0

    def test_rate_surge_and_skew_shift_and_revert(self):
        system = chaos_system()
        feed = ChaosFeed(seed=3, base_rate=2, n_keys=8)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(1.0)
        scenario = Scenario("crowd").add(
            0.5, RateSurge(factor=3.0, duration=2.0)
        ).add(0.5, KeySkewShift(hot_fraction=1.0, hot_keys=("k0",), duration=2.0))
        run = system.chaos.run_scenario(scenario, job=job, feed=feed)
        system.run_for(2.0)  # mid-surge
        assert feed.rate_factor == 3.0
        assert feed.hot_fraction == 1.0
        system.run_for(1.5)  # past the surge window
        assert feed.rate_factor == 1.0
        assert feed.hot_fraction == 0.0
        assert {i.kind for i in run.injections} == {"rate_surge", "key_skew"}

    def test_checkpoint_fault_tears_commits_then_disarms(self):
        system = chaos_system(checkpoint_interval=0.2)
        feed = ChaosFeed(seed=3, base_rate=2)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(2.0)
        committed_before = sum(1 for r in system.checkpoints.records if r.committed)
        assert committed_before > 0
        scenario = Scenario("torn").add(0.1, CheckpointFault(duration=1.0))
        system.chaos.run_scenario(scenario, job=job, feed=feed)
        system.run_for(1.0)  # inside the window
        torn = [r for r in system.checkpoints.records if not r.committed]
        assert torn  # every round in the window stayed torn
        system.run_for(2.0)  # window closed
        assert system.checkpoints.commit_fault is None
        assert any(
            r.committed
            for r in system.checkpoints.records
            if r.time > torn[-1].time
        )

    def test_host_flap_preset_revives_and_restarts(self):
        system = chaos_system()
        feed = ChaosFeed(seed=3)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(1.0)
        victim = job.pe_of_operator("work__c0").host_name
        scenario = rolling_host_outage([victim], start=1.0, downtime=1.0)
        run = system.chaos.run_scenario(scenario, job=job, feed=feed)
        system.run_for(8.0)
        assert run.injections[0].kind == "host_flap"
        assert system.hcs[victim].alive
        assert all(pe.state is PEState.RUNNING for pe in job.pes)
        assert run.injections[0].recovery_time is not None

    def test_preset_builders_produce_expected_shapes(self):
        assert len(rolling_channel_outage(["a", "b", "c"]).steps) == 3
        assert len(gray_network(waves=2).steps) == 4
        crowd = flash_crowd(rescale_region="region", rescale_width=4)
        assert [s.perturbation.KIND for s in crowd.steps] == [
            "rate_surge",
            "key_skew",
            "rescale",
        ]
        torn = torn_checkpoints("work__c0")
        assert [s.perturbation.KIND for s in torn.steps] == [
            "checkpoint_fault",
            "pe_flap",
        ]


# ---------------------------------------------------------------------------
# ORCA surface: chaos_injected events, ChaosScope, chaos_status
# ---------------------------------------------------------------------------


class _ChaosAware(Orchestrator):
    def __init__(self, scope=None):
        super().__init__()
        self.scope = scope
        self.seen = []
        self.job = None

    def handleOrcaStart(self, context):
        if self.scope is not None:
            self.orca.registerEventScope(self.scope)
        self.job = self.orca.submit_application("ChaosApp")

    def handleChaosInjectedEvent(self, context, scopes):
        self.seen.append((context.kind, context.target, tuple(scopes)))


def orchestrated_system(feed, scope):
    system = chaos_system()
    app = build_keyed_app(feed)
    logic = _ChaosAware(scope)
    service = system.submit_orchestrator(
        OrcaDescriptor(
            name="C",
            logic=lambda: logic,
            applications=[ManagedApplication(name=app.name, application=app)],
        )
    )
    system.run_for(1.0)
    return system, service, logic


class TestOrcaChaosSurface:
    def test_chaos_injected_events_delivered_with_scope(self):
        feed = ChaosFeed(seed=3)
        system, service, logic = orchestrated_system(feed, ChaosScope("c"))
        scenario = Scenario("seen").add(
            0.5, PEFlap(operator="work__c0", downtime=0.5)
        )
        system.chaos.run_scenario(scenario, job=logic.job, feed=feed)
        system.run_for(3.0)
        assert logic.seen and logic.seen[0][0] == "pe_flap"
        assert logic.seen[0][2] == ("c",)

    def test_blind_orchestrator_sees_nothing(self):
        feed = ChaosFeed(seed=3)
        system, service, logic = orchestrated_system(feed, None)
        scenario = Scenario("blind").add(
            0.5, PEFlap(operator="work__c0", downtime=0.5)
        )
        system.chaos.run_scenario(scenario, job=logic.job, feed=feed)
        system.run_for(3.0)
        assert logic.seen == []

    def test_kind_filter_narrows_delivery(self):
        feed = ChaosFeed(seed=3)
        scope = ChaosScope("only-load").addKindFilter("rate_surge")
        system, service, logic = orchestrated_system(feed, scope)
        scenario = Scenario("mixed").add(
            0.5, PEFlap(operator="work__c0", downtime=0.5)
        ).add(1.0, RateSurge(factor=2.0, duration=1.0))
        system.chaos.run_scenario(scenario, job=logic.job, feed=feed)
        system.run_for(4.0)
        assert [kind for kind, _, _ in logic.seen] == ["rate_surge"]

    def test_chaos_status_inspection(self):
        feed = ChaosFeed(seed=3)
        system, service, logic = orchestrated_system(feed, ChaosScope("c"))
        scenario = Scenario("status").add(
            0.5, PEFlap(operator="work__c0", downtime=0.5)
        )
        system.chaos.run_scenario(scenario, job=logic.job, feed=feed)
        system.run_for(3.0)
        status = service.chaos_status()
        assert status["runs"] == 1
        assert status["injections"] == 1
        assert status["injector"]["by_kind"] == {
            "crash_pe": 1,
            "restart_pe": 1,
        }
        assert status["last_injection"]["kind"] == "pe_flap"

    def test_chaos_status_surfaces_link_faults_and_run_progress(self):
        """The status snapshot must carry the injector's stats, an
        active-link-fault breakdown by effect, and run progress totals —
        what makes a long fuzz search inspectable from ORCA mid-flight."""
        feed = ChaosFeed(seed=3)
        system, service, logic = orchestrated_system(feed, ChaosScope("c"))
        scenario = Scenario("inspect").add(
            0.5, PEFlap(operator="work__c0", downtime=0.5)
        ).add(
            1.0, LatencySpike(extra=0.05, duration=30.0)
        ).add(5.0, RateSurge(factor=0.0))  # invalid factor: a step error
        system.chaos.run_scenario(scenario, job=logic.job, feed=feed)
        system.run_for(8.0)
        status = service.chaos_status()
        assert status["runs"] == 1 and status["runs_done"] == 1
        assert status["injections"] == 2
        assert status["step_errors"] == 1
        assert status["cancelled_steps"] == 0
        assert status["active_link_faults"] == 1
        assert status["active_link_faults_by_effect"] == {
            "latency": 1,
            "partition": 0,
            "loss": 0,
        }
        # the injector's stats() payload rides along untruncated
        assert status["injector"]["by_kind"] == {
            "crash_pe": 1,
            "restart_pe": 1,
        }
        assert status["injector"]["pending"] == 0

    def test_shutdown_unsubscribes_from_injections(self):
        feed = ChaosFeed(seed=3)
        system, service, logic = orchestrated_system(feed, ChaosScope("c"))
        system.cancel_orchestrator(service.orca_id)
        assert service._on_chaos_injected not in (
            system.events.subscribers["injection"]
        )


# ---------------------------------------------------------------------------
# scorecards
# ---------------------------------------------------------------------------


class TestScorecard:
    def test_tuple_accounting(self):
        received, lost, dups = tuple_accounting([0, 1, 1, 3], 5)
        assert (received, lost, dups) == (3, 2, 1)

    def test_state_recovery_fraction_numeric_and_presence(self):
        assert state_recovery_fraction({"a": 10}, {"a": 10}) == 1.0
        assert state_recovery_fraction({"a": 10}, {"a": 5}) == 0.5
        assert state_recovery_fraction({"a": 10, "b": 10}, {"a": 10}) == 0.5
        # non-numeric values count by key presence
        assert state_recovery_fraction({"a": "x"}, {"a": "y"}) == 1.0
        assert state_recovery_fraction({}, {}) == 1.0

    def test_collect_scorecard_and_render_deterministic(self):
        def one_run():
            system = chaos_system()
            feed = ChaosFeed(seed=3, base_rate=2)
            job = system.submit_job(build_keyed_app(feed))
            system.run_for(3.0)
            scenario = Scenario("score").add(
                0.02, PEFlap(operator="work__c0", downtime=1.0)
            )
            run = system.chaos.run_scenario(scenario, job=job, feed=feed)
            system.run_for(10.0)
            sink_op = job.operator_instance("sink")
            seqs = [t["seq"] for t in sink_op.seen]
            plan = job.compiled.parallel_regions["region"]
            final = live_keyed_state(
                job, [op for ops in plan.channel_ops for op in ops]
            )
            return collect_scorecard(
                system, run, 42, seqs, feed.emitted, final_state=final
            ).render()

        first, second = one_run(), one_run()
        assert first == second  # byte-identical across repeat runs
        assert "scenario: score" in first

    def test_scorecard_gauges_in_srm(self):
        system = chaos_system()
        feed = ChaosFeed(seed=3)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(2.0)
        scenario = Scenario("gauges").add(
            0.02, PEFlap(operator="work__c0", downtime=0.5)
        )
        run = system.chaos.run_scenario(scenario, job=job, feed=feed)
        system.run_for(5.0)
        sink_op = job.operator_instance("sink")
        collect_scorecard(
            system,
            run,
            42,
            [t["seq"] for t in sink_op.seen],
            feed.emitted,
        )
        assert (
            system.srm.metric_value(
                "__chaos__", "chaos:gauges", None, "chaosStateRecovery"
            )
            is not None
        )


class TestOverlapSafety:
    def test_overlapping_checkpoint_fault_windows_stack(self):
        """Two overlapping commit-fault windows: commits stay torn until
        BOTH have expired, then resume (regression: the second window's
        expiry used to restore the first window's armed hook forever)."""
        system = chaos_system(checkpoint_interval=0.2)
        feed = ChaosFeed(seed=3, base_rate=2)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(2.0)
        scenario = Scenario("overlap").add(
            0.1, CheckpointFault(duration=2.0)
        ).add(1.0, CheckpointFault(duration=2.0))
        system.chaos.run_scenario(scenario, job=job, feed=feed)
        system.run_for(2.5)  # first window expired, second still open
        assert system.checkpoints.commit_fault is not None
        recent = [r for r in system.checkpoints.records if r.time > 2.2]
        assert recent and not any(r.committed for r in recent)
        system.run_for(1.5)  # both windows closed
        assert system.checkpoints.commit_fault is None
        tail = [r for r in system.checkpoints.records if r.time > 5.2]
        assert tail and all(r.committed for r in tail)

    def test_overlapping_rate_surges_compose_multiplicatively(self):
        system = chaos_system()
        feed = ChaosFeed(seed=3, base_rate=2)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(1.0)
        scenario = Scenario("surges").add(
            0.5, RateSurge(factor=2.0, duration=3.0)
        ).add(1.5, RateSurge(factor=3.0, duration=3.0))
        system.chaos.run_scenario(scenario, job=job, feed=feed)
        system.run_for(3.0)  # both surges active
        assert feed.rate_factor == pytest.approx(6.0)
        system.run_for(1.0)  # first expired (at +3.5), second still open
        assert feed.rate_factor == pytest.approx(3.0)
        system.run_for(1.5)  # both expired
        assert feed.rate_factor == pytest.approx(1.0)


class TestExternalRescaleVisibility:
    def test_chaos_rescale_refreshes_orca_graph_and_delivers_events(self):
        """A rescale driven by the chaos engine (not the ORCA service)
        is visible to the orchestrator's stream graph (a live view of the
        job) and delivers region_rescaled — routines are not blind to
        external rescales."""
        from repro.chaos import Rescale
        from repro.orca.scopes import OperatorMetricScope, ParallelRegionScope

        feed = ChaosFeed(seed=3)
        system = chaos_system()
        app = build_keyed_app(feed)

        class Logic(Orchestrator):
            def __init__(self):
                super().__init__()
                self.job = None
                self.rescaled = []
                self.measured = []

            def handleOrcaStart(self, context):
                self.orca.registerEventScope(ParallelRegionScope("r"))
                self.orca.registerEventScope(OperatorMetricScope("m"))
                self.job = self.orca.submit_application("ChaosApp")

            def handleRegionRescaledEvent(self, context, scopes):
                self.rescaled.append((context.old_width, context.new_width))

            def handleOperatorMetricEvent(self, context, scopes):
                self.measured.append((context.instance_name, context.pe_id))

        logic = Logic()
        service = system.submit_orchestrator(
            OrcaDescriptor(
                name="C",
                logic=lambda: logic,
                applications=[
                    ManagedApplication(name=app.name, application=app)
                ],
            )
        )
        system.run_for(2.0)
        scenario = Scenario("grow").add(0.5, Rescale(region="region", width=4))
        system.chaos.run_scenario(scenario, job=logic.job, feed=feed)
        system.run_for(5.0)
        assert logic.rescaled == [(2, 4)]
        # the stream graph knows the channel PEs the rescale added
        assert set(service.pes_of_job(logic.job.job_id)) == {
            pe.pe_id for pe in logic.job.pes
        }
        # every operator of the new channels produces metric events
        del logic.measured[:]
        system.run_for(31.0)  # two poll rounds
        new_channels = service.region_channels(logic.job.job_id, "region")[2:]
        assert len(new_channels) == 2
        for op_name in (name for ops in new_channels for name in ops):
            pe_id = logic.job.pe_of_operator(op_name).pe_id
            assert (op_name, pe_id) in logic.measured
        assert not service.handler_errors

    def test_staggered_identical_skew_windows_unwind_to_baseline(self):
        """Two value-identical, staggered skew windows: the skew holds
        until the LAST window expires, then the uniform baseline returns
        (regression: the stale restore used to resurrect window 1's skew
        forever, or clear it while window 2 was still open)."""
        system = chaos_system()
        feed = ChaosFeed(seed=3, base_rate=2)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(1.0)
        scenario = Scenario("skews").add(
            0.5, KeySkewShift(hot_fraction=0.8, hot_keys=("k0",), duration=4.0)
        ).add(1.5, KeySkewShift(hot_fraction=0.8, hot_keys=("k0",), duration=4.0))
        system.chaos.run_scenario(scenario, job=job, feed=feed)
        system.run_for(5.0)  # window 1 expired (at +4.5), window 2 open
        assert feed.hot_fraction == 0.8
        system.run_for(1.0)  # window 2 expired too
        assert feed.hot_fraction == 0.0
        assert feed.hot_keys == ()


class TestPersistentSkewBaseline:
    def test_persistent_skew_survives_window_unwind(self):
        """A persistent (duration=None) KeySkewShift becomes the baseline
        windowed shifts unwind back to — an expiring window must not wipe
        it (regression: pop_skew used to reset to uniform)."""
        system = chaos_system()
        feed = ChaosFeed(seed=3, base_rate=2)
        job = system.submit_job(build_keyed_app(feed))
        system.run_for(1.0)
        scenario = Scenario("mixed_skews").add(
            0.5, KeySkewShift(hot_fraction=0.9, hot_keys=("k1",), duration=3.0)
        ).add(
            1.5,
            KeySkewShift(hot_fraction=0.5, hot_keys=("k2",), duration=None),
        )
        system.chaos.run_scenario(scenario, job=job, feed=feed)
        system.run_for(3.0)  # persistent shift is the last writer
        assert feed.hot_fraction == 0.5
        system.run_for(2.0)  # window expired: the persistent shift holds
        assert feed.hot_fraction == 0.5
        assert feed.hot_keys == ("k2",)
