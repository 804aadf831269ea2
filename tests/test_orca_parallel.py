"""Tests for the ORCA side of elastic parallel regions: ParallelRegionScope,
channel_congested / region_rescaled events, set_channel_width actuation,
inspection, and the auto-scaling use case."""

import pytest

from repro import (
    ManagedApplication,
    Orchestrator,
    OrcaDescriptor,
    SystemConfig,
    SystemS,
)
from repro.apps.elastic_trend import (
    REGION,
    AutoScalingTrendOrchestrator,
    build_elastic_trend_application,
)
from repro.elastic import QueueSizeScalingPolicy
from repro.errors import InspectionError, OrcaPermissionError
from repro.orca.scopes import ParallelRegionScope

from tests.conftest import hold
from tests.test_elastic import build_region_app
from tests.test_orca_events_golden import nested_app
from tests.test_properties_orchestration import (
    assert_inspection_equals_runtime,
    assert_metric_events_equal_runtime,
    tap_metric_events,
    unmeasured,
)


class TestParallelRegionScope:
    def test_handles_both_region_event_types(self):
        scope = ParallelRegionScope("s")
        assert scope.handles("channel_congested")
        assert scope.handles("region_rescaled")
        assert not scope.handles("pe_failure")

    def test_region_filter(self):
        scope = ParallelRegionScope("s").addRegionFilter("analytics")
        assert scope.matches({"region": "analytics", "event_kind": "x"})
        assert not scope.matches({"region": "other"})

    def test_event_type_filter(self):
        scope = ParallelRegionScope("s").addEventTypeFilter("region_rescaled")
        assert scope.matches({"event_kind": "region_rescaled"})
        assert not scope.matches({"event_kind": "channel_congested"})

    def test_single_type_scopes_unaffected(self):
        from repro.orca.scopes import PEFailureScope

        scope = PEFailureScope("s")
        assert scope.handles("pe_failure")
        assert not scope.handles("channel_congested")


class RecordingRegionOrca(Orchestrator):
    """Registers a region scope, records region events, never actuates."""

    def __init__(self, app_name="Elastic", region="region"):
        super().__init__()
        self.app_name = app_name
        self.region = region
        self.congested = []
        self.rescaled = []
        self.job_id = None

    def handleOrcaStart(self, context):
        self.orca.registerEventScope(
            ParallelRegionScope("region").addRegionFilter(self.region)
        )
        self.job_id = self.orca.submit_application(self.app_name).job_id

    def handleChannelCongestedEvent(self, context, scopes):
        self.congested.append((context, scopes))

    def handleRegionRescaledEvent(self, context, scopes):
        self.rescaled.append((context, scopes))


def submit_orca(system, logic, app, name="Orca"):
    return system.submit_orchestrator(
        OrcaDescriptor(
            name=name,
            logic=lambda: logic,
            applications=[ManagedApplication(name=app.name, application=app)],
        )
    )


@pytest.fixture
def system():
    return SystemS(hosts=12, seed=42, config=SystemConfig(orca_poll_interval=5.0))


class TestCongestionEvents:
    def test_congested_channel_raises_event(self, system):
        # 2 tuples/s service vs 40/s arrival with the default queueSize
        # congestion metric replaced by the throttle's nBuffered gauge.
        app = build_region_app(width=1, rate=2.0)
        work = app.graph.operator("work")
        work.parallel.congestion_metric = "nBuffered"
        work.parallel.congestion_threshold = 5.0
        logic = RecordingRegionOrca()
        service = submit_orca(system, logic, app)
        system.run_for(12.0)
        assert logic.congested
        context, scopes = logic.congested[0]
        assert scopes == ["region"]
        assert context.region == "region"
        assert context.channel == 0
        assert context.metric == "nBuffered"
        assert context.value > context.threshold
        assert context.width == 1
        assert context.epoch >= 1
        assert not service.handler_errors

    def test_uncongested_region_stays_silent(self, system):
        app = build_region_app(width=2, rate=500.0)  # drains instantly
        logic = RecordingRegionOrca()
        submit_orca(system, logic, app)
        system.run_for(12.0)
        assert logic.congested == []

    def test_events_respect_scope_matching(self, system):
        app = build_region_app(width=1, rate=2.0)
        work = app.graph.operator("work")
        work.parallel.congestion_metric = "nBuffered"
        work.parallel.congestion_threshold = 5.0

        class OtherRegionOrca(RecordingRegionOrca):
            def __init__(self):
                super().__init__(region="not-this-region")

        logic = OtherRegionOrca()
        service = submit_orca(system, logic, app)
        system.run_for(12.0)
        assert logic.congested == []
        assert service.queue.dropped_count > 0


class TestSetChannelWidthActuation:
    def test_rescale_emits_event_and_updates_inspection(self, system):
        app = build_region_app(width=1, limit=150, rate=30.0)
        logic = RecordingRegionOrca()
        service = submit_orca(system, logic, app)
        system.run_for(2.0)
        operation = service.set_channel_width(logic.job_id, "region", 3)
        system.run_for(20.0)
        assert operation.epoch == 1
        assert len(logic.rescaled) == 1
        context, scopes = logic.rescaled[0]
        assert scopes == ["region"]
        assert (context.old_width, context.new_width) == (1, 3)
        assert context.duration > 0
        assert service.channel_width(logic.job_id, "region") == 3
        assert service.parallel_regions(logic.job_id) == {"region": 3}
        channels = service.region_channels(logic.job_id, "region")
        assert [ops[0] for ops in channels] == [
            "work__c0", "work__c1", "work__c2"
        ]
        actions = [r.action for r in service.actuation_log]
        assert "set_channel_width" in actions
        # inspection reaches a new channel operator and its PE
        pe_id = service.pe_of_operator(logic.job_id, "work__c2")
        assert "work__c2" in service.operators_in_pe(pe_id)
        # every operator of the new channels produces metric events
        seen = tap_metric_events(service)
        system.run_for(11.0)  # two polls
        measured = {a["operator_instance"] for t, a in seen if t == "operator_metric"}
        assert {"work__c1", "work__c2"} <= measured
        assert not service.handler_errors

    def test_external_rescale_visible_at_once(self, system):
        """A rescale nobody actuated through the service needs no refresh.

        The chaos engine (the paradigmatic outside-the-orchestrator
        driver) injects the rescale; inspection reads the live job, so
        it agrees with it the moment the rescale completes — and already
        at the mid-protocol ``add_pes``, before the region resumes.
        """
        from repro.chaos.perturbations import Rescale
        from repro.chaos.scenario import Scenario

        app = build_region_app(width=1, rate=30.0)
        logic = RecordingRegionOrca()
        service = submit_orca(system, logic, app)
        system.run_for(2.0)
        job = system.sam.get_job(logic.job_id)
        checked = []

        def check(label):
            assert_inspection_equals_runtime(service, job)
            pe_id = service.pe_of_operator(logic.job_id, "work__c1")
            assert "work__c1" in service.operators_in_pe(pe_id)
            checked.append(label)

        add_pes = system.sam.add_pes

        def checking_add_pes(*args):
            added = add_pes(*args)
            check("add_pes")
            return added

        system.sam.add_pes = checking_add_pes
        system.events.subscribe(rescale=lambda operation: check("rescale"))
        scenario = Scenario("external-rescale").add(
            0.1, Rescale(region="region", width=2)
        )
        system.chaos.run_scenario(scenario, job=job)
        system.run_for(20.0)
        assert checked == ["add_pes", "rescale"]  # mid-protocol, then final
        # the service itself never asked for a rescale
        assert [r.action for r in service.actuation_log] == ["submit"]
        # inspection answers from the new topology
        pe_id = service.pe_of_operator(logic.job_id, "work__c1")
        assert "work__c1" in service.operators_in_pe(pe_id)
        assert service.host_of_pe(pe_id) is not None
        assert not service.handler_errors

    def test_foreign_job_rejected(self, system):
        app = build_region_app(width=1)
        logic = RecordingRegionOrca()
        service = submit_orca(system, logic, app)
        foreign = system.submit_job(build_region_app(name="Foreign"))
        system.run_for(2.0)
        with pytest.raises(OrcaPermissionError):
            service.set_channel_width(foreign.job_id, "region", 2)

    def test_inspection_of_unknown_region_raises(self, system):
        app = build_region_app(width=1)
        logic = RecordingRegionOrca()
        service = submit_orca(system, logic, app)
        system.run_for(2.0)
        with pytest.raises(InspectionError):
            service.channel_width(logic.job_id, "ghost")

    def test_region_observation_for_policies(self, system):
        app = build_region_app(width=2, rate=2.0)
        work = app.graph.operator("work")
        work.parallel.congestion_metric = "nBuffered"
        logic = RecordingRegionOrca()
        service = submit_orca(system, logic, app)
        system.run_for(10.0)
        observation = service.region_observation(logic.job_id, "region")
        assert observation.width == 2
        assert set(observation.channel_backlogs) == {0, 1}
        assert sum(observation.channel_backlogs.values()) > 0


class TestReplicaGraphs:
    """Replicas of one elastic application do not share a stream graph.

    A job's expanded graph is private to the job (a live rescale mutates
    it), so the orchestrator's picture of job A must not change when job
    B rescales.  It used to: the logical graph was kept per application
    *name* and re-made from whichever job rescaled last, so after A went
    2 -> 4 and B 2 -> 1, ``operators_in_pe`` raised for three of A's PEs
    and A's new channels never produced another metric event.
    """

    @pytest.mark.parametrize("executor", ["sim", "wallclock"])
    @pytest.mark.parametrize("first", ["a_first", "b_first"])
    @pytest.mark.parametrize("replicas", [2, 3])
    def test_replicas_stay_apart(
        self, replicas, first, executor
    ):
        system = SystemS(
            hosts=8,
            seed=42,
            config=SystemConfig(
                executor=executor,
                wallclock_time_scale=50.0 if executor == "wallclock" else 1.0,
                orca_poll_interval=3.0,
            ),
        )
        service = submit_orca(system, Orchestrator(), nested_app())
        jobs = [service.submit_application("Nested") for _ in range(replicas)]
        job_a, job_b = jobs[:2]
        assert [system.sam.get_job(job.job_id) for job in jobs] == jobs
        seen = tap_metric_events(service)
        barriers = []
        system.events.subscribe(barrier=barriers.append)
        widths = {job.job_id: 2 for job in jobs}

        def rescale(job, width):
            service.set_channel_width(job.job_id, "region", width)
            widths[job.job_id] = width

        def live_widths():
            return {job.job_id: service.channel_width(job.job_id, "region") for job in jobs}

        def protocol_state():
            """Where the rescale protocol stands, for a failing ``hold``."""
            rescales = [(op.job_id, op.new_width, op.state.value, op.error)
                        for op in system.elastic.history + system.elastic.active_operations()]
            phases = [(e.job_id, e.phase) for e in barriers[-3:]]
            return f"widths {live_widths()} for {widths}: rescales {rescales}, phases {phases}"

        def settle_and_check():
            system.run_for(4.0)
            hold(
                system,
                lambda: live_widths() == widths and all(pe.is_running for j in jobs for pe in j.pes),
                protocol_state,
            )
            for job in jobs:
                assert_inspection_equals_runtime(service, job)
            del seen[:]
            system.run_for(7.0)  # a metric push, then two polls
            hold(
                system,
                lambda: not unmeasured(seen, jobs),
                lambda: f"metric events from {sorted(unmeasured(seen, jobs))}",
            )
            assert_metric_events_equal_runtime(seen, jobs)
            assert not service.handler_errors

        settle_and_check()
        steps = [(job_a, 4), (job_b, 1)]
        if first == "b_first":
            steps.reverse()
        rescale(*steps[0])
        settle_and_check()
        # a channel PE of A crashes and is restarted in between
        channel_pe = job_a.pe_of_operator("count__c1")
        channel_pe.crash("replica-test")
        system.run_for(1.0)
        for job in jobs:
            assert_inspection_equals_runtime(service, job)
        service.restart_pe(channel_pe.pe_id)
        settle_and_check()
        rescale(*steps[1])
        settle_and_check()


class TestFailedRescaleVisibility:
    def test_failed_rescale_delivers_event_and_unwedges_autoscaler(self):
        # Drain cannot finish in time: 1 tuple/s worker with a deep backlog
        # against a 2s drain timeout.
        system = SystemS(
            hosts=12,
            config=SystemConfig(orca_poll_interval=5.0, elastic_drain_timeout=2.0),
        )
        app = build_region_app(width=1, rate=1.0)
        logic = RecordingRegionOrca()
        service = submit_orca(system, logic, app)
        system.run_for(5.0)
        operation = service.set_channel_width(logic.job_id, "region", 2)
        system.run_for(10.0)
        from repro.elastic import RescaleState

        assert operation.state is RescaleState.FAILED
        assert len(logic.rescaled) == 1
        context, _ = logic.rescaled[0]
        assert context.succeeded is False
        assert "drain did not complete" in context.error
        assert service.channel_width(logic.job_id, "region") == 1

    def test_autoscaler_retries_after_failure(self):
        system = SystemS(
            hosts=12,
            config=SystemConfig(orca_poll_interval=5.0, elastic_drain_timeout=0.5),
        )
        app = build_elastic_trend_application(
            width=1, max_width=4, worker_rate=2.0, feed_rate=60.0
        )
        logic = AutoScalingTrendOrchestrator(max_width=4)
        submit_orca(system, logic, app, name="ElasticOrca")
        system.run_for(60.0)
        # the deep backlog makes every drain time out, but the in-flight
        # guard is released each time so the scaler keeps trying
        assert len(logic.failed_rescales) >= 2
        assert logic.rescaling is False or logic.failed_rescales


class TestElasticTrendUseCase:
    def test_auto_scaler_reacts_to_congestion(self, system):
        app = build_elastic_trend_application(
            width=1, max_width=4, worker_rate=20.0, feed_rate=60.0, limit=1200
        )
        logic = AutoScalingTrendOrchestrator(max_width=4)
        service = submit_orca(system, logic, app, name="ElasticOrca")
        system.run_for(120.0)
        # congestion drove the region from 1 channel to the needed width
        assert logic.congestion_events > 0
        assert [t[:2] for t in logic.rescale_history] == [(1, 2), (2, 3), (3, 4)]
        assert logic.observed_width == 4
        assert service.channel_width(logic.job_id, REGION) == 4
        # zero loss, exactly once, in order — across three live rescales
        sink = service.jobs[logic.job_id].operator_instance("out")
        seqs = [t["seq"] for t in sink.seen]
        assert sorted(seqs) == list(range(1200))
        assert seqs == sorted(seqs)
        assert not service.handler_errors

    def test_policy_driven_scale_in(self, system):
        # Over-provisioned region + idle feed tail: the timer policy narrows it.
        app = build_elastic_trend_application(
            width=4, max_width=4, worker_rate=50.0, feed_rate=20.0, limit=100
        )
        logic = AutoScalingTrendOrchestrator(
            max_width=4,
            scale_in_policy=QueueSizeScalingPolicy(
                high_watermark=50.0, low_watermark=2.0, min_width=1, max_width=4
            ),
            scale_in_period=15.0,
        )
        service = submit_orca(system, logic, app, name="ElasticOrca")
        system.run_for(90.0)
        assert logic.rescale_history  # at least one scale-in happened
        assert all(new < old for old, new, _ in logic.rescale_history)
        assert service.channel_width(logic.job_id, REGION) < 4
        sink = service.jobs[logic.job_id].operator_instance("out")
        assert sorted(t["seq"] for t in sink.seen) == list(range(100))
