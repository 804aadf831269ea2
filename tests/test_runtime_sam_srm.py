"""Tests for SAM (job lifecycle), SRM (liveness + metrics), HC, failures."""

import pytest

from repro.errors import (
    CancellationError,
    PEControlError,
    SubmissionError,
    UnknownHostError,
    UnknownJobError,
    UnknownPEError,
)
from repro.runtime.job import JobState
from repro.runtime.pe import PEState
from repro.runtime.srm import HEARTBEAT_TIMEOUT

from tests.conftest import make_linear_app


class TestSubmission:
    def test_submit_allocates_ids(self, system):
        job1 = system.submit_job(make_linear_app("A"))
        job2 = system.submit_job(make_linear_app("B"))
        assert job1.job_id != job2.job_id
        pe_ids = {pe.pe_id for pe in job1.pes} | {pe.pe_id for pe in job2.pes}
        assert len(pe_ids) == 4  # globally unique

    def test_pes_assigned_to_hcs(self, system):
        job = system.submit_job(make_linear_app())
        for pe in job.pes:
            assert pe.pe_id in system.hcs[pe.host_name].pes

    def test_unplaceable_app_rejected(self):
        from repro import SystemS
        from repro.spl.hostpool import HostPool
        from repro.spl.application import Application
        from repro.spl.library import Beacon, Sink

        system = SystemS(hosts=1)
        app = Application("TooBig")
        app.add_host_pool(HostPool("ghost", hosts=("nonexistent",)))
        g = app.graph
        src = g.add_operator("src", Beacon, host_pool="ghost")
        sink = g.add_operator("sink", Sink)
        g.connect(src.oport(0), sink.iport(0))
        with pytest.raises(SubmissionError):
            system.submit_job(app)

    def test_bad_params_rejected(self, system):
        app = make_linear_app()
        app.declare_parameter("needed")
        with pytest.raises(Exception):
            system.submit_job(app, params={})

    def test_unknown_job_lookup(self, system):
        with pytest.raises(UnknownJobError):
            system.sam.get_job("job_999")

    def test_running_jobs_listing(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(1.0)
        assert job in system.sam.running_jobs()


class TestCancellation:
    def test_cancel_stops_pes_and_releases(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(2.0)
        system.cancel_job(job.job_id)
        assert job.state is JobState.CANCELLED
        assert all(pe.state is PEState.STOPPED for pe in job.pes)
        assert job.cancel_time == system.now
        for hc in system.hcs.values():
            for pe in job.pes:
                assert pe.pe_id not in hc.pes

    def test_double_cancel_rejected(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(1.0)
        system.cancel_job(job.job_id)
        with pytest.raises(CancellationError):
            system.cancel_job(job.job_id)

    def test_cancel_drops_metrics(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(10.0)
        assert system.srm.get_metrics([job.job_id])
        system.cancel_job(job.job_id)
        assert system.srm.get_metrics([job.job_id]) == []


class TestPERestart:
    def test_restart_after_delay(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(2.0)
        pe = job.pes[0]
        pe.crash("t")
        system.sam.restart_pe(job.job_id, pe.pe_id)
        assert pe.state is PEState.CRASHED  # not yet
        system.run_for(system.config.pe_restart_delay + 0.01)
        assert pe.state is PEState.RUNNING

    def test_restart_running_rejected(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(1.0)
        with pytest.raises(PEControlError):
            system.sam.restart_pe(job.job_id, job.pes[0].pe_id)

    def test_restart_skipped_if_job_cancelled_meanwhile(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(1.0)
        pe = job.pes[0]
        pe.crash("t")
        system.sam.restart_pe(job.job_id, pe.pe_id)
        system.cancel_job(job.job_id)
        system.run_for(5.0)
        assert pe.state is not PEState.RUNNING

    def test_auto_restart_policy(self):
        from repro import SystemConfig, SystemS

        system = SystemS(hosts=2, config=SystemConfig(auto_restart_pes=True))
        job = system.submit_job(make_linear_app())
        system.run_for(2.0)
        pe = job.pes[0]
        pe.crash("t")
        system.run_for(3.0)
        assert pe.state is PEState.RUNNING
        assert system.sam.restarts_issued == 1


class TestMetricsCollection:
    def test_hc_pushes_every_interval(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(system.config.metric_push_interval + 0.2)
        samples = system.srm.get_metrics([job.job_id])
        assert samples
        names = {s.name for s in samples}
        assert "nTuplesProcessed" in names

    def test_samples_have_operator_and_pe_scope(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(4.0)
        samples = system.srm.get_metrics([job.job_id])
        assert any(s.operator is None for s in samples)  # PE scope
        assert any(s.operator == "sink" for s in samples)

    def test_custom_flag(self, system):
        from tests.conftest import make_filter_app

        job = system.submit_job(make_filter_app())
        system.run_for(4.0)
        samples = system.srm.get_metrics([job.job_id])
        discarded = [s for s in samples if s.name == "nDiscarded"]
        assert discarded and all(s.is_custom for s in discarded)
        builtin = [s for s in samples if s.name == "nTuplesProcessed"]
        assert builtin and not any(s.is_custom for s in builtin)

    def test_point_query(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(10.0)
        pe_id = job.pe_of_operator("sink").pe_id
        value = system.srm.metric_value(job.job_id, pe_id, "sink", "nTuplesProcessed")
        assert value and value > 0

    def test_values_are_upserts_not_history(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(20.0)
        samples = [
            s
            for s in system.srm.get_metrics([job.job_id])
            if s.operator == "sink" and s.name == "nTuplesProcessed" and s.port is None
        ]
        assert len(samples) == 1  # latest value only

    def test_get_metrics_all_jobs(self, system):
        system.submit_job(make_linear_app("A"))
        system.submit_job(make_linear_app("B"))
        system.run_for(4.0)
        all_samples = system.srm.get_metrics()
        assert {s.app_name for s in all_samples} == {"A", "B"}


class TestHostFailure:
    def test_detected_by_missed_heartbeats(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(2.0)
        victim_host = job.pes[0].host_name
        system.failures.fail_host(victim_host)
        # PEs die with the host immediately ...
        affected = [pe for pe in job.pes if pe.host_name == victim_host]
        assert all(pe.state is PEState.CRASHED for pe in affected)
        assert all(pe.last_crash_reason == "host_failure" for pe in affected)
        # ... but SRM only learns about it after missed heartbeats.
        assert system.srm.host(victim_host).is_up
        system.run_for(HEARTBEAT_TIMEOUT + 2.0)
        assert not system.srm.host(victim_host).is_up

    def test_unknown_host_rejected(self, system):
        with pytest.raises(UnknownHostError):
            system.failures.fail_host("ghost")

    def test_scheduled_failure(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(1.0)
        victim = job.pes[0]
        system.failures.crash_pe(job.job_id, pe_id=victim.pe_id, at=5.0)
        system.run_for(3.0)
        assert victim.state is PEState.RUNNING
        system.run_for(2.0)
        assert victim.state is PEState.CRASHED

    def test_crash_pe_requires_identifier(self, system):
        job = system.submit_job(make_linear_app())
        with pytest.raises(UnknownPEError):
            system.failures.crash_pe(job.job_id)

    def test_host_revive(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(1.0)
        victim_host = job.pes[0].host_name
        system.failures.fail_host(victim_host)
        system.run_for(5.0)
        system.hcs[victim_host].revive()
        system.run_for(5.0)
        assert system.srm.host(victim_host).is_up


class TestImportExport:
    def build_producer(self, name="Producer", stream_id=None, properties=None):
        from repro.spl.application import Application
        from repro.spl.library import Beacon, Export

        app = Application(name)
        g = app.graph
        src = g.add_operator("src", Beacon, params={"values": {"from": name},
                                                    "period": 0.5})
        params = {}
        if stream_id:
            params["stream_id"] = stream_id
        if properties:
            params["properties"] = properties
        exp = g.add_operator("exp", Export, params=params)
        g.connect(src.oport(0), exp.iport(0))
        return app

    def build_consumer(self, name="Consumer", stream_id=None, subscription=None):
        from repro.spl.application import Application
        from repro.spl.library import Import, Sink

        app = Application(name)
        g = app.graph
        params = {}
        if stream_id:
            params["stream_id"] = stream_id
        if subscription:
            params["subscription"] = subscription
        imp = g.add_operator("imp", Import, params=params)
        sink = g.add_operator("sink", Sink)
        g.connect(imp.oport(0), sink.iport(0))
        return app

    def test_stream_id_matching(self, system):
        system.submit_job(self.build_producer(stream_id="feed"))
        consumer = system.submit_job(self.build_consumer(stream_id="feed"))
        system.run_for(10.0)
        assert len(consumer.operator_instance("sink").seen) > 0

    def test_property_subscription_matching(self, system):
        system.submit_job(
            self.build_producer(properties={"kind": "tweets", "lang": "en"})
        )
        consumer = system.submit_job(
            self.build_consumer(subscription={"kind": "tweets"})
        )
        system.run_for(10.0)
        assert len(consumer.operator_instance("sink").seen) > 0

    def test_non_matching_subscription_gets_nothing(self, system):
        system.submit_job(self.build_producer(properties={"kind": "tweets"}))
        consumer = system.submit_job(
            self.build_consumer(subscription={"kind": "trades"})
        )
        system.run_for(10.0)
        assert consumer.operator_instance("sink").seen == []

    def test_late_consumer_connects_dynamically(self, system):
        system.submit_job(self.build_producer(stream_id="feed"))
        system.run_for(20.0)
        consumer = system.submit_job(self.build_consumer(stream_id="feed"))
        system.run_for(10.0)
        assert len(consumer.operator_instance("sink").seen) > 0

    def test_producer_cancellation_stops_flow(self, system):
        producer = system.submit_job(self.build_producer(stream_id="feed"))
        consumer = system.submit_job(self.build_consumer(stream_id="feed"))
        system.run_for(10.0)
        system.cancel_job(producer.job_id)
        count = len(consumer.operator_instance("sink").seen)
        system.run_for(10.0)
        assert len(consumer.operator_instance("sink").seen) == count

    def test_one_export_feeds_many_importers(self, system):
        system.submit_job(self.build_producer(stream_id="feed"))
        c1 = system.submit_job(self.build_consumer("C1", stream_id="feed"))
        c2 = system.submit_job(self.build_consumer("C2", stream_id="feed"))
        system.run_for(10.0)
        assert len(c1.operator_instance("sink").seen) > 0
        assert len(c2.operator_instance("sink").seen) > 0

    def test_restarted_exactly_once_export_publishes_nothing_twice(self):
        """An exactly-once restart replays the Export PE's input with its
        emissions suppressed; the replay must not reach the importers of
        another job either (``ctx.replaying``), or they see it twice."""
        from repro import SystemConfig, SystemS
        from repro.spl.application import Application
        from repro.spl.library import CallbackSource, Export

        system = SystemS(hosts=6, config=SystemConfig(delivery="exactly_once"))
        app = Application("Producer")
        g = app.graph
        src = g.add_operator(
            "src", CallbackSource, partition="feed",
            params={"generator": lambda now, count: [{"seq": count}], "period": 0.1},
        )
        exp = g.add_operator("exp", Export, params={"stream_id": "feed"}, partition="out")
        g.connect(src.oport(0), exp.iport(0))
        producer = system.submit_job(app)
        consumer = system.submit_job(self.build_consumer(stream_id="feed"))
        system.run_for(3.0)
        export_pe = producer.pe_of_operator("exp")
        export_pe.crash("test")
        system.sam.restart_pe(producer.job_id, export_pe.pe_id, rehydrate=True)
        system.run_for(3.0)
        assert system.transport.replayed > 0  # the restart did replay
        seqs = [t["seq"] for t in consumer.operator_instance("sink").seen]
        assert seqs and len(seqs) == len(set(seqs))

    def test_connections_introspection(self, system):
        system.submit_job(self.build_producer(stream_id="feed"))
        system.submit_job(self.build_consumer(stream_id="feed"))
        system.run_for(1.0)
        pairs = system.import_export.connections()
        assert len(pairs) == 1
        export, import_ = pairs[0]
        assert export.stream_id == "feed"
