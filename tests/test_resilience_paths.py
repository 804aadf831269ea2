"""Tests for recovery interplay: restarts vs sources, metrics resets,
import/export across restarts, and orchestrator resilience."""

import pytest

from repro import ManagedApplication, Orchestrator, OrcaDescriptor, SystemS
from repro.chaos import CrashPE
from repro.orca.scopes import OperatorMetricScope, PEFailureScope
from repro.runtime.pe import PEState
from repro.spl.application import Application
from repro.spl.library import Beacon, CallbackSource, Export, Import, Sink

from tests.conftest import make_linear_app


class TestRestartInterplay:
    def test_restarted_source_resumes_emitting(self, system):
        job = system.submit_job(make_linear_app(period=0.5))
        system.run_for(5.0)
        src_pe = job.pe_of_operator("src")
        src_pe.crash("t")
        system.sam.restart_pe(job.job_id, src_pe.pe_id)
        system.run_for(5.0)
        count_after_restart = len(job.operator_instance("sink").seen)
        system.run_for(5.0)
        assert len(job.operator_instance("sink").seen) > count_after_restart

    def test_metric_counters_reset_after_restart(self, system):
        job = system.submit_job(make_linear_app(period=0.5))
        system.run_for(10.0)
        sink_pe = job.pe_of_operator("sink")
        before = job.operator_instance("sink").metric("nTuplesProcessed").value
        assert before > 0
        sink_pe.crash("t")
        sink_pe.restart()
        after = job.operator_instance("sink").metric("nTuplesProcessed").value
        assert after == 0  # fresh instance, fresh counters

    def test_srm_reflects_reset_on_next_push(self, system):
        job = system.submit_job(make_linear_app(period=0.5))
        system.run_for(10.0)
        sink_pe = job.pe_of_operator("sink")
        pe_id = sink_pe.pe_id
        old = system.srm.metric_value(job.job_id, pe_id, "sink", "nTuplesProcessed")
        sink_pe.crash("t")
        sink_pe.restart()
        system.run_for(system.config.metric_push_interval + 0.5)
        new = system.srm.metric_value(job.job_id, pe_id, "sink", "nTuplesProcessed")
        assert new is not None and new < old

    def test_import_flow_survives_importer_restart(self, system):
        producer = Application("Prod")
        g = producer.graph
        src = g.add_operator("src", Beacon, params={"values": {}, "period": 0.5})
        exp = g.add_operator("exp", Export, params={"stream_id": "s"})
        g.connect(src.oport(0), exp.iport(0))

        consumer = Application("Cons")
        g2 = consumer.graph
        imp = g2.add_operator("imp", Import, params={"stream_id": "s"})
        sink = g2.add_operator("sink", Sink)
        g2.connect(imp.oport(0), sink.iport(0))

        system.submit_job(producer)
        consumer_job = system.submit_job(consumer)
        system.run_for(5.0)
        pe = consumer_job.pe_of_operator("imp")
        pe.crash("t")
        system.sam.restart_pe(consumer_job.job_id, pe.pe_id)
        system.run_for(5.0)
        baseline = len(consumer_job.operator_instance("sink").seen)
        system.run_for(5.0)
        # dynamic connection still live: tuples keep arriving post-restart
        assert len(consumer_job.operator_instance("sink").seen) > baseline


class SentimentLikeOrca(Orchestrator):
    """Delta-tracking logic exercising the counter-reset guard."""

    def __init__(self):
        super().__init__()
        self.job = None
        self.deltas = []
        self._prev = None

    def handleOrcaStart(self, context):
        scope = OperatorMetricScope("m")
        scope.addOperatorInstanceFilter("sink")
        scope.addOperatorMetric("nTuplesProcessed")
        self.orca.registerEventScope(scope)
        self.orca.registerEventScope(PEFailureScope("f"))
        self.job = self.orca.submit_application("Linear")

    def handleOperatorMetricEvent(self, context, scopes):
        if self._prev is not None:
            self.deltas.append(context.value - self._prev)
        self._prev = context.value

    def handlePEFailureEvent(self, context, scopes):
        self.orca.restart_pe(context.pe_id)


class TestOrchestratorUnderRestarts:
    def test_negative_delta_observable_after_restart(self, system):
        """Counter resets surface as negative deltas — policies (like
        SentimentOrca) must guard for them; here we verify they occur."""
        logic = SentimentLikeOrca()
        system.submit_orchestrator(
            OrcaDescriptor(
                name="S",
                logic=lambda: logic,
                applications=[
                    ManagedApplication(name="Linear", application=make_linear_app())
                ],
                metric_poll_interval=2.0,
            )
        )
        system.run_for(20.0)
        job = logic.job
        pe = job.pe_of_operator("sink")
        system.chaos.inject(CrashPE(pe_index=pe.index), job=job)
        system.run_for(20.0)
        assert pe.state is PEState.RUNNING
        assert any(d < 0 for d in logic.deltas)
        assert logic.deltas[-1] >= 0  # back to normal growth

    def test_sentiment_orca_survives_counter_reset(self):
        """SentimentOrca's explicit reset guard: no spurious trigger."""
        from repro.apps.datastore import CauseModelStore, CorpusStore
        from repro.apps.hadoop import SimulatedHadoopCluster
        from repro.apps.orchestrators import SentimentOrca
        from repro.apps.sentiment import build_sentiment_application
        from repro.apps.workloads import CausePhase, TweetWorkload

        system = SystemS(hosts=4, seed=42)
        corpus = CorpusStore()
        models = CauseModelStore(("flash", "screen"))
        hadoop = SimulatedHadoopCluster(system.kernel, corpus, models)
        workload = TweetWorkload(
            seed=7, rate=20,
            phases=(CausePhase(0.0, {"flash": 0.6, "screen": 0.4}),),
        )
        app = build_sentiment_application(workload, corpus, models)
        logic = SentimentOrca(hadoop)
        service = system.submit_orchestrator(
            OrcaDescriptor(
                name="S",
                logic=lambda: logic,
                applications=[ManagedApplication(name=app.name, application=app)],
                metric_poll_interval=1.0,
            )
        )
        system.run_for(60.0)
        job = logic.job
        pe = job.pe_of_operator("op5")
        system.chaos.inject(CrashPE(pe_index=pe.index), job=job)
        system.run_for(2.0)
        system.sam.restart_pe(job.job_id, pe.pe_id)
        system.run_for(60.0)
        # counters reset mid-run; with no distribution shift there must
        # still be no Hadoop trigger
        assert hadoop.jobs == []
        assert not service.handler_errors


class TestCancellationDuringActivity:
    def test_cancel_job_with_inflight_tuples(self, system):
        job = system.submit_job(make_linear_app(per_tick=50, period=0.1))
        system.run_for(5.0)
        system.cancel_job(job.job_id)
        system.run_for(5.0)  # in-flight deliveries drain harmlessly
        assert all(pe.state is PEState.STOPPED for pe in job.pes)

    def test_orchestrator_cancels_job_from_handler(self, system):
        class SelfCancelling(Orchestrator):
            def __init__(self):
                super().__init__()
                self.job = None
                self.cancelled = False

            def handleOrcaStart(self, context):
                scope = OperatorMetricScope("m")
                scope.addOperatorMetric("nTuplesProcessed")
                self.orca.registerEventScope(scope)
                self.job = self.orca.submit_application("Linear")

            def handleOperatorMetricEvent(self, context, scopes):
                if not self.cancelled and context.value >= 10:
                    self.orca.cancel_job(self.job.job_id)
                    self.cancelled = True

        logic = SelfCancelling()
        service = system.submit_orchestrator(
            OrcaDescriptor(
                name="SC",
                logic=lambda: logic,
                applications=[
                    ManagedApplication(name="Linear", application=make_linear_app())
                ],
                metric_poll_interval=5.0,
            )
        )
        system.run_for(60.0)
        assert logic.cancelled
        assert not service.handler_errors
        from repro.runtime.job import JobState

        assert logic.job.state is JobState.CANCELLED
