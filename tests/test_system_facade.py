"""Tests for the SystemS facade, configs, and multi-orchestrator setups."""

from repro import (
    Host,
    ManagedApplication,
    Orchestrator,
    OrcaDescriptor,
    SystemConfig,
    SystemS,
)
from repro.orca.scopes import PEFailureScope
from repro.runtime.job import JobState
from repro.runtime.pe import PEState

from tests.conftest import make_linear_app


class TestConstruction:
    def test_int_hosts_get_names(self):
        system = SystemS(hosts=3)
        assert sorted(system.hcs) == ["host1", "host2", "host3"]

    def test_explicit_hosts(self):
        system = SystemS(hosts=[Host("a", tags=("gpu",)), Host("b")])
        assert set(system.hcs) == {"a", "b"}
        assert system.srm.host("a").tags == frozenset({"gpu"})

    def test_config_propagates(self):
        config = SystemConfig(metric_push_interval=1.0, pe_restart_delay=9.0)
        system = SystemS(hosts=2, config=config)
        job = system.submit_job(make_linear_app())
        system.run_for(0.99)
        assert system.srm.get_metrics([job.job_id]) == []
        system.run_for(0.02)  # the first push, at 1.0 s
        assert system.srm.get_metrics([job.job_id])
        pe = job.pes[0]
        pe.crash("t")
        system.sam.restart_pe(job.job_id, pe.pe_id)
        system.run_for(8.99)
        assert pe.state is PEState.CRASHED
        system.run_for(0.02)  # the restart, 9.0 s after it was asked for
        assert pe.state is PEState.RUNNING

    def test_now_and_run(self):
        system = SystemS(hosts=1)
        system.run_for(5.0)
        assert system.now == 5.0
        system.run_until(8.0)
        assert system.now == 8.0

    def test_compile_strategies(self):
        system = SystemS(hosts=1)
        app = make_linear_app()
        compiled = system.compile(app, strategy="fuse_all")
        assert len(compiled.pes) == 1

    def test_submit_accepts_compiled_or_application(self):
        system = SystemS(hosts=2)
        app = make_linear_app("A")
        job1 = system.submit_job(app)
        compiled = system.compile(make_linear_app("B"))
        job2 = system.submit_job(compiled)
        system.run_for(1.0)
        assert job1.is_running and job2.is_running


class TestDeterminism:
    def scenario(self):
        system = SystemS(hosts=4, seed=7)
        job = system.submit_job(make_linear_app(per_tick=3, period=0.5))
        system.run_for(20.0)
        system.failures.crash_pe(job.job_id, pe_index=1)
        system.run_for(20.0)
        sink = job.operator_instance("sink")
        return (
            len(sink.seen) if sink else -1,
            system.kernel.events_processed,
            system.transport.total_delivered,
        )

    def test_identical_runs(self):
        assert self.scenario() == self.scenario()


class RestartingOrca(Orchestrator):
    def __init__(self, app_name):
        super().__init__()
        self.app_name = app_name
        self.failures = []
        self.job = None

    def handleOrcaStart(self, context):
        self.orca.registerEventScope(
            PEFailureScope("f").addApplicationFilter(self.app_name)
        )
        self.job = self.orca.submit_application(self.app_name)

    def handlePEFailureEvent(self, context, scopes):
        self.failures.append(context.pe_id)
        self.orca.restart_pe(context.pe_id)


class TestMultipleOrchestrators:
    def test_isolated_event_routing(self):
        """Each ORCA service only sees failures of its own jobs."""
        system = SystemS(hosts=4)
        logic_a = RestartingOrca("A")
        logic_b = RestartingOrca("B")
        system.submit_orchestrator(
            OrcaDescriptor(
                name="OA",
                logic=lambda: logic_a,
                applications=[
                    ManagedApplication(name="A", application=make_linear_app("A"))
                ],
            )
        )
        system.submit_orchestrator(
            OrcaDescriptor(
                name="OB",
                logic=lambda: logic_b,
                applications=[
                    ManagedApplication(name="B", application=make_linear_app("B"))
                ],
            )
        )
        system.run_for(2.0)
        system.failures.crash_pe(logic_a.job.job_id, pe_index=1)
        system.run_for(5.0)
        assert len(logic_a.failures) == 1
        assert logic_b.failures == []

    def test_orca_ids_unique(self):
        system = SystemS(hosts=2)
        s1 = system.submit_orchestrator(
            OrcaDescriptor(name="O1", logic=Orchestrator, applications=[])
        )
        s2 = system.submit_orchestrator(
            OrcaDescriptor(name="O2", logic=Orchestrator, applications=[])
        )
        assert s1.orca_id != s2.orca_id
        assert set(system.orcas) == {s1.orca_id, s2.orca_id}

    def test_cancel_orchestrator_stops_polling(self):
        system = SystemS(hosts=2)
        logic = RestartingOrca("A")
        service = system.submit_orchestrator(
            OrcaDescriptor(
                name="O",
                logic=lambda: logic,
                applications=[
                    ManagedApplication(name="A", application=make_linear_app("A"))
                ],
                metric_poll_interval=1.0,
            )
        )
        system.run_for(5.0)
        epochs_before = service.metric_epochs.current
        system.cancel_orchestrator(service.orca_id)
        system.run_for(10.0)
        assert service.metric_epochs.current == epochs_before
        assert service.orca_id not in system.orcas

    def test_cancel_orchestrator_drops_what_is_still_queued(self):
        """Nothing is delivered to a cancelled orchestrator's logic."""
        from repro.orca.scopes import UserEventScope

        handled = []

        class Late(Orchestrator):
            def handleOrcaStart(self, context):
                self.orca.register_event_scope(UserEventScope("u"))

            def handleUserEvent(self, context, scopes):
                handled.append((context.name, self.orca._alive))
                self.orca.create_timer(1.0)  # would act for a dead orchestrator

        system = SystemS(hosts=2)
        service = system.submit_orchestrator(
            OrcaDescriptor(name="O", logic=Late, applications=[])
        )
        system.run_for(0.1)
        for n in range(3):
            service.inject_user_event(f"e{n}", {})
        system.cancel_orchestrator(service.orca_id)
        system.run_for(1.0)
        assert handled == []
        assert len(service.queue) == 0 and service.queue.dropped_count == 3
        assert service.queue.delivered_count == 1  # the start event only
        service.inject_user_event("after", {})  # refused, as before: not counted
        assert service.queue.dropped_count == 3

    def test_orchestrated_and_plain_jobs_coexist(self):
        system = SystemS(hosts=4)
        logic = RestartingOrca("A")
        system.submit_orchestrator(
            OrcaDescriptor(
                name="O",
                logic=lambda: logic,
                applications=[
                    ManagedApplication(name="A", application=make_linear_app("A"))
                ],
            )
        )
        plain = system.submit_job(make_linear_app("B"))
        system.run_for(2.0)
        assert logic.job.state is JobState.RUNNING
        assert plain.state is JobState.RUNNING
        assert plain.owner_orca is None
        assert logic.job.owner_orca is not None
