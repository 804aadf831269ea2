"""Edge-case tests across layers: timers, HC behaviour, error hierarchy,
dependency corner cases, ADL-only orchestrators, host-failure failover."""

import pytest

from repro import (
    ManagedApplication,
    Orchestrator,
    OrcaDescriptor,
    ReproError,
    SystemS,
)
from repro import errors as errors_module
from repro.errors import (
    ActuationError,
    DependencyCycleError,
    DependencyError,
    GraphError,
    OrcaError,
    RuntimeFault,
    SPLError,
    StarvationError,
)
from repro.orca.scopes import PEFailureScope, TimerScope
from repro.runtime.pe import PEState

from tests.conftest import make_linear_app


class TestErrorHierarchy:
    def test_every_error_derives_from_repro_error(self):
        for name in dir(errors_module):
            obj = getattr(errors_module, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, ReproError), name

    def test_layer_bases(self):
        assert issubclass(GraphError, SPLError)
        assert issubclass(StarvationError, DependencyError)
        assert issubclass(DependencyCycleError, OrcaError)
        assert issubclass(ActuationError, OrcaError)
        assert not issubclass(RuntimeFault, SPLError)

    def test_catch_all(self):
        with pytest.raises(ReproError):
            raise StarvationError("x")


class TestTimerService:
    def make_service(self, system):
        class Passive(Orchestrator):
            pass

        return system.submit_orchestrator(
            OrcaDescriptor(name="T", logic=Passive, applications=[])
        )

    def test_cancel_by_id(self, system):
        service = self.make_service(system)
        system.run_for(0.1)
        handle = service.create_timer(5.0, timer_id="x")
        assert service.timers.cancel_timer("x") is True
        assert service.timers.cancel_timer("x") is False
        system.run_for(10.0)
        assert handle.cancelled

    def test_negative_delay_rejected(self, system):
        service = self.make_service(system)
        with pytest.raises(ValueError):
            service.create_timer(-1.0)

    def test_handle_cancel_stops_periodic(self, system):
        fired = []

        class TimerOrca(Orchestrator):
            def handleOrcaStart(self, context):
                self.orca.registerEventScope(TimerScope("t"))
                self.handle = self.orca.create_timer(1.0, periodic=True)

            def handleTimerEvent(self, context, scopes):
                fired.append(context.time)
                if len(fired) >= 2:
                    self.handle.cancel()

        system.submit_orchestrator(
            OrcaDescriptor(name="T", logic=TimerOrca, applications=[])
        )
        system.run_for(10.0)
        assert len(fired) == 2

    def test_shutdown_cancels_all_timers(self, system):
        service = self.make_service(system)
        system.run_for(0.1)
        handle = service.create_timer(5.0)
        system.cancel_orchestrator(service.orca_id)
        assert handle.cancelled


class TestHostControllerDetails:
    def test_collect_and_push_counts_samples(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(1.0)
        hc = system.hcs[job.pes[0].host_name]
        pushed = hc.collect_and_push()
        assert pushed > 0

    def test_dead_host_stops_pushing(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(5.0)
        host = job.pes[0].host_name
        hc = system.hcs[host]
        hc.kill()
        before = len(system.srm.get_metrics())
        system.run_for(10.0)
        # PE metrics of the dead host no longer refresh; other hosts still push
        samples = system.srm.get_metrics()
        stale = [
            s
            for s in samples
            if s.pe_id == job.pes[0].pe_id and s.collection_ts > system.now - 9.0
        ]
        assert stale == []

    def test_crashed_pe_not_collected(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(5.0)
        pe = job.pes[0]
        pe.crash("t")
        hc = system.hcs[pe.host_name]
        hc.collect_and_push()  # must skip the crashed PE without error


class TestDependencyCornerCases:
    def make_service(self, system, names=("A", "B", "C")):
        class Passive(Orchestrator):
            pass

        return system.submit_orchestrator(
            OrcaDescriptor(
                name="D",
                logic=Passive,
                applications=[
                    ManagedApplication(name=n, application=make_linear_app(n))
                    for n in names
                ],
            )
        )

    def test_two_concurrent_starts_share_sleeping_dependency(self, system):
        """B and C both depend on A with uptime; both started at once."""
        service = self.make_service(system)
        deps = service.deps
        deps.create_app_config("a", "A")
        deps.create_app_config("b", "B")
        deps.create_app_config("c", "C")
        deps.register_dependency("b", "a", uptime_requirement=10.0)
        deps.register_dependency("c", "a", uptime_requirement=20.0)
        deps.start("b")
        deps.start("c")
        system.run_for(1.0)
        assert deps.is_running("a")
        assert not deps.is_running("b")
        system.run_for(10.0)
        assert deps.is_running("b")
        assert not deps.is_running("c")
        system.run_for(10.0)
        assert deps.is_running("c")
        # A was submitted exactly once
        assert len({deps.job_id_of(c) for c in "abc"}) == 3

    def test_cancel_while_dependent_still_sleeping(self, system):
        """A is up, B sleeps on its uptime; cancelling A must fail only if
        B is *running* — a sleeping dependent does not hold it."""
        service = self.make_service(system)
        deps = service.deps
        deps.create_app_config("a", "A", garbage_collectable=True)
        deps.create_app_config("b", "B")
        deps.register_dependency("b", "a", uptime_requirement=30.0)
        deps.start("b")
        system.run_for(1.0)
        assert deps.is_running("a") and not deps.is_running("b")
        deps.cancel("a")  # b not running yet: allowed
        system.run_for(1.0)
        assert not deps.is_running("a")
        # the sleeping thread re-submits a once its wake-up finds it gone
        system.run_for(60.0)
        assert deps.is_running("b")
        assert deps.is_running("a")

    def test_gc_queue_empty_after_everything_cancelled(self, system):
        service = self.make_service(system)
        deps = service.deps
        deps.create_app_config("a", "A", garbage_collectable=True, gc_timeout=1.0)
        deps.create_app_config("b", "B")
        deps.register_dependency("b", "a")
        deps.start("b")
        system.run_for(1.0)
        deps.cancel("b")
        system.run_for(3.0)
        assert deps.gc_queue() == []
        assert not deps.is_running("a")


class TestAdlOnlyOrchestrator:
    def test_inspects_but_cannot_submit(self, system):
        """Apps registered by ADL alone support inspection, not submission."""
        from repro.spl.adl import adl_to_xml
        from repro.spl.compiler import SPLCompiler

        compiled = SPLCompiler("manual").compile(make_linear_app("A"))

        class Passive(Orchestrator):
            pass

        service = system.submit_orchestrator(
            OrcaDescriptor(
                name="AdlOnly",
                logic=Passive,
                applications=[
                    ManagedApplication(name="A", adl_xml=adl_to_xml(compiled))
                ],
            )
        )
        system.run_for(0.1)
        # logical inspection works from the parsed ADL
        assert service.operators_of_type("A", "Sink") == ["sink"]
        with pytest.raises(ActuationError):
            service.submit_application("A")
        with pytest.raises(ActuationError):
            service.set_exclusive_host_pools("A")


class TestHostFailureFailover:
    def test_failover_on_whole_host_failure(self):
        """Sec. 5.2 variant: the active replica dies with its host; the
        failure epochs group the PE crashes; failover still happens."""
        import io

        from repro.apps.orchestrators import FailoverOrca
        from repro.apps.trend import TrendRecorderHub, build_trend_application
        from repro.apps.workloads import TradeWorkload

        system = SystemS(hosts=8, seed=42)
        hub = TrendRecorderHub()
        app = build_trend_application(
            lambda: TradeWorkload(seed=11), hub=hub, window_span=60.0
        )
        class RecordingFailover(FailoverOrca):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.pe_failures = []

            def handlePEFailureEvent(self, context, scopes):
                self.pe_failures.append(context)
                super().handlePEFailureEvent(context, scopes)

        logic = RecordingFailover(n_replicas=3, status_stream=io.StringIO())
        service = system.submit_orchestrator(
            OrcaDescriptor(
                name="F",
                logic=lambda: logic,
                applications=[ManagedApplication(name=app.name, application=app)],
            )
        )
        system.run_for(90.0)
        active = logic.active_job_id()
        job = service.job(active)
        victim_host = job.pe_by_index(job.compiled.pe_of("calc")).host_name
        system.failures.fail_host(victim_host)
        system.run_for(30.0)
        # failover happened and every crashed PE was restarted... but the
        # host is still down, so restarts go nowhere until it revives;
        # what matters: the promoted replica is active and healthy.
        assert logic.failovers
        promoted = logic.failovers[0][2]
        assert logic.replicas[promoted]["status"] == "active"
        promoted_job = service.job(promoted)
        assert all(pe.state is PEState.RUNNING for pe in promoted_job.pes)
        # PE failure events of the one host failure shared an epoch
        assert logic.pe_failures
        assert len({context.epoch for context in logic.pe_failures}) == 1
