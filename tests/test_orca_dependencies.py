"""Tests for application sets and dependencies (Sec. 4.4)."""

import pytest

from repro import ManagedApplication, Orchestrator, OrcaDescriptor
from repro.errors import (
    DependencyCycleError,
    DependencyError,
    StarvationError,
)

from tests.conftest import make_linear_app


class PassiveOrca(Orchestrator):
    """Does nothing on its own; tests drive the service directly."""


def make_service(system, names):
    descriptor = OrcaDescriptor(
        name="DepOrca",
        logic=PassiveOrca,
        applications=[
            ManagedApplication(name=n, application=make_linear_app(n))
            for n in names
        ],
    )
    return system.submit_orchestrator(descriptor)


@pytest.fixture
def service(system):
    return make_service(system, ["A", "B", "C", "D"])


class TestConfigs:
    def test_create_config(self, service):
        config = service.deps.create_app_config("a", "A", params={"x": "1"})
        assert config.garbage_collectable is False
        assert service.deps.config("a") is config

    def test_duplicate_config_rejected(self, service):
        service.deps.create_app_config("a", "A")
        with pytest.raises(DependencyError):
            service.deps.create_app_config("a", "A")

    def test_unmanaged_app_rejected(self, service):
        with pytest.raises(DependencyError):
            service.deps.create_app_config("z", "NotManaged")

    def test_negative_gc_timeout_rejected(self, service):
        with pytest.raises(DependencyError):
            service.deps.create_app_config("a", "A", gc_timeout=-1)

    def test_unknown_config_lookup(self, service):
        with pytest.raises(DependencyError):
            service.deps.config("ghost")


class TestDependencyRegistration:
    def test_register_and_query(self, service):
        deps = service.deps
        deps.create_app_config("a", "A")
        deps.create_app_config("b", "B")
        deps.register_dependency("a", "b", uptime_requirement=10.0)
        assert deps.dependencies_of("a") == {"b": 10.0}
        assert deps.dependents_of("b") == {"a"}

    def test_self_dependency_rejected(self, service):
        service.deps.create_app_config("a", "A")
        with pytest.raises(DependencyCycleError):
            service.deps.register_dependency("a", "a")

    def test_cycle_rejected(self, service):
        """Sec. 4.4: registration error if the dependency creates a cycle."""
        deps = service.deps
        for cid, app in zip("abc", "ABC"):
            deps.create_app_config(cid, app)
        deps.register_dependency("a", "b")
        deps.register_dependency("b", "c")
        with pytest.raises(DependencyCycleError):
            deps.register_dependency("c", "a")

    def test_diamond_allowed(self, service):
        deps = service.deps
        for cid, app in zip("abcd", "ABCD"):
            deps.create_app_config(cid, app)
        deps.register_dependency("a", "b")
        deps.register_dependency("a", "c")
        deps.register_dependency("b", "d")
        deps.register_dependency("c", "d")
        assert deps.transitive_dependencies("a") == {"b", "c", "d"}

    def test_negative_uptime_rejected(self, service):
        deps = service.deps
        deps.create_app_config("a", "A")
        deps.create_app_config("b", "B")
        with pytest.raises(DependencyError):
            deps.register_dependency("a", "b", uptime_requirement=-5)

    def test_unknown_configs_rejected(self, service):
        service.deps.create_app_config("a", "A")
        with pytest.raises(DependencyError):
            service.deps.register_dependency("a", "ghost")


class TestSubmissionScheduling:
    def test_leaf_submitted_immediately(self, system, service):
        service.deps.create_app_config("a", "A")
        service.deps.start("a")
        system.run_for(1.0)
        assert service.deps.is_running("a")

    def test_dependency_closure_submitted(self, system, service):
        deps = service.deps
        deps.create_app_config("a", "A")
        deps.create_app_config("b", "B")
        deps.register_dependency("a", "b")
        deps.start("a")
        system.run_for(1.0)
        assert deps.is_running("a") and deps.is_running("b")

    def test_uptime_requirement_delays_dependent(self, system, service):
        deps = service.deps
        deps.create_app_config("a", "A")
        deps.create_app_config("b", "B")
        deps.register_dependency("a", "b", uptime_requirement=30.0)
        deps.start("a")
        system.run_for(1.0)
        assert deps.is_running("b")
        assert not deps.is_running("a")
        system.run_for(30.0)
        assert deps.is_running("a")
        assert deps.submit_time_of("a") == pytest.approx(30.0)

    def test_max_uptime_over_all_deps(self, system, service):
        deps = service.deps
        for cid, app in zip("abc", "ABC"):
            deps.create_app_config(cid, app)
        deps.register_dependency("a", "b", uptime_requirement=10.0)
        deps.register_dependency("a", "c", uptime_requirement=40.0)
        deps.start("a")
        system.run_for(15.0)
        assert not deps.is_running("a")
        system.run_for(30.0)
        assert deps.is_running("a")

    def test_unconnected_apps_not_submitted(self, system, service):
        """The snapshot cuts nodes not connected to the target."""
        deps = service.deps
        deps.create_app_config("a", "A")
        deps.create_app_config("d", "D")  # unrelated
        deps.start("a")
        system.run_for(1.0)
        assert deps.is_running("a")
        assert not deps.is_running("d")

    def test_shared_dependency_submitted_once(self, system, service):
        deps = service.deps
        for cid, app in zip("abc", "ABC"):
            deps.create_app_config(cid, app)
        deps.register_dependency("a", "c")
        deps.register_dependency("b", "c")
        deps.start("a")
        system.run_for(1.0)
        job_c = deps.job_id_of("c")
        deps.start("b")
        system.run_for(1.0)
        assert deps.job_id_of("c") == job_c  # reused, not restarted

    def test_start_already_running_upgrades_to_explicit(self, system, service):
        deps = service.deps
        deps.create_app_config("a", "A", garbage_collectable=True)
        deps.create_app_config("b", "B")
        deps.register_dependency("b", "a")
        deps.start("b")  # a submitted as a dependency (not explicit)
        system.run_for(1.0)
        deps.start("a")  # now explicit
        system.run_for(1.0)
        assert deps._records["a"].explicit

    def test_chain_staggered_submissions(self, system, service):
        deps = service.deps
        for cid, app in zip("abc", "ABC"):
            deps.create_app_config(cid, app)
        deps.register_dependency("a", "b", uptime_requirement=10.0)
        deps.register_dependency("b", "c", uptime_requirement=10.0)
        deps.start("a")
        system.run_for(1.0)
        assert deps.is_running("c")
        assert not deps.is_running("b")
        system.run_for(10.0)
        assert deps.is_running("b")
        assert not deps.is_running("a")
        system.run_for(10.0)
        assert deps.is_running("a")


class TestCancellationAndGC:
    def setup_chain(self, service, collectable=("b",), timeouts=None):
        """a depends on b; returns the deps manager."""
        timeouts = timeouts or {}
        deps = service.deps
        deps.create_app_config(
            "a", "A",
            garbage_collectable="a" in collectable,
            gc_timeout=timeouts.get("a", 0.0),
        )
        deps.create_app_config(
            "b", "B",
            garbage_collectable="b" in collectable,
            gc_timeout=timeouts.get("b", 0.0),
        )
        deps.register_dependency("a", "b")
        return deps

    def test_cancel_not_running_rejected(self, service):
        service.deps.create_app_config("a", "A")
        with pytest.raises(DependencyError):
            service.deps.cancel("a")

    def test_starvation_guard(self, system, service):
        """Sec. 4.4: cannot cancel an app feeding a running app."""
        deps = self.setup_chain(service)
        deps.start("a")
        system.run_for(1.0)
        with pytest.raises(StarvationError):
            deps.cancel("b")

    def test_starvation_error_names_the_first_dependent_registered(self, system):
        """The guard's message does not depend on set order (or the hash seed)."""
        names = [f"dep{i}" for i in range(9, 0, -1)]
        service = make_service(system, ["feed"] + names)
        deps = service.deps
        for name in names:
            deps.create_app_config(name, name)
        deps.create_app_config("feed", "feed")
        for name in names:
            deps.register_dependency(name, "feed")
            deps.start(name)
        system.run_for(1.0)
        assert all(deps.is_running(name) for name in names)
        with pytest.raises(StarvationError, match="running application 'dep9'"):
            deps.cancel("feed")

    def test_gc_collects_unused_dependency(self, system, service):
        deps = self.setup_chain(service, collectable=("b",))
        deps.start("a")
        system.run_for(1.0)
        deps.cancel("a")
        system.run_for(1.0)
        assert not deps.is_running("b")

    def test_gc_skips_non_collectable(self, system, service):
        """Rule (i): not garbage collectable (like fox in Fig. 7)."""
        deps = self.setup_chain(service, collectable=())
        deps.start("a")
        system.run_for(1.0)
        deps.cancel("a")
        system.run_for(5.0)
        assert deps.is_running("b")

    def test_gc_skips_still_used(self, system, service):
        """Rule (ii): still feeding another running application."""
        deps = service.deps
        deps.create_app_config("a", "A")
        deps.create_app_config("c", "C")
        deps.create_app_config("b", "B", garbage_collectable=True)
        deps.register_dependency("a", "b")
        deps.register_dependency("c", "b")
        deps.start("a")
        deps.start("c")
        system.run_for(1.0)
        deps.cancel("a")
        system.run_for(5.0)
        assert deps.is_running("b")  # c still uses it

    def test_gc_skips_explicitly_submitted(self, system, service):
        """Rule (iii): explicitly submitted by the ORCA logic."""
        deps = self.setup_chain(service, collectable=("b",))
        deps.start("b")  # explicit
        system.run_for(1.0)
        deps.start("a")
        system.run_for(1.0)
        deps.cancel("a")
        system.run_for(5.0)
        assert deps.is_running("b")

    def test_gc_timeout_delays_collection(self, system, service):
        deps = self.setup_chain(service, collectable=("b",),
                                timeouts={"b": 10.0})
        deps.start("a")
        system.run_for(1.0)
        deps.cancel("a")
        system.run_for(5.0)
        assert deps.is_running("b")  # still within timeout
        assert deps.gc_queue() == ["b"]
        system.run_for(6.0)
        assert not deps.is_running("b")

    def test_gc_rescue_on_resubmission(self, system, service):
        """Sec. 4.4: an app enqueued for cancellation is rescued when a new
        submission needs it (avoiding an unnecessary restart)."""
        deps = self.setup_chain(service, collectable=("b",),
                                timeouts={"b": 10.0})
        deps.start("a")
        system.run_for(1.0)
        job_b = deps.job_id_of("b")
        deps.cancel("a")
        system.run_for(2.0)
        assert deps.gc_queue() == ["b"]
        deps.start("a")  # needs b again: rescue from the queue
        system.run_for(20.0)
        assert deps.is_running("b")
        assert deps.job_id_of("b") == job_b  # same job, never restarted

    def test_gc_cascades_down_chains(self, system, service):
        deps = service.deps
        deps.create_app_config("a", "A")
        deps.create_app_config("b", "B", garbage_collectable=True)
        deps.create_app_config("c", "C", garbage_collectable=True)
        deps.register_dependency("a", "b")
        deps.register_dependency("b", "c")
        deps.start("a")
        system.run_for(1.0)
        deps.cancel("a")
        system.run_for(2.0)
        assert not deps.is_running("b")
        assert not deps.is_running("c")

    def test_cascade_stops_at_non_collectable(self, system, service):
        deps = service.deps
        deps.create_app_config("a", "A")
        deps.create_app_config("b", "B", garbage_collectable=False)
        deps.create_app_config("c", "C", garbage_collectable=True)
        deps.register_dependency("a", "b")
        deps.register_dependency("b", "c")
        deps.start("a")
        system.run_for(1.0)
        deps.cancel("a")
        system.run_for(5.0)
        assert deps.is_running("b")  # not collectable
        assert deps.is_running("c")  # still used by b
