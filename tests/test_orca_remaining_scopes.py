"""End-to-end delivery tests for the remaining scope types:
HostFailureScope, config-filtered job scopes, reason-filtered failures."""

from repro import ManagedApplication, Orchestrator, OrcaDescriptor
from repro.orca.scopes import (
    HostFailureScope,
    JobCancellationScope,
    JobSubmissionScope,
    PEFailureScope,
)
from repro.runtime.srm import HEARTBEAT_TIMEOUT

from tests.conftest import make_linear_app


class ScopedOrca(Orchestrator):
    def __init__(self, scopes, submit=("Linear",)):
        super().__init__()
        self.scopes_to_register = list(scopes)
        self.apps_to_submit = list(submit)
        self.jobs = []
        self.host_failures = []
        self.pe_failures = []
        self.submissions = []
        self.cancellations = []

    def handleOrcaStart(self, context):
        for scope in self.scopes_to_register:
            self.orca.register_event_scope(scope)
        for name in self.apps_to_submit:
            self.jobs.append(self.orca.submit_application(name))

    def handleHostFailureEvent(self, context, scopes):
        self.host_failures.append((context.host, context.affected_pe_ids, scopes))

    def handlePEFailureEvent(self, context, scopes):
        self.pe_failures.append((context.pe_id, context.reason))

    def handleJobSubmissionEvent(self, context, scopes):
        self.submissions.append((context.config_id, scopes))

    def handleJobCancellationEvent(self, context, scopes):
        self.cancellations.append((context.config_id, scopes))


def submit(system, logic, names=("Linear",)):
    return system.submit_orchestrator(
        OrcaDescriptor(
            name="S",
            logic=lambda: logic,
            applications=[
                ManagedApplication(name=n, application=make_linear_app(n))
                for n in names
            ],
        )
    )


class TestHostFailureScope:
    def test_host_failure_event_with_affected_pes(self, system):
        logic = ScopedOrca([HostFailureScope("h")])
        submit(system, logic)
        system.run_for(2.0)
        victim_host = logic.jobs[0].pes[0].host_name
        system.failures.fail_host(victim_host)
        system.run_for(HEARTBEAT_TIMEOUT + 2.5)
        assert len(logic.host_failures) == 1
        host, affected, scopes = logic.host_failures[0]
        assert host == victim_host
        assert logic.jobs[0].pes[0].pe_id in affected
        assert scopes == ["h"]

    def test_host_filter(self, system):
        scope = HostFailureScope("h").addHostFilter("host_that_never_exists")
        logic = ScopedOrca([scope])
        submit(system, logic)
        system.run_for(2.0)
        system.failures.fail_host(logic.jobs[0].pes[0].host_name)
        system.run_for(6.0)
        assert logic.host_failures == []


class TestReasonFilteredFailures:
    def test_only_selected_reason_delivered(self, system):
        scope = PEFailureScope("f").addReasonFilter("host_failure")
        logic = ScopedOrca([scope])
        submit(system, logic)
        system.run_for(2.0)
        job = logic.jobs[0]
        # an injected crash does NOT match the reason filter
        system.failures.crash_pe(job.job_id, pe_id=job.pes[0].pe_id,
                                 reason="injected_fault")
        system.run_for(2.0)
        assert logic.pe_failures == []
        # a host failure does
        host = job.pes[1].host_name
        system.failures.fail_host(host)
        system.run_for(6.0)
        assert logic.pe_failures
        assert all(reason == "host_failure" for _, reason in logic.pe_failures)


class TestConfigFilteredJobScopes:
    def test_submission_and_cancellation_config_filters(self, system):
        sub_scope = JobSubmissionScope("subs").addConfigFilter("tracked")
        can_scope = JobCancellationScope("cans").addConfigFilter("tracked")
        logic = ScopedOrca([sub_scope, can_scope], submit=())
        service = submit(system, logic, names=("A", "B"))
        system.run_for(0.1)
        deps = service.deps
        deps.create_app_config("tracked", "A")
        deps.create_app_config("untracked", "B")
        deps.start("tracked")
        deps.start("untracked")
        system.run_for(1.0)
        assert [c for c, _ in logic.submissions] == ["tracked"]
        deps.cancel("untracked")
        deps.cancel("tracked")
        system.run_for(1.0)
        assert [c for c, _ in logic.cancellations] == ["tracked"]

    def test_application_filter_on_job_scope(self, system):
        scope = JobSubmissionScope("subs").addApplicationFilter("A")
        logic = ScopedOrca([scope], submit=("A", "B"))
        submit(system, logic, names=("A", "B"))
        system.run_for(1.0)
        assert len(logic.submissions) == 1
