"""Tests for the rule-based orchestration layer (Sec. 7 future work)."""

import pytest

from repro import ManagedApplication, OrcaDescriptor, SystemConfig, SystemS
from repro.errors import ScopeError
from repro.obs import Slo
from repro.orca.orchestrator import Orchestrator
from repro.orca.rules import Rule, RuleOrchestrator, when
from repro.orca.scopes import (
    HealthScope,
    OperatorMetricScope,
    PEFailureScope,
    TimerScope,
    UserEventScope,
)
from repro.runtime.pe import PEState

from tests.conftest import make_linear_app


def submit_rules(system, logic, apps=None):
    apps = apps or [make_linear_app()]
    return system.submit_orchestrator(
        OrcaDescriptor(
            name="Rules",
            logic=lambda: logic,
            applications=[
                ManagedApplication(name=a.name, application=a) for a in apps
            ],
        )
    )


class TestRuleConstruction:
    def test_when_given_then(self):
        rule = (
            when("r", OperatorMetricScope("r"))
            .given(lambda ctx: ctx.value > 5)
            .then(lambda orca, ctx: None)
        )
        assert rule.name == "r"
        assert rule.condition is not None and rule.action is not None

    def test_scope_key_must_match_name(self):
        with pytest.raises(ScopeError):
            Rule(name="a", scope=OperatorMetricScope("b"))

    def test_once_builder(self):
        rule = (
            when("r", OperatorMetricScope("r")).once().then(lambda o, c: None)
        )
        assert rule.once

    def test_duplicate_rule_names_rejected(self):
        rules = [
            when("r", OperatorMetricScope("r")).then(lambda o, c: None),
            when("r", PEFailureScope("r")).then(lambda o, c: None),
        ]
        with pytest.raises(ScopeError):
            RuleOrchestrator(rules)

    def test_applies_respects_condition_and_once(self):
        rule = Rule(
            name="r",
            scope=OperatorMetricScope("r"),
            condition=lambda ctx: ctx > 5,
            once=True,
        )
        assert not rule.applies(3)
        assert rule.applies(10)
        rule.fired = 1
        assert not rule.applies(10)


class TestRuleDispatch:
    def test_metric_rule_fires_with_condition(self, system):
        fired = []
        rules = [
            when(
                "many-tuples",
                OperatorMetricScope("many-tuples")
                .addOperatorMetric("nTuplesProcessed")
                .addOperatorInstanceFilter("sink"),
            )
            .given(lambda ctx: ctx.value >= 10)
            .then(lambda orca, ctx: fired.append(ctx.value)),
        ]
        logic = RuleOrchestrator(rules, submit=["Linear"])
        submit_rules(system, logic)
        system.run_for(31.0)
        assert fired
        assert all(v >= 10 for v in fired)
        assert [f[0] for f in logic.firings] == ["many-tuples"] * len(fired)

    def test_condition_false_suppresses_action(self, system):
        fired = []
        rules = [
            when(
                "never",
                OperatorMetricScope("never").addOperatorMetric("nTuplesProcessed"),
            )
            .given(lambda ctx: False)
            .then(lambda orca, ctx: fired.append(1)),
        ]
        logic = RuleOrchestrator(rules, submit=["Linear"])
        submit_rules(system, logic)
        system.run_for(31.0)
        assert fired == []

    def test_once_rule_fires_single_time(self, system):
        fired = []
        rules = [
            when(
                "first-poll",
                OperatorMetricScope("first-poll").addOperatorMetric(
                    "nTuplesProcessed"
                ),
            )
            .once()
            .then(lambda orca, ctx: fired.append(ctx.epoch)),
        ]
        logic = RuleOrchestrator(rules, submit=["Linear"])
        submit_rules(system, logic)
        system.run_for(60.0)
        assert len(fired) == 1

    def test_user_rule_overrides_default_restart(self, system):
        handled = []
        rules = [
            when("my-failover", PEFailureScope("my-failover"))
            .then(lambda orca, ctx: handled.append(ctx.pe_id)),
        ]
        logic = RuleOrchestrator(rules, submit=["Linear"])
        service = submit_rules(system, logic)
        system.run_for(2.0)
        job = logic.jobs[0]
        victim = job.pes[0]
        system.failures.crash_pe(job.job_id, pe_id=victim.pe_id)
        system.run_for(3.0)
        assert handled == [victim.pe_id]
        assert logic.defaulted == []  # user rule took it
        assert victim.state is PEState.CRASHED  # rule did not restart

    def test_default_pe_restart_when_no_rule(self, system):
        """The paper's example: automatic PE restart as the default."""
        logic = RuleOrchestrator(rules=(), submit=["Linear"])
        submit_rules(system, logic)
        system.run_for(2.0)
        job = logic.jobs[0]
        victim = job.pes[0]
        system.failures.crash_pe(job.job_id, pe_id=victim.pe_id)
        system.run_for(3.0)
        assert len(logic.defaulted) == 1
        assert victim.state is PEState.RUNNING

    def test_default_disabled(self, system):
        logic = RuleOrchestrator(
            rules=(), submit=["Linear"], auto_restart_failed_pes=False
        )
        submit_rules(system, logic)
        system.run_for(2.0)
        job = logic.jobs[0]
        victim = job.pes[0]
        system.failures.crash_pe(job.job_id, pe_id=victim.pe_id)
        system.run_for(3.0)
        assert victim.state is PEState.CRASHED
        assert logic.defaulted == []

    def test_timer_and_user_rules(self, system):
        log = []
        rules = [
            when("tick", TimerScope("tick"))
            .then(lambda orca, ctx: log.append(("timer", ctx.timer_id))),
            when("cmd", UserEventScope("cmd").addNameFilter("go"))
            .then(lambda orca, ctx: log.append(("user", ctx.name))),
        ]
        logic = RuleOrchestrator(rules, submit=())
        service = submit_rules(system, logic)
        system.run_for(0.1)
        service.create_timer(1.0, timer_id="t1")
        service.command_tool.submit_event("go", {})
        system.run_for(2.0)
        assert ("user", "go") in log
        assert ("timer", "t1") in log

    def test_rule_actions_are_actuation_logged_with_txn(self, system):
        rules = [
            when("restart", PEFailureScope("restart"))
            .then(lambda orca, ctx: orca.restart_pe(ctx.pe_id)),
        ]
        logic = RuleOrchestrator(rules, submit=["Linear"])
        service = submit_rules(system, logic)
        system.run_for(2.0)
        job = logic.jobs[0]
        system.failures.crash_pe(job.job_id, pe_id=job.pes[0].pe_id)
        system.run_for(3.0)
        restarts = [r for r in service.actuation_log if r.action == "restart_pe"]
        assert restarts
        txn = restarts[0].txn_id
        # the one pe_failure delivery is the transaction that restarted
        [(_rule, kind, context)] = logic.firings
        assert kind == "pe_failure" and restarts[0].detail == context.pe_id
        assert txn > 1 and service.actuations_for(txn) == restarts


class TestEveryDeliverableEventReachesTheRules:
    def test_health_rule_fires(self):
        """Regression: ``health_alert`` had no forwarder, so a rule scoped
        with ``HealthScope`` fell through to the base-class no-op."""
        system = SystemS(hosts=4, seed=42, config=SystemConfig(delivery="at_least_once"))
        alerts = []
        logic = RuleOrchestrator(
            [when("k", HealthScope("k")).then(lambda orca, ctx: alerts.append(ctx))],
            submit=["Linear"],
        )
        service = submit_rules(system, logic, [make_linear_app(period=0.2)])
        service.register_slo(
            Slo("lag-budget", "lag", 0.001, short_window=1.0, long_window=2.0,
                warn_burn=1.0, page_burn=2.0)
        )
        system.run_for(1.0)
        sink_pe = logic.jobs[0].pe_of_operator("sink")
        system.transport.install_link_fault(drop_probability=1.0, dst_pe=sink_pe.pe_id)
        system.run_for(5.0)
        assert alerts and alerts[0].slo == "lag-budget"
        assert ("k", "health_alert") in {(name, kind) for name, kind, _ in logic.firings}
        assert not service.handler_errors

    def test_every_dispatch_handler_is_overridden_or_exempt(self):
        from repro.orca.contexts import EVENT_KINDS

        exempt = {"handleOrcaStart"}  # lifecycle, carries no scopes: defined by hand
        for event_type, kind in EVENT_KINDS.items():
            assert bool(kind.scopes) == (kind.handler not in exempt), event_type
            own = getattr(RuleOrchestrator, kind.handler)
            assert own is not getattr(Orchestrator, kind.handler), (
                f"{event_type}: RuleOrchestrator inherits the no-op {kind.handler}"
            )
            assert own.__name__ == kind.handler


class TestTransactionIds:
    def test_transaction_ids_follow_delivery_order(self, system):
        rules = [
            when("tick", TimerScope("tick"))
            .then(lambda orca, ctx: orca.run_external(lambda: None)),
        ]
        logic = RuleOrchestrator(rules, submit=["Linear"])
        service = submit_rules(system, logic)
        system.run_for(0.1)
        service.create_timer(1.0, timer_id="t1")
        service.create_timer(2.0, timer_id="t2")
        system.run_for(3.0)
        txns = [(r.action, r.txn_id) for r in service.actuation_log]
        # orca_start is delivered first, as txn 1, and submits the job
        assert txns[0] == ("submit", 1)
        externals = [txn for action, txn in txns if action == "external"]
        assert len(externals) == 2 and 1 < externals[0] < externals[1]

    def test_actuations_for_an_unknown_txn_is_empty(self, system):
        logic = RuleOrchestrator(rules=(), submit=())
        service = submit_rules(system, logic)
        system.run_for(1.0)
        assert service.actuations_for(99999) == []
