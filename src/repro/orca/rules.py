"""Rule-based orchestration (the paper's Sec. 7 future-work item).

"One option is to use rules (similar to complex event processing) for
users to express event subscription more easily and take default
adaptation actions when no specialization is provided for a given event
(e.g., automatic PE restart)."

A :class:`Rule` bundles a subscope, an optional guard condition over the
event context, and an action over the ORCA service.  The
:class:`RuleOrchestrator` is a drop-in ORCA logic that registers every
rule's scope, evaluates guards, runs actions, and applies **default
actions** — out of the box, a PE failure that no user rule handles is
answered with an automatic PE restart.

Example::

    rules = [
        when("hot-queue",
             OperatorMetricScope("q").addOperatorMetric("queueSize"))
        .given(lambda ctx: ctx.value > 1000)
        .then(lambda orca, ctx: orca.send_control(
            ctx.job_id, ctx.instance_name, "shedLoad", {"factor": 0.5})),
    ]
    logic = RuleOrchestrator(rules, submit=["MyApp"])
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ScopeError
from repro.orca.contexts import EVENT_KINDS
from repro.orca.orchestrator import Orchestrator
from repro.orca.scopes import EventScope, PEFailureScope

Condition = Callable[[Any], bool]
Action = Callable[[Any, Any], None]  # (OrcaService, context)


@dataclass
class Rule:
    """One event-condition-action rule."""

    name: str
    scope: EventScope
    condition: Optional[Condition] = None
    action: Optional[Action] = None
    once: bool = False  #: fire at most once, then disarm
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.scope.key != self.name:
            # the subscope key doubles as the rule identity so that the
            # delivered scope keys tell the engine which rules matched
            raise ScopeError(
                f"rule {self.name!r}: its scope key must equal the rule name "
                f"(got {self.scope.key!r})"
            )

    def applies(self, context: Any) -> bool:
        if self.once and self.fired:
            return False
        if self.condition is None:
            return True
        return bool(self.condition(context))


class _RuleBuilder:
    """Fluent builder: ``when(name, scope).given(cond).then(action)``."""

    def __init__(self, name: str, scope: EventScope) -> None:
        self._rule = Rule(name=name, scope=scope)

    def given(self, condition: Condition) -> "_RuleBuilder":
        self._rule.condition = condition
        return self

    def then(self, action: Action) -> Rule:
        self._rule.action = action
        return self._rule

    def once(self) -> "_RuleBuilder":
        self._rule.once = True
        return self


def when(name: str, scope: EventScope) -> _RuleBuilder:
    """Start building a rule; the scope's key must equal ``name``."""
    return _RuleBuilder(name, scope)


def default_pe_restart(orca: Any, context: Any) -> None:
    """The paper's example default action: automatic PE restart."""
    orca.restart_pe(context.pe_id)


#: Reserved key for the engine's built-in PE failure catch-all.
_DEFAULT_FAILURE_KEY = "__default_pe_restart__"


class RuleOrchestrator(Orchestrator):
    """ORCA logic driven entirely by declarative rules.

    Parameters
    ----------
    rules:
        The user's rules.  Rule names must be unique.
    submit:
        Managed application names to submit on start (optionally
        ``(name, params)`` tuples).
    auto_restart_failed_pes:
        Install the default PE-restart action for failures no user rule
        fires on (default True, per the paper's example).
    """

    def __init__(
        self,
        rules: Sequence[Rule] = (),
        submit: Sequence = (),
        auto_restart_failed_pes: bool = True,
    ) -> None:
        super().__init__()
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ScopeError(f"duplicate rule names: {names}")
        self.rules: Dict[str, Rule] = {r.name: r for r in rules}
        self.submit_on_start = list(submit)
        self.auto_restart_failed_pes = auto_restart_failed_pes
        self.jobs = []
        #: (rule name, event type, context) log of fired rules
        self.firings: List[tuple] = []
        #: contexts of defaulted PE failures
        self.defaulted: List[Any] = []

    # -- lifecycle -----------------------------------------------------------

    def handleOrcaStart(self, context) -> None:  # noqa: N802
        for rule in self.rules.values():
            self.orca.register_event_scope(rule.scope)
        if self.auto_restart_failed_pes:
            self.orca.register_event_scope(PEFailureScope(_DEFAULT_FAILURE_KEY))
        for entry in self.submit_on_start:
            if isinstance(entry, tuple):
                name, params = entry
            else:
                name, params = entry, None
            self.jobs.append(self.orca.submit_application(name, params=params))

    # -- dispatch --------------------------------------------------------------

    def _dispatch(self, event_type: str, context, scopes: List[str]) -> bool:
        """Run every matching, applicable rule; True if any fired."""
        fired = False
        for key in scopes:
            rule = self.rules.get(key)
            if rule is None or rule.action is None:
                continue
            if not rule.applies(context):
                continue
            rule.fired += 1
            self.firings.append((rule.name, event_type, context))
            rule.action(self.orca, context)
            fired = True
        return fired

    def handlePEFailureEvent(self, context, scopes) -> None:  # noqa: N802
        fired = self._dispatch("pe_failure", context, scopes)
        if not fired and self.auto_restart_failed_pes:
            # "take default adaptation actions when no specialization is
            # provided for a given event (e.g., automatic PE restart)"
            self.defaulted.append(context)
            default_pe_restart(self.orca, context)


def _forwarder(event_type: str, name: str) -> Callable[..., None]:
    def handler(self: RuleOrchestrator, context: Any, scopes: List[str]) -> None:
        self._dispatch(event_type, context, scopes)

    handler.__name__ = name
    return handler


# every scope-carrying kind of the event table runs the matching rules;
# handlers the class defines itself (the pe_failure default) stay
for _kind in EVENT_KINDS.values():
    if _kind.scopes and _kind.handler not in vars(RuleOrchestrator):
        setattr(RuleOrchestrator, _kind.handler, _forwarder(_kind.event_type, _kind.handler))
