"""Tests for event scopes: the filter semantics of Sec. 4.1."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ScopeError
from repro.orca.scopes import (
    ChaosScope,
    CheckpointScope,
    HealthScope,
    HostFailureScope,
    JobCancellationScope,
    JobSubmissionScope,
    OperatorMetricScope,
    OperatorPortMetricScope,
    ParallelRegionScope,
    PEFailureScope,
    PEMetricScope,
    ScopeRegistry,
    TimerScope,
    UserEventScope,
    to_string,
)

from tests.conftest import example_budget


class TestFilterSemantics:
    def test_empty_scope_matches_anything_of_its_type(self):
        scope = OperatorMetricScope("s")
        assert scope.matches({"application": "A"})
        assert scope.matches({})

    def test_same_attribute_disjunctive(self):
        """Filters on one attribute OR together (Sec. 4.1)."""
        scope = OperatorMetricScope("s")
        scope.addApplicationFilter("A")
        scope.addApplicationFilter("B")
        assert scope.matches({"application": "A"})
        assert scope.matches({"application": "B"})
        assert not scope.matches({"application": "C"})

    def test_different_attributes_conjunctive(self):
        """Filters on different attributes AND together (Sec. 4.1)."""
        scope = OperatorMetricScope("s")
        scope.addApplicationFilter("A")
        scope.addCompositeTypeFilter("composite1")
        assert scope.matches(
            {"application": "A", "composite_type": {"composite1"}}
        )
        assert not scope.matches(
            {"application": "A", "composite_type": {"other"}}
        )
        assert not scope.matches(
            {"application": "B", "composite_type": {"composite1"}}
        )

    def test_missing_attribute_fails_filter(self):
        scope = OperatorMetricScope("s")
        scope.addCompositeTypeFilter("composite1")
        assert not scope.matches({"application": "A"})

    def test_collection_attributes_intersect(self):
        """Containment chains are sets: any enclosing composite matches."""
        scope = OperatorMetricScope("s")
        scope.addCompositeTypeFilter("outer")
        assert scope.matches({"composite_type": {"inner", "outer"}})
        assert not scope.matches({"composite_type": {"inner"}})

    def test_iterable_filter_values(self):
        scope = OperatorMetricScope("s")
        scope.addOperatorTypeFilter(["Split", "Merge"])
        assert scope.matches({"operator_type": "Split"})
        assert scope.matches({"operator_type": "Merge"})
        assert not scope.matches({"operator_type": "Filter"})

    def test_empty_filter_values_rejected(self):
        scope = OperatorMetricScope("s")
        with pytest.raises(ScopeError):
            scope.addOperatorTypeFilter([])

    def test_key_required(self):
        with pytest.raises(ScopeError):
            OperatorMetricScope("")

    def test_figure5_scope(self):
        """The exact scope of the paper's Fig. 5."""
        oms = OperatorMetricScope("opMetricScope")
        oms.addCompositeTypeFilter("composite1")
        oms.addOperatorTypeFilter(["Split", "Merge"])
        oms.addOperatorMetric(OperatorMetricScope.queueSize)
        # op3' (a Split in composite1) queueSize -> match
        assert oms.matches(
            {
                "application": "Figure2",
                "operator_type": "Split",
                "composite_type": {"composite1"},
                "metric_name": "queueSize",
            }
        )
        # a Functor in composite1 -> no match
        assert not oms.matches(
            {
                "operator_type": "Functor",
                "composite_type": {"composite1"},
                "metric_name": "queueSize",
            }
        )
        # Split outside the composite -> no match
        assert not oms.matches(
            {"operator_type": "Split", "composite_type": set(),
             "metric_name": "queueSize"}
        )
        # wrong metric -> no match
        assert not oms.matches(
            {
                "operator_type": "Split",
                "composite_type": {"composite1"},
                "metric_name": "nTuplesProcessed",
            }
        )

    def test_to_string_identity(self):
        assert to_string(OperatorMetricScope.queueSize) == "queueSize"


class TestScopeTypes:
    def test_event_types(self):
        assert OperatorMetricScope("k").EVENT_TYPE == "operator_metric"
        assert OperatorPortMetricScope("k").EVENT_TYPE == "operator_port_metric"
        assert PEMetricScope("k").EVENT_TYPE == "pe_metric"
        assert PEFailureScope("k").EVENT_TYPE == "pe_failure"
        assert HostFailureScope("k").EVENT_TYPE == "host_failure"
        assert JobSubmissionScope("k").EVENT_TYPE == "job_submission"
        assert JobCancellationScope("k").EVENT_TYPE == "job_cancellation"
        assert TimerScope("k").EVENT_TYPE == "timer"
        assert UserEventScope("k").EVENT_TYPE == "user"

    def test_port_filter(self):
        scope = OperatorPortMetricScope("k")
        scope.addPortFilter([0, 1])
        assert scope.matches({"port": 0})
        assert not scope.matches({"port": 2})

    def test_pe_failure_reason_filter(self):
        scope = PEFailureScope("k")
        scope.addReasonFilter("host_failure")
        assert scope.matches({"reason": "host_failure"})
        assert not scope.matches({"reason": "injected_fault"})

    def test_pe_metric_builtin_names(self):
        assert PEMetricScope.nTupleBytesProcessed == "nTupleBytesProcessed"

    def test_timer_and_user_filters(self):
        t = TimerScope("k").addTimerFilter("timer_1")
        assert t.matches({"timer": "timer_1"})
        u = UserEventScope("k").addNameFilter("failover")
        assert u.matches({"name": "failover"})
        assert not u.matches({"name": "other"})


class TestScopeRegistry:
    def test_register_and_match(self):
        registry = ScopeRegistry()
        registry.register(OperatorMetricScope("a").addApplicationFilter("X"))
        registry.register(OperatorMetricScope("b"))
        keys = registry.matching_keys("operator_metric", {"application": "X"})
        assert keys == ["a", "b"]

    def test_event_delivered_once_with_all_keys(self):
        """Sec. 4.1: delivered once even when several subscopes match."""
        registry = ScopeRegistry()
        registry.register(OperatorMetricScope("a"))
        registry.register(OperatorMetricScope("b"))
        keys = registry.matching_keys("operator_metric", {})
        assert sorted(keys) == ["a", "b"]  # one event, two keys

    def test_type_mismatch_no_keys(self):
        registry = ScopeRegistry()
        registry.register(PEFailureScope("f"))
        assert registry.matching_keys("operator_metric", {}) == []

    def test_duplicate_key_rejected(self):
        registry = ScopeRegistry()
        registry.register(OperatorMetricScope("a"))
        with pytest.raises(ScopeError):
            registry.register(PEFailureScope("a"))

    def test_multiple_subscopes_same_type_allowed(self):
        """Sec. 4.1: 'the ORCA logic can register multiple subscopes of the
        same type'."""
        registry = ScopeRegistry()
        registry.register(OperatorMetricScope("a").addApplicationFilter("X"))
        registry.register(OperatorMetricScope("b").addApplicationFilter("Y"))
        assert registry.matching_keys("operator_metric", {"application": "Y"}) == ["b"]

    def test_unregister(self):
        registry = ScopeRegistry()
        registry.register(OperatorMetricScope("a"))
        assert registry.unregister("a") is True
        assert registry.unregister("a") is False
        assert len(registry) == 0

    def test_non_scope_rejected(self):
        registry = ScopeRegistry()
        with pytest.raises(ScopeError):
            registry.register("not a scope")

    def test_scopes_of_type(self):
        registry = ScopeRegistry()
        registry.register(OperatorMetricScope("a"))
        registry.register(PEFailureScope("b"))
        assert [s.key for s in registry.scopes_of_type("pe_failure")] == ["b"]


# -- the registry against a plain reference predicate ---------------------------

#: scope class -> the event types it covers (the scope table of
#: docs/adaptation-api.md, restated so the reference shares no code with
#: ``EventScope.handles``)
COVERS = {
    OperatorMetricScope: {"operator_metric"},
    OperatorPortMetricScope: {"operator_port_metric"},
    PEMetricScope: {"pe_metric"},
    PEFailureScope: {"pe_failure"},
    HostFailureScope: {"host_failure"},
    JobSubmissionScope: {"job_submission"},
    JobCancellationScope: {"job_cancellation"},
    TimerScope: {"timer"},
    UserEventScope: {"user"},
    ParallelRegionScope: {
        "channel_congested", "region_rescaled", "region_state_migrated",
        "channel_rerouted",
    },
    CheckpointScope: {"checkpoint_committed", "rehydrate_skipped"},
    ChaosScope: {"chaos_injected"},
    HealthScope: {"health_alert"},
}
SCOPE_CLASSES = sorted(COVERS, key=lambda cls: cls.__name__)
EVENT_TYPES = sorted(set().union(*COVERS.values()) | {"orca_start"})


def filter_methods(cls):
    """``add*`` method name -> the attribute it filters on (asked of the method)."""
    found = {}
    for name in sorted(dir(cls)):
        if name.startswith("add"):
            probe = cls("probe")
            getattr(probe, name)("x")
            (found[name],) = probe.filters()
    return found


ATTRIBUTES = sorted({a for cls in SCOPE_CLASSES for a in filter_methods(cls).values()})


def test_every_filter_can_match_an_event_its_scope_covers():
    """No silently dead subscope: ``HostFailureScope("h").addJobFilter(j)``
    used to build one, because host failures carry no ``job``."""
    from repro.orca.contexts import EVENT_KINDS

    for cls in SCOPE_CLASSES:
        assert set(cls.EVENT_TYPES) == COVERS[cls]
        carried = {a for event_type in COVERS[cls] for a in EVENT_KINDS[event_type].attributes}
        for method, attribute in filter_methods(cls).items():
            assert attribute in carried, f"{cls.__name__}.{method} can never match"
    for cls in (HostFailureScope, TimerScope, UserEventScope, HealthScope):
        assert not hasattr(cls, "addApplicationFilter") and not hasattr(cls, "addJobFilter")

_value = st.sampled_from(["a", "b", "c", 0, 1])
_actual = st.one_of(
    st.none(),
    _value,
    st.lists(_value, max_size=3),
    st.lists(_value, max_size=3).map(tuple),
    st.sets(_value, max_size=3),
    st.frozensets(_value, max_size=3),
)


@st.composite
def subscopes(draw):
    """[(class, [(add* method, values)])]: what user code would register."""
    drawn = []
    for cls in draw(st.lists(st.sampled_from(SCOPE_CLASSES), max_size=6)):
        methods = sorted(filter_methods(cls))
        calls = draw(
            st.lists(
                st.tuples(st.sampled_from(methods), st.sets(_value, min_size=1, max_size=3)),
                max_size=4,
            )
        )
        drawn.append((cls, calls))
    return drawn


def reference_keys(drawn, event_type, attrs):
    """Sec. 4.1, spelt out: which subscope keys an event is delivered with."""
    keys = []
    for index, (cls, calls) in enumerate(drawn):
        wanted = {}
        for method, values in calls:  # same attribute: values OR together
            wanted.setdefault(filter_methods(cls)[method], set()).update(values)
        ok = event_type in COVERS[cls]
        for attribute, allowed in wanted.items():  # different attributes: AND
            actual = attrs.get(attribute)
            if actual is None:  # a missing attribute fails any filter on it
                ok = False
            elif isinstance(actual, (set, frozenset, list, tuple)):
                ok = ok and any(item in allowed for item in actual)
            else:
                ok = ok and actual in allowed
        if ok:
            keys.append(f"k{index}")
    return keys


@example_budget("orca-ci", tier1=60)
@given(
    drawn=subscopes(),
    event_type=st.sampled_from(EVENT_TYPES),
    attrs=st.dictionaries(st.sampled_from(ATTRIBUTES), _actual, max_size=6),
)
def test_registry_matches_the_reference_predicate(drawn, event_type, attrs):
    registry = ScopeRegistry()
    for index, (cls, calls) in enumerate(drawn):
        scope = cls(f"k{index}")
        for method, values in calls:
            assert getattr(scope, method)(values) is scope  # fluent
        registry.register(scope)
    # one delivery, carrying every matching key once, in registration order
    assert registry.matching_keys(event_type, attrs) == reference_keys(
        drawn, event_type, attrs
    )
