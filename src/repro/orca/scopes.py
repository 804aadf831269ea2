"""Event scopes.

Sec. 4.1 of the paper: the ORCA service event scope is a **disjunction of
subscopes**; an event is delivered when it matches at least one registered
subscope (and only once, even when several match).  A subscope names an
event *type* (PE failure, operator metric, ...) and may be refined with
attribute filters.  Filter semantics:

* conditions on the **same attribute are disjunctive** ("application A or
  application B"),
* conditions on **different attributes are conjunctive** ("application A
  *and* contained within composite type composite1"),
* composite filters match through **any nesting depth** — which is why the
  equivalent SQL formulation needs a recursive query (the paper's own,
  which the tests run next to this matcher as its reference).

The ``add*Filter`` method names follow the paper's Fig. 5 verbatim.  Which
event types a scope class covers is not stated here: each kind names its
scope classes in the event table (:data:`repro.orca.contexts.EVENT_KINDS`),
and a filter method exists on a class only if a kind it covers carries the
attribute — so every filter that can be written can match.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Set, TypeVar, Union

from repro.errors import ScopeError
from repro.orca.contexts import EVENT_KINDS

Values = Union[str, int, Iterable]
_Scope = TypeVar("_Scope", bound="EventScope")  # filters return the subscope itself


def _as_set(values: Values) -> Set:
    if isinstance(values, (str, int)):
        return {values}
    result = set(values)
    if not result:
        raise ScopeError("filter needs at least one value")
    return result


def to_string(metric_name: str) -> str:
    """Paper-parity helper: Fig. 6 calls ``toString(OperatorMetricScope::queueSize)``.

    Our metric identifiers are already strings, so this is the identity —
    kept so the paper's listings translate literally.
    """
    return metric_name


class EventScope:
    """Base class: one subscope with attribute filters."""

    #: Event types this subscope selects: the kinds of the event table that
    #: name the class (normally one; family scopes such as
    #: :class:`ParallelRegionScope` cover several related types).
    EVENT_TYPES: tuple = ()
    #: The first of them.
    EVENT_TYPE = ""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        covered = tuple(
            kind.event_type for kind in EVENT_KINDS.values() if cls.__name__ in kind.scopes
        )
        if covered:  # else: a user's subclass, which inherits its parent's types
            cls.EVENT_TYPES, cls.EVENT_TYPE = covered, covered[0]

    def handles(self, event_type: str) -> bool:
        return event_type in self.EVENT_TYPES

    def __init__(self, key: str) -> None:
        if not key:
            raise ScopeError("subscope key must be non-empty")
        self.key = key
        self._filters: Dict[str, Set] = {}

    # -- filter framework ------------------------------------------------------

    def _add(self, attribute: str, values: Values) -> None:
        self._filters.setdefault(attribute, set()).update(_as_set(values))

    def filters(self) -> Mapping[str, Set]:
        return dict(self._filters)

    def matches(self, attrs: Mapping[str, object]) -> bool:
        """Evaluate this subscope against an event's attribute map.

        ``attrs`` maps attribute name to either a scalar or a collection
        (collections arise from containment chains: an operator is "in"
        every enclosing composite).  Missing attribute => no match for any
        filter on it.
        """
        for attribute, allowed in self._filters.items():
            actual = attrs.get(attribute)
            if actual is None:
                return False
            if isinstance(actual, (set, frozenset, list, tuple)):
                if not allowed.intersection(actual):
                    return False
            else:
                if actual not in allowed:
                    return False
        return True

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.key!r}, filters={self._filters})"


# Filters shared by several scope classes, one definition each.  A scope
# class mixes in exactly those whose attribute one of its kinds carries.


class _JobScopedMixin(EventScope):
    """Filters for events raised about one managed job."""

    def addApplicationFilter(self: _Scope, names: Values) -> _Scope:  # noqa: N802
        self._add("application", names)
        return self

    def addJobFilter(self: _Scope, job_ids: Values) -> _Scope:  # noqa: N802
        self._add("job", job_ids)
        return self


class _GraphScopedMixin(EventScope):
    """Filters that need the stream-graph containment information."""

    def addCompositeTypeFilter(self: _Scope, kinds: Values) -> _Scope:  # noqa: N802
        self._add("composite_type", kinds)
        return self

    def addCompositeInstanceFilter(self: _Scope, names: Values) -> _Scope:  # noqa: N802
        self._add("composite_instance", names)
        return self


class _PEFilterMixin(EventScope):
    def addPEFilter(self: _Scope, pe_ids: Values) -> _Scope:  # noqa: N802
        self._add("pe", pe_ids)
        return self


class _HostFilterMixin(EventScope):
    def addHostFilter(self: _Scope, hosts: Values) -> _Scope:  # noqa: N802
        self._add("host", hosts)
        return self


class _ConfigFilterMixin(EventScope):
    def addConfigFilter(self: _Scope, config_ids: Values) -> _Scope:  # noqa: N802
        self._add("config", config_ids)
        return self


class _RegionFilterMixin(EventScope):
    def addRegionFilter(self: _Scope, names: Values) -> _Scope:  # noqa: N802
        """Restrict to events (or alerts) scoped to specific parallel regions."""
        self._add("region", names)
        return self


class _EventTypeFilterMixin(EventScope):
    def addEventTypeFilter(self: _Scope, kinds: Values) -> _Scope:  # noqa: N802
        """Restrict to a subset of the scope's event kinds (e.g.
        ``channel_congested``, ``region_state_migrated``, ``rehydrate_skipped``)."""
        self._add("event_kind", kinds)
        return self


class OperatorMetricScope(
    _JobScopedMixin, _GraphScopedMixin, _PEFilterMixin, _HostFilterMixin
):
    """Operator-scope metric events (Fig. 5 of the paper)."""

    #: Built-in metric identifiers, mirroring ``OperatorMetricScope::...``
    queueSize = "queueSize"
    nTuplesProcessed = "nTuplesProcessed"
    nTuplesSubmitted = "nTuplesSubmitted"
    nPunctsProcessed = "nPunctsProcessed"
    nFinalPunctsProcessed = "nFinalPunctsProcessed"

    def addOperatorTypeFilter(self, kinds: Values) -> "OperatorMetricScope":  # noqa: N802
        self._add("operator_type", kinds)
        return self

    def addOperatorInstanceFilter(self, names: Values) -> "OperatorMetricScope":  # noqa: N802
        self._add("operator_instance", names)
        return self

    def addOperatorMetric(self, names: Values) -> "OperatorMetricScope":  # noqa: N802
        self._add("metric_name", names)
        return self


class OperatorPortMetricScope(OperatorMetricScope):
    """Port-scope operator metric events (queueSize of one input port...)."""

    def addPortFilter(self, ports: Values) -> "OperatorPortMetricScope":  # noqa: N802
        self._add("port", ports)
        return self


class PEMetricScope(_JobScopedMixin, _PEFilterMixin, _HostFilterMixin):
    """PE-scope metric events."""

    nTuplesProcessed = "nTuplesProcessed"
    nTupleBytesProcessed = "nTupleBytesProcessed"
    nTuplesSubmitted = "nTuplesSubmitted"
    nRestarts = "nRestarts"

    def addPEMetric(self, names: Values) -> "PEMetricScope":  # noqa: N802
        self._add("metric_name", names)
        return self


class PEFailureScope(
    _JobScopedMixin, _GraphScopedMixin, _PEFilterMixin, _HostFilterMixin
):
    """PE failure events (Fig. 5 line 10)."""

    def addReasonFilter(self, reasons: Values) -> "PEFailureScope":  # noqa: N802
        self._add("reason", reasons)
        return self


class HostFailureScope(_HostFilterMixin):
    """Host failure events."""


class JobSubmissionScope(_JobScopedMixin, _ConfigFilterMixin):
    """Job submission notifications (generated by the ORCA service itself)."""


class JobCancellationScope(_JobScopedMixin, _ConfigFilterMixin):
    """Job cancellation notifications (generated by the ORCA service itself)."""


class TimerScope(EventScope):
    """Timer expirations."""

    def addTimerFilter(self, timer_ids: Values) -> "TimerScope":  # noqa: N802
        self._add("timer", timer_ids)
        return self


class UserEventScope(EventScope):
    """User-generated events injected through the command tool."""

    def addNameFilter(self, names: Values) -> "UserEventScope":  # noqa: N802
        self._add("name", names)
        return self


class ParallelRegionScope(_JobScopedMixin, _RegionFilterMixin, _EventTypeFilterMixin):
    """Parallel-region lifecycle events (the elastic subsystem).

    Covers the related event types with one subscope, so ORCA logic that
    drives elasticity registers a single scope:

    * ``channel_congested`` — one channel's aggregated backlog exceeded
      the region's congestion threshold at the last metric poll;
    * ``region_rescaled`` — a ``set_channel_width()`` actuation completed
      and the region is flowing at its new width;
    * ``region_state_migrated`` — the rescale's migration phase moved
      keyed operator state between channels (delivered right before the
      matching ``region_rescaled``);
    * ``channel_rerouted`` — a channel was masked out of (or restored to)
      the splitter's hash ring because its PE crashed / restarted.

    State-aware routines pair this scope with the service's region
    inspection API — ``state_of(job, region, key)`` for one key's owner
    channel and values, ``region_state_sizes()`` for per-channel
    ``stateBytes`` aggregates from SRM.
    """

    #: metric identifiers commonly used as region congestion metrics
    queueSize = "queueSize"
    nBuffered = "nBuffered"
    #: per-operator state-footprint gauges collected by the host controllers
    stateBytes = "stateBytes"
    nStateKeys = "nStateKeys"

    def addChannelFilter(self, channels: Values) -> "ParallelRegionScope":  # noqa: N802
        """Restrict to events touching specific channel indices.

        Channel-scoped events (``channel_congested``, ``channel_rerouted``)
        match on their single channel; region-wide events
        (``region_rescaled``, ``region_state_migrated``) carry every
        channel index and therefore still match any channel filter.
        """
        self._add("channel", channels)
        return self


class CheckpointScope(_JobScopedMixin, _PEFilterMixin, _EventTypeFilterMixin):
    """Checkpoint / recovery lifecycle events (the state subsystem).

    Covers the related event types with one subscope, so ORCA logic that
    reasons about state durability registers a single scope:

    * ``checkpoint_committed`` — a PE's state store was captured and the
      epoch committed (carries incremental-capture statistics);
    * ``rehydrate_skipped`` — a ``restart_pe(rehydrate=True)`` found no
      committed epoch (checkpoint or graceful-stop snapshot) and the PE
      restarted empty.

    Staleness-reactive routines pair this scope with the ``checkpointLag``
    PE gauge in SRM (a :class:`PEMetricScope` on that metric) and the
    service's ``checkpoint_status()`` / ``checkpoint_now()`` hooks.
    """

    #: the PE-level staleness gauge collected at every metric push
    checkpointLag = "checkpointLag"


class ChaosScope(_JobScopedMixin):
    """Chaos-campaign injection events (the :mod:`repro.chaos` subsystem).

    A routine that registers this scope *sees* injected faults as
    ``chaos_injected`` events (and can correlate its own reactions with
    the campaign); a routine tested blind to the campaign simply does
    not register it — the events then match no subscope and are dropped,
    exactly like any other unsubscribed event type.
    """

    def addScenarioFilter(self, names: Values) -> "ChaosScope":  # noqa: N802
        """Restrict to injections of specific scenarios."""
        self._add("scenario", names)
        return self

    def addKindFilter(self, kinds: Values) -> "ChaosScope":  # noqa: N802
        """Restrict to perturbation kinds (``pe_flap``, ``rate_surge``...)."""
        self._add("kind", kinds)
        return self

    def addTargetFilter(self, targets: Values) -> "ChaosScope":  # noqa: N802
        """Restrict to injection targets (PE ids, hosts, regions)."""
        self._add("target", targets)
        return self


class HealthScope(_RegionFilterMixin):
    """SLO burn-rate alerts from the health plane (repro.obs.health).

    A routine that registers this scope sees ``health_alert`` events
    whenever a registered :class:`~repro.obs.slo.Slo` raises or
    escalates; unsubscribed services drop the events like any other
    type.  Filters compose conjunctively across attributes, so
    ``HealthScope("lat").addSloFilter("p95").addSeverityFilter("page")``
    only wakes the routine for pages of that one objective.
    """

    def addSloFilter(self, names: Values) -> "HealthScope":  # noqa: N802
        """Restrict to specific objectives by name."""
        self._add("slo", names)
        return self

    def addSignalFilter(self, signals: Values) -> "HealthScope":  # noqa: N802
        """Restrict to signals (``latency_p95``, ``loss``, ``lag``)."""
        self._add("signal", signals)
        return self

    def addSeverityFilter(self, severities: Values) -> "HealthScope":  # noqa: N802
        """Restrict to severities (``warn``, ``page``)."""
        self._add("severity", severities)
        return self


class ScopeRegistry:
    """The set of subscopes registered with one ORCA service.

    Matching returns the keys of *all* matching subscopes (the first item
    the service delivers alongside the context, Sec. 4.2); the service
    still delivers the event only once.
    """

    def __init__(self) -> None:
        self._scopes: List[EventScope] = []

    def register(self, scope: EventScope) -> None:
        if not isinstance(scope, EventScope):
            raise ScopeError(f"not an event scope: {scope!r}")
        if any(s.key == scope.key for s in self._scopes):
            raise ScopeError(f"subscope key {scope.key!r} already registered")
        self._scopes.append(scope)

    def unregister(self, key: str) -> bool:
        before = len(self._scopes)
        self._scopes = [s for s in self._scopes if s.key != key]
        return len(self._scopes) != before

    def matching_keys(self, event_type: str, attrs: Mapping[str, object]) -> List[str]:
        return [
            scope.key
            for scope in self._scopes
            if scope.handles(event_type) and scope.matches(attrs)
        ]

    def scopes_of_type(self, event_type: str) -> List[EventScope]:
        return [s for s in self._scopes if s.handles(event_type)]

    def __len__(self) -> int:
        return len(self._scopes)

    def __iter__(self):
        return iter(self._scopes)
