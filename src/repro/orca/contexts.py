"""Event contexts, and the table that says what each event kind is.

Sec. 4.2 of the paper: "for each event, the ORCA service delivers two
items" — the keys of all matching subscopes and the **context** of the
event: "a slice of the application runtime information in which the event
occurs ... the minimum information required to characterize each type of
event".  Contexts can be used to further query the ORCA service and
inspect the logical/physical representation of the application.

Field names are snake_case; the camelCase names used verbatim in the
paper's code listings (``context.instanceName``, ``context.epoch``...) are
provided as read-only aliases so the paper's Figs. 5-6 translate
one-to-one.

Every context class declares its **event kind** once, by decorating itself
with an :class:`EventKind`.  :data:`EVENT_KINDS` is the only statement of
what a kind is: the service dispatches and builds scope attribute maps
from it, the rule engine forwards from it, the scope classes take their
covered types from it, and ``docs/adaptation-api.md`` is checked against it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, Mapping, Optional, Sequence

#: source of a filter attribute the context does not store — stream-graph
#: containment and placement, a region-wide channel tuple: the emitter
#: passes it, ``OrcaService._emit(context, host=...)``
COMPUTED = object()
#: source of the ``event_kind`` attribute: the kind's own type name
TYPE = object()


class EventKind:
    """One row of the event table, written as the context's class decorator.

    ``handler`` names the ``Orchestrator`` method; ``scopes`` the scope
    classes that cover the kind (none: delivered unconditionally, to a
    handler that takes no subscope keys); ``sources`` maps each attribute
    a subscope may filter on to where its value comes from — a context
    field name, :data:`COMPUTED` or :data:`TYPE`.
    """

    def __init__(
        self, event_type: str, handler: str, scopes: Sequence[str] = (), /, **sources: Any
    ) -> None:
        self.event_type = event_type
        self.handler = handler
        self.scopes = tuple(scopes)
        self.attributes = tuple(sources)
        #: the attributes the emitter has to supply
        self.computed = frozenset(a for a, s in sources.items() if s is COMPUTED)
        self._constant = {a: event_type for a, s in sources.items() if s is TYPE}
        self._fields = {a: s for a, s in sources.items() if isinstance(s, str)}
        # getters are resolved here, once, not per event
        self._stored = tuple((a, attrgetter(f)) for a, f in self._fields.items())

    def __call__(self, context: type) -> type:
        """Declare ``context`` to be this kind's context class (``context.KIND``)."""
        unknown = set(self._fields.values()) - {f.name for f in dataclasses.fields(context)}
        if unknown:
            raise TypeError(f"{context.__name__} has no field {sorted(unknown)}")
        self.context = context
        context.KIND = EVENT_KINDS[self.event_type] = self
        return context

    def scope_attributes(self, context: Any, computed: Mapping[str, Any]) -> Dict[str, Any]:
        """The map ``ScopeRegistry.matching_keys`` tests subscopes against.

        A ``None`` value (no ``config``, an injection without a job, a host
        the graph does not know) is left out: a filter treats ``None`` and
        absent alike.
        """
        attrs = self._constant.copy()
        for name, get in self._stored:
            value = get(context)
            if value is not None:
                attrs[name] = value
        for name, value in computed.items():
            if name not in self.computed:
                raise TypeError(f"{self.event_type}: {name!r} is not declared COMPUTED")
            if value is not None:
                attrs[name] = value
        if len(computed) != len(self.computed):
            raise TypeError(f"{self.event_type}: needs {sorted(self.computed)} computed")
        return attrs


#: event type -> kind, in declaration order
EVENT_KINDS: Dict[str, EventKind] = {}

_JOB = {"application": "app_name", "job": "job_id"}
#: what StreamGraph.pe_event_attrs / operator_event_attrs answer
_PLACED = {"host": COMPUTED, "composite_instance": COMPUTED, "composite_type": COMPUTED}
_OPERATOR = {"operator_instance": "instance_name", "operator_type": COMPUTED, **_PLACED}
_REGION = {**_JOB, "region": "region", "event_kind": TYPE}


@EventKind("orca_start", "handleOrcaStart")
@dataclass(frozen=True)
class OrcaStartContext:
    """Delivered once, when the ORCA service has loaded the ORCA logic."""

    orca_id: str
    time: float


@EventKind(
    "operator_metric", "handleOperatorMetricEvent", ("OperatorMetricScope",),
    **_JOB, **_OPERATOR, metric_name="metric", pe="pe_id",
)
@dataclass(frozen=True)
class OperatorMetricContext:
    """An operator-scope metric value observed at one SRM poll."""

    instance_name: str  #: operator full (instance) name
    operator_kind: str
    metric: str  #: metric name
    value: float
    epoch: int  #: logical clock: one epoch per SRM poll round (Sec. 4.2)
    job_id: str
    app_name: str
    pe_id: str
    collection_ts: float  #: when the host controller sampled the value
    is_custom: bool

    @property
    def instanceName(self) -> str:  # noqa: N802 - paper-parity alias
        """``instance_name``, as the paper's listings spell it."""
        return self.instance_name


@EventKind(
    "operator_port_metric", "handleOperatorPortMetricEvent", ("OperatorPortMetricScope",),
    **_JOB, **_OPERATOR, metric_name="metric", port="port", pe="pe_id",
)
@dataclass(frozen=True)
class OperatorPortMetricContext:
    """A port-scope operator metric value (e.g. queueSize of input port 0)."""

    instance_name: str
    operator_kind: str
    port: int
    metric: str
    value: float
    epoch: int
    job_id: str
    app_name: str
    pe_id: str
    collection_ts: float
    is_custom: bool

    @property
    def instanceName(self) -> str:  # noqa: N802 - paper-parity alias
        """``instance_name``, as the paper's listings spell it."""
        return self.instance_name


@EventKind(
    "pe_metric", "handlePEMetricEvent", ("PEMetricScope",),
    **_JOB, pe="pe_id", metric_name="metric", **_PLACED,
)
@dataclass(frozen=True)
class PEMetricContext:
    """A PE-scope metric value."""

    pe_id: str
    metric: str
    value: float
    epoch: int
    job_id: str
    app_name: str
    host: Optional[str]
    collection_ts: float
    is_custom: bool


@EventKind(
    "pe_failure", "handlePEFailureEvent", ("PEFailureScope",),
    **_JOB, pe="pe_id", reason="reason", **_PLACED,
)
@dataclass(frozen=True)
class PEFailureContext:
    """A PE crash, pushed by SAM through the ORCA service (Sec. 4.2).

    SAM provides "the PE id, the failure detection timestamp, and the
    crash reason"; the ORCA service adds an epoch that groups PE failures
    belonging to the same physical event (e.g. one host failure).
    """

    pe_id: str
    pe_index: int
    job_id: str
    app_name: str
    reason: str
    detection_ts: float
    epoch: int
    host: Optional[str]
    operators: tuple = ()  #: full names of operators hosted by the failed PE

    @property
    def peId(self) -> str:  # noqa: N802 - paper-parity alias
        """``pe_id``, as the paper's listings spell it."""
        return self.pe_id


@EventKind("host_failure", "handleHostFailureEvent", ("HostFailureScope",), host="host")
@dataclass(frozen=True)
class HostFailureContext:
    """A host went down (detected by SRM via missed heartbeats)."""

    host: str
    detection_ts: float
    epoch: int
    affected_pe_ids: tuple = ()


@EventKind(
    "job_submission", "handleJobSubmissionEvent", ("JobSubmissionScope",),
    **_JOB, config="config_id",
)
@dataclass(frozen=True)
class JobSubmissionContext:
    """A managed application was submitted (directly or by the dependency
    manager)."""

    job_id: str
    app_name: str
    config_id: Optional[str]  #: AppConfig id when the dependency manager submitted
    time: float
    explicit: bool  #: True when the ORCA logic asked for this app directly


@EventKind(
    "job_cancellation", "handleJobCancellationEvent", ("JobCancellationScope",),
    **_JOB, config="config_id",
)
@dataclass(frozen=True)
class JobCancellationContext:
    """A managed application was cancelled (directly or garbage-collected)."""

    job_id: str
    app_name: str
    config_id: Optional[str]
    time: float
    garbage_collected: bool  #: True when the dependency manager GC'd it


@EventKind(
    "channel_congested", "handleChannelCongestedEvent", ("ParallelRegionScope",),
    **_REGION, channel="channel",
)
@dataclass(frozen=True)
class ChannelCongestedContext:
    """One channel of a parallel region exceeded its congestion threshold.

    Produced during the SRM metric poll: the region's congestion metric is
    aggregated per channel over the channel's operators; channels above the
    region's threshold raise this event (one event per congested channel,
    all sharing the poll's metric epoch, so handlers can reason about
    simultaneity exactly as with Fig. 6's metric events).
    """

    job_id: str
    app_name: str
    region: str
    channel: int  #: congested channel index
    value: float  #: aggregated congestion-metric value of the channel
    threshold: float
    metric: str  #: the region's congestion metric name
    width: int  #: region width at observation time
    epoch: int  #: metric epoch of the poll that observed the congestion
    time: float


@EventKind(
    "region_rescaled", "handleRegionRescaledEvent", ("ParallelRegionScope",),
    **_REGION, channel=COMPUTED,  # every channel index: any channel filter matches
)
@dataclass(frozen=True)
class RegionRescaledContext:
    """A parallel region finished a live re-parallelization attempt.

    Delivered for failed attempts too (``succeeded=False``, e.g. a drain
    timeout or an unplaceable channel): the region then still runs at
    ``old_width`` and the ORCA logic can retry, alert, or back off.
    """

    job_id: str
    app_name: str
    region: str
    old_width: int
    new_width: int  #: the *requested* width; actual width on failure is old_width
    epoch: int  #: reconfiguration epoch assigned at the resume barrier (0 on failure)
    duration: float  #: seconds from quiesce to resume
    time: float
    succeeded: bool = True
    error: Optional[str] = None  #: failure reason when succeeded is False


@EventKind(
    "region_state_migrated", "handleRegionStateMigratedEvent", ("ParallelRegionScope",),
    **_REGION, channel=COMPUTED,  # region-wide, as for region_rescaled
)
@dataclass(frozen=True)
class RegionStateMigratedContext:
    """A rescale's migration phase moved keyed operator state.

    Delivered right before the matching ``region_rescaled`` event when the
    completed rescale migrated at least one keyed entry (or dropped global
    state with removed channels).  ``moves`` maps ``(src, dst)`` channel
    pairs to the number of keyed entries that travelled along that edge.
    """

    job_id: str
    app_name: str
    region: str
    old_width: int
    new_width: int
    keys_moved: int
    bytes_moved: int
    moves: Dict[tuple, int]
    dropped_global_states: int
    skipped_channels: tuple  #: channels whose PE was down at extraction
    epoch: int  #: reconfiguration epoch of the enclosing rescale
    time: float
    #: global states folded into survivors by the region's user-defined
    #: ``global_merge`` hook (scale-in only)
    global_states_merged: int = 0


@EventKind(
    "channel_rerouted", "handleChannelReroutedEvent", ("ParallelRegionScope",),
    **_REGION, channel="channel",
)
@dataclass(frozen=True)
class ChannelReroutedContext:
    """A parallel-region channel was masked (or unmasked) on its splitter.

    Emitted when a channel's PE crashes — the splitter parks its keyed
    tuples (a round-robin region skips it) until ``restart_pe`` completes
    — and again, with ``masked=False``, once the restarted channel
    rejoined and its parked tuples were released.
    """

    job_id: str
    app_name: str
    region: str
    channel: int
    masked: bool
    reason: str
    width: int
    pe_id: str
    time: float


@EventKind(
    "checkpoint_committed", "handleCheckpointCommittedEvent", ("CheckpointScope",),
    **_JOB, pe="pe_id", event_kind=TYPE,
)
@dataclass(frozen=True)
class CheckpointCommittedContext:
    """A PE's state store was checkpointed and the epoch committed.

    Produced by the background :class:`~repro.checkpoint.service.
    CheckpointService` on every committed epoch of a managed job's PE.
    ``epoch`` is drawn from the clock shared with reconfiguration, so
    handlers can order checkpoints against rescales.
    """

    job_id: str
    app_name: str
    pe_id: str
    host: Optional[str]
    epoch: int
    full: bool  #: True when any keyed state was captured in full
    n_operators: int
    keys_dirty: int  #: keys actually re-serialized (incremental capture)
    keys_total: int
    bytes_written: int
    time: float


@EventKind(
    "rehydrate_skipped", "handleRehydrateSkippedEvent", ("CheckpointScope",),
    **_JOB, pe="pe_id", event_kind=TYPE,
)
@dataclass(frozen=True)
class RehydrateSkippedContext:
    """A ``restart_pe(rehydrate=True)`` found nothing to restore.

    Without this event a policy cannot distinguish a restored PE from one
    that silently restarted empty (no committed epoch existed) — exactly
    the blind spot user-defined failover routines need surfaced.
    """

    job_id: str
    app_name: str
    pe_id: str
    pe_index: int
    host: Optional[str]
    reason: str  #: currently always "no_snapshot"
    time: float


@EventKind(
    "chaos_injected", "handleChaosInjectedEvent", ("ChaosScope",),
    scenario="scenario", kind="kind", target="target", event_kind=TYPE,
    **_JOB,  # both None unless the run has a job, and this orchestrator owns it
)
@dataclass(frozen=True)
class ChaosInjectedContext:
    """A chaos-campaign step fired (see :mod:`repro.chaos`).

    Published by the chaos engine for every injected perturbation, so
    orchestration routines can *react* to injected faults (back off a
    scaling decision during a known outage window, annotate their own
    telemetry) — or be tested blind to them by simply not registering a
    :class:`~repro.orca.scopes.ChaosScope`.  ``detail`` carries the
    perturbation's public payload (engine-internal state snapshots are
    stripped).
    """

    scenario: str
    step_index: int
    kind: str  #: perturbation kind (pe_flap, latency_spike, rate_surge, ...)
    target: str  #: PE id, host name, region, or "feed"
    run_id: str
    time: float
    job_id: Optional[str] = None
    app_name: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)


@EventKind(
    "health_alert", "handleHealthAlertEvent", ("HealthScope",),
    slo="slo", signal="signal", severity="severity", region="region", event_kind=TYPE,
)
@dataclass(frozen=True)
class HealthAlertContext:
    """An SLO burn-rate alert raised by the health plane (repro.obs.health).

    Published when a registered :class:`~repro.obs.slo.Slo` objective
    burns through its budget on both the short (confirmation) and long
    (sustain) windows, so adaptation routines can react to degradation
    — congestion, retry storms, growing lag — *before* it becomes tuple
    loss.  ``bottleneck``/``why`` carry the bottleneck detector's
    attribution at raise time ("" when the system showed no eligible
    pressure target).
    """

    slo: str  #: the violated objective's name
    signal: str  #: ``latency_p95``, ``loss``, or ``lag``
    severity: str  #: ``warn`` or ``page``
    burn_short: float  #: short-window burn rate at raise time
    burn_long: float  #: long-window burn rate at raise time
    observed: float  #: short-window observed signal value
    objective: float  #: the objective's budget
    time: float
    region: Optional[str] = None  #: region restriction (None: global)
    bottleneck: str = ""  #: attributed bottleneck target
    why: str = ""  #: the detector's why-string


@EventKind("timer", "handleTimerEvent", ("TimerScope",), timer="timer_id")
@dataclass(frozen=True)
class TimerContext:
    """A timer created through the ORCA service expired."""

    timer_id: str
    scheduled_for: float
    time: float
    payload: Any = None
    periodic: bool = False


@EventKind("user", "handleUserEvent", ("UserEventScope",), name="name")
@dataclass(frozen=True)
class UserEventContext:
    """A user-generated event, injected via the command tool (Sec. 4.1)."""

    name: str
    time: float
    payload: Dict[str, Any] = field(default_factory=dict)
