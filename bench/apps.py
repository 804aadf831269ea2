"""The two applications the workloads run, and the adaptation routine.

Both are ordinary user programs written against the public composition
API: operators from the stock library, a ``CallbackSource`` fed by the
benchmark's generator callback, a ``Sink`` whose consumer is the
benchmark's arrival log.  The region application is submitted through
:class:`RegionLogic`, an ``Orchestrator`` that performs the paper's loop
(event -> handler -> actuation) for every step of the adaptation script.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro import Application, ManagedApplication, OrcaDescriptor, Orchestrator
from repro.orca.scopes import (
    OperatorMetricScope,
    ParallelRegionScope,
    PEFailureScope,
    UserEventScope,
)
from repro.spl.library import CallbackSource, Filter, Functor, KeyedCounter, Sink
from repro.spl.parallel import parallel

from bench.inputs import KEEP_SHARE

Generator = Callable[[float, int], List[Dict[str, Any]]]

REGION = "region"
#: scopes registered by the routine; the event flood matches exactly one
SCOPES = 32
METRIC_POLL_S = 3.0


def _parse(tup: Any) -> Any:
    return tup.with_values(w=tup["v"] * 2.0)


def _keep(tup: Any) -> bool:
    return tup["v"] < KEEP_SHARE


def pipe_application(
    generator: Generator, period: float, limit: int, consumer: Callable[[Any], None]
) -> Application:
    """``src -> parse -> keep -> count -> sink`` on three PEs."""
    app = Application("Pipe")
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": generator, "period": period, "limit": limit},
        partition="feed",
    )
    parse = g.add_operator("parse", Functor, params={"fn": _parse}, partition="feed")
    keep = g.add_operator("keep", Filter, params={"predicate": _keep}, partition="feed")
    count = g.add_operator("count", KeyedCounter, params={"key": "key"}, partition="work")
    sink = g.add_operator(
        "sink", Sink, params={"record": False, "consumer": consumer}, partition="out"
    )
    for up, down in ((src, parse), (parse, keep), (keep, count), (count, sink)):
        g.connect(up.oport(0), down.iport(0))
    return app


def region_application(
    generator: Generator,
    period: float,
    limit: Optional[int],
    consumer: Callable[[Any], None],
) -> Application:
    """``src -> count (keyed parallel region, width 2, max 8) -> sink``."""
    app = Application("Region")
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": generator, "period": period, "limit": limit},
        partition="feed",
    )
    count = g.add_operator(
        "count",
        KeyedCounter,
        params={"key": "key"},
        parallel=parallel(width=2, name=REGION, partition_by="key", max_width=8),
    )
    sink = g.add_operator(
        "sink", Sink, params={"record": False, "consumer": consumer}, partition="out"
    )
    g.connect(src.oport(0), count.iport(0))
    g.connect(count.oport(0), sink.iport(0))
    return app


class RegionLogic(Orchestrator):
    """The adaptation routine of the region workloads.

    * start: set the 3 s metric poll (Sec. 4.2 actuation), register the
      scopes, submit the application;
    * operator metric events on the source: compute the emission rate
      across successive events and scale the region out 2 -> 4 once it
      exceeds ``rate_threshold``;
    * PE failure: restart the crashed PE with rehydration;
    * user events ``scale_out`` / ``scale_in``: set the channel width;
    * user event ``flood``: counted, nothing else (the event-flood phase).

    Every instant the benchmark needs is written to ``marks`` in
    executor time.
    """

    def __init__(self, marks: Dict[str, Any], rate_threshold: float) -> None:
        super().__init__()
        self.marks = marks
        self.rate_threshold = rate_threshold
        self._last_sample: Optional[tuple] = None
        self.job: Any = None

    def handleOrcaStart(self, context: Any) -> None:  # noqa: N802
        orca = self.orca
        orca.set_metric_poll_interval(METRIC_POLL_S)
        orca.register_event_scope(
            OperatorMetricScope("rate")
            .addOperatorInstanceFilter("src")
            .addOperatorMetric(OperatorMetricScope.nTuplesSubmitted)
        )
        orca.register_event_scope(PEFailureScope("failure"))
        orca.register_event_scope(ParallelRegionScope("region"))
        orca.register_event_scope(
            UserEventScope("adapt").addNameFilter(["scale_out", "scale_in"])
        )
        orca.register_event_scope(UserEventScope("flood").addNameFilter("flood"))
        for i in range(SCOPES - 5):
            orca.register_event_scope(
                UserEventScope(f"decoy{i}").addNameFilter(f"never{i}")
            )
        self.job = orca.submit_application("Region")

    def handleOperatorMetricEvent(self, context: Any, scopes: List[str]) -> None:  # noqa: N802
        sample = (context.collection_ts, context.value)
        previous, self._last_sample = self._last_sample, sample
        if previous is None or sample[0] <= previous[0]:
            return
        rate = (sample[1] - previous[1]) / (sample[0] - previous[0])
        if rate > self.rate_threshold and "scale_out" not in self.marks:
            self._scale("scale_out", 4)

    def handlePEFailureEvent(self, context: Any, scopes: List[str]) -> None:  # noqa: N802
        self.marks["failure_seen_at"] = self.orca.now
        self.orca.restart_pe(context.pe_id, rehydrate=True)

    def handleUserEvent(self, context: Any, scopes: List[str]) -> None:  # noqa: N802
        if context.name == "flood":
            self.marks["flood_handled"] = self.marks.get("flood_handled", 0) + 1
        elif context.name == "scale_out":
            self._scale("scale_out", 4)
        elif context.name == "scale_in":
            self._scale("scale_in", 2)

    def handleChannelReroutedEvent(self, context: Any, scopes: List[str]) -> None:  # noqa: N802
        if not context.masked:
            self.marks["unmasked_at"] = self.orca.now

    def handleStateReclaimedEvent(self, context: Any, scopes: List[str]) -> None:  # noqa: N802
        self.marks["reclaimed_at"] = self.orca.now

    def _scale(self, step: str, width: int) -> None:
        self.marks[step + "_at"] = self.orca.now
        self.marks[step] = self.orca.set_channel_width(self.job.job_id, REGION, width)


def region_descriptor(
    app: Application, marks: Dict[str, Any], rate_threshold: float
) -> OrcaDescriptor:
    """The orchestrator descriptor managing the region application."""
    return OrcaDescriptor(
        name="BenchOrca",
        logic=lambda: RegionLogic(marks, rate_threshold),
        applications=[ManagedApplication(name=app.name, application=app)],
    )
