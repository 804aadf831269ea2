"""Every ORCA event kind, pinned: one seeded script, all eighteen kinds.

``tests/golden/orca_events.txt`` was recorded at the commit *before*
``orca/service.py``'s fifteen hand-written emitters were folded into one
``_emit`` over the event table in ``orca/contexts.py`` (PR 17) and must
stay byte-identical.  For every event the service raises — queued or
dropped — it holds the type, the matched subscope keys and the scope
attribute map exactly as ``ScopeRegistry.matching_keys`` received them
(sorted, ``None`` entries dropped, sets sorted); for the queued ones also
the transaction id and the whole context; then the actuation log and
``queue.dropped_count``.

The script runs a composite-nested application with a partitioned,
checkpointed region under an orchestrator that actuates from its
handlers: start; submit and cancel, direct and through the dependency
manager (``config`` absent and present); operator / port / PE metric
polls; congestion; scale-out and scale-in with keyed state; a rescale
that cannot be placed; a channel crash and its rehydrating restart
(mask, unmask); a rehydrating restart with nothing to restore; a
host failure; a one-shot and a periodic timer; user events; chaos
injections on an owned job, on a foreign job and on none; SLO alerts
with and without a region.

One line was removed on purpose since (PR 19): the ``health_alert`` at
t=29.5 paged the ``lag`` SLO about ``an.core.parse@pe_4`` half a second
*after* its job was cancelled — a unit left pending toward the stopped PE
kept a lag watermark alive.  ``SAM.cancel_job`` now lets the transport
forget the job's PEs, so no event is raised about a job that is gone.

And one more (PR 20): the ``metric_event_skips=0`` footer.  The stream
graph is a live view over the service's jobs, so no metric sample can name
an operator it does not know, and the counter that excused a lagging copy
no longer exists; no event line moved.

And the ``state_reclaimed`` kind.  A crashed channel's keyed tuples wait
for it at the splitter, so an unmask moves no state: the t=11.052
``state_reclaimed`` line is gone, every later transaction id is one
lower, every later epoch is one lower (the reclaim drew one), the
``channel_rerouted`` contexts lost their three key counters, and the
splitter's ``nReroutedTuples`` metric is ``nParkedTuples``.

Re-record (only when a change *means* to alter what the service emits)
with ``PYTHONPATH=src python -m tests.test_orca_events_golden``.
"""

from __future__ import annotations

import dataclasses
import pathlib

from repro import (
    ManagedApplication,
    Orchestrator,
    OrcaDescriptor,
    SystemConfig,
    SystemS,
)
from repro.chaos import CheckpointFault, FailHost, LatencySpike, Scenario
from repro.obs.slo import Slo
from repro.orca.events import EventQueue
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
)
from repro.runtime.host import Host
from repro.spl.application import Application
from repro.spl.composite import CompositeDefinition
from repro.spl.library import Beacon, CallbackSource, Functor, KeyedCounter, Sink
from repro.spl.parallel import parallel

GOLDEN = pathlib.Path(__file__).parent / "golden" / "orca_events.txt"
N_KEYS = 12
REGION = "region"

ALL_KINDS = (
    "orca_start", "operator_metric", "operator_port_metric", "pe_metric",
    "pe_failure", "host_failure", "job_submission", "job_cancellation",
    "timer", "user", "channel_congested", "region_rescaled",
    "region_state_migrated", "channel_rerouted", "checkpoint_committed",
    "rehydrate_skipped", "chaos_injected", "health_alert",
)


def _generate(now, count):
    return [{"key": f"k{(count * count + 3 * count) % N_KEYS}", "seq": count}]


def _copy(tup):
    return dict(tup.values)


def _parsing(b):
    parse = b.add_operator("parse", Functor, params={"fn": _copy}, partition="prep")
    b.connect(b.input(0), parse.iport(0))
    b.bind_output(0, parse.oport(0))


def _analytics(b):
    pre = b.add_operator("pre", Functor, params={"fn": _copy}, partition="feed")
    core = b.instantiate(
        CompositeDefinition("Parsing", 1, 1, _parsing), "core", inputs=[pre.oport(0)]
    )
    b.connect(b.input(0), pre.iport(0))
    b.bind_output(0, core.output(0))


def nested_app() -> Application:
    """src -> an(pre -> core(parse)) -> count[region, keyed] -> sink."""
    app = Application("Nested")
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": _generate, "period": 0.02},
        partition="feed",
    )
    an = g.instantiate(
        CompositeDefinition("Analytics", 1, 1, _analytics), "an", inputs=[src.oport(0)]
    )
    count = g.add_operator(
        "count",
        KeyedCounter,
        params={"key": "key"},
        partition="w",
        parallel=parallel(
            width=2,
            name=REGION,
            partition_by="key",
            max_width=8,
            reorder_grace=0.4,
            # every channel that processed tuples reads as congested
            congestion_metric="nTuplesProcessed",
            congestion_threshold=20.0,
        ),
    )
    sink = g.add_operator("sink", Sink, params={"record": False}, partition="out")
    g.connect(an.output(0), count.iport(0))
    g.connect(count.oport(0), sink.iport(0))
    return app


def aux_app() -> Application:
    app = Application("Aux")
    g = app.graph
    src = g.add_operator(
        "src", Beacon, params={"values": {"k": 1}, "period": 0.5}, partition="a"
    )
    sink = g.add_operator("sink", Sink, params={"record": False}, partition="b")
    g.connect(src.oport(0), sink.iport(0))
    return app


class Scripted(Orchestrator):
    """Subscribes to every kind (broad and filtered) and actuates from handlers."""

    def __init__(self):
        super().__init__()
        self.job = None
        self.scaled_out = False
        self.beats = 0

    def handleOrcaStart(self, context):  # noqa: N802
        orca = self.orca
        for scope in (
            JobSubmissionScope("sub"),
            JobSubmissionScope("sub-cfg").addConfigFilter("aux-cfg"),
            JobCancellationScope("cancel-nested").addApplicationFilter("Nested"),
            JobCancellationScope("cancel-cfg").addConfigFilter("aux-cfg"),
        ):
            orca.register_event_scope(scope)
        self.job = orca.submit_application("Nested")  # direct: no config
        orca.deps.create_app_config("aux-cfg", "Aux")
        orca.deps.start("aux-cfg")  # through the dependency manager
        job_id = self.job.job_id
        c0_pe = orca.pe_of_operator(job_id, "count__c0")
        for scope in (
            OperatorMetricScope("op-analytics")
            .addOperatorMetric(OperatorMetricScope.nTuplesProcessed)
            .addCompositeTypeFilter("Analytics"),
            OperatorMetricScope("op-core")
            .addOperatorMetric(["nTuplesProcessed", "nTuplesSubmitted"])
            .addCompositeInstanceFilter("an.core"),
            OperatorMetricScope("op-counters")
            .addOperatorTypeFilter("KeyedCounter")
            .addOperatorMetric("nStateKeys")
            .addHostFilter(orca.host_of_pe(c0_pe)),
            OperatorMetricScope("op-sink-by-pe")
            .addOperatorInstanceFilter("sink")
            .addOperatorMetric("nTuplesProcessed")
            .addPEFilter(orca.pe_of_operator(job_id, "sink"))
            .addJobFilter(job_id),
            OperatorPortMetricScope("port-sink")
            .addOperatorInstanceFilter("sink")
            .addPortFilter(0),
            PEMetricScope("pe-nested")
            .addPEMetric(PEMetricScope.nTuplesProcessed)
            .addApplicationFilter("Nested"),
            PEMetricScope("pe-c0").addPEFilter(c0_pe).addPEMetric("checkpointLag"),
            PEMetricScope("pe-host")
            .addHostFilter(orca.host_of_pe(c0_pe))
            .addPEMetric("nTuplesSubmitted"),
            PEFailureScope("fail"),
            PEFailureScope("fail-golden").addReasonFilter("golden"),
            PEFailureScope("fail-parsing").addCompositeTypeFilter("Parsing"),
            PEFailureScope("fail-c0").addPEFilter(c0_pe),
            HostFailureScope("host"),
            HostFailureScope("host-other").addHostFilter("no-such-host"),
            TimerScope("timers"),
            TimerScope("timer-beat").addTimerFilter("beat"),
            UserEventScope("user").addNameFilter(["scale-in", "overreach", "cancel"]),
            ParallelRegionScope("regions"),
            ParallelRegionScope("region-c1")
            .addRegionFilter(REGION)
            .addChannelFilter(1),
            ParallelRegionScope("rescales")
            .addEventTypeFilter(["region_rescaled", "region_state_migrated"])
            .addJobFilter(job_id),
            CheckpointScope("ckpt-recovery").addEventTypeFilter("rehydrate_skipped"),
            CheckpointScope("ckpt-c0")
            .addPEFilter(c0_pe)
            .addEventTypeFilter("checkpoint_committed"),
            ChaosScope("chaos"),
            ChaosScope("chaos-mine").addApplicationFilter("Nested"),
            ChaosScope("chaos-job").addJobFilter(job_id),
            ChaosScope("chaos-ckpt")
            .addKindFilter("checkpoint_fault")
            .addTargetFilter("checkpoints")
            .addScenarioFilter(["owned", "foreign"]),
            HealthScope("health"),
            HealthScope("health-region")
            .addRegionFilter(REGION)
            .addSeverityFilter(["warn", "page"]),
            HealthScope("health-global").addSloFilter("lag-global").addSignalFilter("lag"),
        ):
            orca.register_event_scope(scope)
        orca.create_timer(1.0, payload={"n": 1}, timer_id="once")
        orca.create_timer(4.0, payload="tick", periodic=True, timer_id="beat")

    def handleChannelCongestedEvent(self, context, scopes):  # noqa: N802
        if not self.scaled_out:
            self.scaled_out = True
            self.orca.set_channel_width(context.job_id, context.region, 3)

    def handlePEFailureEvent(self, context, scopes):  # noqa: N802
        self.orca.restart_pe(context.pe_id, rehydrate=True)

    def handleTimerEvent(self, context, scopes):  # noqa: N802
        if context.timer_id == "once":
            self.orca.checkpoint_now(self.job.job_id)
            return
        self.beats += 1
        if self.beats in (1, 2):
            # two polls show every metric kind: t=3 at the compiled width,
            # t=6.5 at width 3 (the stream graph reads the rescaled job)
            self.orca.set_metric_poll_interval(2.5 if self.beats == 1 else 100.0)

    def handleUserEvent(self, context, scopes):  # noqa: N802
        orca, job_id = self.orca, self.job.job_id
        if context.name == "scale-in":
            orca.set_channel_width(job_id, REGION, context.payload["width"])
        elif context.name == "overreach":
            orca.set_channel_width(job_id, REGION, 6)  # three slots short
        elif context.name == "cancel":
            orca.cancel_job(job_id)  # direct: no config
            orca.deps.cancel("aux-cfg")


def _canon(value):
    """A repr that does not depend on set or dict insertion order."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        body = ", ".join(f"{name}={_canon(v)}" for name, v in fields.items())
        return f"{type(value).__name__}({body})"
    if isinstance(value, dict):
        items = sorted(value.items(), key=repr)
        return "{" + ", ".join(f"{_canon(k)}: {_canon(v)}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "set(" + ", ".join(_canon(v) for v in sorted(value, key=repr)) + ")"
    if isinstance(value, (list, tuple)):
        open_, close = ("[", "]") if isinstance(value, list) else ("(", ",)")
        return open_ + ", ".join(_canon(v) for v in value) + close
    return repr(value)


class Tap:
    """Records every emission from outside, through two public seams.

    ``ScopeRegistry.matching_keys`` sees every emitted event (type,
    attribute map, matched keys); ``EventQueue.push`` sees the ones that
    are queued (context, transaction id).  The service calls the second
    right after the first, so a push belongs to the last match.  Patched
    on the classes (the script runs one orchestrator) so the start event,
    raised inside ``submit_orchestrator``, is seen too.
    """

    def __init__(self, system):
        self.records = []
        self._saved = (ScopeRegistry.matching_keys, EventQueue.push)
        matching_keys, push = self._saved
        tap = self

        def tapped_match(registry, event_type, attrs):
            keys = matching_keys(registry, event_type, attrs)
            tap.records.append(
                {"t": system.now, "type": event_type, "keys": list(keys),
                 "attrs": {k: v for k, v in attrs.items() if v is not None}}
            )
            return keys

        def tapped_push(queue, event):
            pushed = push(queue, event)
            record = tap.records[-1]
            assert record["type"] == event.event_type and "txn" not in record
            record["txn"], record["context"] = pushed.txn_id, pushed.context
            return pushed

        ScopeRegistry.matching_keys, EventQueue.push = tapped_match, tapped_push

    def close(self):
        ScopeRegistry.matching_keys, EventQueue.push = self._saved

    def lines(self):
        for record in self.records:
            head = (
                f"t={record['t']!r} {record['type']} keys={record['keys']} "
                f"attrs={_canon(record['attrs'])}"
            )
            if "txn" in record:
                yield f"{head} txn={record['txn']} {_canon(record['context'])}"
            else:
                yield f"{head} dropped"


def run_script() -> str:
    """Drive the script on a fresh system; return its transcript."""
    system = SystemS(
        # thirteen PE slots: Nested (7) + Aux (2) + a foreign job (2) leave
        # two, so width 3 fits (one spare for a relocating restart), 6 does not
        hosts=[Host(f"h{i:02d}", capacity=1) for i in range(13)],
        seed=11,
        config=SystemConfig(
            delivery="exactly_once", checkpoint_interval=1.0, orca_poll_interval=3.0
        ),
    )
    logic = Scripted()
    tap = Tap(system)
    try:
        service = system.submit_orchestrator(
            OrcaDescriptor(
                name="Scripted",
                logic=lambda: logic,
                applications=[
                    ManagedApplication(name="Nested", application=nested_app()),
                    ManagedApplication(name="Aux", application=aux_app()),
                ],
            )
        )
        _drive(system, service, logic)
    finally:
        tap.close()
    lines = list(tap.lines())
    lines += [
        f"actuation txn={a.txn_id} t={a.time!r} {a.action} {a.detail}"
        for a in service.actuation_log
    ]
    lines.append(f"dropped_count={service.queue.dropped_count}")
    lines.append(f"handler_errors={list(service.handler_errors)}")
    return "\n".join(lines) + "\n"


def _drive(system, service, logic) -> None:
    foreign = system.submit_job(aux_app())  # a job this orchestrator does not own

    service.register_slo(
        Slo("lag-global", "lag", 0.001, short_window=1.0, long_window=2.0)
    )
    service.register_slo(
        Slo("lag-region", "lag", 0.001, short_window=1.0, long_window=2.0, region=REGION)
    )

    def channel_pe(channel: int):
        return logic.job.pe_of_operator(f"count__c{channel}")

    # start, submissions, one-shot timer, first poll (congestion -> 2 -> 3
    # with keyed state), periodic timer, second poll
    system.run_for(7.0)
    service.inject_user_event("ignored", {"why": "no subscope names it"})
    service.inject_user_event("overreach", {})
    system.run_for(1.0)
    service.command_tool.submit_event("scale-in", {"width": 2})
    system.run_for(2.0)

    # channel crash -> pe_failure -> rehydrating restart: mask, unmask
    channel_pe(1).crash("golden")
    system.run_for(3.0)
    # a stateless PE has no epoch and no snapshot: the rehydrating restart
    # the failure handler issues finds nothing to restore
    logic.job.pe_of_operator("sink").crash("golden")
    system.run_for(3.0)

    # chaos on the owned job, on the foreign one, and on none
    system.chaos.run_scenario(
        Scenario("owned").add(0.1, CheckpointFault(duration=0.3)), job=logic.job
    )
    system.chaos.run_scenario(
        Scenario("foreign").add(0.2, CheckpointFault(duration=0.3)), job=foreign
    )
    system.chaos.run_scenario(Scenario("nobody").add(0.3, LatencySpike(duration=0.2)))
    system.run_for(1.0)

    # a black-holed link into channel 0 grows the lag watermark: both SLOs burn
    system.transport.install_link_fault(
        drop_probability=1.0, dst_pe=channel_pe(0).pe_id, duration=3.0
    )
    system.run_for(3.0)
    system.run_for(2.0)

    # the host under an.core.parse dies: host_failure, then its pe_failure
    system.chaos.inject(FailHost(host=logic.job.pe_of_operator("an.core.parse").host_name))
    system.run_for(7.0)

    service.inject_user_event("cancel", {})
    system.run_for(1.0)


def test_transcript_matches_parent_recorded_golden():
    assert run_script() == GOLDEN.read_text()


def test_script_reaches_every_kind_and_variant_it_claims():
    """The golden is only a pin if the script raises every kind, queued."""
    lines = GOLDEN.read_text().splitlines()
    events = [line for line in lines if line.startswith("t=")]

    def some(*needles):
        return any(all(needle in line for needle in needles) for line in events)

    for kind in ALL_KINDS:
        assert some(f" {kind} keys=", " txn="), kind
    assert some(" job_submission ", "'config': 'aux-cfg'")
    assert some(" job_submission ", "config_id=None") and not some(
        " job_submission ", "config_id=None", "'config'"
    )
    assert some(" job_cancellation ", "'config': 'aux-cfg'", "garbage_collected=False")
    assert some(" job_cancellation ", "config_id=None")
    assert some(" region_rescaled ", "succeeded=True", "new_width=3")
    assert some(" region_rescaled ", "succeeded=True", "new_width=2")
    assert some(" region_rescaled ", "succeeded=False", "new_width=6")
    assert some(" channel_rerouted ", "masked=True") and some(
        " channel_rerouted ", "masked=False"
    )
    assert some(" pe_failure ", "'reason': 'host_failure'")
    assert some(" timer ", "periodic=True") and some(" timer ", "periodic=False")
    assert some(" user ", "dropped") and some(" checkpoint_committed ", "dropped")
    assert some(" chaos_injected ", "'application': 'Nested'", "'job': ")
    assert some(" chaos_injected ", "scenario='foreign'", "'job': ") and not some(
        " chaos_injected ", "scenario='foreign'", "'application'"
    )
    assert some(" chaos_injected ", "scenario='nobody'") and not some(
        " chaos_injected ", "scenario='nobody'", "'job'"
    )
    assert some(" health_alert ", "'region': 'region'")
    assert some(" health_alert ", "region=None") and not some(
        " health_alert ", "region=None", "'region'"
    )
    # one delivery, all matching keys
    assert some(" region_state_migrated ", "keys=['regions', 'region-c1', 'rescales']")
    assert some(" pe_failure ", "'composite_type': set()")  # present though empty
    assert "handler_errors=[]" in lines


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(run_script())
    print(f"wrote {GOLDEN} ({len(GOLDEN.read_text().splitlines())} lines)")
