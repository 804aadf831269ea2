"""Tests for the OrcaService: delivery, matching, actuation, inspection."""

import ast
import dataclasses
import inspect
import pathlib
import re

import pytest

import repro.orca
from repro import ManagedApplication, Orchestrator, OrcaDescriptor, SystemConfig, SystemS
from repro.chaos import CrashPE, FailHost
from repro.elastic import RescaleState
from repro.errors import ActuationError, OrcaPermissionError, ScopeError
from repro.orca import contexts, scopes
from repro.orca.scopes import (
    JobCancellationScope,
    JobSubmissionScope,
    OperatorMetricScope,
    OperatorPortMetricScope,
    PEFailureScope,
    PEMetricScope,
    TimerScope,
    UserEventScope,
)
from repro.runtime.pe import PEState

from tests.conftest import calls, functions_under, make_filter_app, make_linear_app, where
from tests.test_elastic_state_migration import build_keyed_app


class RecordingOrca(Orchestrator):
    """Registers configurable scopes and records every delivery."""

    def __init__(self, scopes=(), submit=("Linear",)):
        super().__init__()
        self.scopes_to_register = list(scopes)
        self.apps_to_submit = list(submit)
        self.received = []
        self.jobs = []

    def handleOrcaStart(self, context):
        self.received.append(("start", context))
        for scope in self.scopes_to_register:
            self.orca.register_event_scope(scope)
        for app_name in self.apps_to_submit:
            self.jobs.append(self.orca.submit_application(app_name))

    def handleOperatorMetricEvent(self, context, scopes):
        self.received.append(("op_metric", context, scopes))

    def handleOperatorPortMetricEvent(self, context, scopes):
        self.received.append(("port_metric", context, scopes))

    def handlePEMetricEvent(self, context, scopes):
        self.received.append(("pe_metric", context, scopes))

    def handlePEFailureEvent(self, context, scopes):
        self.received.append(("pe_failure", context, scopes))

    def handleJobSubmissionEvent(self, context, scopes):
        self.received.append(("submission", context, scopes))

    def handleJobCancellationEvent(self, context, scopes):
        self.received.append(("cancellation", context, scopes))

    def handleTimerEvent(self, context, scopes):
        self.received.append(("timer", context, scopes))

    def handleUserEvent(self, context, scopes):
        self.received.append(("user", context, scopes))

    def events(self, kind):
        return [r for r in self.received if r[0] == kind]


def submit_orca(system, logic, apps=None, poll=15.0):
    apps = apps if apps is not None else [make_linear_app()]
    descriptor = OrcaDescriptor(
        name="TestOrca",
        logic=lambda: logic,
        applications=[
            ManagedApplication(name=a.name, application=a) for a in apps
        ],
        metric_poll_interval=poll,
    )
    return system.submit_orchestrator(descriptor)


class TestStartAndDelivery:
    def test_start_event_always_delivered(self, system):
        logic = RecordingOrca(submit=())
        submit_orca(system, logic)
        system.run_for(0.1)
        assert logic.events("start")

    def test_events_without_matching_scope_dropped(self, system):
        logic = RecordingOrca(scopes=(), submit=("Linear",))
        service = submit_orca(system, logic)
        system.run_for(40.0)
        assert not logic.events("op_metric")
        assert service.queue.dropped_count > 0

    def test_metric_events_delivered_with_epoch(self, system):
        scope = OperatorMetricScope("m").addOperatorMetric("nTuplesProcessed")
        logic = RecordingOrca(scopes=[scope])
        submit_orca(system, logic)
        system.run_for(31.0)
        events = logic.events("op_metric")
        assert events
        epochs = {e[1].epoch for e in events}
        assert epochs == {1, 2}  # two poll rounds
        assert all(e[2] == ["m"] for e in events)

    def test_all_matching_scope_keys_delivered_once(self, system):
        s1 = OperatorMetricScope("a").addOperatorMetric("nTuplesProcessed")
        s2 = OperatorMetricScope("b").addOperatorInstanceFilter("sink")
        logic = RecordingOrca(scopes=[s1, s2])
        submit_orca(system, logic)
        system.run_for(16.0)
        sink_events = [
            e for e in logic.events("op_metric")
            if e[1].instance_name == "sink" and e[1].metric == "nTuplesProcessed"
        ]
        assert len(sink_events) == 1  # delivered once ...
        assert sorted(sink_events[0][2]) == ["a", "b"]  # ... with both keys

    def test_port_metric_events(self, system):
        scope = OperatorPortMetricScope("p").addOperatorMetric("queueSize")
        logic = RecordingOrca(scopes=[scope])
        submit_orca(system, logic)
        system.run_for(16.0)
        events = logic.events("port_metric")
        assert events
        assert all(e[1].port == 0 for e in events)

    def test_pe_metric_events(self, system):
        scope = PEMetricScope("pe").addPEMetric("nTuplesProcessed")
        logic = RecordingOrca(scopes=[scope])
        submit_orca(system, logic)
        system.run_for(16.0)
        assert logic.events("pe_metric")

    def test_fifo_one_at_a_time(self, system):
        """Sec. 4.2: queued in the order they were received."""
        scope = OperatorMetricScope("m").addOperatorMetric("nTuplesProcessed")
        logic = RecordingOrca(scopes=[scope])
        submit_orca(system, logic)
        system.run_for(46.0)
        epochs = [e[1].epoch for e in logic.events("op_metric")]
        assert epochs == sorted(epochs)

    def test_handler_errors_isolated(self, system):
        class Exploding(RecordingOrca):
            def handleOperatorMetricEvent(self, context, scopes):
                raise RuntimeError("user bug")

        scope = OperatorMetricScope("m").addOperatorMetric("nTuplesProcessed")
        logic = Exploding(scopes=[scope])
        service = submit_orca(system, logic)
        system.run_for(31.0)
        assert service.handler_errors
        # service survives: further polls continue
        assert service.metric_epochs.current >= 2

    def test_poll_interval_change_takes_effect(self, system):
        scope = OperatorMetricScope("m").addOperatorMetric("nTuplesProcessed")
        logic = RecordingOrca(scopes=[scope])
        service = submit_orca(system, logic, poll=15.0)
        system.run_for(16.0)
        before = service.metric_epochs.current
        service.set_metric_poll_interval(1.0)
        system.run_for(10.0)
        assert service.metric_epochs.current >= before + 9

    def test_poll_interval_must_be_positive(self, system):
        service = submit_orca(system, RecordingOrca(submit=()))
        with pytest.raises(ActuationError):
            service.set_metric_poll_interval(0)

    def test_duplicate_scope_key_rejected(self, system):
        service = submit_orca(system, RecordingOrca(submit=()))
        service.register_event_scope(OperatorMetricScope("k"))
        with pytest.raises(ScopeError):
            service.registerEventScope(OperatorMetricScope("k"))

    def test_unregister_scope_stops_delivery(self, system):
        scope = OperatorMetricScope("m").addOperatorMetric("nTuplesProcessed")
        logic = RecordingOrca(scopes=[scope])
        service = submit_orca(system, logic)
        system.run_for(16.0)
        count = len(logic.events("op_metric"))
        assert count > 0
        service.unregister_event_scope("m")
        system.run_for(30.0)
        assert len(logic.events("op_metric")) == count


class TestFailureEvents:
    def test_pe_failure_pushed_with_context(self, system):
        scope = PEFailureScope("f").addApplicationFilter("Linear")
        logic = RecordingOrca(scopes=[scope])
        service = submit_orca(system, logic)
        system.run_for(5.0)
        job = logic.jobs[0]
        victim = job.pe_of_operator("sink")
        system.chaos.inject(
            CrashPE(pe_index=victim.index, reason="injected_fault"), job=job
        )
        system.run_for(1.0)
        events = logic.events("pe_failure")
        assert len(events) == 1
        context = events[0][1]
        assert context.pe_id == victim.pe_id
        assert context.reason == "injected_fault"
        assert context.job_id == job.job_id
        assert "sink" in context.operators
        assert context.detection_ts <= system.now

    def test_host_failure_groups_epochs(self, system):
        scope = PEFailureScope("f")
        logic = RecordingOrca(scopes=[scope], submit=("Linear", "Linear"))
        # two jobs of the same app; pick a host running PEs of both
        service = submit_orca(system, logic)
        system.run_for(5.0)
        host = logic.jobs[0].pes[0].host_name
        system.chaos.inject(FailHost(host=host))
        system.run_for(10.0)
        events = logic.events("pe_failure")
        assert events
        assert {e[1].reason for e in events} == {"host_failure"}
        assert len({e[1].epoch for e in events}) == 1  # same physical event

    def test_failure_of_foreign_job_not_delivered(self, system):
        scope = PEFailureScope("f")
        logic = RecordingOrca(scopes=[scope], submit=())
        submit_orca(system, logic)
        foreign = system.submit_job(make_filter_app())
        system.run_for(5.0)
        system.chaos.inject(CrashPE(pe_index=1), job=foreign)
        system.run_for(5.0)
        assert not logic.events("pe_failure")


class TestActuation:
    def test_submission_and_cancellation_events(self, system):
        scopes = [JobSubmissionScope("s"), JobCancellationScope("c")]
        logic = RecordingOrca(scopes=scopes)
        service = submit_orca(system, logic)
        system.run_for(1.0)
        assert len(logic.events("submission")) == 1
        service.cancel_job(logic.jobs[0].job_id)
        system.run_for(1.0)
        cancels = logic.events("cancellation")
        assert len(cancels) == 1
        assert cancels[0][1].garbage_collected is False

    def test_acting_on_foreign_job_is_error(self, system):
        """Sec. 3: acting on jobs the ORCA did not start is a runtime error."""
        logic = RecordingOrca(submit=())
        service = submit_orca(system, logic)
        foreign = system.submit_job(make_filter_app())
        system.run_for(1.0)
        with pytest.raises(OrcaPermissionError):
            service.cancel_job(foreign.job_id)
        with pytest.raises(OrcaPermissionError):
            service.job(foreign.job_id)

    def test_submitting_unmanaged_app_is_error(self, system):
        from repro.errors import DescriptorError

        logic = RecordingOrca(submit=())
        service = submit_orca(system, logic)
        with pytest.raises(DescriptorError):
            service.submit_application("NotManaged")

    def test_restart_pe_through_service(self, system):
        logic = RecordingOrca()
        service = submit_orca(system, logic)
        system.run_for(2.0)
        job = logic.jobs[0]
        victim = job.pes[0]
        victim.crash("t")
        service.restart_pe(victim.pe_id)
        system.run_for(2.0)
        assert victim.state is PEState.RUNNING

    def test_stop_pe_through_service(self, system):
        logic = RecordingOrca()
        service = submit_orca(system, logic)
        system.run_for(2.0)
        victim = logic.jobs[0].pes[0]
        service.stop_pe(victim.pe_id)
        assert victim.state is PEState.STOPPED

    def test_send_control_through_service(self, system):
        app = make_filter_app(threshold=10_000)
        logic = RecordingOrca(submit=("Filtered",))
        service = submit_orca(system, logic, apps=[app])
        system.run_for(3.0)
        job = logic.jobs[0]
        service.send_control(
            job.job_id, "filt", "setPredicate", {"predicate": lambda t: True}
        )
        system.run_for(5.0)
        assert len(job.operator_instance("sink").seen) > 0

    def test_exclusive_pools_before_submit_only(self, system):
        logic = RecordingOrca()  # submits Linear during start
        service = submit_orca(system, logic)
        system.run_for(1.0)
        with pytest.raises(ActuationError):
            service.set_exclusive_host_pools("Linear")

    def test_run_external_with_completion(self, system):
        logic = RecordingOrca(submit=())
        service = submit_orca(system, logic)
        done = []
        service.run_external(lambda: 42, duration=5.0, on_complete=done.append)
        system.run_for(4.0)
        assert done == []
        system.run_for(1.1)
        assert done == [42]

    def test_actuation_log_records_txn_ids(self, system):
        """Sec. 7 future work: actuations tied to event transaction ids."""
        scope = PEFailureScope("f")

        class Restarter(RecordingOrca):
            def handlePEFailureEvent(self, context, scopes):
                self.orca.restart_pe(context.pe_id)

        logic = Restarter(scopes=[scope])
        service = submit_orca(system, logic)
        system.run_for(2.0)
        job = logic.jobs[0]
        system.chaos.inject(CrashPE(pe_index=job.pes[0].index), job=job)
        system.run_for(2.0)
        restarts = [r for r in service.actuation_log if r.action == "restart_pe"]
        assert restarts and restarts[0].txn_id > 0
        submits = [r for r in service.actuation_log if r.action == "submit"]
        assert submits  # submitted during start handling => txn of start event


class TestTimersAndUserEvents:
    def test_timer_event(self, system):
        scope = TimerScope("t")
        logic = RecordingOrca(scopes=[scope], submit=())
        service = submit_orca(system, logic)
        system.run_for(0.1)
        service.create_timer(5.0, payload={"note": "check"})
        system.run_for(5.1)
        events = logic.events("timer")
        assert len(events) == 1
        assert events[0][1].payload == {"note": "check"}

    def test_periodic_timer(self, system):
        scope = TimerScope("t")
        logic = RecordingOrca(scopes=[scope], submit=())
        service = submit_orca(system, logic)
        system.run_for(0.1)
        handle = service.create_timer(2.0, periodic=True)
        system.run_for(7.0)
        assert len(logic.events("timer")) == 3
        handle.cancel()
        system.run_for(10.0)
        assert len(logic.events("timer")) == 3

    def test_timer_filter(self, system):
        scope = TimerScope("t").addTimerFilter("special")
        logic = RecordingOrca(scopes=[scope], submit=())
        service = submit_orca(system, logic)
        system.run_for(0.1)
        service.create_timer(1.0, timer_id="special")
        service.create_timer(1.0, timer_id="other")
        system.run_for(2.0)
        assert len(logic.events("timer")) == 1

    def test_user_event_via_command_tool(self, system):
        scope = UserEventScope("u").addNameFilter("failover")
        logic = RecordingOrca(scopes=[scope], submit=())
        service = submit_orca(system, logic)
        system.run_for(0.1)
        service.command_tool.submit_event("failover", {"target": "r2"})
        service.command_tool.submit_event("ignored", {})
        system.run_for(0.1)
        events = logic.events("user")
        assert len(events) == 1
        assert events[0][1].payload == {"target": "r2"}

    def test_command_tool_poll_override(self, system):
        service = submit_orca(system, RecordingOrca(submit=()))
        service.command_tool.set_metric_poll_interval(2.0)
        assert service.metric_poll_interval == 2.0


class TestInspectionDelegation:
    def test_inspection_queries(self, system):
        logic = RecordingOrca()
        service = submit_orca(system, logic)
        system.run_for(1.0)
        job = logic.jobs[0]
        pe_id = service.pe_of_operator(job.job_id, "sink")
        assert service.job_of_pe(pe_id) == job.job_id
        assert "sink" in service.operators_in_pe(pe_id)
        assert service.host_of_pe(pe_id) is not None
        assert len(service.pes_of_job(job.job_id)) == 2
        assert service.operators_of_type("Linear", "Sink") == ["sink"]
        assert service.enclosing_composite("Linear", "sink") is None
        assert service.colocated_operators(job.job_id, "sink") == []


class TestDynamicApplicationAddition:
    def test_add_managed_application_at_runtime(self, system):
        """Sec. 7 future work implemented as an extension."""
        logic = RecordingOrca(submit=())
        service = submit_orca(system, logic)
        system.run_for(1.0)
        new_app = make_filter_app("LateApp")
        service.add_managed_application(
            ManagedApplication(name="LateApp", application=new_app)
        )
        job = service.submit_application("LateApp")
        system.run_for(2.0)
        assert job.state.value == "running"

    def test_duplicate_addition_rejected(self, system):
        from repro.errors import DescriptorError

        logic = RecordingOrca(submit=())
        service = submit_orca(system, logic)
        with pytest.raises(DescriptorError):
            service.add_managed_application(
                ManagedApplication(name="Linear", application=make_linear_app())
            )


class TestOneEventTable:
    """What an event kind is, is said once: ``repro.orca.contexts.EVENT_KINDS``.

    Structural, like ``test_elastic.TestOneMover``: adding a kind used to
    mean editing six places (context, ``Orchestrator`` stub, a dispatch
    row, an emitter that spelt the scope attributes a second time as a
    dict, the type strings in ``scopes.py``, the docs table) and one was
    forgotten once.  Now it is context + table row, handler stub, emitter;
    a seventh place, or a second attribute map, must fail here.
    """

    orca = pathlib.Path(repro.orca.__file__).parent

    _where = staticmethod(where)

    def test_every_context_class_declares_its_kind(self):
        classes = [
            cls
            for name, cls in vars(contexts).items()
            if inspect.isclass(cls) and name.endswith("Context")
        ]
        assert len(classes) == len(contexts.EVENT_KINDS) == 18
        for cls in classes:
            assert contexts.EVENT_KINDS[cls.KIND.event_type] is cls.KIND
            assert cls.KIND.context is cls

    def test_table_handlers_are_exactly_the_orchestrator_stubs(self):
        stubs = {name for name in vars(Orchestrator) if name.startswith("handle")}
        handlers = [kind.handler for kind in contexts.EVENT_KINDS.values()]
        assert sorted(handlers) == sorted(stubs)  # a bijection: no repeats either
        # (that RuleOrchestrator overrides every scope-carrying one is
        # test_orca_rules.test_every_dispatch_handler_is_overridden_or_exempt)

    def test_scope_classes_take_their_types_from_the_table(self):
        named = {s for kind in contexts.EVENT_KINDS.values() for s in kind.scopes}
        for name in named:
            cls = getattr(scopes, name)
            assert cls.EVENT_TYPES == tuple(
                kind.event_type
                for kind in contexts.EVENT_KINDS.values()
                if name in kind.scopes
            )
        source = (self.orca / "scopes.py").read_text()
        assert not re.search(r"EVENT_TYPES? = [(\"]\w", source)  # no restated type

    def test_the_service_builds_no_attribute_map(self):
        attributes = {a for kind in contexts.EVENT_KINDS.values() for a in kind.attributes}

        def attribute_keyed_dict(node):
            return isinstance(node, ast.Dict) and any(
                getattr(key, "value", None) in attributes for key in node.keys
            )

        def attribute_store(node):
            return (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and getattr(node.slice, "value", None) in attributes
            )

        service = self.orca / "service.py"
        # state_of answers {"channel": owner, "values": ...}: a query result
        assert self._where(service, attribute_keyed_dict, skip={"OrcaService.state_of"}) == []
        assert self._where(service, attribute_store) == []

    def test_one_function_pushes_onto_the_event_queue(self):
        assert self._where(self.orca, calls("push")) == ["service.py:OrcaService._emit"]
        assert self._where(self.orca, calls("scope_attributes")) == [
            "service.py:OrcaService._emit"
        ]

    def test_the_old_mechanism_is_gone(self):
        for path in sorted(self.orca.parent.rglob("*.py")):
            assert not re.search(r"\b_enqueue\b|\b_DISPATCH\b", path.read_text()), path

    @staticmethod
    def _doc_rows(heading):
        """Cells of the first table under ``heading`` of docs/adaptation-api.md."""
        text = (pathlib.Path(__file__).parent.parent / "docs" / "adaptation-api.md").read_text()
        section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        return [
            [re.findall(r"`([^`]+)`", cell) for cell in row.strip("|").split(" | ")]
            for row in rows
        ]

    def test_docs_event_reference_is_the_table(self):
        documented = {
            row[0][0]: (row[1][0], row[2][0], sorted(row[3]))
            for row in self._doc_rows("Event reference")
        }
        assert documented == {
            kind.event_type: (kind.handler, kind.context.__name__, sorted(kind.attributes))
            for kind in contexts.EVENT_KINDS.values()
        }

    def test_docs_scope_reference_is_the_table(self):
        documented = {
            row[0][0]: (tuple(row[1]), sorted(row[2])) for row in self._doc_rows("Scope reference")
        }
        named = sorted({s for kind in contexts.EVENT_KINDS.values() for s in kind.scopes})
        assert documented == {
            name: (
                getattr(scopes, name).EVENT_TYPES,
                sorted(m for m in dir(getattr(scopes, name)) if m.startswith("add")),
            )
            for name in named
        }


class TestOneStreamGraph:
    """The orchestrator's picture of its jobs is the jobs.

    Structural, like ``TestOneEventTable``: ``StreamGraph`` used to keep a
    copy of every job's PE inventory and of the logical graph per
    application *name*, re-made through an ADL round trip on every
    ``topology`` event — and replicas of one elastic application
    overwrote each other's copy.  Now the per-job side reads the live
    ``Job``; a second copy, a refresh path or a per-rescale ADL round
    trip must fail here.
    """

    src = pathlib.Path(repro.orca.__file__).parent.parent
    _where = staticmethod(where)

    def test_the_graph_holds_no_table_keyed_by_job_or_pe(self):
        from repro.orca import streamgraph
        from repro.orca.streamgraph import StreamGraph

        def stores_on_self(node):
            """``self.x = ...``, ``self.x: T = ...`` or ``self.x[...] = ...``."""
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                return False
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            roots = [t.value if isinstance(t, ast.Subscript) else t for t in targets]
            return any(
                isinstance(root, ast.Attribute) and getattr(root.value, "id", None) == "self"
                for root in roots
            )

        module = self.src / "orca" / "streamgraph.py"
        # the per-application table, made in __init__ and filled at registration
        assert self._where(module, stores_on_self) == [
            "streamgraph.py:StreamGraph.__init__",
            "streamgraph.py:StreamGraph.add_application",
        ]
        jobs = {}
        graph = StreamGraph(jobs)
        assert vars(graph) == {"_apps": {}, "_jobs": jobs}
        assert graph._jobs is jobs  # the service's table itself, not a copy
        for gone in ("register_job", "unregister_job", "_job_of_pe"):
            assert not hasattr(StreamGraph, gone)
        assert not hasattr(streamgraph, "_JobEntry")

    def test_the_service_keeps_no_copy_in_step(self, system):
        from repro.orca.service import OrcaService

        for gone in ("_register_placement", "_on_topology_changed"):
            assert not hasattr(OrcaService, gone)
        service = submit_orca(system, RecordingOrca())
        assert service.graph._jobs is service.jobs
        assert not hasattr(service, "metric_event_skips")

    def test_there_is_no_topology_topic(self):
        from repro.runtime.events import TOPICS

        assert len(TOPICS) == 9
        for path in sorted(self.src.rglob("*.py")):
            assert "topology" not in path.read_text(), path

    def test_no_bus_callback_reaches_the_adl_round_trip(self):
        def names_adl(node):
            return any(
                getattr(node, attr, None) in ("adl_model_of", "adl_to_xml")
                for attr in ("id", "attr", "name")
            )

        # the round trip runs once per registered application ...
        users = [
            site
            for site in self._where(self.src, names_adl)
            if not site.startswith("adl.py:")
        ]
        assert users == ["service.py:OrcaService._register_application"]
        service = self.src / "orca" / "service.py"
        assert self._where(service, calls("_register_application")) == [
            "service.py:OrcaService._boot",
            "service.py:OrcaService.add_managed_application",
            "service.py:OrcaService.set_exclusive_host_pools",
        ]
        # ... which no runtime-bus callback can reach, directly or not
        methods = {
            name.split(".", 1)[1]: node
            for _file, name, node in functions_under(service)
            if name.startswith("OrcaService.")
        }
        subscribe = next(
            node for node in ast.walk(methods["_boot"]) if calls("subscribe")(node)
        )
        reached = [keyword.value.attr for keyword in subscribe.keywords]
        assert len(reached) == 8
        for name in reached:  # grows while iterating: the transitive closure
            for node in ast.walk(methods[name]):
                callee = getattr(getattr(node, "func", None), "attr", None)
                if isinstance(node, ast.Call) and callee in methods and callee not in reached:
                    reached.append(callee)
        assert not {"_register_application", "_boot"} & set(reached)
        # ... and nothing in repro.elastic names the ADL at all
        for path in sorted((self.src / "elastic").rglob("*.py")):
            assert not re.search(r"\badl", path.read_text()), path


class TestOneStopwatch:
    """The host clock is read to *run* (the wall-clock executor) and to
    *measure* (``python3 -m bench``), and by nothing else.

    Structural, like ``TestOneStreamGraph``: ``benchmarks/`` used to carry
    a second stopwatch behind three switches, with committed wall-time
    files that contradicted each other, and ``RegionMigration`` timed
    itself on the sim path — the one field of any sim-side record that
    differed run to run, which both goldens stripped by name.  A clock
    read, a switch or an artifact nobody rewrites must fail here.
    """

    root = pathlib.Path(__file__).parent.parent
    CLOCKS = {
        "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
        "monotonic", "monotonic_ns", "time", "time_ns",
    }

    @classmethod
    def reads_host_clock(cls, node):
        """``time.<clock>()`` (or ``_time.``), or a clock imported by name."""
        if not isinstance(node, ast.Call):
            return False
        if isinstance(node.func, ast.Attribute):
            module = getattr(node.func.value, "id", None)
            return node.func.attr in cls.CLOCKS and module in ("time", "_time")
        return getattr(node.func, "id", None) in cls.CLOCKS - {"time"}

    def test_only_the_wall_clock_executor_and_hold_read_the_host_clock(self):
        assert where(self.root / "src", self.reads_host_clock) == [
            "wallclock.py:WallTimeClock.__init__",
            "wallclock.py:WallTimeClock.now",
            "wallclock.py:WallTimeClock._advance_to",
        ]
        assert where(self.root / "benchmarks", self.reads_host_clock) == []
        assert where(self.root / "tests", self.reads_host_clock) == ["conftest.py:hold"]
        # module level too: nothing else so much as imports a clock
        importers = []
        for top in ("src", "benchmarks", "tests"):
            for path in sorted((self.root / top).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Import):
                        modules = {alias.name for alias in node.names}
                    elif isinstance(node, ast.ImportFrom):
                        modules = {node.module}
                    else:
                        continue
                    if modules & {"time", "timeit", "datetime"}:
                        importers.append(str(path.relative_to(self.root)))
        assert importers == ["src/repro/runtime/exec/wallclock.py", "tests/conftest.py"]

    def test_benchmarks_have_no_switch_and_no_timing_fixture(self):
        def reads_environment(node):
            return "environ" in (getattr(node, "attr", None), getattr(node, "id", None)) or (
                calls("getenv")(node)
            )

        benchmarks = self.root / "benchmarks"
        assert where(benchmarks, reads_environment) == []
        assert where(benchmarks, calls("addoption")) == []
        for file, name, function in functions_under(benchmarks):
            assert "benchmark" not in [arg.arg for arg in function.args.args], (file, name)
        assert "pytest-benchmark" not in (self.root / "pyproject.toml").read_text()

    def test_every_artifact_has_exactly_one_writer(self):
        """A file under ``benchmarks/results/`` that no benchmark rewrites
        is stale by construction (five were): each is named by one
        ``emit(results_dir, <name>, ...)`` or one ``results_dir / <name>``."""
        written = []
        for path in sorted((self.root / "benchmarks").glob("test_*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if calls("emit")(node):
                    name, suffix = node.args[1], r"\.txt"
                elif isinstance(node, ast.BinOp) and getattr(node.left, "id", "") == "results_dir":
                    name, suffix = node.right, ""
                else:
                    continue
                parts = name.values if isinstance(name, ast.JoinedStr) else [name]
                written.append(
                    "".join(
                        re.escape(part.value) if isinstance(part, ast.Constant) else ".+"
                        for part in parts
                    )
                    + suffix
                )
        artifacts = [p.name for p in (self.root / "benchmarks" / "results").iterdir() if p.is_file()]
        assert len(artifacts) == 30
        for artifact in sorted(artifacts):
            writers = [pattern for pattern in written if re.fullmatch(pattern, artifact)]
            assert len(writers) == 1, (artifact, writers)

    def test_two_sim_runs_move_state_identically(self):
        from repro.elastic.migration import StateMigration
        from tests.test_elastic_golden import run_script

        first, second = (run_script("exactly_once") for _ in range(2))
        moved = [
            line for line in first.splitlines()
            if line.startswith("op ") and "migration=None" not in line
        ]
        assert moved and first == second
        for field in dataclasses.fields(StateMigration):  # rendered whole: no field left out
            assert f"'{field.name}':" in moved[0]
        assert "wall_ms" not in {f.name for f in dataclasses.fields(StateMigration)}
        assert "wall_ms" not in {
            f.name for f in dataclasses.fields(contexts.RegionStateMigratedContext)
        }


class TestOneConfig:
    """A runtime constant is named once: a ``SystemConfig`` field if
    anyone sets it, a module constant beside its reader if no one does.

    Every field used to be spelled up to five times — the field, a
    keyword in ``SystemS.__init__``, a constructor parameter with its own
    default, an ``Args:`` line and an attribute copy (four of them
    renamed on the way) — so two values could disagree at runtime.  The
    subsystems only ``SystemS`` builds take the config itself.
    """

    src = pathlib.Path(__file__).parent.parent / "src" / "repro"
    FIELDS = {field.name for field in dataclasses.fields(SystemConfig)}
    BUILT_BY_SYSTEM = (
        "Transport", "DeliveryPlane", "SAM", "SRM", "HostController",
        "ElasticController", "CheckpointService", "ObsHub", "HealthMonitor",
    )

    def test_no_subsystem_constructor_mirrors_a_field_or_carries_a_default(self):
        constructors = {
            name.split(".")[0]: node
            for _file, name, node in functions_under(self.src)
            if name.endswith(".__init__") and name.split(".")[0] in self.BUILT_BY_SYSTEM
        }
        assert sorted(constructors) == sorted(self.BUILT_BY_SYSTEM)
        for owner, init in constructors.items():
            arguments = init.args
            names = {arg.arg for arg in arguments.args + arguments.kwonlyargs}
            assert not names & self.FIELDS, owner
            for default in arguments.defaults + arguments.kw_defaults:
                literal = isinstance(default, ast.Constant) and default.value is not None
                assert not literal, (owner, ast.unparse(default))

    def test_system_hands_over_the_config_not_its_fields(self):
        (init,) = (
            node for _file, name, node in functions_under(self.src / "runtime" / "system.py")
            if name == "SystemS.__init__"
        )
        spelled = {
            getattr(node, "attr", None) or getattr(node, "arg", None)
            for node in ast.walk(init)
            if isinstance(node, (ast.Attribute, ast.keyword))
        }
        assert not spelled & self.FIELDS

    def test_every_field_is_read_somewhere(self):
        read = set()
        for path in sorted(self.src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
        assert self.FIELDS <= read, self.FIELDS - read

    def test_a_restart_waits_the_delay_set_after_construction(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(1.0)
        pe = job.pes[0]
        pe.crash("t")
        system.config.pe_restart_delay = 4.0
        system.sam.restart_pe(job.job_id, pe.pe_id)
        system.run_for(3.99)
        assert pe.state is PEState.CRASHED
        system.run_for(0.02)
        assert pe.state is PEState.RUNNING

    def test_checkpoint_rounds_follow_the_config_whoever_moves_it(self):
        system = SystemS(hosts=4)
        system.submit_job(build_keyed_app(width=2))
        system.run_for(1.0)

        def rounds_in(seconds):
            start = system.now
            system.run_for(seconds)
            return sorted({r.time - start for r in system.checkpoints.records if r.time > start})

        assert rounds_in(1.0) == []
        system.checkpoints.set_interval(0.25)
        assert system.config.checkpoint_interval == 0.25
        assert rounds_in(0.5) == [0.25, 0.5]
        system.config.checkpoint_interval = 1.0  # read when the next round is scheduled
        assert rounds_in(2.0) == [0.25, 1.25]

    def test_a_drain_gives_up_at_the_timeout_set_after_construction(self):
        system = SystemS(hosts=6)
        job = system.submit_job(build_keyed_app(width=2))
        system.run_for(1.0)
        system.config.elastic_drain_timeout = 0.5
        system.transport.install_link_fault(
            partition=True, dst_pe=job.pe_of_operator("work__c0").pe_id,
            duration=10.0,
        )
        system.run_for(0.1)
        operation = system.elastic.set_channel_width(job, "region", 3)
        system.run_for(1.0)
        assert operation.state is RescaleState.FAILED
        assert operation.error == "drain did not complete within 0.5s"

    def test_two_systems_built_from_one_config_do_not_share_it(self):
        config = SystemConfig(checkpoint_interval=0.5)
        first, second = SystemS(hosts=1, config=config), SystemS(hosts=1, config=config)
        first.checkpoints.set_interval(2.0)
        assert first.config.checkpoint_interval == 2.0
        assert second.config.checkpoint_interval == config.checkpoint_interval == 0.5
