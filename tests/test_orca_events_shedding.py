"""Tests for the event queue internals, context aliases, and the
load-shedding adaptation path (Sec. 1 motivating example)."""

import pytest

from repro import ManagedApplication, Orchestrator, OrcaDescriptor, SystemS
from repro.orca.contexts import (
    OperatorMetricContext,
    PEFailureContext,
)
from repro.orca.events import EventQueue, OrcaEvent
from repro.orca.scopes import OperatorMetricScope
from repro.spl.library import LoadShedder
from repro.spl.tuples import StreamTuple

from tests.conftest import make_operator_harness


class TestEventQueue:
    def test_fifo_and_txn_assignment(self):
        queue = EventQueue()
        a = queue.push(OrcaEvent(event_type="a", context=None))
        b = queue.push(OrcaEvent(event_type="b", context=None))
        assert a.txn_id == 1 and b.txn_id == 2
        assert queue.pop() is a
        assert queue.pop() is b
        assert queue.pop() is None

    def test_delivered_counter(self):
        queue = EventQueue()
        queue.push(OrcaEvent(event_type="a", context=None))
        queue.pop()
        queue.pop()
        assert queue.delivered_count == 1

    def test_bool_and_len(self):
        queue = EventQueue()
        assert not queue
        queue.push(OrcaEvent(event_type="a", context=None))
        assert queue and len(queue) == 1


class TestQueueLatency:
    def test_latency_recorded_per_event(self):
        queue = EventQueue()
        event = queue.push(OrcaEvent(event_type="a", context=None, enqueued_at=10.0))
        assert event.queue_latency is None  # not delivered yet
        queue.pop()
        latency = queue.record_delivery(event, now=10.25)
        assert latency == pytest.approx(0.25)
        assert event.delivered_at == 10.25
        assert event.queue_latency == pytest.approx(0.25)

    def test_stats_aggregate_mean_max_last(self):
        queue = EventQueue()
        for enqueued, delivered in [(0.0, 1.0), (2.0, 2.5), (3.0, 3.1)]:
            event = queue.push(
                OrcaEvent(event_type="a", context=None, enqueued_at=enqueued)
            )
            queue.pop()
            queue.record_delivery(event, now=delivered)
        stats = queue.latency_stats()
        assert stats.delivered == 3
        assert stats.mean == pytest.approx((1.0 + 0.5 + 0.1) / 3)
        assert stats.maximum == pytest.approx(1.0)
        assert stats.last == pytest.approx(0.1)

    def test_empty_queue_stats_are_zero(self):
        stats = EventQueue().latency_stats()
        assert stats.delivered == 0
        assert stats.mean == stats.maximum == stats.last == 0.0

    def test_service_surfaces_latency_stats(self):
        """End-to-end: delivered events feed the service's inspection API."""
        system = SystemS(hosts=1)

        class Recording(Orchestrator):
            def handleOrcaStart(self, context):
                from repro.orca.scopes import UserEventScope

                self.orca.registerEventScope(UserEventScope("u"))

        service = system.submit_orchestrator(
            OrcaDescriptor(name="Lat", logic=Recording, applications=[])
        )
        system.run_for(0.1)
        for i in range(5):
            service.inject_user_event("tick", {"i": i})
        system.run_for(0.1)
        stats = service.queue_latency_stats()
        assert stats.delivered == 6  # orca_start + 5 user events
        assert stats.mean >= 0.0 and stats.maximum >= stats.last
        # every queued event was delivered: none waits, none was dropped
        assert not service.queue and service.queue.dropped_count == 0


class TestContextAliases:
    def test_operator_metric_camel_case(self):
        ctx = OperatorMetricContext(
            instance_name="op3", operator_kind="Split", metric="queueSize",
            value=1.0, epoch=2, job_id="j", app_name="A", pe_id="pe_1",
            collection_ts=0.0, is_custom=False,
        )
        assert ctx.instanceName == "op3"  # paper's Fig. 6 spelling

    def test_pe_failure_camel_case(self):
        ctx = PEFailureContext(
            pe_id="pe_9", pe_index=1, job_id="j", app_name="A",
            reason="crash", detection_ts=1.0, epoch=1, host="h",
        )
        assert ctx.peId == "pe_9"

    def test_contexts_frozen(self):
        ctx = PEFailureContext(
            pe_id="pe_9", pe_index=1, job_id="j", app_name="A",
            reason="crash", detection_ts=1.0, epoch=1, host="h",
        )
        with pytest.raises(Exception):
            ctx.pe_id = "other"


class TestLoadShedderOperator:
    def test_passthrough_by_default(self):
        op, emitted = make_operator_harness(LoadShedder)
        for i in range(50):
            op._process(StreamTuple({"i": i}), 0)
        assert len(emitted) == 50
        assert op.metric("nShed").value == 0

    def test_full_shedding(self):
        op, emitted = make_operator_harness(LoadShedder, params={"fraction": 1.0})
        for i in range(50):
            op._process(StreamTuple({"i": i}), 0)
        assert emitted == []
        assert op.metric("nShed").value == 50

    def test_control_command_adjusts_fraction(self):
        op, emitted = make_operator_harness(LoadShedder)
        op.on_control("setSheddingFraction", {"fraction": 1.0})
        op._process(StreamTuple({"i": 1}), 0)
        assert emitted == []
        op.on_control("setSheddingFraction", {"fraction": 0.0})
        op._process(StreamTuple({"i": 2}), 0)
        assert len(emitted) == 1

    def test_fraction_clamped(self):
        op, _ = make_operator_harness(LoadShedder)
        op.on_control("setSheddingFraction", {"fraction": 3.0})
        assert op.fraction == 1.0
        op.on_control("setSheddingFraction", {"fraction": -1.0})
        assert op.fraction == 0.0

    def test_partial_shedding_approximates_fraction(self):
        op, emitted = make_operator_harness(
            LoadShedder, params={"fraction": 0.5, "seed": 3}
        )
        for i in range(400):
            op._process(StreamTuple({"i": i}), 0)
        passed = len(emitted)
        assert 140 <= passed <= 260  # ~50% with seeded variance


class SheddingPolicy(Orchestrator):
    """Minimal backlog-driven shedding policy for the integration test."""

    def __init__(self):
        super().__init__()
        self.job = None
        self.commands = []

    def handleOrcaStart(self, context):
        scope = OperatorMetricScope("backlog")
        scope.addOperatorInstanceFilter("slow").addOperatorMetric("nBuffered")
        self.orca.registerEventScope(scope)
        self.job = self.orca.submit_application("Bursty")

    def handleOperatorMetricEvent(self, context, scopes):
        if context.value > 30:
            self.orca.send_control(
                self.job.job_id, "shed", "setSheddingFraction",
                {"fraction": 0.8},
            )
            self.commands.append(self.orca.now)


class TestLoadSheddingIntegration:
    def build_app(self):
        from repro.spl import Application
        from repro.spl.library import CallbackSource, Sink, Throttle

        def generate(now, count):
            rate = 25 if now >= 30.0 else 3
            return [{"seq": count + i} for i in range(rate)]

        app = Application("Bursty")
        g = app.graph
        src = g.add_operator(
            "src", CallbackSource,
            params={"generator": generate, "period": 1.0}, partition="p1",
        )
        shed = g.add_operator("shed", LoadShedder, partition="p1")
        slow = g.add_operator("slow", Throttle, params={"rate": 6.0},
                              partition="p2")
        sink = g.add_operator("sink", Sink, params={"record": False},
                              partition="p2")
        g.connect(src.oport(0), shed.iport(0))
        g.connect(shed.oport(0), slow.iport(0))
        g.connect(slow.oport(0), sink.iport(0))
        return app

    def test_orchestrator_sheds_under_overload(self):
        system = SystemS(hosts=2, seed=42)
        logic = SheddingPolicy()
        system.submit_orchestrator(
            OrcaDescriptor(
                name="Shed",
                logic=lambda: logic,
                applications=[
                    ManagedApplication(name="Bursty", application=self.build_app())
                ],
                metric_poll_interval=5.0,
            )
        )
        system.run_for(120.0)
        assert logic.commands, "policy never reacted to the backlog"
        shed_op = logic.job.operator_instance("shed")
        assert shed_op.metric("nShed").value > 0
        assert shed_op.fraction == 0.8
