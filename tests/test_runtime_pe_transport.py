"""Tests for PE lifecycle, tuple routing, and the transport."""

import ast
import inspect
import math
import pathlib
import sys
from collections import Counter
from functools import partial

import pytest

from repro import SystemConfig, SystemS
from repro.chaos import RestartPE
from repro.errors import GraphError, PEControlError
from repro.runtime.job import JobState
from repro.runtime.pe import PEState
from repro.runtime.transport import Flow
from repro.sim.kernel import OutstandingHandles
from repro.spl.application import Application
from repro.spl.metrics import OperatorMetricName, PEMetricName
from repro.spl.library import (
    Beacon, CallbackSource, Custom, Filter, Functor, KeyedCounter, Sink, Split,
)
from repro.spl.operators import Operator
from repro.spl.tuples import Punctuation, StreamTuple

from tests.conftest import (
    CollectingOperator, calls, functions_under, hold, make_filter_app, make_linear_app,
)


def get_op(job, name):
    return job.operator_instance(name)


class TestPELifecycle:
    def test_pes_start_after_spawn_delay(self, system):
        job = system.submit_job(make_linear_app())
        assert job.state is JobState.SUBMITTED
        assert all(pe.state is PEState.CONSTRUCTED for pe in job.pes)
        system.run_for(0.2)
        assert job.state is JobState.RUNNING
        assert all(pe.state is PEState.RUNNING for pe in job.pes)

    def test_crash_discards_operators_without_shutdown(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(5.0)
        pe = job.pe_of_operator("sink")
        pe.crash("test")
        assert pe.state is PEState.CRASHED
        assert pe.operators == {}
        assert pe.last_crash_reason == "test"

    def test_crash_is_noop_when_not_running(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(5.0)
        pe = job.pe_of_operator("sink")
        pe.stop()
        pe.crash("late")  # ignored
        assert pe.state is PEState.STOPPED

    def test_restart_gives_fresh_state(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(10.0)
        pe = job.pe_of_operator("sink")
        before = len(get_op(job, "sink").seen)
        assert before > 0
        pe.crash("test")
        pe.restart()
        assert get_op(job, "sink").seen == []
        assert pe.metrics.get(PEMetricName.N_RESTARTS).value == 1

    def test_restart_running_pe_rejected(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(1.0)
        with pytest.raises(PEControlError):
            job.pes[0].restart()

    def test_double_start_rejected(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(1.0)
        with pytest.raises(PEControlError):
            job.pes[0].start()

    def test_stop_runs_shutdown_hooks(self, system):
        from repro.spl.application import Application
        from repro.spl.operators import Operator

        log = []

        class Closing(Operator):
            N_INPUTS = 1
            N_OUTPUTS = 0

            def on_shutdown(self):
                log.append("closed")

        app = Application("Closer")
        g = app.graph
        src = g.add_operator("src", Beacon)
        c = g.add_operator("c", Closing)
        g.connect(src.oport(0), c.iport(0))
        job = system.submit_job(app)
        system.run_for(1.0)
        system.cancel_job(job.job_id)
        assert log == ["closed"]

    def test_scheduled_work_cancelled_on_crash(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(5.0)
        src_pe = job.pe_of_operator("src")
        sink_op = get_op(job, "sink")
        count = len(sink_op.seen)
        src_pe.crash("test")
        system.run_for(10.0)
        # source is dead: nothing new reaches the sink
        assert len(get_op(job, "sink").seen) == count


class TestTimerBookkeeping:
    """``ctx.schedule`` tracks *outstanding* handles only.

    Count-based, not timing-based: a fired or operator-cancelled handle
    leaves the PE's set, scheduling examines O(1) tracked entries
    (amortised) however many are live, and ``stop``/``crash`` still
    cancel whatever has not run.
    """

    @pytest.fixture(params=["sim", "wallclock"])
    def running(self, request):
        """(system, sink PE, sink ctx) of a job whose source never ticks."""
        config = SystemConfig(
            executor=request.param,
            wallclock_time_scale=20.0 if request.param == "wallclock" else 1.0,
        )
        system = SystemS(hosts=4, seed=42, config=config)
        job = system.submit_job(make_linear_app(period=1e9))
        system.run_for(0.2)
        pe = job.pe_of_operator("sink")
        hold(system, lambda: pe.is_running, "the sink PE to start")
        assert len(pe._timers) == 0
        return system, pe, get_op(job, "sink").ctx

    def test_fired_handles_leave_the_set(self, running):
        system, pe, ctx = running
        fired = []
        handles = []

        def step():
            fired.append(1)
            if len(fired) < 5_000:
                handles.append(ctx.schedule(0.0, step))

        handles.append(ctx.schedule(0.0, step))
        keep = ctx.schedule(1e9, lambda: None)  # the one still to run
        system.run_for(1.0)
        hold(system, lambda: len(fired) == 5_000, "5,000 chained zero-delay timers")
        assert all(h.fired for h in handles)
        # without forcing a sweep: bounded by a constant, not by 5,000
        assert len(pe._timers) <= OutstandingHandles.MIN_SCAN + 1
        assert pe._timers.outstanding() == [keep]
        assert len(pe._timers) == 1

    def test_schedule_examines_constant_entries_at_depth(self, running, monkeypatch):
        """The shape of ``pe.schedule_ns_at_10k``: 10,000 live far-future
        handles, then 200 more schedules."""
        _, pe, ctx = running
        examined = [0]
        sweep = OutstandingHandles.outstanding

        def counting(self):
            examined[0] += len(self)
            return sweep(self)

        monkeypatch.setattr(OutstandingHandles, "outstanding", counting)
        for _ in range(10_000):
            ctx.schedule(1e9, lambda: None)
        primed = examined[0]
        assert primed <= 2 * 10_000  # amortised O(1) on the way there
        for _ in range(200):
            ctx.schedule(1e9, lambda: None)
        assert examined[0] - primed <= 2 * 200
        assert len(pe._timers) == 10_200  # all live: nothing may be dropped

    @pytest.mark.parametrize("down", ["stop", "crash"])
    def test_down_cancels_every_outstanding_handle(self, running, down):
        system, pe, ctx = running
        ran = []
        handles = [ctx.schedule(0.05, lambda i=i: ran.append(i)) for i in range(300)]
        getattr(pe, down)()
        assert all(h.cancelled and not h.fired for h in handles)
        assert len(pe._timers) == 0
        pe.restart()
        system.run_for(0.2)
        assert ran == []  # nothing scheduled by the dead incarnation fires

    def test_handle_cancelled_by_the_operator_never_runs(self, running):
        system, pe, ctx = running
        ran = []
        handle = ctx.schedule(0.02, lambda: ran.append("cancelled"))
        kept = ctx.schedule(0.02, lambda: ran.append("kept"))
        handle.cancel()
        assert pe._timers.outstanding() == [kept]  # no longer tracked
        system.run_for(0.1)
        hold(system, lambda: ran == ["kept"], "the kept timer to fire alone")
        assert pe._timers.outstanding() == []


class TestResolvedDispatch:
    """The tuple path runs on state resolved once (bound counters, live
    operator and PE objects in the route table).  Everything that swaps
    those objects must re-resolve them: a rescale adds and removes ports
    and PEs, a crash + rehydrating restart replaces operator instances.
    """

    N = 1_200

    def region_job(self, system):
        from repro.spl.application import Application
        from repro.spl.library import CallbackSource, KeyedCounter, Sink
        from repro.spl.parallel import parallel

        def feed(now, count):
            return [{"seq": count, "key": f"k{count % 16}"}] if count < self.N else []

        app = Application("Resolved")
        g = app.graph
        src = g.add_operator(
            "src", CallbackSource, params={"generator": feed, "period": 0.01},
            partition="feed",
        )
        work = g.add_operator(
            "work", KeyedCounter, params={"key": "key"},
            parallel=parallel(width=2, name="region", partition_by="key", max_width=8),
        )
        sink = g.add_operator("sink", Sink, partition="out")
        g.connect(src.oport(0), work.iport(0))
        g.connect(work.oport(0), sink.iport(0))
        return system.submit_job(app)

    @staticmethod
    def per_port(operator, name):
        return {
            port: metric.value
            for port, metric_name, metric in operator.metrics
            if metric_name == name and port is not None
        }

    @pytest.mark.parametrize("batch", [1, 8])
    def test_rescale_crash_rehydrate_keeps_counters_and_routes_live(self, batch):
        system = SystemS(
            hosts=6,
            seed=42,
            config=SystemConfig(
                delivery="exactly_once", checkpoint_interval=0.25, batch_max_size=batch
            ),
        )
        job = self.region_job(system)
        system.run_for(2.0)
        out = system.elastic.set_channel_width(job.job_id, "region", 4)
        system.run_for(4.0)
        assert out.completed_at is not None
        victim = job.pe_of_operator("work__c1")
        victim.crash("test")
        system.chaos.inject(RestartPE(pe_index=victim.index), job=job)
        system.run_for(3.0)
        assert victim.is_running and victim.last_restore is not None
        back = system.elastic.set_channel_width(job.job_id, "region", 2)
        system.run_for(12.0)
        assert back.completed_at is not None

        # no tuple lost or duplicated
        sink = get_op(job, "sink")
        assert sorted(t["seq"] for t in sink.seen) == list(range(self.N))

        # per-port counters exist for every current port, are the objects
        # the tuple path increments, and sum to the aggregate — including
        # the ports a scale-in took away again
        processed = OperatorMetricName.N_TUPLES_PROCESSED
        submitted = OperatorMetricName.N_TUPLES_SUBMITTED
        splitter, merger = get_op(job, "region__split"), get_op(job, "region__merge")
        assert (splitter.n_outputs, merger.n_inputs) == (2, 2)
        assert set(self.per_port(splitter, submitted)) == {0, 1, 2, 3}
        assert set(self.per_port(merger, processed)) == {0, 1, 2, 3}
        for name in job.all_operator_names():
            op = get_op(job, name)
            for port in range(op.n_inputs):
                assert op._processed_by_port[port] is op.metric(processed, port=port)
            for port in range(op.n_outputs):
                assert op._submitted_by_port[port] is op.metric(submitted, port=port)
            # the restarted channel too: its counters restart with the instance
            for metric_name in (processed, submitted):
                total = op.metric(metric_name)
                assert sum(self.per_port(op, metric_name).values()) == total.value
                # a total is read-only: the tuple path bumps port counters only
                with pytest.raises(AttributeError):
                    total.value = 0
                with pytest.raises(AttributeError):
                    total.increment()
        assert splitter.metric(submitted).value == self.N
        assert merger.metric(processed).value == self.N
        assert get_op(job, "src").metric(submitted).value == self.N

        # every resolved hop, and every compiled dispatch, points at a live
        # object of the current plan
        assert_hops_live(job)


def hop_targets(hop):
    """What one compiled dispatch reaches: ``("local", operator)`` for a
    fused delivery, ``("remote", pe, operator name)`` for a send — read
    off the send's flow, whose destination PE must be the live one."""
    free = inspect.getclosurevars(hop).nonlocals
    if "flow" in free:  # a port whose only target is remote
        return [remote_target(free["flow"])]
    if "targets" not in free:
        return [("local", free["operator"])]
    reached = []
    for target in free["targets"]:
        if isinstance(target, partial):
            (flow,) = target.args
            reached.append(remote_target(flow))
        else:
            reached += hop_targets(target)
    return reached


def remote_target(flow):
    """``("remote", pe, operator name)`` for a flow; its keys name that PE."""
    assert isinstance(flow, Flow)
    dst_id = flow.dst_pe.pe_id
    assert flow.key == (flow.src_key, dst_id, flow.op_full_name, flow.port)
    assert flow.in_flight_key == (dst_id, flow.op_full_name, flow.port)
    assert flow.link_key == (flow.src_key, dst_id)
    return ("remote", flow.dst_pe, flow.op_full_name)


def assert_hops_live(job):
    """Every running PE's routes — resolved hops, compiled tuple dispatch
    and inbound deliveries — reach live objects of the current plan only."""
    for pe in job.pes:
        if not pe.is_running:
            continue
        for name, (operator, deliveries) in pe._inbound.items():
            assert operator is pe.operators.get(name)
            if operator is None:
                continue
            assert all(
                hop_targets(deliver) == [("local", operator)] for deliver in deliveries.values()
            )
        for operator in pe.operators.values():
            ports = operator.ctx.punct_fn.args[0]  # out port -> resolved hops
            planned = {e.src_port for e in job.compiled.application.graph.edges
                       if e.src.full_name == operator.ctx.full_name}
            assert planned <= {port for port, hops in ports.items() if hops}
            for port, hops in list(ports.items()):
                compiled = operator.ctx.hops[port]
                for dst_name, dst_port, local, flow in hops:
                    if local is not None:
                        assert local is pe.operators[dst_name]
                    else:
                        assert (flow.src_pe, flow.op_full_name, flow.port) == (
                            pe, dst_name, dst_port
                        )
                        assert flow.dst_pe in job.pes
                        assert flow.dst_pe.operators.get(dst_name) is not None
                reached = hop_targets(compiled)
                assert len(reached) == len(hops)
                for target in reached:
                    if target[0] == "local":
                        assert target[1] is pe.operators[target[1].ctx.full_name]
                    else:
                        assert target[1] in job.pes and target[1].is_running
                        assert target[1].operators.get(target[2]) is not None


class Traffic:
    """A counting reference for the compiled per-tuple path, recorded
    outside the PE: every ``Operator.submit`` (swallowed or not, by
    whether the PE was replaying) and every ``on_tuple`` entry with the
    tuple's size, by operator instance and port.  Installed before the
    system is built: compiled hops bind ``on_tuple`` at ``rebuild_routes()``.
    """

    def __init__(self, monkeypatch):
        self.emitted, self.muted, self.entered = Counter(), Counter(), Counter()
        self.bytes = Counter()  # pe id -> bytes of the tuples that entered there
        submit = Operator.submit

        def recording_submit(op, values, port=0):
            (self.muted if op.ctx.replaying else self.emitted)[op, port] += 1
            submit(op, values, port)

        monkeypatch.setattr(Operator, "submit", recording_submit)
        for cls in (CollectingOperator, Custom, Functor, Sink, Split):

            def entering(op, tup, port, _on_tuple=vars(cls)["on_tuple"]):
                self.entered[op, port] += 1
                self.bytes[op.ctx.pe_id] += tup.size_bytes
                _on_tuple(op, tup, port)

            monkeypatch.setattr(cls, "on_tuple", entering)

    def of_pe(self, counter, pe):
        return sum(n for (op, _), n in counter.items() if op.ctx.pe_id == pe.pe_id)

    def check(self, job, swallowed=None):
        """Every PE and operator counter equals the reference.

        ``swallowed``: pe id -> (tuples, bytes) delivered to a finalized
        operator — counted by the PE, never entering ``on_tuple``.
        """
        for pe in job.pes:
            extra, extra_bytes = (swallowed or {}).get(pe.pe_id, (0, 0))
            value = lambda name: pe.metrics.get(name).value  # noqa: E731
            assert value(PEMetricName.N_TUPLES_PROCESSED) == self.of_pe(self.entered, pe) + extra
            assert value(PEMetricName.N_TUPLE_BYTES_PROCESSED) == self.bytes[pe.pe_id] + extra_bytes
            assert value(PEMetricName.N_TUPLES_SUBMITTED) == self.of_pe(self.emitted, pe)
            for op in pe.operators.values():
                processed = [self.entered[op, port] for port in range(op.n_inputs)]
                submitted = [
                    self.emitted[op, port] + self.muted[op, port] for port in range(op.n_outputs)
                ]
                for port, n in enumerate(processed):
                    assert op.metric(OperatorMetricName.N_TUPLES_PROCESSED, port=port).value == n
                for port, n in enumerate(submitted):
                    assert op.metric(OperatorMetricName.N_TUPLES_SUBMITTED, port=port).value == n
                assert op.metric(OperatorMetricName.N_TUPLES_PROCESSED).value == sum(processed)
                assert op.metric(OperatorMetricName.N_TUPLES_SUBMITTED).value == sum(submitted)


@pytest.fixture
def traffic(monkeypatch):
    return Traffic(monkeypatch)


class TestCompiledHops:
    """``rebuild_routes()`` compiles each output port into one dispatch
    (a fused hop is one call from ``Operator.submit`` to ``on_tuple``) and
    each input port into one delivery that an arrival off the wire and
    ``receive`` share.  Judged by
    the counters they move against :class:`Traffic`, and by where they
    point after a crash and restart."""

    N = 40

    def test_fan_out_split_and_punctuation(self, traffic):
        """One port fanning out to a fused and a remote operator, a
        three-port ``Split``, WINDOW and FINAL through compiled hops, and a
        traced span per delivery."""
        system = SystemS(
            hosts=4, seed=42, config=SystemConfig(trace_enabled=True, trace_sample_every=1)
        )

        def windows(op, tup, port):
            op.submit(tup)
            if tup["iter"] % 5 == 4:
                op.submit_punct(Punctuation.WINDOW)

        app = Application("Fan")
        g = app.graph
        src = g.add_operator(
            "src", Beacon, params={"values": {"k": 1}, "limit": self.N, "period": 0.1},
            partition="head",
        )
        win = g.add_operator("win", Custom, params={"on_tuple_fn": windows}, partition="head")
        split = g.add_operator(
            "split", Split,
            params={"n_outputs": 3,
                    "router": lambda t: [0, 2] if t["iter"] % 4 == 0 else t["iter"] % 3},
            partition="head",
        )
        near = g.add_operator("near", CollectingOperator, partition="head")
        solo = g.add_operator("solo", CollectingOperator, partition="head")
        far = g.add_operator("far", CollectingOperator, params={"n_inputs": 2}, partition="tail")
        g.connect(src.oport(0), win.iport(0))
        g.connect(win.oport(0), split.iport(0))
        g.connect(split.oport(0), near.iport(0))
        g.connect(split.oport(0), far.iport(0))
        g.connect(split.oport(1), far.iport(1))
        g.connect(split.oport(2), solo.iport(0))
        job = system.submit_job(app)
        system.run_for(10.0)

        traffic.check(job)
        ops = {name: get_op(job, name) for name in ("split", "near", "far", "solo")}
        out = [traffic.emitted[ops["split"], port] for port in range(3)]
        assert out[0] and out[1] and out[2]
        assert traffic.entered[ops["near"], 0] == traffic.entered[ops["far"], 0] == out[0]
        assert traffic.entered[ops["far"], 1] == out[1]
        assert traffic.entered[ops["solo"], 0] == out[2]
        window, final = Punctuation.WINDOW, Punctuation.FINAL
        assert ops["near"].puncts == [(window, 0)] * (self.N // 5) + [(final, 0)]
        assert Counter(ops["far"].puncts) == {
            (window, 0): self.N // 5, (window, 1): self.N // 5, (final, 0): 1, (final, 1): 1,
        }
        for name, finals in (("near", 1), ("far", 2), ("solo", 1)):
            op = ops[name]
            assert op.finalized_called == 1 and op.is_finalized
            assert op.metric(OperatorMetricName.N_FINAL_PUNCTS_PROCESSED).value == finals
            assert op.metric(OperatorMetricName.N_PUNCTS_PROCESSED).value == len(op.puncts)
        for name in ("win", "split", "near", "far", "solo"):
            spans = system.obs.metrics.histogram("repro_tuple_latency_seconds", {"op": name})
            assert spans.total == sum(
                n for (op, _), n in traffic.entered.items() if op.ctx.full_name == name
            )

    @pytest.mark.parametrize("placement", ["fused", "remote"])
    def test_a_finalized_destination_counts_in_the_pe_only(self, traffic, placement):
        system = SystemS(hosts=4, seed=42)
        app = Application("Closed")
        g = app.graph
        a = g.add_operator(
            "a", Beacon, params={"limit": 3, "period": 0.1}, partition="one"
        )
        b = g.add_operator("b", Beacon, params={"period": 0.1}, partition="one")
        dst = g.add_operator(
            "dst", CollectingOperator, partition="one" if placement == "fused" else "two"
        )
        g.connect(a.oport(0), dst.iport(0))
        g.connect(b.oport(0), dst.iport(0))
        job = system.submit_job(app)
        system.run_for(3.0)

        closed = get_op(job, "dst")
        assert closed.is_finalized
        sent = sum(
            n for (op, _), n in traffic.emitted.items() if op.ctx.full_name in ("a", "b")
        )
        late = sent - traffic.entered[closed, 0]
        assert late > 10  # b kept sending after the FINAL closed dst's one port
        size = closed.tuples[0][0].size_bytes  # a Beacon tuple's size does not vary
        traffic.check(job, swallowed={closed.ctx.pe_id: (late, late * size)})
        assert closed.metric(OperatorMetricName.N_TUPLES_PROCESSED).value == len(closed.tuples)

    def test_replayed_emissions_are_swallowed_and_no_hop_outlives_a_crash(self, traffic):
        system = SystemS(
            hosts=4,
            seed=42,
            config=SystemConfig(delivery="exactly_once", checkpoint_interval=0.5),
        )
        app = Application("Replayed")
        g = app.graph
        src = g.add_operator(
            "src", Beacon, params={"limit": self.N * 2, "period": 0.05}, partition="feed"
        )
        mid = g.add_operator("mid", Functor, params={"fn": lambda t: t}, partition="work")
        post = g.add_operator("post", Functor, params={"fn": lambda t: t}, partition="work")
        sink = g.add_operator("sink", Sink, partition="out")
        g.connect(src.oport(0), mid.iport(0))
        g.connect(mid.oport(0), post.iport(0))
        g.connect(post.oport(0), sink.iport(0))
        job = system.submit_job(app)
        system.run_for(1.7)
        work = job.pe_of_operator("mid")
        dead = (get_op(job, "mid"), get_op(job, "post"))
        work.crash("test")
        system.chaos.inject(RestartPE(pe_index=work.index), job=job)
        system.run_for(8.0)

        live_mid = get_op(job, "mid")
        assert live_mid is not dead[0]
        assert traffic.muted[live_mid, 0] > 0  # the replay re-ran mid; its emissions stayed home
        traffic.check(job)
        assert sorted(t["iter"] for t in get_op(job, "sink").seen) == list(range(self.N * 2))
        assert hop_targets(live_mid.ctx.hops[0]) == [("local", get_op(job, "post"))]
        assert_hops_live(job)
        for old in dead:
            assert all(target[1] is not old for pe in job.pes for op in pe.operators.values()
                       for hop in op.ctx.hops.values() for target in hop_targets(hop))


class TestHopCounting:
    """A hop counts once, where it is compiled: the port's range is checked
    when its hop is compiled, for every way an operator emits."""

    @pytest.mark.parametrize("batch", [1, 8])
    def test_a_pe_hosted_operator_rejects_ports_out_of_range(self, batch):
        system = SystemS(hosts=4, seed=42, config=SystemConfig(batch_max_size=batch))
        job = system.submit_job(make_linear_app())
        system.run_for(2.0)
        op = get_op(job, "src")
        assert op.n_outputs == 1 and get_op(job, "sink").metric(
            OperatorMetricName.N_TUPLES_PROCESSED
        ).value > 0
        before = op.metric(OperatorMetricName.N_TUPLES_SUBMITTED).value
        for port in (op.n_outputs, -1):
            for item in ({"x": 1}, StreamTuple({"x": 1})):
                with pytest.raises(GraphError):
                    op.submit(item, port=port)
                with pytest.raises(GraphError):
                    op.submit_batch([item], port=port)
            with pytest.raises(GraphError):
                op.submit_punct(Punctuation.WINDOW, port=port)
            assert port not in op.ctx.hops  # a refused port compiles nothing
        assert op.metric(OperatorMetricName.N_TUPLES_SUBMITTED).value == before


class TestHopBudget:
    """Python calls per tuple on the per-tuple path, counted with
    ``sys.setprofile`` over bench's pipe shape: ``CallbackSource ->
    Functor -> Filter`` on one PE, ``KeyedCounter`` on a second and
    ``Sink`` on a third, best effort, one tuple per tick and per unit.
    Each hop counts once, in the hop compiled for its port; a check or
    counter back in ``submit``, or a frame per scheduled handle, per
    dispatched event's clock advance or per arrival's state test, shows
    here.  47.37 on CPython 3.11 (56.68 while ``submit`` checked and
    counted every emission and a handle had an ``__init__``); the
    budget is that count rounded up."""

    N = 2_000
    BUDGET = 48

    def test_calls_per_tuple(self):
        def feed(now, count):
            return [{"key": f"k{count % 64}", "v": count % 10}]

        app = Application("Budget")
        g = app.graph
        src = g.add_operator(
            "src", CallbackSource, params={"generator": feed, "period": 0.001}, partition="feed"
        )
        parse = g.add_operator(
            "parse", Functor, params={"fn": lambda t: t.with_values(w=t["v"] * 2)},
            partition="feed",
        )
        keep = g.add_operator(
            "keep", Filter, params={"predicate": lambda t: t["v"] < 9}, partition="feed"
        )
        count = g.add_operator("count", KeyedCounter, params={"key": "key"}, partition="work")
        sink = g.add_operator(
            "sink", Sink, params={"record": False, "consumer": lambda t: None}, partition="out"
        )
        for up, down in ((src, parse), (parse, keep), (keep, count), (count, sink)):
            g.connect(up.oport(0), down.iport(0))
        system = SystemS(hosts=4, seed=42, config=SystemConfig(batch_max_size=1))
        job = system.submit_job(app)
        system.run_for(0.5)  # deploy, and the first tuples through
        source, counted = get_op(job, "src"), get_op(job, "count")
        start = (source.emitted, counted.metric(OperatorMetricName.N_TUPLES_PROCESSED).value)
        assert start[1] > 0

        events = Counter()

        def profile(frame, event, arg):
            events[event] += 1

        sys.setprofile(profile)
        try:
            system.run_for(self.N * 0.001)
        finally:
            sys.setprofile(None)
        emitted = source.emitted - start[0]
        assert abs(emitted - self.N) <= 1  # tick instants against the horizon
        assert counted.metric(OperatorMetricName.N_TUPLES_PROCESSED).value - start[1] > 0.85 * emitted
        per_tuple = events["call"] / emitted
        assert per_tuple <= self.BUDGET, f"{per_tuple:.2f} Python calls per tuple"


class TestRouting:
    def test_intra_pe_is_synchronous(self, system):
        app = make_filter_app()  # all in one PE (untagged -> wait, singleton PEs)
        # untagged operators get singleton PEs in manual mode; fuse them:
        for spec in app.graph.operators.values():
            spec.partition = "one"
        job = system.submit_job(app)
        system.run_for(2.1)
        assert len(job.pes) == 1
        # transport was never used for this job's edges
        assert system.transport.total_sent == 0

    def test_inter_pe_has_latency_and_accounting(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(5.0)
        assert system.transport.total_sent > 0
        assert system.transport.total_delivered > 0

    def test_tuples_to_crashed_pe_are_dropped(self, system):
        job = system.submit_job(make_linear_app(period=0.5))
        system.run_for(5.0)
        job.pe_of_operator("sink").crash("test")
        system.run_for(5.0)
        assert system.transport.total_dropped > 0

    def test_queue_metrics_updated_by_hc(self, system):
        job = system.submit_job(make_linear_app(per_tick=5, period=0.1))
        system.run_for(10.0)
        sink_op = get_op(job, "sink")
        # gauge exists at both operator and port scope
        assert sink_op.metrics.has(OperatorMetricName.QUEUE_SIZE)
        assert sink_op.metrics.has(OperatorMetricName.QUEUE_SIZE, port=0)

    def test_pe_byte_metrics_grow(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(10.0)
        pe = job.pe_of_operator("sink")
        assert pe.metrics.get(PEMetricName.N_TUPLES_PROCESSED).value > 0
        assert pe.metrics.get(PEMetricName.N_TUPLE_BYTES_PROCESSED).value > 0

    def test_send_control_reaches_operator(self, system):
        job = system.submit_job(make_filter_app(threshold=100))
        system.run_for(3.0)
        pe = job.pe_of_operator("filt")
        pe.send_control("filt", "setPredicate", {"predicate": lambda t: True})
        system.run_for(5.0)
        assert len(get_op(job, "sink").seen) > 0

    def test_send_control_unknown_operator(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(1.0)
        with pytest.raises(PEControlError):
            job.pes[0].send_control("ghost", "cmd", {})


class TestJobQueries:
    def test_pe_lookup_by_index_and_id(self, system):
        job = system.submit_job(make_linear_app())
        pe = job.pes[0]
        assert job.pe_by_index(pe.index) is pe
        assert job.pe_by_id(pe.pe_id) is pe

    def test_unknown_pe_raises(self, system):
        from repro.errors import UnknownPEError

        job = system.submit_job(make_linear_app())
        with pytest.raises(UnknownPEError):
            job.pe_by_index(99)
        with pytest.raises(UnknownPEError):
            job.pe_by_id("pe_999")

    def test_operator_instance_none_when_down(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(1.0)
        job.pe_of_operator("sink").crash("x")
        assert job.operator_instance("sink") is None

    def test_all_operator_names(self, system):
        job = system.submit_job(make_linear_app())
        assert set(job.all_operator_names()) == {"src", "sink"}


class TestCrashInFlightAccounting:
    """Items in flight toward a crashed PE die with the process (satellite
    of the chaos PR): they are counted in ``dropped_in_flight`` and never
    delivered to the restarted incarnation."""

    def test_in_flight_items_dropped_on_crash(self, system):
        job = system.submit_job(make_linear_app(period=0.5))
        system.run_for(2.1)
        src_pe = job.pe_of_operator("src")
        sink_pe = job.pe_of_operator("sink")
        # put an item in flight by hand, then crash the destination and
        # restart it *before* the delivery time: the item must not leak
        # into the new incarnation
        from repro.spl.tuples import StreamTuple

        system.transport.send(
            sink_pe, "sink", 0, StreamTuple({"k": 99}), src_pe=src_pe
        )
        sink_pe.crash("test")
        sink_pe.restart()
        before = len(get_op(job, "sink").seen)
        system.run_for(0.5)
        assert system.transport.dropped_in_flight >= 1
        assert all(t.get("k") != 99 for t in get_op(job, "sink").seen[before:])

    def test_post_crash_sends_still_count_total_dropped(self, system):
        job = system.submit_job(make_linear_app(period=0.5))
        system.run_for(2.1)
        job.pe_of_operator("sink").crash("test")
        system.run_for(3.0)  # source keeps routing to the dead PE
        assert system.transport.total_dropped > 0


class TestLinkFaults:
    def test_latency_spike_delays_delivery(self, system):
        job = system.submit_job(make_linear_app(period=0.5))
        system.run_for(2.1)
        sink_pe = job.pe_of_operator("sink")
        received_before = len(get_op(job, "sink").seen)
        system.transport.install_link_fault(
            extra_latency=0.4, dst_pe=sink_pe.pe_id, duration=1.0
        )
        # a tick lands inside the spike: its delivery shifts ~0.4s
        system.run_for(0.45)
        count_mid = len(get_op(job, "sink").seen)
        system.run_for(2.0)
        assert len(get_op(job, "sink").seen) > count_mid >= received_before

    def test_partition_holds_and_flushes_without_loss(self, system):
        job = system.submit_job(make_linear_app(period=0.2, limit=20))
        system.run_for(1.05)
        sink_pe = job.pe_of_operator("sink")
        fault = system.transport.install_link_fault(
            partition=True, dst_pe=sink_pe.pe_id, duration=2.0
        )
        held_at = len(get_op(job, "sink").seen)
        system.run_for(1.9)  # inside the partition: nothing arrives
        assert len(get_op(job, "sink").seen) == held_at
        system.run_for(10.0)  # healed: everything flushes in order
        seen = [t["iter"] for t in get_op(job, "sink").seen]
        assert seen == list(range(20))
        assert system.transport.dropped_by_fault == 0

    def test_lossy_link_drops_deterministically(self):
        from repro import SystemS

        def run(seed):
            system = SystemS(hosts=4, seed=seed)
            job = system.submit_job(make_linear_app(period=0.1, limit=50))
            system.run_for(0.5)
            system.transport.install_link_fault(
                drop_probability=0.5, duration=3.0
            )
            system.run_for(20.0)
            return (
                system.transport.dropped_by_fault,
                [t["iter"] for t in get_op(job, "sink").seen],
            )

        dropped_a, seen_a = run(7)
        dropped_b, seen_b = run(7)
        assert dropped_a > 0
        assert (dropped_a, seen_a) == (dropped_b, seen_b)  # seeded determinism

    def test_fault_expiry_keeps_per_link_fifo(self, system):
        """A spike expiring mid-stream must not reorder a connection."""
        job = system.submit_job(make_linear_app(period=0.05, limit=40))
        system.run_for(1.02)
        sink_pe = job.pe_of_operator("sink")
        system.transport.install_link_fault(
            extra_latency=0.3, dst_pe=sink_pe.pe_id, duration=0.2
        )
        system.run_for(10.0)
        seen = [t["iter"] for t in get_op(job, "sink").seen]
        assert seen == sorted(seen)  # FIFO preserved across the expiry
        assert len(seen) == 40  # and nothing was lost

    def test_clear_link_fault_heals_early(self, system):
        """A fault's lifetime is fixed at install, so an early heal is a
        short ``duration``: the fault leaves the active set at
        ``now + duration``, and not sooner."""
        system.submit_job(make_linear_app(period=0.2))
        system.run_for(1.05)
        system.transport.install_link_fault(extra_latency=5.0, duration=0.5)
        assert len(system.transport.active_link_faults()) == 1
        system.run_for(0.4)
        assert len(system.transport.active_link_faults()) == 1
        system.run_for(0.1)
        assert system.transport.active_link_faults() == []

    @pytest.mark.parametrize("duration", [None, 0.0, -1.0, math.inf, math.nan])
    def test_a_fault_without_a_finite_positive_duration_is_rejected(
        self, system, duration
    ):
        kwargs = {} if duration is None else {"duration": duration}
        with pytest.raises(ValueError, match="finite duration"):
            system.transport.install_link_fault(partition=True, **kwargs)
        assert system.transport.active_link_faults() == []

    def test_untimed_partition_flushes_on_clear(self, system):
        """Units held by a partition arrive one hop after it heals, in
        order, and the link is immediately usable again (regression: the
        hold must not poison the FIFO horizon)."""
        job = system.submit_job(make_linear_app(period=0.2, limit=30))
        system.run_for(1.05)
        sink_pe = job.pe_of_operator("sink")
        system.transport.install_link_fault(
            partition=True, dst_pe=sink_pe.pe_id, duration=2.0
        )
        held_at = len(get_op(job, "sink").seen)
        system.run_for(2.0)
        assert len(get_op(job, "sink").seen) == held_at  # all held
        system.run_for(10.0)  # delivered AND new sends flow normally
        seen = [t["iter"] for t in get_op(job, "sink").seen]
        assert seen == list(range(30))

    def test_flush_respects_still_open_timed_partition(self, system):
        """Items held by a partition that heals first must still honor
        another partition that remains in force on the same link: a unit
        arrives one hop after the latest heal of its link's partitions."""
        job = system.submit_job(make_linear_app(period=0.2, limit=10))
        system.run_for(1.05)
        sink_pe = job.pe_of_operator("sink")
        for duration in (1.0, 3.0):
            system.transport.install_link_fault(
                partition=True, dst_pe=sink_pe.pe_id, duration=duration
            )
        held_at = len(get_op(job, "sink").seen)
        system.run_for(2.0)  # short one healed, long one up: nothing arrives
        assert len(get_op(job, "sink").seen) == held_at
        system.run_for(10.0)  # long partition healed: everything arrives
        seen = [t["iter"] for t in get_op(job, "sink").seen]
        assert seen == list(range(10))


class TestOneWire:
    """Each wire mechanism exists once under ``src/repro/runtime/``.

    Structural, like ``test_runtime_events.TestOneMechanism``: the
    link-fault pipeline used to be spelled out in four functions and the
    arrival tail in three; a fifth copy of either must fail here, not in
    a golden three PRs later.
    """

    @staticmethod
    def _functions():
        """``(qualified name, FunctionDef)`` for every function of the package."""
        import repro.runtime

        package = pathlib.Path(repro.runtime.__file__).parent
        return [
            (name, node)
            for path in sorted(package.glob("*.py"))
            for _, name, node in functions_under(path)
        ]

    @classmethod
    def _where(cls, matches):
        """Names of the functions with a node for which ``matches`` is true."""
        return [
            name
            for name, function in cls._functions()
            if any(matches(node) for node in ast.walk(function))
        ]

    @staticmethod
    def _reads(attr):
        return lambda node: isinstance(node, ast.Attribute) and node.attr == attr

    _calls = staticmethod(calls)

    def test_link_faults_are_composed_in_one_function(self):
        assert self._where(self._reads("extra_latency")) == ["Transport._compose"]
        # expiry and the composition are the only readers of a fault's
        # deadline: every fault ends on its own, so nothing else asks
        assert sorted(self._where(self._reads("until"))) == [
            "Transport._compose",
            "Transport._prune_faults",
        ]

    def test_one_hold_queue_entry_type_built_and_parked_in_one_function(self):
        """There is no hold queue: a partitioned unit is scheduled for one
        hop after the heal when it goes onto the wire, like every other
        unit."""
        import repro.runtime.transport as transport_module

        assert not hasattr(transport_module, "_HeldUnit")
        assert self._where(self._reads("_held")) == []
        # and nothing is left that indexes a wire entry by position
        positional = self._where(
            lambda node: isinstance(node, ast.Subscript)
            and getattr(node.value, "id", None) in ("entry", "unit")
        )
        assert positional == []

    def test_one_hand_over_and_one_in_flight_decrement(self):
        assert self._where(self._calls("DeliveryRecord")) == ["Transport._hand_over"]

        def hands_to_a_pe(node):
            """A call of a PE's ``receive``, or a read of the compiled
            deliveries of an object other than ``self``."""
            return self._calls("receive")(node) or (
                isinstance(node, ast.Attribute)
                and node.attr == "_inbound"
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            )

        assert self._where(hands_to_a_pe) == ["Transport._hand_over"]
        pops_in_flight = self._where(
            lambda node: self._calls("pop")(node)
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "_in_flight"
        )
        assert pops_in_flight == ["Transport._dec_in_flight"]

    def test_the_twins_are_gone(self):
        from repro.runtime.delivery import DeliveryPlane
        from repro.runtime.transport import Transport

        for twin in (
            "_deliver_batch",
            "_append_to_batch",
            "_resend_held",
            "_schedule_delivery",
        ):
            assert not hasattr(Transport, twin), twin
        assert not hasattr(DeliveryPlane, "_hand_over")
        # what is left of _transmit is its drop policy: no composition,
        # no hold queue
        transmit = dict(self._functions())["DeliveryPlane._transmit"]
        attrs = {n.attr for n in ast.walk(transmit) if isinstance(n, ast.Attribute)}
        assert not attrs & {"extra_latency", "partition", "until", "_held"}
        assert "_put_on_wire" in attrs


class TestOneLinkTable:
    """What the runtime remembers about a connection lives in one record.

    Structural, like :class:`TestOneWire`: the eight link-keyed dicts on
    two objects were kept in step by ten scans and forgotten by two
    rules; a ninth dict, an eleventh scan or a second way out of the
    table must fail here.
    """

    _where = TestOneWire._where
    _calls = staticmethod(calls)

    def test_the_table_is_the_only_link_keyed_container(self):
        from repro.runtime.delivery import DeliveryPlane, LinkRecord

        system = SystemS(
            hosts=4,
            seed=42,
            config=SystemConfig(delivery="exactly_once", checkpoint_interval=0.25),
        )
        job = system.submit_job(make_linear_app(period=0.01, per_tick=4))
        system.run_for(1.0)
        job.pe_of_operator("sink").crash("probe")  # reorder / replay get used
        job.pe_of_operator("sink").restart()
        system.run_for(1.0)
        transport = system.transport
        assert transport.links
        for owner in (transport, transport.reliability):
            for name, value in vars(owner).items():
                if name != "links" and isinstance(value, dict):
                    assert not set(value) & set(transport.links), name
        for owner, gone in (
            (transport, ("_fifo_horizon", "_link_send_seq")),
            (
                transport.reliability,
                (
                    "delivered_wm", "reorder", "replay_buffer", "truncated_to",
                    "stalled", "committing_pes", "replay_buffer_max_bytes",
                ),
            ),
        ):
            for name in gone:
                assert not hasattr(owner, name), name
        # the epoch is the one bound on replay history: no byte cap, no
        # stall queue on the record
        assert "stalled" not in LinkRecord.__slots__
        assert not hasattr(transport, "replay_stalls")
        # kept readable for the frozen benchmark, derived from the table
        assert isinstance(vars(DeliveryPlane)["replay_bytes"], property)
        assert transport.reliability.replay_bytes == {
            key: link.replay_bytes for key, link in transport.links.items()
        }

    def test_no_comprehension_scans_for_the_links_of_a_pe(self):
        def filters_on_an_end_of_a_link_key(node):
            return isinstance(node, ast.comprehension) and any(
                isinstance(test, ast.Subscript)
                and isinstance(test.slice, ast.Constant)
                and test.slice.value in (0, 1)
                for condition in node.ifs
                for test in ast.walk(condition)
            )

        # the two hits left pick tuples that are not link keys: a job's
        # (job id, operator) exports and the open batches' flows
        assert self._where(filters_on_an_end_of_a_link_key) == [
            "ImportExportRegistry.disconnect_job",
            "Transport.flush_open_batches",
        ]

    def test_records_enter_and_leave_the_table_in_one_function_each(self):
        def touches_links(node):
            return isinstance(node, ast.Attribute) and node.attr == "links"

        def removes(node):
            target = None
            if isinstance(node, ast.Delete):
                target = node.targets[0].value if isinstance(
                    node.targets[0], ast.Subscript
                ) else None
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
                "pop", "popitem", "clear",
            ):
                target = node.func.value
            return target is not None and touches_links(target)

        def stores(node):
            return isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Subscript) and touches_links(target.value)
                for target in node.targets
            )

        assert self._where(removes) == ["Transport._retire"]
        assert self._where(stores) == ["Transport._open_link"]
        assert self._where(self._calls("LinkRecord")) == ["Transport._open_link"]
        assert sorted(self._where(self._calls("_open_link"))) == [
            "DeliveryPlane._admit",
            "Transport._commit",
        ]

    def test_one_forget_reached_from_scale_in_and_from_cancellation(self):
        def transport_forget(node):
            return self._calls("forget_pe")(node) and (
                getattr(node.func.value, "attr", None) == "transport"
            )

        assert self._where(transport_forget) == ["SAM._discard_pes"]
        assert sorted(self._where(self._calls("_discard_pes"))) == [
            "SAM.cancel_job",
            "SAM.remove_pes",
        ]
        from repro.runtime.delivery import DeliveryPlane

        assert not hasattr(DeliveryPlane, "forget_pe")
