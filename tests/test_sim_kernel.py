"""Tests for the discrete-event kernel and clock."""

from collections import defaultdict
from functools import partial

import pytest
from hypothesis import given, strategies as st

from repro.runtime.exec.wallclock import WallClockExecutor
from repro.sim.clock import Clock
from repro.sim.kernel import Kernel, ScheduledEvent
from repro.sim.rand import RandomStreams

from tests.conftest import example_budget


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_custom_start(self):
        assert Clock(5.0).now == 5.0

    def test_advance(self):
        clock = Clock()
        clock._advance_to(3.5)
        assert clock.now == 3.5

    def test_cannot_go_backwards(self):
        clock = Clock(10.0)
        with pytest.raises(ValueError):
            clock._advance_to(9.0)


class TestKernelScheduling:
    def test_schedule_and_run(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, "a")
        kernel.schedule(2.0, fired.append, "b")
        kernel.run_until(5.0)
        assert fired == ["a", "b"]
        assert kernel.now == 5.0

    def test_order_by_time(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(3.0, fired.append, 3)
        kernel.schedule(1.0, fired.append, 1)
        kernel.schedule(2.0, fired.append, 2)
        kernel.run_until(10.0)
        assert fired == [1, 2, 3]

    def test_ties_broken_by_scheduling_order(self):
        kernel = Kernel()
        fired = []
        for i in range(10):
            kernel.schedule(1.0, fired.append, i)
        kernel.run_until(1.0)
        assert fired == list(range(10))

    def test_negative_delay_rejected(self):
        kernel = Kernel()
        with pytest.raises(ValueError):
            kernel.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        kernel = Kernel()
        kernel.run_until(5.0)
        with pytest.raises(ValueError):
            kernel.schedule_at(4.0, lambda: None)

    def test_run_until_past_rejected(self):
        kernel = Kernel()
        kernel.run_until(5.0)
        with pytest.raises(ValueError):
            kernel.run_until(4.0)

    def test_cancellation(self):
        kernel = Kernel()
        fired = []
        handle = kernel.schedule(1.0, fired.append, "x")
        handle.cancel()
        kernel.run_until(2.0)
        assert fired == []

    def test_cancel_idempotent(self):
        kernel = Kernel()
        handle = kernel.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_clock_advances_only_to_event_times(self):
        kernel = Kernel()
        times = []
        kernel.schedule(1.5, lambda: times.append(kernel.now))
        kernel.schedule(2.5, lambda: times.append(kernel.now))
        kernel.run_until(4.0)
        assert times == [1.5, 2.5]

    def test_events_scheduled_during_run_execute_in_same_run(self):
        kernel = Kernel()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                kernel.schedule(1.0, chain, n + 1)

        kernel.schedule(1.0, chain, 0)
        kernel.run_until(10.0)
        assert fired == [0, 1, 2, 3]

    def test_events_beyond_horizon_not_executed(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(5.0, fired.append, "late")
        kernel.run_until(4.9)
        assert fired == []
        kernel.run_until(5.0)
        assert fired == ["late"]

    def test_call_soon_runs_at_current_time(self):
        kernel = Kernel()
        kernel.run_until(2.0)
        fired = []
        kernel.call_soon(lambda: fired.append(kernel.now))
        kernel.run_until(2.0)
        assert fired == [2.0]

    def test_run_for(self):
        kernel = Kernel()
        kernel.run_for(3.0)
        kernel.run_for(2.0)
        assert kernel.now == 5.0

    def test_step(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, 1)
        kernel.schedule(2.0, fired.append, 2)
        assert kernel.step() is True
        assert fired == [1]
        assert kernel.step() is True
        assert kernel.step() is False

    def test_run_drains_queue(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, 1)
        kernel.run()
        assert fired == [1]

    def test_run_guards_against_unbounded_chains(self):
        kernel = Kernel()

        def forever():
            kernel.schedule(1.0, forever)

        kernel.schedule(1.0, forever)
        with pytest.raises(RuntimeError):
            kernel.run(max_events=100)

    def test_pending_count_excludes_cancelled(self):
        kernel = Kernel()
        kernel.schedule(1.0, lambda: None)
        handle = kernel.schedule(2.0, lambda: None)
        handle.cancel()
        assert kernel.pending_count() == 1

    def test_events_processed_counter(self):
        kernel = Kernel()
        for _ in range(5):
            kernel.schedule(1.0, lambda: None)
        kernel.run_until(2.0)
        assert kernel.events_processed == 5

    def test_args_passed_through(self):
        kernel = Kernel()
        seen = []
        kernel.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        kernel.run_until(1.0)
        assert seen == [(1, "x")]

    def test_determinism_across_instances(self):
        def run():
            kernel = Kernel()
            log = []

            def emit(tag):
                log.append((kernel.now, tag))
                if kernel.now < 5:
                    kernel.schedule(1.0, emit, tag)

            kernel.schedule(0.5, emit, "a")
            kernel.schedule(0.5, emit, "b")
            kernel.run_until(6.0)
            return log

        assert run() == run()


#: one step of a schedule program: the index of the handle whose callback
#: runs it (-1: before the run), the call, a delay / offset, and which
#: earlier handle a ``cancel`` picks
STEPS = st.tuples(
    st.integers(-1, 11),
    st.sampled_from(("schedule", "schedule_at", "call_soon", "cancel")),
    st.sampled_from((0.0, 0.25, 1.0)),
    st.integers(0, 63),
)


class TestKernelOrderProperty:
    """The heap holds ``(time, seq, handle)`` entries: whatever the
    interleaving of ``schedule`` / ``schedule_at`` / ``call_soon`` /
    ``cancel``, from outside the loop or from callbacks, the handles that
    run are every handle not cancelled before it ran, in ``(time, seq)``
    order.  On the wall clock every ``schedule_at`` deadline is overdue
    (absolute times near 0, or the firing event's own deadline), so the
    heap, not the clock, decides the order there too."""

    @pytest.mark.parametrize("backend", ["sim", "wallclock"])
    @example_budget("wire-ci", 60)
    @given(program=st.lists(STEPS, max_size=40))
    def test_dispatch_is_time_then_sequence_order(self, backend, program):
        kernel = Kernel() if backend == "sim" else WallClockExecutor(time_scale=1000.0)
        handles, fired, tapped, doomed = [], [], [], set()
        kernel.event_tap = tapped.append
        steps_of = defaultdict(list)
        for parent, call, delay, pick in program:
            steps_of[parent].append((call, delay, pick))

        def apply(steps, base):
            for call, delay, pick in steps:
                if call == "cancel":
                    if handles:
                        handle = handles[pick % len(handles)]
                        if not handle.fired:
                            doomed.add(handle)
                        handle.cancel()
                    continue
                callback = partial(fire, len(handles))
                if call == "schedule":
                    handles.append(kernel.schedule(delay, callback))
                elif call == "schedule_at":
                    handles.append(kernel.schedule_at(base + delay, callback))
                else:
                    handles.append(kernel.call_soon(callback))

        def fire(index):
            handle = handles[index]
            fired.append(handle)
            apply(steps_of[index], handle.time)

        def outstanding():
            return sum(1 for handle in handles if not (handle.fired or handle.cancelled))

        apply(steps_of[-1], 0.0)
        assert kernel.pending_count() == outstanding()
        kernel.run_until(kernel.now + 0.5)
        assert kernel.pending_count() == outstanding()
        while kernel.pending_count():
            kernel.run_until(kernel.now + 2.0)

        expected = [handle for handle in handles if handle not in doomed]
        assert fired == sorted(expected, key=lambda handle: (handle.time, handle.seq))
        assert tapped == fired
        assert all(type(handle) is ScheduledEvent for handle in tapped)
        assert outstanding() == 0


class TestRandomStreams:
    def test_same_name_same_stream(self):
        streams = RandomStreams(1)
        assert streams.stream("a") is streams.stream("a")

    def test_deterministic_across_instances(self):
        a = RandomStreams(7).stream("x")
        b = RandomStreams(7).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent(self):
        streams = RandomStreams(7)
        first = streams.stream("one")
        values_before = [first.random() for _ in range(3)]
        # Drawing from another stream must not perturb the first.
        streams2 = RandomStreams(7)
        other = streams2.stream("two")
        _ = [other.random() for _ in range(100)]
        first2 = streams2.stream("one")
        values_after = [first2.random() for _ in range(3)]
        assert values_before == values_after

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x").random()
        b = RandomStreams(2).stream("x").random()
        assert a != b

    def test_reset_recreates_from_seed(self):
        streams = RandomStreams(3)
        first = streams.stream("s").random()
        streams.reset()
        assert streams.stream("s").random() == first
