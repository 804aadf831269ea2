"""Property tests for the wire: random fault / send / crash schedules.

The delivery layer's example tests pin chosen scenarios; these let
``hypothesis`` choose them.  One schedule language (sends and punctuation
on two links into one input port, lossy / slow / partitioned links in
both directions, short and long, waits for any fault's heal, destination
crashes and restarts, any of the three PEs removed for good) is
interpreted on a fresh three-PE system per example, run past every heal
to quiescence, and judged by what each delivery mode promises:

* ``best_effort`` — every sent member is accounted for exactly once
  (``total_sent == total_delivered + total_dropped + dropped_in_flight +
  dropped_by_fault``), nothing stays in flight, per-link FIFO holds;
* ``at_least_once`` — nothing stays in flight and every unit reaches the
  application at least once;
* ``exactly_once`` — per-link FIFO, zero loss and zero duplicates, with
  lossy faults left up across a restart (replay copies retry);
* every mode, after every step — nothing the wire remembers names a
  removed PE (:meth:`WireRun.assert_removed_pes_are_forgotten`); the
  promises above then hold for the links still in the table (a link
  dropped with one of its ends took its unacknowledged units along);
* every mode — a run of ``send_batch([t])`` calls is indistinguishable
  from the same run of ``send(t)`` calls: same tap records, same
  counters, same seeded-RNG end states (a unit of one *is* the single
  send, not a lookalike);
* every mode — so is the same run sent through the source PEs' compiled
  port hops and punctuation routes, which carry the flow their PE
  resolved once: the compiled remote hop *is* ``Transport.send``;
* ``exactly_once`` — acknowledged history is data: no tuple object is
  reachable from a link's replay buffer, and every tuple a restarted PE
  is handed again equals the one sent (:class:`TestReplayHistoryIsData`).

One application-level cell rides along: a restarted exactly-once sink
replays into its record but calls its consumer once per tuple
(:class:`TestRestartedSinkConsumesOnce`).

Tier-1 runs a small example budget; the CI ``delivery-matrix`` job runs
the same properties under ``--hypothesis-profile=wire-ci`` (registered in
``tests/conftest.py``).
"""

from __future__ import annotations

import gc

from hypothesis import example, given, strategies as st

from repro import SystemConfig, SystemS
from repro.chaos.fuzz.oracles import FifoProbe
from repro.runtime.delivery import PendingEntry
from repro.spl.application import Application
from repro.spl.library import CallbackSource, KeyedCounter, Sink
from repro.spl.tuples import StreamTuple, TupleBatch, WindowMarker

from tests.conftest import example_budget
from tests.test_wire_golden import COUNTERS, DELIVERIES, _rng_hash, fan_in_app


BUDGET = example_budget("wire-ci", tier1=25)

LINKS = (0, 1)
#: which link(s) a fault covers: both forward links, one of them, or the
#: reverse direction the acks travel
SELECTORS = ("dst", "left", "right", "reverse")
#: every fault ends on its own; the longest outlasts most schedules, so
#: a ``heal`` step (or the end of the schedule) is what waits for it
DURATIONS = (0.05, 0.5, 5.0)

sends = st.tuples(st.just("send"), st.sampled_from(LINKS), st.integers(1, 6))
runs = st.tuples(st.just("run"), st.sampled_from((0.0005, 0.004, 0.05, 0.4)))
faults = st.tuples(
    st.just("fault"),
    st.sampled_from(
        (
            {"drop_probability": 0.3},
            {"drop_probability": 1.0},
            {"extra_latency": 0.004},
            {"extra_latency": 0.06},
            {"partition": True},
        )
    ),
    st.sampled_from(SELECTORS),
    st.sampled_from(DURATIONS),
)
#: sends, runs and faults are listed twice: a schedule is mostly traffic
#: under faults, with the occasional heal, marker, crash and restart
steps = st.one_of(
    sends,
    runs,
    faults,
    sends,
    runs,
    faults,
    st.tuples(st.just("punct"), st.sampled_from(LINKS)),
    st.tuples(st.just("heal"), st.integers(0, 7)),
    st.tuples(st.just("crash")),
    st.tuples(st.just("restart")),
    st.tuples(st.just("remove_pe"), st.sampled_from(("left", "right", "sink"))),
)
schedules = st.lists(steps, min_size=8, max_size=40)


class WireRun:
    """One schedule interpreted on a fresh system, run to quiescence."""

    #: the three ways a tuple gets onto the wire: the public single send,
    #: the public run of one, and the source PE's compiled port hop
    VIAS = ("send", "send_batch", "hop")

    def __init__(self, delivery, batch_max_size, schedule, via="send"):
        self.system = SystemS(
            hosts=4,
            seed=42,
            config=SystemConfig(
                delivery=delivery, batch_max_size=batch_max_size, batch_linger=0.002
            ),
        )
        job = self.job = self.system.submit_job(fan_in_app())
        self.system.run_for(0.5)
        self.transport = self.system.transport
        self.sources = (job.pe_of_operator("left"), job.pe_of_operator("right"))
        self.sink_pe = job.pe_of_operator("sink")
        #: ids of the PEs a ``remove_pe`` step took out of the job
        self.removed = set()
        self.via = via
        self.records = []
        self.transport.delivery_taps.append(self.records.append)
        self.fifo = FifoProbe(self.transport)
        if via == "hop":
            # the compiled routes must not reach through the public entry
            self.transport.send = self.transport.send_batch = self._not_a_hop
        self.faults = []
        self.sent = 0
        #: every tuple sent, by its ``iter``
        self.originals = {}
        #: ``(redelivery, tuple)`` for every tuple the sink PE was handed
        self.handed = []
        self.transport._hand_over = self._tee(self.transport._hand_over)
        for step in schedule:
            getattr(self, "_" + step[0])(*step[1:])
            self.assert_removed_pes_are_forgotten()
        self.system.run_until(max([self.system.now] + [f.until for f in self.faults]))
        self._restart()
        self.system.run_for(30.0)
        self.assert_removed_pes_are_forgotten()

    def _tee(self, hand_over):
        """Record every tuple the transport hands to the sink PE."""

        def tee(flow, payload, first_seq, count, redelivery=False):
            if flow.dst_pe is self.sink_pe and isinstance(payload, (StreamTuple, TupleBatch)):
                members = payload.tuples if isinstance(payload, TupleBatch) else [payload]
                self.handed += [(redelivery, tup) for tup in members]
            hand_over(flow, payload, first_seq, count, redelivery)

        return tee

    @staticmethod
    def _not_a_hop(*_args, **_kwargs):
        raise AssertionError("a compiled hop went through Transport.send")

    def _source_ctx(self, link):
        """The context of the source operator on ``link`` (its PE's routes)."""
        return self.sources[link].operators[("left", "right")[link]].ctx

    def _link_exists(self, link):
        """Both ends still in the job: a removed PE neither sends nor is sent to."""
        return not {self.sources[link].pe_id, self.sink_pe.pe_id} & self.removed

    def _send(self, link, n):
        if not self._link_exists(link):
            return
        for _ in range(n):
            tup = StreamTuple(
                {"iter": self.sent},
                created_at=self.system.now,
                traced=self.sent % 2 == 0,
            )
            self.originals[self.sent] = tup
            self.sent += 1
            if self.via == "hop":
                self._source_ctx(link).hops[0](tup)
            elif self.via == "send_batch":
                self.transport.send_batch(
                    self.sink_pe, "sink", 0, [tup], src_pe=self.sources[link]
                )
            else:
                self.transport.send(
                    self.sink_pe, "sink", 0, tup, src_pe=self.sources[link]
                )

    def _punct(self, link):
        if not self._link_exists(link):
            return
        if self.via == "hop":
            self._source_ctx(link).punct_fn(0, WindowMarker)
            return
        self.transport.send(
            self.sink_pe, "sink", 0, WindowMarker, src_pe=self.sources[link]
        )

    def _run(self, seconds):
        self.system.run_for(seconds)

    def _fault(self, effect, selector, duration):
        where = {
            "dst": {"dst_pe": self.sink_pe.pe_id},
            "left": {"src_pe": self.sources[0].pe_id},
            "right": {"src_pe": self.sources[1].pe_id},
            "reverse": {"src_pe": self.sink_pe.pe_id},
        }[selector]
        self.faults.append(
            self.transport.install_link_fault(duration=duration, **effect, **where)
        )

    def _heal(self, index):
        """Wait for one fault's heal (at once if it has already ended)."""
        if self.faults:
            self.system.run_until(
                max(self.faults[index % len(self.faults)].until, self.system.now)
            )

    def _crash(self):
        self.sink_pe.crash("wire-property")

    def _remove_pe(self, which):
        pe = {"left": self.sources[0], "right": self.sources[1], "sink": self.sink_pe}[
            which
        ]
        if pe.pe_id not in self.removed:
            self.removed.add(pe.pe_id)
            self.system.sam.remove_pes(self.job.job_id, [pe.pe_id])

    def assert_removed_pes_are_forgotten(self):
        """No link record, pending unit or in-flight count names a removed PE.

        The one retained direction: under exactly-once, a link *from* a
        removed source toward the live sink keeps its record while it
        holds anything above the sink's committed floor (no epoch commits
        here, so for good) — it is the history a restart of the sink
        replays — and with it its unacknowledged units.  Best-effort
        keeps no unit registry: wire copies toward a removed
        PE still count in flight until they arrive at the stopped
        process, so its in-flight check waits for quiescence (the
        properties assert ``_in_flight == {}`` there).
        """
        t, gone = self.transport, self.removed
        plane = t.reliability
        retains = plane is not None and plane.exactly_once
        for src, dst in t.links:
            assert dst not in gone and (src not in gone or retains), (src, dst)
        assert not (set(t._toward) | set(t._from)) & gone
        assert not set(t._incarnations) & gone
        if plane is not None:
            assert all(entry.link.key in t.links for entry in plane.pending.values())
            assert not {pe_id for pe_id, _op, _port in t._in_flight} & gone

    def _restart(self):
        if self.sink_pe.is_running or self.sink_pe.pe_id in self.removed:
            return
        self.sink_pe.restart()

    def observed(self):
        """Everything an observer of the wire can see, for run-vs-run equality."""
        t = self.transport
        return (
            self.records,
            {name: getattr(t, name) for name in COUNTERS},
            dict(t._in_flight),
            _rng_hash(t.rng),
            _rng_hash(t.ack_rng),
            self.system.kernel.events_processed,
        )

    def first_deliveries(self):
        """Per link, the seqs delivered as fresh (non-replay) records, in order."""
        per_link = {}
        for record in self.records:
            if not record.redelivery:
                per_link.setdefault((record.src_key, record.dst_pe_id), []).append(
                    record.link_seq
                )
        return per_link

    def claimed(self):
        """Per link still in the table, every seq the senders claimed."""
        return {
            key: list(range(1, link.send_seq + 1))
            for key, link in self.transport.links.items()
            if key[1] == self.sink_pe.pe_id and link.send_seq
        }

    def first_deliveries_on(self, links):
        """:meth:`first_deliveries`, for ``links`` only."""
        delivered = self.first_deliveries()
        return {link: delivered.get(link, []) for link in links}


@BUDGET
@given(schedule=schedules, batch_max_size=st.sampled_from((1, 4)))
def test_best_effort_accounts_for_every_member_and_keeps_fifo(schedule, batch_max_size):
    run = WireRun("best_effort", batch_max_size, schedule)
    t = run.transport
    assert t.total_sent == (
        t.total_delivered + t.total_dropped + t.dropped_in_flight + t.dropped_by_fault
    )
    assert t._in_flight == {}
    assert t._open_batches == {}
    assert run.fifo.violations == []
    # best-effort sequences are claimed after the drop rolls: no gaps
    # other than condemned or down-PE losses, and never a repeat
    for seqs in run.first_deliveries().values():
        assert seqs == sorted(set(seqs))


@BUDGET
@given(schedule=schedules, batch_max_size=st.sampled_from((1, 4)))
def test_at_least_once_loses_nothing(schedule, batch_max_size):
    run = WireRun("at_least_once", batch_max_size, schedule)
    assert run.transport._in_flight == {}
    assert run.transport.reliability.pending == {}
    claimed = run.claimed()
    delivered = run.first_deliveries_on(claimed)
    assert {link: set(seqs) for link, seqs in delivered.items()} == {
        link: set(seqs) for link, seqs in claimed.items()
    }


@BUDGET
@given(schedule=schedules, batch_max_size=st.sampled_from((1, 4)))
def test_exactly_once_is_fifo_lossless_and_duplicate_free(schedule, batch_max_size):
    run = WireRun("exactly_once", batch_max_size, schedule)
    assert run.transport._in_flight == {}
    assert run.transport.reliability.pending == {}
    assert run.fifo.violations == []
    # every claimed seq delivered fresh exactly once, in order
    claimed = run.claimed()
    assert run.first_deliveries_on(claimed) == claimed


@BUDGET
@given(
    schedule=schedules,
    delivery=st.sampled_from(DELIVERIES),
    batch_max_size=st.sampled_from((1, 4)),
)
def test_a_batch_of_one_is_the_single_send(schedule, delivery, batch_max_size):
    single = WireRun(delivery, batch_max_size, schedule)
    batched = WireRun(delivery, batch_max_size, schedule, via="send_batch")
    assert batched.observed() == single.observed()


@BUDGET
@given(
    schedule=schedules,
    delivery=st.sampled_from(DELIVERIES),
    batch_max_size=st.sampled_from((1, 8)),
)
def test_the_compiled_hop_is_the_single_send(schedule, delivery, batch_max_size):
    """A source PE's compiled port hop and punctuation route carry the
    flow its ``rebuild_routes`` resolved; ``Transport.send`` resolves one
    per call.  Both must put the same units on the same links: same tap
    records, counters, in-flight map, RNG end states and kernel events —
    and hand the sink the same tuples."""
    single = WireRun(delivery, batch_max_size, schedule)
    hopped = WireRun(delivery, batch_max_size, schedule, via="hop")
    assert hopped.observed() == single.observed()
    assert hopped.handed == single.handed


#: traffic on both links, a sink crash, traffic toward the dead sink, and
#: the restart every run ends with: acknowledged units replay from zero
REPLAYING_SCHEDULE = [
    ("send", 0, 3),
    ("send", 1, 2),
    ("run", 0.05),
    ("crash",),
    ("send", 0, 2),
    ("run", 0.4),
]


def retained(link):
    """Everything a link's replay buffer holds, through its containers and
    its units (not through the PEs and links a unit names)."""
    stack, seen = [link.replay], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, (dict, list, tuple)):
            stack.extend(gc.get_referents(obj))
        elif isinstance(obj, PendingEntry):
            stack.append(obj.payload)


class TestReplayHistoryIsData:
    """Acknowledged exactly-once units are retained as their fields, and a
    replay rebuilds tuples equal to the ones sent."""

    @BUDGET
    @example(schedule=REPLAYING_SCHEDULE, batch_max_size=4)
    @given(schedule=schedules, batch_max_size=st.sampled_from((1, 4)))
    def test_acknowledged_units_hold_no_tuple_objects(self, schedule, batch_max_size):
        run = WireRun("exactly_once", batch_max_size, schedule)
        for link in run.transport.links.values():
            for obj in retained(link):
                assert not isinstance(obj, (StreamTuple, TupleBatch)), link.key

    @BUDGET
    @example(schedule=REPLAYING_SCHEDULE, batch_max_size=4)
    @given(schedule=schedules, batch_max_size=st.sampled_from((1, 4)))
    def test_a_redelivery_hands_over_the_tuples_sent(self, schedule, batch_max_size):
        run = WireRun("exactly_once", batch_max_size, schedule)
        for _redelivery, tup in run.handed:
            sent = run.originals[tup["iter"]]
            assert (tup.values, tup.size_bytes, tup.created_at, tup.traced) == (
                sent.values, sent.size_bytes, sent.created_at, sent.traced
            )

    def test_the_replaying_schedule_replays(self):
        run = WireRun("exactly_once", 4, REPLAYING_SCHEDULE)
        replayed = [tup["iter"] for redelivery, tup in run.handed if redelivery]
        # everything consumed before the crash, link by link: 0-2 on the
        # left (one batch), 3-4 on the right
        assert replayed == [0, 1, 2, 3, 4]
        assert run.transport.replayed == 5


class TestRestartedSinkConsumesOnce:
    """A restarted sink resumes its record from its epoch, a redelivered
    unit rebuilds the rest of it (state) but does not call its consumer
    again (an effect)."""

    N = 300

    def run(self):
        consumed = []
        app = Application("SinkRestart")
        g = app.graph
        src = g.add_operator(
            "src",
            CallbackSource,
            params={
                "generator": lambda now, n: [{"key": f"k{n % 7}", "n": n}],
                "period": 0.01,
                "limit": self.N,
            },
            partition="feed",
        )
        count = g.add_operator("count", KeyedCounter, params={"key": "key"}, partition="work")
        sink = g.add_operator(
            "sink", Sink, params={"consumer": consumed.append}, partition="out"
        )
        g.connect(src.oport(0), count.iport(0))
        g.connect(count.oport(0), sink.iport(0))
        system = SystemS(
            hosts=4,
            seed=42,
            config=SystemConfig(delivery="exactly_once", checkpoint_interval=0.5),
        )
        job = system.submit_job(app)
        system.run_for(2.25 - system.now)  # mid-interval: a replay is due
        pe = job.pe_of_operator("sink")
        before = len(consumed)
        pe.crash("test")
        system.sam.restart_pe(job.job_id, pe.pe_id, rehydrate=True)
        system.run_for(10.0)
        return system, job, before, consumed

    def test_the_consumer_sees_each_tuple_once(self):
        system, job, before, consumed = self.run()
        assert 0 < before < self.N
        # the record came back from the epoch: only what arrived after
        # it, at most one checkpoint interval of 100 tuples/s, replayed
        assert 0 < system.transport.replayed <= 50 < before
        assert sorted(t["n"] for t in consumed) == list(range(self.N))
        assert sorted(t["n"] for t in job.operator_instance("sink").seen) == list(range(self.N))
