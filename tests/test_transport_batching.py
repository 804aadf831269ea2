"""Tests for transport-level tuple batching: flush triggers (size, linger,
punctuation, barriers), link-partition holds spanning a heal, crash
condemnation of buffered and in-flight batches, and drain barriers
committing open batches before the backlog probe counts."""

from repro import SystemConfig, SystemS
from repro.elastic import RescaleState
from repro.spl.application import Application
from repro.spl.library import Custom, Sink
from repro.spl.tuples import FinalMarker, StreamTuple

from tests.conftest import make_linear_app
from tests.test_elastic import build_region_app


def make_wire_app(name="Wire"):
    """A quiet two-PE app: an inert source so tests drive the wire by hand."""
    app = Application(name)
    g = app.graph
    src = g.add_operator(
        "src", Custom, params={"n_inputs": 0, "n_outputs": 1}, partition="a"
    )
    sink = g.add_operator("sink", Sink, partition="b")
    g.connect(src.oport(0), sink.iport(0))
    return app


def batched_system(batch_max_size=4, batch_linger=0.0, hosts=4):
    return SystemS(
        hosts=hosts,
        seed=42,
        config=SystemConfig(
            batch_max_size=batch_max_size, batch_linger=batch_linger
        ),
    )


def wire_fixture(system):
    """Submit the quiet app, start it, return (transport, src_pe, sink_pe, sink)."""
    job = system.submit_job(make_wire_app())
    system.run_for(0.5)
    src_pe = job.pe_of_operator("src")
    sink_pe = job.pe_of_operator("sink")
    sink = job.operator_instance("sink")
    return system.transport, src_pe, sink_pe, sink


def tup(i):
    return StreamTuple({"iter": i})


class TestFlushTriggers:
    def test_size_flush_commits_before_linger(self):
        system = batched_system(batch_max_size=3, batch_linger=5.0)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        sizes = []
        transport.batch_observer = sizes.append
        for i in range(3):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        # the size trigger fired synchronously: nothing is left buffered
        assert transport._open_batches == {}
        system.run_for(0.1)  # far less than the 5s linger
        assert [t["iter"] for t in sink.seen] == [0, 1, 2]
        assert sizes == [3]

    def test_linger_flush_commits_partial_batch(self):
        system = batched_system(batch_max_size=100, batch_linger=0.05)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        transport.send(sink_pe, "sink", 0, tup(0), src_pe=src_pe)
        transport.send(sink_pe, "sink", 0, tup(1), src_pe=src_pe)
        # buffered tuples already count as sent and in flight (queueSize)
        assert transport.queue_size(sink_pe.pe_id, "sink", 0) == 2
        system.run_for(0.02)  # > transport latency, < linger
        assert sink.seen == []
        system.run_for(0.1)  # linger expires, batch delivered whole
        assert [t["iter"] for t in sink.seen] == [0, 1]
        assert transport.queue_size(sink_pe.pe_id, "sink", 0) == 0

    def test_zero_linger_coalesces_within_one_instant(self):
        system = batched_system(batch_max_size=100, batch_linger=0.0)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        sizes = []
        transport.batch_observer = sizes.append
        for i in range(5):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(0.1)
        # one batch, no sim-time delay beyond the base transport latency
        assert sizes == [5]
        assert [t["iter"] for t in sink.seen] == [0, 1, 2, 3, 4]

    def test_punctuation_flushes_open_batch_first(self):
        system = batched_system(batch_max_size=100, batch_linger=5.0)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        transport.send(sink_pe, "sink", 0, tup(0), src_pe=src_pe)
        transport.send(sink_pe, "sink", 0, FinalMarker, src_pe=src_pe)
        assert transport._open_batches == {}
        system.run_for(0.1)
        # the marker did not overtake the buffered tuple
        assert [t["iter"] for t in sink.seen] == [0]
        assert sink.is_finalized

    def test_delivery_taps_see_contiguous_link_seqs(self):
        system = batched_system(batch_max_size=3, batch_linger=0.0)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        seqs = []
        transport.delivery_taps.append(lambda rec: seqs.append(rec.link_seq))
        for i in range(7):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(0.1)
        assert seqs == [1, 2, 3, 4, 5, 6, 7]

    def test_size_one_config_never_batches(self):
        system = batched_system(batch_max_size=1, batch_linger=0.05)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        sizes = []
        transport.batch_observer = sizes.append
        for i in range(4):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        assert transport._open_batches == {}
        system.run_for(0.1)
        assert sizes == []
        assert [t["iter"] for t in sink.seen] == [0, 1, 2, 3]


class TestPartitionStraddle:
    def test_batch_held_through_partition_heal_stays_fifo(self):
        system = batched_system(batch_max_size=3, batch_linger=5.0)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        seqs = []
        transport.delivery_taps.append(lambda rec: seqs.append(rec.link_seq))
        transport.install_link_fault(
            partition=True, dst_pe=sink_pe.pe_id, duration=0.5
        )
        # first batch flushes at size while the link is partitioned: the
        # whole batch is one unit, due one hop after the heal
        for i in range(3):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(0.5)
        assert sink.seen == []
        assert transport.queue_size(sink_pe.pe_id, "sink", 0) == 3
        # a second batch commits at the heal; it must not overtake the
        # held batch
        for i in range(3, 6):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(0.5)
        assert [t["iter"] for t in sink.seen] == [0, 1, 2, 3, 4, 5]
        assert seqs == sorted(seqs)
        assert transport.dropped_by_fault == 0

    def test_held_batch_condemned_by_crash_during_partition(self):
        system = batched_system(batch_max_size=3, batch_linger=5.0)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        transport.install_link_fault(
            partition=True, dst_pe=sink_pe.pe_id, duration=0.2
        )
        for i in range(3):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(0.2)
        sink_pe.crash("test")
        sink_pe.restart()
        system.run_for(0.5)
        # the held batch carried the pre-crash incarnation: all members
        # are condemned, none leaks into the restarted process
        assert transport.dropped_in_flight == 3
        assert job_sink(system) == []

    def test_lossy_fault_drops_per_member(self):
        system = batched_system(batch_max_size=4, batch_linger=0.0)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        transport.install_link_fault(
            drop_probability=1.0, dst_pe=sink_pe.pe_id, duration=1.0
        )
        for i in range(4):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(0.5)
        assert transport.dropped_by_fault == 4
        assert sink.seen == []
        assert transport.queue_size(sink_pe.pe_id, "sink", 0) == 0


def job_sink(system):
    """The sink's recorded tuples, or [] when the operator was discarded."""
    for job in system.sam.jobs.values():
        inst = job.pe_of_operator("sink").operators.get("sink")
        return inst.seen if inst is not None else []
    return []


class TestCrashCondemnation:
    def test_crash_condemns_open_and_in_flight_batches(self):
        system = batched_system(batch_max_size=3, batch_linger=5.0)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        # three tuples flush at size and sit in flight; two more stay
        # buffered in the open batch
        for i in range(5):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        assert len(transport._open_batches) == 1
        sink_pe.crash("test")
        # the crash flushed the open batch toward the dead incarnation
        assert transport._open_batches == {}
        system.run_for(0.5)
        assert transport.dropped_in_flight == 5
        assert transport.total_delivered == 0

    def test_condemned_batch_never_reaches_restarted_pe(self):
        system = batched_system(batch_max_size=3, batch_linger=5.0)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        for i in range(3):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        # batch is on the wire; the destination crashes and restarts
        # within one transport latency
        sink_pe.crash("test")
        sink_pe.restart()
        system.run_for(0.5)
        assert transport.dropped_in_flight == 3
        assert job_sink(system) == []


class TestDrainBarrier:
    def test_rescale_drain_flushes_open_batches(self):
        """An elastic rescale under batching stays loss-free and ordered.

        The quiesce/drain barrier forces open batches onto the wire before
        the backlog probe counts, so no tuple can sit invisible in a
        buffer while the region is declared drained.
        """
        system = SystemS(
            hosts=12,
            seed=42,
            config=SystemConfig(batch_max_size=8, batch_linger=0.05),
        )
        app = build_region_app(width=1, limit=300, rate=100.0)
        job = system.submit_job(app)
        system.run_for(2.0)
        operation = system.elastic.set_channel_width(job, "region", 2)
        system.run_for(60.0)
        assert operation.state is RescaleState.COMPLETED
        sink = job.operator_instance("sink")
        iters = [t["iter"] for t in sink.seen]
        assert sorted(iters) == list(range(300))
        assert iters == sorted(iters)

    def test_flush_open_batches_filters_by_destination(self):
        system = batched_system(batch_max_size=100, batch_linger=5.0)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        other_job = system.submit_job(make_linear_app(name="Other", period=1000.0))
        system.run_for(0.5)
        other_pe = other_job.pe_of_operator("sink")
        transport.send(sink_pe, "sink", 0, tup(0), src_pe=src_pe)
        transport.send(other_pe, "sink", 0, tup(1), src_pe=src_pe)
        assert len(transport._open_batches) == 2
        transport.flush_open_batches(dst_pe_id=sink_pe.pe_id)
        assert len(transport._open_batches) == 1
        transport.flush_open_batches()
        assert transport._open_batches == {}
