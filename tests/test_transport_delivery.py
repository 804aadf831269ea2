"""Tests for the reliable delivery plane: ack/retry/backoff timers,
exactly-once duplicate-suppression watermarks, retransmit-under-batching
FIFO, drain-barrier quiescence of pending retries, epoch-aligned replay
into restarted PEs (retried under loss like any unit), the one retention
rule, replay history bounded by the epoch alone, and first-cause-wins
loss attribution."""

import pytest

from repro import SystemConfig, SystemS
from repro.elastic import RescaleState
from repro.spl.application import Application
from repro.spl.library import CallbackSource, KeyedCounter, Sink
from repro.spl.parallel import parallel

from tests.test_elastic import build_region_app
from tests.test_transport_batching import job_sink, tup, wire_fixture


def reliable_system(
    delivery,
    batch_max_size=1,
    batch_linger=0.0,
    ack_timeout=0.25,
    retry_backoff=2.0,
    max_retry_interval=2.0,
    hosts=4,
):
    return SystemS(
        hosts=hosts,
        seed=42,
        config=SystemConfig(
            delivery=delivery,
            batch_max_size=batch_max_size,
            batch_linger=batch_linger,
            ack_timeout=ack_timeout,
            retry_backoff=retry_backoff,
            max_retry_interval=max_retry_interval,
        ),
    )


def record_reliability_events(transport):
    """Tee the transport's reliability observer into a list of events."""
    events = []
    inner = transport.reliability_observer

    def observer(kind, count, op, attempt, time):
        events.append((kind, count, attempt, time))
        if inner is not None:
            inner(kind, count, op, attempt, time)

    transport.reliability_observer = observer
    return events


class TestAckRetryTimers:
    def test_clean_link_delivers_once_and_acks(self):
        system = reliable_system("at_least_once")
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        for i in range(3):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(0.5)
        assert [t["iter"] for t in sink.seen] == [0, 1, 2]
        assert transport.acks == 3
        assert transport.retransmissions == 0
        # every unit acked: nothing pending, no live retry timers
        assert transport.reliability.pending == {}

    def test_lossy_link_retries_until_delivered(self):
        system = reliable_system("at_least_once")
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        transport.install_link_fault(
            drop_probability=1.0, dst_pe=sink_pe.pe_id, duration=1.0
        )
        transport.send(sink_pe, "sink", 0, tup(0), src_pe=src_pe)
        system.run_for(1.0)
        assert sink.seen == []
        assert transport.retransmissions >= 1
        # first-cause-wins: one unit, one dropped_by_fault, however many
        # wire copies the fault ate
        assert transport.dropped_by_fault == 1
        system.run_for(3.0)
        assert [t["iter"] for t in sink.seen] == [0]
        assert transport.dropped_by_fault == 1
        assert transport.reliability.pending == {}

    def test_backoff_schedule_doubles_and_caps(self):
        system = reliable_system(
            "at_least_once",
            ack_timeout=0.1,
            retry_backoff=2.0,
            max_retry_interval=0.4,
        )
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        events = record_reliability_events(transport)
        transport.install_link_fault(
            drop_probability=1.0, dst_pe=sink_pe.pe_id, duration=2.0
        )
        sent_at = system.kernel.now
        transport.send(sink_pe, "sink", 0, tup(0), src_pe=src_pe)
        system.run_for(2.0)
        retries = [t - sent_at for (kind, _c, _a, t) in events if kind == "retransmit"]
        # 0.1, then doubling, capped at 0.4 between attempts
        assert retries == pytest.approx([0.1, 0.3, 0.7, 1.1, 1.5, 1.9])

    def test_at_least_once_duplicates_are_possible(self):
        """The ALO receiver is naive: a partition-held original plus a
        retransmitted sibling both deliver at heal."""
        system = reliable_system("at_least_once")
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        transport.install_link_fault(
            partition=True, dst_pe=sink_pe.pe_id, duration=0.6
        )
        transport.send(sink_pe, "sink", 0, tup(0), src_pe=src_pe)
        system.run_for(0.6)  # the 0.25s ack timeout fires behind the partition
        assert transport.retransmissions >= 1
        system.run_for(1.0)
        assert len(sink.seen) >= 2  # at least once, not exactly once
        assert transport.duplicates_suppressed == 0


class TestDuplicateSuppression:
    def test_partition_race_duplicate_is_suppressed(self):
        """Same race as the ALO duplicate test, but the exactly-once
        receiver's (link, seq) watermark absorbs the second copy."""
        system = reliable_system("exactly_once")
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        transport.install_link_fault(
            partition=True, dst_pe=sink_pe.pe_id, duration=0.6
        )
        transport.send(sink_pe, "sink", 0, tup(0), src_pe=src_pe)
        system.run_for(0.6)
        assert transport.retransmissions >= 1
        system.run_for(1.0)
        assert [t["iter"] for t in sink.seen] == [0]
        assert transport.duplicates_suppressed >= 1

    def test_watermark_tracks_contiguous_delivery(self):
        system = reliable_system("exactly_once")
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        for i in range(5):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(0.5)
        assert transport.links[src_pe.pe_id, sink_pe.pe_id].delivered_wm == 5
        payload = transport.checkpoint_watermarks(sink_pe.pe_id)
        assert payload == {"watermarks": {src_pe.pe_id: 5}}

    def test_best_effort_has_no_watermark_payload(self):
        system = reliable_system("at_least_once")
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        transport.send(sink_pe, "sink", 0, tup(0), src_pe=src_pe)
        system.run_for(0.5)
        assert transport.checkpoint_watermarks(sink_pe.pe_id) is None


class TestRetransmitBatchingFifo:
    def test_lost_batch_stalls_link_until_retransmit_fills_gap(self):
        """A later batch must not overtake a lost earlier one: the
        in-order receiver parks it until the retransmit lands."""
        system = reliable_system("exactly_once", batch_max_size=3)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        seqs = []
        transport.delivery_taps.append(lambda rec: seqs.append(rec.link_seq))
        # the fault ends well inside one hop, before batch 2 commits
        transport.install_link_fault(
            drop_probability=1.0, dst_pe=sink_pe.pe_id, duration=1e-4
        )
        for i in range(3):  # batch 1 (seqs 1-3) flushes into the fault
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(1e-4)
        for i in range(3, 6):  # batch 2 (seqs 4-6) rides a clean link
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(1.0)
        assert [t["iter"] for t in sink.seen] == [0, 1, 2, 3, 4, 5]
        assert seqs == [1, 2, 3, 4, 5, 6]
        # each batch was one wire unit: batch 1 retransmits its lost
        # copy, and parked batch 2 (unacked while it waits for the gap)
        # sends one backoff sibling that the receiver's dedup absorbs;
        # loss attribution covers batch 1's three members exactly once
        assert transport.retransmissions == 2
        assert transport.dropped_by_fault == 3
        assert transport.duplicates_suppressed == 3

    def test_one_ack_per_flushed_batch(self):
        system = reliable_system("exactly_once", batch_max_size=4)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        for i in range(8):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(0.5)
        assert [t["iter"] for t in sink.seen] == list(range(8))
        assert transport.acks == 2  # two batches, one ack each


class TestDrainQuiescence:
    def test_expedite_pending_bypasses_backoff(self):
        system = reliable_system("exactly_once", ack_timeout=30.0)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        transport.install_link_fault(
            drop_probability=1.0, dst_pe=sink_pe.pe_id, duration=0.1
        )
        transport.send(sink_pe, "sink", 0, tup(0), src_pe=src_pe)
        system.run_for(0.1)  # first copy dropped; retry armed 30s out
        system.run_for(0.5)
        assert sink.seen == []  # still sitting out the backoff
        transport.expedite_pending()
        system.run_for(0.1)
        assert [t["iter"] for t in sink.seen] == [0]
        assert transport.retransmissions == 1

    def test_expedite_leaves_live_and_partitioned_copies_alone(self):
        system = reliable_system("exactly_once", ack_timeout=30.0)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        # a copy already on the wire: expediting must not duplicate it
        transport.send(sink_pe, "sink", 0, tup(0), src_pe=src_pe)
        transport.expedite_pending()
        assert transport.retransmissions == 0
        system.run_for(0.1)
        # a copy held behind an active partition: also left alone
        transport.install_link_fault(
            partition=True, dst_pe=sink_pe.pe_id, duration=0.2
        )
        transport.send(sink_pe, "sink", 0, tup(1), src_pe=src_pe)
        system.run_for(0.1)
        transport.expedite_pending()
        assert transport.retransmissions == 0
        system.run_for(0.5)
        assert [t["iter"] for t in sink.seen] == [0, 1]

    def test_rescale_drain_quiesces_pending_retries(self):
        """A drain barrier must not sit out a multi-second ack backoff:
        the drain poll expedites undelivered units, so a rescale that
        started while a loss fault was eating copies completes as soon as
        the link heals — not ``ack_timeout`` later."""
        system = SystemS(
            hosts=12,
            seed=42,
            config=SystemConfig(
                delivery="exactly_once",
                batch_max_size=8,
                batch_linger=0.05,
                ack_timeout=5.0,
            ),
        )
        app = build_region_app(width=1, limit=300, rate=100.0)
        job = system.submit_job(app)
        system.run_for(2.0)
        system.transport.install_link_fault(drop_probability=1.0, duration=0.1)
        system.run_for(0.05)
        operation = system.elastic.set_channel_width(job, "region", 2)
        system.run_for(0.05)
        system.run_for(3.0)  # well under the 5s ack timeout
        assert operation.state is RescaleState.COMPLETED
        assert system.transport.retransmissions > 0
        system.run_for(20.0)
        sink = job.operator_instance("sink")
        iters = [t["iter"] for t in sink.seen]
        assert sorted(iters) == list(range(300))
        assert iters == sorted(iters)  # exactly-once keeps FIFO through loss
        assert system.transport.dropped_in_flight == 0


class TestExactlyOnceRestart:
    def test_in_flight_units_survive_crash_restart(self):
        """The best-effort transport condemns in-flight tuples at a crash
        (``test_condemned_batch_never_reaches_restarted_pe``); exactly
        once retransmits them into the new incarnation instead."""
        system = reliable_system("exactly_once")
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        for i in range(3):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        sink_pe.crash("test")
        sink_pe.restart()
        system.run_for(2.0)
        assert transport.dropped_in_flight == 0
        assert [t["iter"] for t in job_sink(system)] == [0, 1, 2]

    def test_replay_buffer_truncates_to_committed_floor(self):
        system = reliable_system("exactly_once")
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        for i in range(3):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(0.5)
        link = transport.links[src_pe.pe_id, sink_pe.pe_id]
        assert sorted(link.replay) == [1, 2, 3]
        transport.on_epoch_committed(sink_pe.pe_id, {src_pe.pe_id: 2})
        assert sorted(link.replay) == [3]
        assert link.truncated_to == 2
        # an older floor never un-truncates
        transport.on_epoch_committed(sink_pe.pe_id, {src_pe.pe_id: 1})
        assert link.truncated_to == 2

    def test_restart_replays_processed_units_above_committed_floor(self):
        system = reliable_system("exactly_once")
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        events = record_reliability_events(transport)
        for i in range(4):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(0.5)
        assert len(sink.seen) == 4
        # an epoch committed with watermark 2: seqs 1-2 leave the replay
        # buffer, so a restart can only rewind to that floor
        transport.on_epoch_committed(sink_pe.pe_id, {src_pe.pe_id: 2})
        sink_pe.crash("test")
        sink_pe.restart()
        system.run_for(0.5)
        replays = [c for (kind, c, _a, _t) in events if kind == "replay"]
        assert sum(replays) == 2  # seqs 3 and 4 re-sent as redelivery
        assert transport.replayed == 2
        # replayed units rebuild the fresh instance's state
        assert [t["iter"] for t in job_sink(system)] == [2, 3]

    def test_replay_copies_retry_through_a_lossy_fault_at_the_restart(self):
        """Every link toward the restarted sink loses every copy at the
        restart instant: the replay copies are pending like any unit and
        retry until the new incarnation acks them, so each unit arrives
        exactly once, in order, once the fault is gone."""
        system = reliable_system("exactly_once")
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        for i in range(4):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(0.5)
        sink_pe.crash("test")
        transport.install_link_fault(
            drop_probability=1.0, dst_pe=sink_pe.pe_id, duration=0.3
        )
        sink_pe.restart()
        transport.send(sink_pe, "sink", 0, tup(4), src_pe=src_pe)
        system.run_for(0.3)
        assert job_sink(system) == []  # nothing got through the fault
        system.run_for(5.0)
        assert [t["iter"] for t in job_sink(system)] == [0, 1, 2, 3, 4]
        assert transport.replayed == 4
        assert transport.reliability.pending == {}


class TestFirstCauseWins:
    def test_fault_drop_then_condemnation_counts_once(self):
        """Regression: a unit that lost a copy to a seeded drop and whose
        destination is then removed for good must count in exactly one
        loss bucket (``dropped_by_fault``, the first cause)."""
        system = reliable_system("at_least_once")
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        transport.install_link_fault(
            drop_probability=1.0, dst_pe=sink_pe.pe_id, duration=1.0
        )
        transport.send(sink_pe, "sink", 0, tup(0), src_pe=src_pe)
        system.run_for(0.05)
        assert transport.dropped_by_fault == 1
        transport.forget_pe(sink_pe.pe_id)
        assert transport.dropped_by_fault == 1
        assert transport.dropped_in_flight == 0
        assert transport.reliability.pending == {}

    def test_condemnation_without_prior_drop_counts_in_flight(self):
        system = reliable_system("at_least_once")
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        transport.send(sink_pe, "sink", 0, tup(0), src_pe=src_pe)
        # the destination is removed for good with the copy still on the
        # wire (the order sam.remove_pes uses: stop, then forget)
        sink_pe.stop(capture_state=False)
        transport.forget_pe(sink_pe.pe_id)
        assert transport.dropped_in_flight == 1
        assert transport.dropped_by_fault == 0
        system.run_for(0.5)
        assert sink.seen == []  # condemned: the late copy is ignored


class TestForgetPeRetentionRule:
    """One rule for every link: it goes when its destination goes, or when
    its source is gone and nothing it carried is above the destination's
    committed floor — checked at ``forget_pe`` and again at every commit."""

    @staticmethod
    def _forget_sender_with_a_unit_on_the_wire(delivery):
        system = reliable_system(delivery)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        for i in range(2):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(0.5)
        transport.send(sink_pe, "sink", 0, tup(2), src_pe=src_pe)
        src_pe.stop(capture_state=False)
        transport.forget_pe(src_pe.pe_id)
        key = (src_pe.pe_id, sink_pe.pe_id)
        system.run_for(1.0)
        return transport, key, [t["iter"] for t in sink.seen]

    def test_best_effort_drops_the_link_and_the_wire_copy_still_lands(self):
        transport, key, seen = self._forget_sender_with_a_unit_on_the_wire("best_effort")
        assert transport.links == {} and seen == [0, 1, 2]

    def test_a_dropped_link_takes_its_unacknowledged_units_along(self):
        transport, key, seen = self._forget_sender_with_a_unit_on_the_wire(
            "at_least_once"
        )
        assert transport.links == {}
        assert transport.reliability.pending == {}
        assert transport.dropped_in_flight == 1 and transport._in_flight == {}
        assert seen == [0, 1]  # the late copy finds no record and is ignored
        assert transport.retransmissions == 0

    def test_exactly_once_keeps_a_forgotten_senders_link_until_an_epoch_covers_it(self):
        transport, key, seen = self._forget_sender_with_a_unit_on_the_wire(
            "exactly_once"
        )
        # the unit on the wire lands: the link outlives its source
        assert list(transport.links) == [key] and seen == [0, 1, 2]
        assert transport.dropped_in_flight == 0
        link = transport.links[key]
        # a commit below what the link carried truncates and keeps it ...
        transport.on_epoch_committed(key[1], {key[0]: 2})
        assert sorted(link.replay) == [3] and list(transport.links) == [key]
        # ... a commit covering all of it retires it
        transport.on_epoch_committed(key[1], {key[0]: 3})
        assert transport.links == {} and transport.reliability.pending == {}

    def test_exactly_once_drops_a_link_with_its_destination(self):
        transport, key, seen = self._forget_sender_with_a_unit_on_the_wire(
            "exactly_once"
        )
        assert sorted(transport.links[key].replay) == [1, 2, 3]
        transport.forget_pe(key[1])
        assert transport.links == {} and transport._toward == {} == transport._from


class TestLossyAcks:
    """Acks travel the reverse link through the fault pipeline — the
    control channel is no longer assumed lossless (delivery.py bugfix)."""

    def test_lost_ack_retransmits_and_receiver_reacks(self):
        system = reliable_system("exactly_once", ack_timeout=0.1)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        # reverse-direction fault: data src->sink is clean, acks
        # sink->src are all dropped while the fault is up
        transport.install_link_fault(
            drop_probability=1.0, src_pe=sink_pe.pe_id, dst_pe=src_pe.pe_id,
            duration=1.0,
        )
        for i in range(3):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(1.0)
        # delivered exactly once to the app despite every ack being lost
        assert [t["iter"] for t in sink.seen] == [0, 1, 2]
        assert transport.acks_dropped >= 3
        # the sender could not tell: it retransmitted delivered units...
        assert transport.retransmissions >= 3
        # ...and the in-order receiver suppressed every duplicate copy
        assert transport.duplicates_suppressed >= 3
        assert transport.dropped_by_fault == 0  # forward path untouched
        system.run_for(2.0)
        # after heal the re-acked duplicates drain the pending registry
        assert transport.reliability.pending == {}
        assert transport.acks == 3
        assert [t["iter"] for t in sink.seen] == [0, 1, 2]

    def test_lost_ack_at_least_once_duplicates_then_converges(self):
        system = reliable_system("at_least_once", ack_timeout=0.1)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        transport.install_link_fault(
            drop_probability=1.0, src_pe=sink_pe.pe_id, dst_pe=src_pe.pe_id,
            duration=0.5,
        )
        transport.send(sink_pe, "sink", 0, tup(0), src_pe=src_pe)
        system.run_for(0.5)
        # the naive receiver delivers the ack-loss-provoked duplicates
        assert len(sink.seen) >= 2
        assert all(t["iter"] == 0 for t in sink.seen)
        assert transport.acks_dropped >= 1
        system.run_for(2.0)
        assert transport.reliability.pending == {}

    def test_untimed_reverse_partition_swallows_acks(self):
        """A partition delays an ack like a data unit: it lands one hop
        after the heal, nothing counts it dropped, and the sender — whose
        unit was delivered — does not retransmit meanwhile."""
        system = reliable_system("exactly_once", ack_timeout=0.1)
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        transport.install_link_fault(
            partition=True, src_pe=sink_pe.pe_id, dst_pe=src_pe.pe_id,
            duration=0.5,
        )
        transport.send(sink_pe, "sink", 0, tup(0), src_pe=src_pe)
        system.run_for(0.5)
        assert [t["iter"] for t in sink.seen] == [0]
        assert transport.acks == 0
        system.run_for(2.0)
        assert transport.reliability.pending == {}
        assert transport.acks == 1
        assert transport.acks_dropped == 0
        assert transport.retransmissions == 0

    def test_lossless_acks_draw_nothing_from_ack_stream(self):
        """Without reverse-link faults the ack rng is never consumed, so
        committed sim artifacts stay byte-identical."""
        system = reliable_system("exactly_once")
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        state_before = transport.ack_rng.getstate()
        for i in range(5):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(1.0)
        assert transport.ack_rng.getstate() == state_before
        assert transport.acks_dropped == 0
        assert transport.acks == 5


class TestTheEpochBoundsReplay:
    """Every PE on an exactly-once path commits an epoch — the region's
    splitter and merger their cursors, a stateless sink its watermarks
    only — so the epoch, and nothing else, bounds replay history."""

    INTERVAL = 0.5

    def _region(self, limit=None, consumer=None):
        def feed(now, count):
            if limit is not None and count >= limit:
                return []
            return [{"key": f"k{(count + i) % 16}", "seq": count + i} for i in range(5)]

        app = Application("Bounded")
        g = app.graph
        src = g.add_operator(
            "src", CallbackSource, params={"generator": feed, "period": 0.05},
            partition="feed",
        )
        work = g.add_operator(
            "work", KeyedCounter, params={"key": "key"},
            parallel=parallel(width=2, name="region", partition_by="key"),
        )
        snk = g.add_operator(
            "sink", Sink, params={"record": False, "consumer": consumer},
            partition="out",
        )
        g.connect(src.oport(0), work.iport(0))
        g.connect(work.oport(0), snk.iport(0))
        system = SystemS(
            hosts=6,
            seed=42,
            config=SystemConfig(
                delivery="exactly_once", checkpoint_interval=self.INTERVAL
            ),
        )
        return system, system.submit_job(app)

    def test_every_pe_a_unit_reaches_commits(self):
        system, job = self._region()
        system.run_for(3.0)
        store = system.checkpoint_store
        payloads = {
            pe.spec.operators[0]: store.latest_committed(job.job_id, pe.pe_id)
            for pe in job.pes
        }
        assert payloads["src"] is None  # nothing reaches it: nothing to carry
        split = payloads["region__split"].payloads["region__split"]["extra"]
        assert split["seq"] > 0 and split["arrived"] == split["seq"]
        merge = payloads["region__merge"].payloads["region__merge"]["extra"]
        assert merge["next"] > 0
        # a sink that keeps no record commits its watermarks and nothing else
        assert set(payloads["sink"].payloads) == {"__transport__"}
        for name, entry in payloads.items():
            if name != "src":
                assert entry.payloads["__transport__"]["watermarks"], name

    def test_replay_history_stays_within_one_retention_window(self):
        """The successor of the byte cap: no sender waits, and what every
        link retains is at most the traffic since the oldest retained
        epoch — flat, however long the pipeline runs."""
        system, job = self._region()
        transport = system.transport
        # 100 tuples/s enter; the oldest of two retained epochs is at most
        # two intervals old, plus the interval being filled
        window = 100 * self.INTERVAL * (system.checkpoint_store.retention + 1)
        peaks = []
        for _ in range(40):
            system.run_for(0.37)
            retained = [
                sum(entry.count for entry in link.replay.values())
                for link in transport.links.values()
            ]
            assert max(retained) <= window
            peaks.append(sum(transport.reliability.replay_bytes.values()))
        assert max(peaks[20:]) <= 1.2 * max(peaks[:20])

    def test_a_bounded_pipeline_loses_nothing_and_duplicates_nothing(self):
        limit = 400
        seen = []
        system, job = self._region(limit=limit, consumer=seen.append)
        system.run_for(20.0)
        assert sorted(t["seq"] for t in seen) == list(range(limit))
        assert system.transport.dropped_in_flight == 0
        # once the feed stops, two more epochs empty every buffer
        assert not any(link.replay for link in system.transport.links.values())
