"""Integration tests for the partitioned-state layer across the runtime:
live keyed-state migration during rescales (out, in, rollback, disabled),
PE restart rehydration, crashed-channel rerouting (splitter masking), the
state metrics flowing through SRM, and the ORCA state inspection surface
and events."""

import pytest

from repro import (
    ManagedApplication,
    OrcaDescriptor,
    Orchestrator,
    SystemConfig,
    SystemS,
)
from repro.elastic import (
    QueueSizeScalingPolicy,
    RegionObservation,
    RescaleState,
    StateAwareScalingPolicy,
)
from repro.orca.scopes import (
    OperatorMetricScope,
    OperatorPortMetricScope,
    ParallelRegionScope,
)
from repro.orca.service import LOG_WINDOW
from repro.runtime.pe import PEState
from repro.spl.application import Application
from repro.spl.library import (
    Beacon,
    CallbackSource,
    KeyedCounter,
    Sink,
    stable_channel_of,
)
from repro.spl.parallel import parallel

from tests.conftest import under_profile

N_KEYS = 8


def keyed_generator(n_keys=N_KEYS):
    def generate(now, count):
        return [{"key": f"k{count % n_keys}", "seq": count}]

    return generate


def build_keyed_app(width=2, limit=None, period=0.02, migrate_state=True,
                    max_width=8, name="KeyedElastic"):
    app = Application(name)
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": keyed_generator(), "period": period, "limit": limit},
        partition="feed",
    )
    work = g.add_operator(
        "work",
        KeyedCounter,
        params={"key": "key"},
        parallel=parallel(
            width=width,
            name="region",
            partition_by="key",
            max_width=max_width,
            migrate_state=migrate_state,
        ),
    )
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


def counts_by_key(sink):
    observed = {}
    for t in sink.seen:
        observed.setdefault(t["key"], []).append(t["count"])
    return observed


def assert_contiguous_counts(sink):
    """Every key's counts must be exactly 1, 2, 3, ... — any reset or gap
    means keyed state (or a tuple) was lost."""
    for key, counts in counts_by_key(sink).items():
        assert counts == list(range(1, len(counts) + 1)), (
            f"key {key}: counts not contiguous: {counts[:10]}..."
        )


class TestLiveStateMigration:
    def test_scale_out_migrates_keyed_state(self):
        system = SystemS(hosts=12)
        job = system.submit_job(build_keyed_app(width=2, limit=400))
        system.run_for(3.0)
        operation = system.elastic.set_channel_width(job, "region", 4)
        system.run_for(30.0)
        assert operation.state is RescaleState.COMPLETED
        migration = operation.migration
        assert migration is not None
        assert migration.keys_moved > 0
        assert migration.bytes_moved > 0
        assert migration.new_width == 4 and not migration.rolled_back
        # every key now lives on (exactly) its hash(key) % 4 owner channel
        for i in range(N_KEYS):
            key = f"k{i}"
            owner = stable_channel_of(key, 4)
            for channel in range(4):
                instance = job.operator_instance(f"work__c{channel}")
                present = key in instance.state.keyed("counts")
                assert present == (channel == owner)
        system.run_for(30.0)
        sink = job.operator_instance("sink")
        assert sorted(t["seq"] for t in sink.seen) == list(range(400))
        assert_contiguous_counts(sink)

    def test_scale_in_merges_partitions_onto_fewer_channels(self):
        """Restore into a narrower width: partitions from several doomed
        channels merge onto their new owners with nothing lost."""
        system = SystemS(hosts=12)
        job = system.submit_job(build_keyed_app(width=4, limit=400))
        system.run_for(3.0)
        pre_counts = {}
        for channel in range(4):
            instance = job.operator_instance(f"work__c{channel}")
            pre_counts.update(dict(instance.state.keyed("counts").items()))
        assert len(pre_counts) == N_KEYS
        operation = system.elastic.set_channel_width(job, "region", 2)
        system.run_for(30.0)
        assert operation.state is RescaleState.COMPLETED
        migration = operation.migration
        assert migration is not None and migration.keys_moved > 0
        # keys previously spread over 4 channels all found a home on 2
        merged = {}
        for channel in range(2):
            instance = job.operator_instance(f"work__c{channel}")
            for key, count in instance.state.keyed("counts").items():
                assert stable_channel_of(key, 2) == channel
                merged[key] = count
        for key, count in pre_counts.items():
            assert merged[key] >= count  # count kept growing post-rescale
        system.run_for(30.0)
        assert_contiguous_counts(job.operator_instance("sink"))

    def test_migration_disabled_keeps_paper_semantics(self):
        system = SystemS(hosts=12)
        job = system.submit_job(
            build_keyed_app(width=2, limit=400, migrate_state=False)
        )
        system.run_for(3.0)
        operation = system.elastic.set_channel_width(job, "region", 4)
        system.run_for(10.0)
        assert operation.state is RescaleState.COMPLETED
        assert operation.migration is None  # no migration phase ran

    def test_round_robin_region_has_no_migration(self):
        """No partition_by -> keyed ownership is undefined -> no migration."""
        from tests.test_elastic import build_region_app

        system = SystemS(hosts=12)
        job = system.submit_job(build_region_app(width=2))
        system.run_for(2.0)
        operation = system.elastic.set_channel_width(job, "region", 3)
        system.run_for(10.0)
        assert operation.state is RescaleState.COMPLETED
        assert operation.migration is None

    def test_rollback_reinstalls_extracted_state(self):
        """Migration during rollback: when the new channels cannot be
        placed, the already-extracted partitions return to their source
        channels and the stream continues with zero state loss."""
        from repro.runtime.host import Host

        # capacity for exactly the initial 6 PEs (src, split, c0, c1, merge,
        # sink) — the two extra channels of a 2->4 rescale cannot be placed
        system = SystemS(hosts=[Host(f"h{i}", capacity=1) for i in range(6)])
        job = system.sam.submit_job(
            system.compile(build_keyed_app(width=2, limit=400, period=0.01))
        )
        system.run_for(2.0)
        operation = system.elastic.set_channel_width(job, "region", 4)
        system.run_for(30.0)
        assert operation.state is RescaleState.FAILED
        assert operation.migration is not None
        assert operation.migration.rolled_back
        # keys are back on their width-2 owners and counting continues
        for i in range(N_KEYS):
            key = f"k{i}"
            owner = stable_channel_of(key, 2)
            instance = job.operator_instance(f"work__c{owner}")
            assert key in instance.state.keyed("counts")
        system.run_for(30.0)
        sink = job.operator_instance("sink")
        assert sorted(t["seq"] for t in sink.seen) == list(range(400))
        assert_contiguous_counts(sink)

    def test_merger_crash_during_drain_fails_before_migration(self):
        """A rescale whose merger died while draining must fail *without*
        touching any keyed state: extraction never runs, the splitter
        resumes at the old width, and every key stays on its old owner."""
        system = SystemS(hosts=12)
        job = system.submit_job(build_keyed_app(width=2, limit=None))
        system.run_for(3.0)
        before = {}
        for channel in range(2):
            instance = job.operator_instance(f"work__c{channel}")
            before.update(dict(instance.state.keyed("counts").items()))
        operation = system.elastic.set_channel_width(job, "region", 4)
        job.pe_of_operator("region__merge").crash("test")  # dies mid-drain
        system.run_for(10.0)
        assert operation.state is RescaleState.FAILED
        assert "cannot rewire" in operation.error
        assert operation.migration is None  # nothing was ever extracted
        splitter = job.operator_instance("region__split")
        assert not splitter.is_quiesced and splitter.width == 2
        for key in before:
            owner = stable_channel_of(key, 2)
            instance = job.operator_instance(f"work__c{owner}")
            assert instance.state.keyed("counts").get(key, 0) >= before[key]

    def test_crashed_channel_is_skipped_by_extraction(self):
        system = SystemS(hosts=12)
        job = system.submit_job(build_keyed_app(width=3, limit=None))
        system.run_for(3.0)
        job.pe_of_operator("work__c1").crash("test")
        operation = system.elastic.set_channel_width(job, "region", 2)
        system.run_for(20.0)
        assert operation.state is RescaleState.COMPLETED
        assert operation.migration is not None
        assert 1 in operation.migration.skipped_channels


class TestRescaleCyclesLeakNothing:
    """The link table stays flat across rescale cycles.

    PE ids are allocated fresh on every scale-out, so the table must
    drop the links of a PE removed for good or it grows by the region's
    width each cycle — and so must everything else the control plane
    keeps per PE (``SAM._discard_pes``): SRM's samples and the checkpoint
    store's chains.  Under
    exactly-once the links a removed channel left toward the merger
    retire at the merger's next covering commit, and the bytes every link
    retains for replay stay flat: the epoch bounds them.
    """

    CYCLES = 20

    @staticmethod
    def _bookkeeping(system, job):
        """Sizes that must not grow, as one comparable dict."""
        transport = system.transport
        plane = transport.reliability
        live = {pe.pe_id for pe in job.pes}
        assert all(dst in live for _src, dst in transport.links)
        sizes = {
            "links": len(transport.links),
            "replaying": sum(1 for link in transport.links.values() if link.replay),
            "replay_bytes": sum(link.replay_bytes for link in transport.links.values()),
            "held": sum(len(units) for units in transport._held.values()),
            "srm_samples": len(system.srm._metrics),
            "chains": sorted(system.checkpoint_store._chains),
        }
        assert {pe_id for _job, pe_id in sizes["chains"]} <= live
        assert {sample.pe_id for sample in system.srm._metrics.values()} == live
        if plane is not None:
            # the source never pauses: at most the tick on the wire at
            # the sampling instant is unacknowledged
            assert len(plane.pending) <= 2
        return sizes

    @pytest.mark.parametrize("delivery", ["best_effort", "exactly_once"])
    def test_twenty_rescale_cycles_keep_per_link_maps_flat(self, delivery):
        system = SystemS(
            hosts=12, config=SystemConfig(delivery=delivery, checkpoint_interval=0.5)
        )
        job = system.submit_job(build_keyed_app(width=2, limit=None))
        system.run_for(2.0)
        after_first = None
        for cycle in range(self.CYCLES):
            for width in (4, 2):
                operation = system.elastic.set_channel_width(job, "region", width)
                system.run_for(6.0)
                assert operation.state is RescaleState.COMPLETED
            sizes = self._bookkeeping(system, job)
            if after_first is None:
                after_first = sizes
            assert sizes == after_first, f"cycle {cycle + 1}"
        sink = job.operator_instance("sink")
        seqs = [t["seq"] for t in sink.seen]
        assert len(seqs) > 10_000
        assert sorted(seqs) == list(range(len(seqs)))  # zero loss, zero dups
        assert_contiguous_counts(sink)


class TestCancelCyclesLeakNothing:
    """A cancelled job leaves nothing on the wire, cycle after cycle.

    The paper's third use case (Sec. 5.3) is an orchestrator that submits
    and cancels jobs for as long as it lives.  ``SAM.cancel_job`` used to
    tell the transport nothing: every link of every dead job stayed in
    the table, units in flight at the cancel instant stayed pending
    toward stopped PEs with a retry timer re-arming for ever, and the
    health plane reported a growing lag watermark on links of jobs that
    no longer existed.
    """

    #: tier-1 budget; the CI ``delivery-matrix`` job runs 200
    CYCLES = 200 if under_profile("wire-ci") else 20

    @staticmethod
    def _chain(cycle):
        app = Application(f"Chain{cycle}")
        g = app.graph
        src = g.add_operator(
            "src", Beacon, params={"values": {"k": 1}, "period": 0.01}, partition="a"
        )
        work = g.add_operator("work", KeyedCounter, params={"key": "k"}, partition="b")
        sink = g.add_operator("sink", Sink, params={"record": False}, partition="c")
        g.connect(src.oport(0), work.iport(0))
        g.connect(work.oport(0), sink.iport(0))
        return app

    @staticmethod
    def _residue(system):
        """Everything that must read the same after every cancelled job."""
        transport, health = system.transport, system.obs.health
        plane = transport.reliability
        return {
            "in_flight": dict(transport._in_flight),
            "pending": len(plane.pending) if plane is not None else 0,
            "replay_bytes": sum(plane.replay_bytes.values()) if plane is not None else 0,
            "kernel_pending": system.kernel.pending_count(),
            "links": dict(transport.links),
            "index": (dict(transport._toward), dict(transport._from)),
            "open_batches": dict(transport._open_batches),
            "held": {fault: units for fault, units in transport._held.items() if units},
            "incarnations": dict(transport._incarnations),
            "health_ports": dict(health._ports),
            "replay_links": set(system.obs._replay_links),
            # what SAM._discard_pes makes the control plane forget per PE
            "srm_samples": dict(system.srm._metrics),
            "chains": dict(system.checkpoint_store._chains),
        }

    @pytest.mark.parametrize("batch_max_size", [1, 8])
    @pytest.mark.parametrize(
        "delivery", ["best_effort", "at_least_once", "exactly_once"]
    )
    def test_submit_cancel_cycles_leave_nothing_behind(self, delivery, batch_max_size):
        system = SystemS(
            hosts=4,
            seed=7,
            config=SystemConfig(
                delivery=delivery,
                batch_max_size=batch_max_size,
                checkpoint_interval=0.5,
            ),
        )
        transport, health = system.transport, system.obs.health
        after_first = None
        cancels_with_units_in_flight = 0
        for cycle in range(self.CYCLES):
            job = system.submit_job(self._chain(cycle))
            # cancel instants sweep the source's 10 ms period, so some
            # (the first among them) fall inside the 1 ms a unit spends
            # on a wire
            system.run_for(2.0 + 0.0005 * ((cycle + 1) % 20))
            if cycle % 5 == 4:  # a crashed-and-restarted PE leaves nothing either
                job.pe_of_operator("work").crash("cycle")
                system.sam.restart_pe(job.job_id, job.pe_of_operator("work").pe_id)
                system.run_for(1.5)
            cancels_with_units_in_flight += bool(transport._in_flight)
            system.cancel_job(job.job_id)
            retransmissions = transport.retransmissions
            system.run_for(2 * system.config.health_interval)
            assert health.max_lag == 0.0, f"cycle {cycle + 1}"
            assert health.link_lags() == {}, f"cycle {cycle + 1}"
            system.run_for(4.0)
            assert transport.retransmissions == retransmissions, f"cycle {cycle + 1}"
            residue = self._residue(system)
            if after_first is None:
                after_first = residue
            assert residue == after_first, f"cycle {cycle + 1}"
        assert cancels_with_units_in_flight >= 1
        assert after_first["links"] == {} and after_first["in_flight"] == {}
        assert after_first["pending"] == 0 and after_first["health_ports"] == {}
        assert after_first["srm_samples"] == after_first["chains"] == {}


class TestControlPlaneStaysFlat:
    """A long-lived orchestrated job costs the control plane no memory.

    The complement of the two cycle tests above: nothing is rescaled or
    cancelled, time just passes.  Every host controller used to keep
    every timer handle it ever made (its trim filtered on ``cancelled``,
    which a fired handle is not), and the orchestrator appended every
    actuation and handler failure to a list for ever.  The routine here
    acts and then fails on every metric event — the worst case for both
    logs, which fill their window inside the first 200 s.
    """

    #: virtual seconds; the CI ``delivery-matrix`` job runs 20,000
    HORIZON = 20_000 if under_profile("wire-ci") else 2_000

    class ActsThenFails(Orchestrator):
        def handleOrcaStart(self, context):
            self._orca.register_event_scope(OperatorMetricScope("ops"))
            self._orca.register_event_scope(OperatorPortMetricScope("ports"))
            self.job = self._orca.submit_application("KeyedElastic")

        def handleOperatorMetricEvent(self, context, scopes):
            self._orca.send_control(self.job.job_id, "sink", "look", {})
            raise RuntimeError("every handler run fails")

        handleOperatorPortMetricEvent = handleOperatorMetricEvent

    @staticmethod
    def _sizes(system, service):
        return {
            "hc_loops": {name: len(hc._loops) for name, hc in system.hcs.items()},
            "actuation_log": len(service.actuation_log),
            "handler_errors": len(service.handler_errors),
            "srm_samples": len(system.srm._metrics),
            "links": len(system.transport.links),
            # the handles each PE could still cancel (its list of them is
            # swept by doubling, so its raw length is a sawtooth)
            "pe_timers": {
                pe.pe_id: len(pe._timers.outstanding()) for pe in service.logic.job.pes
            },
        }

    def test_a_polling_orchestrator_leaves_every_table_flat(self):
        system = SystemS(
            hosts=4,
            config=SystemConfig(delivery="exactly_once", checkpoint_interval=0.5),
        )
        app = build_keyed_app(width=4, period=0.1)
        service = system.submit_orchestrator(
            OrcaDescriptor(
                name="Watcher",
                logic=self.ActsThenFails,
                applications=[ManagedApplication(name=app.name, application=app)],
                metric_poll_interval=3.0,
            )
        )
        system.run_for(200.0)
        after_first = self._sizes(system, service)
        system.run_for(self.HORIZON - 200.0)
        assert self._sizes(system, service) == after_first
        assert after_first["actuation_log"] == after_first["handler_errors"] == LOG_WINDOW
        assert service.queue.delivered_count > 10 * LOG_WINDOW  # still counts everything
        sink = service.logic.job.operator_instance("sink")
        assert_contiguous_counts(sink)


class TestRehydrateRestart:
    def build_plain_counter_app(self):
        app = Application("Plain")
        g = app.graph
        src = g.add_operator(
            "src",
            CallbackSource,
            params={"generator": keyed_generator(), "period": 0.05},
            partition="feed",
        )
        work = g.add_operator("work", KeyedCounter, params={"key": "key"})
        sink = g.add_operator("sink", Sink, partition="out")
        g.connect(src.oport(0), work.iport(0))
        g.connect(work.oport(0), sink.iport(0))
        return app

    def test_graceful_stop_captures_and_rehydrate_restores(self):
        system = SystemS(hosts=6)
        job = system.submit_job(self.build_plain_counter_app())
        system.run_for(5.0)
        pe = job.pe_of_operator("work")
        before = dict(pe.operators["work"].state.keyed("counts").items())
        assert before
        system.sam.stop_pe(job.job_id, pe.pe_id)
        # quiesced snapshot committed at stop, as a full epoch
        stopped = system.checkpoint_store.latest_committed(job.job_id, pe.pe_id)
        assert stopped.full and stopped.payloads["work"]["store"]["keyed"]["counts"]
        system.sam.restart_pe(job.job_id, pe.pe_id, rehydrate=True)
        system.run_for(2.0)
        after = dict(pe.operators["work"].state.keyed("counts").items())
        for key, count in before.items():
            assert after.get(key, 0) >= count

    def test_default_restart_is_empty_paper_semantics(self):
        system = SystemS(hosts=6)
        job = system.submit_job(self.build_plain_counter_app())
        system.run_for(10.0)
        pe = job.pe_of_operator("work")
        before = dict(pe.operators["work"].state.keyed("counts").items())
        assert before and min(before.values()) >= 2
        system.sam.stop_pe(job.job_id, pe.pe_id)
        system.sam.restart_pe(job.job_id, pe.pe_id)  # rehydrate defaults False
        system.run_for(2.0)  # restart delay (1s) + 1s of fresh counting
        after = dict(pe.operators["work"].state.keyed("counts").items())
        # fresh instance: counting restarted from scratch (Fig. 9(b))
        assert after and max(after.values()) < min(before.values())

    def test_crash_never_produces_a_snapshot(self):
        system = SystemS(hosts=6)
        job = system.submit_job(self.build_plain_counter_app())
        system.run_for(10.0)
        pe = job.pe_of_operator("work")
        before = dict(pe.operators["work"].state.keyed("counts").items())
        assert before and min(before.values()) >= 2
        pe.crash("test")
        assert system.checkpoint_store.latest_committed(job.job_id, pe.pe_id) is None
        pe.restart(rehydrate=True)  # nothing to rehydrate from: starts empty
        system.run_for(1.0)
        after = dict(pe.operators["work"].state.keyed("counts").items())
        assert after and max(after.values()) < min(before.values())


class TestCrashedChannelRerouting:
    def test_splitter_masks_dead_channel_and_traffic_flows(self):
        """The live channel's keys keep flowing; the dead channel's keys
        wait for it at the splitter instead of moving to a survivor."""
        system = SystemS(hosts=12)
        job = system.submit_job(build_keyed_app(width=2, limit=None, period=0.05))
        system.run_for(2.0)
        dead_pe = job.pe_of_operator("work__c1")
        dead_pe.crash("test")
        system.run_for(1.0)  # failure notification delay elapses
        splitter = job.operator_instance("region__split")
        assert splitter.masked_channels == {1}
        assert [r for r in system.elastic.reroutes if r.masked]
        sink = job.operator_instance("sink")
        seen_before, parked_before = len(sink.seen), splitter.pending_tuples()
        system.run_for(5.0)
        fresh = {t["key"] for t in sink.seen[seen_before:]}
        assert fresh == {f"k{i}" for i in range(N_KEYS) if stable_channel_of(f"k{i}", 2) == 0}
        assert splitter.pending_tuples() > parked_before > 0
        assert splitter.metric("nParkedTuples").value == splitter.pending_tuples()

    def test_restart_unmasks_the_channel(self):
        system = SystemS(hosts=12)
        job = system.submit_job(build_keyed_app(width=2, limit=None, period=0.05))
        system.run_for(2.0)
        dead_pe = job.pe_of_operator("work__c1")
        dead_pe.crash("test")
        system.run_for(1.0)
        splitter = job.operator_instance("region__split")
        assert splitter.masked_channels == {1}
        system.sam.restart_pe(job.job_id, dead_pe.pe_id)
        system.run_for(3.0)
        assert dead_pe.state is PEState.RUNNING
        assert splitter.masked_channels == set()
        unmasks = [r for r in system.elastic.reroutes if not r.masked]
        assert unmasks and unmasks[-1].reason == "restart_pe"

    def test_graceful_restart_emits_no_phantom_reroutes(self):
        """Regression: stop_pe + restart_pe on a channel PE that was never
        masked must not emit mask/unmask reroute records."""
        system = SystemS(hosts=12)
        job = system.submit_job(build_keyed_app(width=2, limit=None, period=0.05))
        system.run_for(2.0)
        pe = job.pe_of_operator("work__c1")
        system.sam.stop_pe(job.job_id, pe.pe_id)
        system.sam.restart_pe(job.job_id, pe.pe_id)
        system.run_for(3.0)
        assert pe.state is PEState.RUNNING
        assert system.elastic.reroutes == []

    def test_restarted_splitter_is_sent_the_mask_again(self):
        """Regression: a restarted splitter is a fresh instance with an
        empty mask.  The controller's set is the authority and is re-sent
        on the splitter PE's ``pe_restart`` — without it the splitter
        routes into the dead channel and every such tuple is dropped."""
        system = SystemS(hosts=12)
        job = system.submit_job(build_keyed_app(width=3, limit=None, period=0.02))
        system.run_for(2.0)
        job.pe_of_operator("work__c1").crash("test")
        system.run_for(1.0)
        splitter_pe = job.pe_of_operator("region__split")
        assert job.operator_instance("region__split").masked_channels == {1}
        splitter_pe.crash("test")
        system.run_for(0.2)
        system.sam.restart_pe(job.job_id, splitter_pe.pe_id)
        system.run_for(1.5)
        assert splitter_pe.state is PEState.RUNNING
        assert job.operator_instance("region__split").masked_channels == {1}
        dropped = system.transport.total_dropped
        system.run_for(3.0)
        assert system.transport.total_dropped == dropped  # nothing fed to c1
        # one mask record, no phantom ones from the re-send
        assert [(r.channel, r.masked) for r in system.elastic.reroutes] == [(1, True)]

    def test_channel_restarted_while_splitter_was_down_rejoins_with_it(self):
        """A channel whose restart completed while the splitter was down
        missed its unmask; it rejoins when the splitter comes back,
        instead of staying masked for good."""
        system = SystemS(hosts=12)
        job = system.submit_job(build_keyed_app(width=3, limit=None, period=0.02))
        system.run_for(2.0)
        channel_pe = job.pe_of_operator("work__c1")
        channel_pe.crash("test")
        system.run_for(1.0)
        splitter_pe = job.pe_of_operator("region__split")
        splitter_pe.crash("test")
        system.sam.restart_pe(job.job_id, channel_pe.pe_id)
        system.run_for(1.5)  # c1 is back; nobody could be told
        assert channel_pe.state is PEState.RUNNING
        assert [r.masked for r in system.elastic.reroutes] == [True]
        system.sam.restart_pe(job.job_id, splitter_pe.pe_id)
        system.run_for(1.5)
        assert job.operator_instance("region__split").masked_channels == set()
        assert [(r.channel, r.masked) for r in system.elastic.reroutes] == [
            (1, True),
            (1, False),
        ]
        # c1's keys route home again
        system.run_for(2.0)
        assert len(job.operator_instance("work__c1").state.keyed("counts")) > 0

    @pytest.mark.parametrize("channel_back_first", [False, True])
    @pytest.mark.parametrize("limit", [400, 125])
    def test_splitter_replay_reparks_what_the_dead_splitter_parked(self, channel_back_first, limit):
        """Both orders of a splitter outage inside a channel outage, exactly
        once, with the feed still running (400) or already finished (125):
        the restarted splitter's replay parks again what the dead one had
        parked (from the mask's stream position), and a channel already
        back when the splitter restarts is released only after that
        replay — at its replayed FINAL if nothing newer comes.  No tuple
        lost or doubled, counts contiguous."""
        system = SystemS(
            hosts=12, config=SystemConfig(delivery="exactly_once", checkpoint_interval=0.5)
        )
        job = system.submit_job(build_keyed_app(width=3, limit=limit, period=0.02))
        system.run_for(2.0)
        channel_pe = job.pe_of_operator("work__c1")
        splitter_pe = job.pe_of_operator("region__split")
        channel_pe.crash("test")
        system.run_for(1.0)
        splitter_pe.crash("test")
        system.run_for(0.2)
        restarts = [splitter_pe, channel_pe]
        if channel_back_first:
            restarts.reverse()
        for pe in restarts:
            system.sam.restart_pe(job.job_id, pe.pe_id, rehydrate=True)
            system.run_for(1.5)
        system.run_for(10.0)
        sink = job.operator_instance("sink")
        assert sorted(t["seq"] for t in sink.seen) == list(range(limit))
        assert_contiguous_counts(sink)

    def test_channel_crashed_while_splitter_was_down_is_masked_by_its_restart(self):
        """A channel that dies while its splitter is down is recorded as
        masked all the same, so the restarted splitter is sent its mask
        and parks its keys instead of feeding the dead channel until it
        returns — exactly once, counts contiguous."""
        system = SystemS(
            hosts=12, config=SystemConfig(delivery="exactly_once", checkpoint_interval=0.5)
        )
        job = system.submit_job(build_keyed_app(width=3, limit=400, period=0.02))
        system.run_for(2.0)
        splitter_pe = job.pe_of_operator("region__split")
        channel_pe = job.pe_of_operator("work__c1")
        splitter_pe.crash("test")
        system.run_for(0.2)
        channel_pe.crash("test")
        system.run_for(0.2)
        assert [(r.channel, r.masked) for r in system.elastic.reroutes] == [(1, True)]
        system.sam.restart_pe(job.job_id, splitter_pe.pe_id)
        system.run_for(2.0)
        splitter = job.operator_instance("region__split")
        assert splitter.masked_channels == {1} and splitter.pending_tuples() > 0
        system.sam.restart_pe(job.job_id, channel_pe.pe_id, rehydrate=True)
        system.run_for(10.0)
        assert [(r.channel, r.masked) for r in system.elastic.reroutes] == [
            (1, True), (1, False)
        ]
        sink = job.operator_instance("sink")
        assert sorted(t["seq"] for t in sink.seen) == list(range(400))
        assert_contiguous_counts(sink)

    @pytest.mark.parametrize(
        "gap",
        [
            1.0,
            pytest.param(
                0.05,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the second crash comes before the restarted splitter's "
                    "first commit: the tuples it parked after its replay are in no "
                    "epoch, and the next incarnation's replay cannot tell them from "
                    "the ones the first splitter forwarded",
                ),
            ),
        ],
    )
    def test_channel_masked_while_splitter_down_survives_a_second_splitter_crash(
        self, gap
    ):
        """Item 1's first known limit: a channel dies while its splitter
        is down, the restarted splitter parks its keys, and crashes again
        ``gap`` seconds after its restart.  The lane rides the splitter's
        epoch, so the third incarnation restores it and its replay parks
        from where the second began — exactly once, counts contiguous."""
        system = SystemS(
            hosts=12, config=SystemConfig(delivery="exactly_once", checkpoint_interval=0.5)
        )
        job = system.submit_job(build_keyed_app(width=3, limit=400, period=0.02))
        system.run_for(2.0)
        splitter_pe = job.pe_of_operator("region__split")
        channel_pe = job.pe_of_operator("work__c1")
        splitter_pe.crash("test")
        system.run_for(0.2)
        channel_pe.crash("test")
        system.run_for(0.2)
        system.sam.restart_pe(job.job_id, splitter_pe.pe_id, rehydrate=True)
        system.run_for(system.config.pe_restart_delay + gap)
        assert job.operator_instance("region__split").pending_tuples() > 0
        splitter_pe.crash("again")
        system.run_for(0.2)
        system.sam.restart_pe(job.job_id, splitter_pe.pe_id, rehydrate=True)
        system.run_for(1.5)
        system.sam.restart_pe(job.job_id, channel_pe.pe_id, rehydrate=True)
        system.run_for(12.0)
        sink = job.operator_instance("sink")
        assert sorted(t["seq"] for t in sink.seen) == list(range(400))
        assert_contiguous_counts(sink)

    @pytest.mark.parametrize(
        "gap",
        [
            1.0,
            pytest.param(
                0.1,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the splitter crashes before its first commit after the "
                    "rescale: its epoch holds the lanes from before the resume "
                    "re-forwarded them, and the replay re-walks the old width",
                ),
            ),
        ],
    )
    def test_mask_across_a_rescale_survives_a_splitter_crash(self, gap):
        """Item 1's second known limit: a channel is masked, the region
        rescales around it (the rescale skips its state), and the splitter
        crashes ``gap`` seconds after the resume.  Its epoch holds the
        post-rescale lanes, so the restart parks exactly what the dead
        splitter had parked: every tuple reaches the sink exactly once."""
        system = SystemS(
            hosts=12,
            config=SystemConfig(
                delivery="exactly_once", checkpoint_interval=0.5,
                failure_notification_delay=0.001,
            ),
        )
        job = system.submit_job(build_keyed_app(width=3, limit=500, period=0.02))
        # crash between two ticks: masked before anything is sent its way,
        # so the drain does not wait for the channel to come back
        system.run_for(2.005)
        channel_pe = job.pe_of_operator("work__c1")
        channel_pe.crash("test")
        system.run_for(0.3)
        operation = system.elastic.set_channel_width(job, "region", 4)
        system.run_for(0.1)
        assert operation.state is RescaleState.COMPLETED
        assert operation.migration.skipped_channels == [1]
        assert job.operator_instance("region__split").masked_channels == {1}
        system.run_for(gap - 0.1)
        splitter_pe = job.pe_of_operator("region__split")
        splitter_pe.crash("test")
        system.run_for(0.2)
        system.sam.restart_pe(job.job_id, splitter_pe.pe_id, rehydrate=True)
        system.run_for(1.5)
        system.sam.restart_pe(job.job_id, channel_pe.pe_id, rehydrate=True)
        system.run_for(15.0)
        seqs = [t["seq"] for t in job.operator_instance("sink").seen]
        assert sorted(seqs) == list(range(500))

    def test_unmask_releases_parked_in_order(self):
        """The restarted channel gets its parked tuples behind its own
        replay, oldest first; no keyed entry ever lived anywhere else, so
        a later rescale has no stale copy to migrate over the owner."""
        system = SystemS(hosts=12, config=SystemConfig(delivery="exactly_once"))
        job = system.submit_job(build_keyed_app(width=2, limit=None, period=0.02))
        system.run_for(2.0)
        dead_pe = job.pe_of_operator("work__c1")
        dead_pe.crash("test")
        system.run_for(3.0)
        c1_keys = {f"k{i}" for i in range(N_KEYS) if stable_channel_of(f"k{i}", 2) == 1}
        survivor = job.operator_instance("work__c0").state.keyed("counts")
        assert not any(key in survivor for key in c1_keys)
        splitter = job.operator_instance("region__split")
        parked = splitter.pending_tuples()
        assert parked > 0
        sink = job.operator_instance("sink")
        seen_before = len(sink.seen)
        system.sam.restart_pe(job.job_id, dead_pe.pe_id)
        system.run_for(3.0)
        assert splitter.pending_tuples() == 0
        released = [t["seq"] for t in sink.seen[seen_before:] if t["key"] in c1_keys]
        assert len(released) >= parked and released == sorted(released)
        operation = system.elastic.set_channel_width(job, "region", 4)
        system.run_for(10.0)
        assert operation.state is RescaleState.COMPLETED
        for key, counts in counts_by_key(sink).items():
            tail = counts[-20:]
            assert tail == sorted(tail)  # no backwards jump from stale state

    def test_resume_reforwards_parked_lanes(self):
        """A rescale that starts while a keyed channel is masked re-routes
        the parked lanes at resume, ahead of the barrier buffer: keys the
        new width gives to a live channel go there, the rest park again
        for the (surviving) masked channel — and no tuple is lost."""
        system = SystemS(hosts=12, config=SystemConfig(delivery="exactly_once"))
        job = system.submit_job(build_keyed_app(width=3, limit=3000, period=0.02))
        system.run_for(2.0)
        dead_pe = job.pe_of_operator("work__c1")
        dead_pe.crash("test")
        system.run_for(2.0)
        splitter = job.operator_instance("region__split")
        parked = splitter.pending_tuples()
        assert parked > 0
        c1_keys = {f"k{i}" for i in range(N_KEYS) if stable_channel_of(f"k{i}", 3) == 1}
        stay = {key for key in c1_keys if stable_channel_of(key, 2) == 1}
        assert stay and stay != c1_keys
        sink = job.operator_instance("sink")
        operation = system.elastic.set_channel_width(job, "region", 2)
        system.run_for(30.0)
        assert operation.state is RescaleState.COMPLETED
        assert operation.migration.skipped_channels == [1]
        assert splitter.masked_channels == {1}
        # c1's keys that width 2 gives to c0 left the lane at resume: every
        # one of their tuples from mask (2.05) to rescale (4.0) is through
        parked_seqs = {
            seq for seq in range(int(2.1 / 0.02), int(4.0 / 0.02) - 1)
            if f"k{seq % N_KEYS}" in c1_keys - stay
        }
        assert parked_seqs <= {t["seq"] for t in sink.seen}
        assert 0 < splitter.pending_tuples() < parked + 30.0 / 0.02
        system.sam.restart_pe(job.job_id, dead_pe.pe_id, rehydrate=True)
        system.run_for(40.0)
        assert splitter.masked_channels == set() and splitter.pending_tuples() == 0
        seqs = sorted(t["seq"] for t in sink.seen)
        assert seqs == list(range(3000))  # exactly once through it all


class TestStateMetricsAndInspection:
    def make_orchestrated(self):
        system = SystemS(hosts=12)
        app = build_keyed_app(width=2, limit=None, period=0.05)

        class RegionWatcher(Orchestrator):
            def __init__(self):
                super().__init__()
                self.migrated = []
                self.rerouted = []
                self.region_events = []
                self.job_id = None

            def handleOrcaStart(self, context):
                scope = ParallelRegionScope("regions")
                scope.addRegionFilter("region")
                self._orca.register_event_scope(scope)
                job = self._orca.submit_application("KeyedElastic")
                self.job_id = job.job_id

            def handleRegionStateMigratedEvent(self, context, scopes):
                self.migrated.append(context)
                self.region_events.append("region_state_migrated")

            def handleRegionRescaledEvent(self, context, scopes):
                self.region_events.append("region_rescaled")

            def handleChannelReroutedEvent(self, context, scopes):
                self.rerouted.append(context)

        service = system.submit_orchestrator(
            OrcaDescriptor(
                name="Watcher",
                logic=RegionWatcher,
                applications=[ManagedApplication(name=app.name, application=app)],
                metric_poll_interval=5.0,
            )
        )
        return system, service

    def test_state_bytes_flow_to_srm_and_region_sizes(self):
        system, service = self.make_orchestrated()
        system.run_for(8.0)  # metric pushes every 3s
        job_id = service.logic.job_id
        sizes = service.region_state_sizes(job_id, "region")
        assert set(sizes) == {0, 1}
        assert sum(sizes.values()) > 0
        observation = service.region_observation(job_id, "region")
        assert observation.channel_state_sizes == sizes
        assert observation.total_state_bytes == pytest.approx(sum(sizes.values()))

    def test_state_of_inspects_live_keyed_state(self):
        system, service = self.make_orchestrated()
        system.run_for(5.0)
        job_id = service.logic.job_id
        result = service.state_of(job_id, "region", "k0")
        assert result["channel"] == stable_channel_of("k0", 2)
        owner_op = f"work__c{result['channel']}"
        assert result["values"][owner_op]["counts"] >= 1
        assert service.region_key_owner(job_id, "region", "k0") == result["channel"]
        # a key the region never saw: owner is computable, values empty
        ghost = service.state_of(job_id, "region", "neverseen")
        assert ghost["values"] == {}

    def test_migration_event_delivered_before_rescaled(self):
        system, service = self.make_orchestrated()
        system.run_for(5.0)
        job_id = service.logic.job_id
        service.set_channel_width(job_id, "region", 4)
        system.run_for(20.0)
        assert len(service.logic.migrated) == 1
        context = service.logic.migrated[0]
        assert context.keys_moved > 0 and context.new_width == 4
        assert service.logic.region_events == ["region_state_migrated", "region_rescaled"]

    def test_channel_rerouted_events_reach_the_logic(self):
        system, service = self.make_orchestrated()
        system.run_for(3.0)
        job = service.jobs[service.logic.job_id]
        dead_pe = job.pe_of_operator("work__c1")
        dead_pe.crash("test")
        system.run_for(2.0)
        masked = [c for c in service.logic.rerouted if c.masked]
        assert masked and masked[0].channel == 1
        service.restart_pe(dead_pe.pe_id)
        system.run_for(3.0)
        unmasked = [c for c in service.logic.rerouted if not c.masked]
        assert unmasked


class TestStateAwarePolicy:
    def obs(self, width, backlogs, state_sizes):
        return RegionObservation(
            job_id="job_1",
            region="region",
            width=width,
            channel_backlogs=backlogs,
            channel_state_sizes=state_sizes,
        )

    def test_vetoes_expensive_migration(self):
        inner = QueueSizeScalingPolicy(high_watermark=10, low_watermark=1)
        policy = StateAwareScalingPolicy(inner, max_migration_bytes=100)
        # inner wants 3; migration would move ~1/3 of 900 bytes = 300 > 100
        decision = policy.decide(self.obs(2, {0: 50.0}, {0: 450.0, 1: 450.0}))
        assert decision is None

    def test_allows_cheap_migration(self):
        inner = QueueSizeScalingPolicy(high_watermark=10, low_watermark=1)
        policy = StateAwareScalingPolicy(inner, max_migration_bytes=1000)
        assert policy.decide(self.obs(2, {0: 50.0}, {0: 450.0, 1: 450.0})) == 3

    def test_force_backlog_overrides_veto_for_scale_out(self):
        inner = QueueSizeScalingPolicy(high_watermark=10, low_watermark=1)
        policy = StateAwareScalingPolicy(
            inner, max_migration_bytes=1, force_backlog=100.0
        )
        assert policy.decide(self.obs(2, {0: 500.0}, {0: 1e6})) == 3

    def test_passthrough_when_inner_declines(self):
        inner = QueueSizeScalingPolicy(high_watermark=10, low_watermark=1)
        policy = StateAwareScalingPolicy(inner, max_migration_bytes=1)
        assert policy.decide(self.obs(2, {0: 5.0}, {0: 1e6})) is None

    def test_constructor_validation(self):
        inner = QueueSizeScalingPolicy()
        with pytest.raises(ValueError):
            StateAwareScalingPolicy(inner, max_migration_bytes=0)
