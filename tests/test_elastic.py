"""Tests for the elastic subsystem: controller protocol, SAM PE-set changes,
SRM per-channel aggregation, and scaling policies."""

import ast
import pathlib

import pytest

import repro.elastic
from repro import SystemS
from repro.elastic import (
    ElasticController,
    QueueSizeScalingPolicy,
    RegionObservation,
    RescaleState,
    ThroughputScalingPolicy,
)
from repro.errors import ElasticError, PEControlError
from repro.runtime.pe import PEState
from repro.spl.application import Application
from repro.spl.library import Beacon, Sink, Throttle
from repro.spl.parallel import parallel

from tests.conftest import calls, functions_under, where


def build_region_app(width=2, limit=None, rate=50.0, per_tick=4, period=0.1,
                     name="Elastic"):
    app = Application(name)
    g = app.graph
    src = g.add_operator(
        "src",
        Beacon,
        params={"values": {}, "limit": limit, "period": period,
                "per_tick": per_tick},
        partition="feed",
    )
    work = g.add_operator(
        "work",
        Throttle,
        params={"rate": rate},
        parallel=parallel(width=width, name="region"),
    )
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


@pytest.fixture
def big_system():
    return SystemS(hosts=12, seed=42)


class TestPerJobCompilation:
    def test_each_job_gets_a_private_expansion(self, big_system):
        compiled = big_system.compile(build_region_app(width=2))
        job_a = big_system.sam.submit_job(compiled)
        job_b = big_system.sam.submit_job(compiled)
        assert job_a.compiled is not compiled
        assert job_a.compiled is not job_b.compiled
        big_system.run_for(1.0)
        big_system.elastic.set_channel_width(job_a, "region", 4)
        big_system.run_for(2.0)
        assert job_a.compiled.parallel_regions["region"].width == 4
        assert job_b.compiled.parallel_regions["region"].width == 2
        assert compiled.parallel_regions["region"].width == 2


class TestSamPESetChanges:
    def test_add_pes_requires_running_job(self, big_system):
        job = big_system.submit_job(build_region_app())
        with pytest.raises(PEControlError):
            big_system.sam.add_pes(job.job_id, [])  # still SUBMITTED

    def test_remove_pes_drops_metrics(self, big_system):
        job = big_system.submit_job(build_region_app(width=2))
        big_system.run_for(5.0)  # a few HC metric pushes
        channel_pe = job.pe_of_operator("work__c1")
        samples = [
            s
            for s in big_system.srm.get_metrics([job.job_id])
            if s.pe_id == channel_pe.pe_id
        ]
        assert samples
        big_system.sam.remove_pes(job.job_id, [channel_pe.pe_id])
        assert channel_pe.state is PEState.STOPPED
        assert channel_pe not in job.pes
        assert not [
            s
            for s in big_system.srm.get_metrics([job.job_id])
            if s.pe_id == channel_pe.pe_id
        ]


class TestSrmAggregation:
    def test_aggregate_over_channel_operators(self, big_system):
        # throttle rate 2/s vs feed 40/s: backlog builds quickly
        job = big_system.submit_job(build_region_app(width=2, rate=2.0))
        big_system.run_for(7.0)
        aggregate = big_system.srm.aggregate_operator_metric(
            job.job_id, ["work__c0", "work__c1"], "nBuffered"
        )
        assert set(aggregate.per_operator) == {"work__c0", "work__c1"}
        assert aggregate.total > 0
        assert aggregate.maximum >= aggregate.mean >= aggregate.minimum
        assert aggregate.total == pytest.approx(
            sum(aggregate.per_operator.values())
        )

    def test_unknown_operators_contribute_zero(self, big_system):
        job = big_system.submit_job(build_region_app())
        big_system.run_for(4.0)
        aggregate = big_system.srm.aggregate_operator_metric(
            job.job_id, ["ghost"], "nBuffered"
        )
        assert aggregate.per_operator == {"ghost": 0.0}
        assert aggregate.total == 0.0


class TestRescaleProtocol:
    def test_scale_out_zero_loss_and_order(self, big_system):
        job = big_system.submit_job(build_region_app(width=1, limit=200, rate=30.0))
        big_system.run_for(2.0)
        operation = big_system.elastic.set_channel_width(job, "region", 4)
        assert operation.state is RescaleState.DRAINING
        big_system.run_for(30.0)
        assert operation.state is RescaleState.COMPLETED
        assert operation.epoch == 1
        assert len(operation.added_pe_ids) == 3
        sink = job.operator_instance("sink")
        iters = [t["iter"] for t in sink.seen]
        assert sorted(iters) == list(range(200))
        assert iters == sorted(iters)
        assert not any("_pseq" in t.values for t in sink.seen)

    def test_scale_in_zero_loss(self, big_system):
        job = big_system.submit_job(build_region_app(width=4, limit=200, rate=30.0))
        big_system.run_for(2.0)
        operation = big_system.elastic.set_channel_width(job, "region", 1)
        big_system.run_for(30.0)
        assert operation.state is RescaleState.COMPLETED
        assert len(operation.removed_pe_ids) == 3
        assert len(job.pes) == 5  # feed, splitter, 1 channel, merger, sink
        sink = job.operator_instance("sink")
        assert sorted(t["iter"] for t in sink.seen) == list(range(200))

    def test_drain_waits_for_worker_backlog(self, big_system):
        # 1 tuple/s service vs 40/s arrival: the region holds a deep buffer
        # when the rescale starts, and the barrier must wait for all of it.
        job = big_system.submit_job(build_region_app(width=1, limit=40, rate=1.0))
        big_system.run_for(2.0)
        worker = job.operator_instance("work__c0")
        assert worker.pending_items() > 0
        operation = big_system.elastic.set_channel_width(job, "region", 2)
        big_system.run_for(1.0)
        assert operation.state is RescaleState.DRAINING  # still draining
        big_system.run_for(50.0)
        assert operation.state is RescaleState.COMPLETED
        assert operation.drain_polls > 1

    def test_noop_rescale_completes_immediately(self, big_system):
        job = big_system.submit_job(build_region_app(width=2))
        big_system.run_for(1.0)
        operation = big_system.elastic.set_channel_width(job, "region", 2)
        assert operation.state is RescaleState.NOOP

    def test_unknown_region_rejected(self, big_system):
        job = big_system.submit_job(build_region_app())
        big_system.run_for(1.0)
        with pytest.raises(ElasticError):
            big_system.elastic.set_channel_width(job, "nope", 3)

    def test_width_beyond_max_rejected(self, big_system):
        job = big_system.submit_job(build_region_app())
        big_system.run_for(1.0)
        with pytest.raises(ElasticError):
            big_system.elastic.set_channel_width(job, "region", 9)

    def test_concurrent_rescale_rejected(self, big_system):
        job = big_system.submit_job(build_region_app(width=1, rate=1.0))
        big_system.run_for(2.0)
        big_system.elastic.set_channel_width(job, "region", 2)
        with pytest.raises(ElasticError):
            big_system.elastic.set_channel_width(job, "region", 3)

    def test_rescale_of_non_running_job_rejected(self, big_system):
        job = big_system.submit_job(build_region_app())
        big_system.run_for(1.0)
        big_system.cancel_job(job.job_id)
        with pytest.raises(ElasticError):
            big_system.elastic.set_channel_width(job, "region", 3)

    def test_on_complete_callback_and_history(self, big_system):
        job = big_system.submit_job(build_region_app(width=1))
        big_system.run_for(1.0)
        seen = []
        big_system.elastic.set_channel_width(
            job, "region", 2, on_complete=seen.append
        )
        big_system.run_for(10.0)
        assert len(seen) == 1
        assert seen[0].state is RescaleState.COMPLETED
        assert seen[0] in big_system.elastic.history

    def test_reconfig_epochs_are_monotone(self, big_system):
        job = big_system.submit_job(build_region_app(width=1))
        big_system.run_for(1.0)
        first = big_system.elastic.set_channel_width(job, "region", 2)
        big_system.run_for(10.0)
        second = big_system.elastic.set_channel_width(job, "region", 3)
        big_system.run_for(10.0)
        assert (first.epoch, second.epoch) == (1, 2)
        splitter = job.operator_instance("region__split")
        assert splitter.epoch == 2

    def test_channel_crash_does_not_stall_region_output(self, big_system):
        """A crashed channel's lost seqs are skipped after the reorder grace,
        and a later rescale can still complete."""
        app = build_region_app(width=2, rate=50.0)
        app.graph.operator("work").parallel.reorder_grace = 5.0
        job = big_system.submit_job(app)
        big_system.run_for(2.0)
        job.pe_of_operator("work__c1").crash("test")
        big_system.run_for(20.0)
        sink = job.operator_instance("sink")
        merger = job.operator_instance("region__merge")
        # the hole left by the crashed channel was skipped, not waited on
        # forever (the dead channel keeps eating every other tuple, so new
        # holes keep forming — the guard keeps skipping them)
        assert merger.metric("nSeqGapsSkipped").value >= 1
        received_before = len(sink.seen)
        assert received_before > 0
        big_system.run_for(10.0)
        assert len(sink.seen) > received_before  # output still flowing
        # and the region can still be rescaled (replacing the dead channel)
        operation = big_system.elastic.set_channel_width(job, "region", 3)
        big_system.run_for(20.0)
        assert operation.state is RescaleState.COMPLETED

    def test_unplaceable_scale_out_rolls_back(self):
        """If the new channels cannot be placed, the rescale fails cleanly:
        graph and plan return to the old width and the region keeps flowing."""
        from repro.runtime.host import Host

        # exactly enough capacity for the initial 5 PEs, none spare
        system = SystemS(hosts=[Host(f"h{i}", capacity=1) for i in range(5)])
        job = system.sam.submit_job(
            system.compile(build_region_app(width=1, limit=200, rate=100.0))
        )
        system.run_for(1.0)
        seen = []
        operation = system.elastic.set_channel_width(
            job, "region", 2, on_complete=seen.append
        )
        system.run_for(30.0)
        assert operation.state is RescaleState.FAILED
        assert "rewire failed" in operation.error
        assert seen == [operation]  # failure still reported to the caller
        plan = job.compiled.parallel_regions["region"]
        assert plan.width == 1
        assert plan.channel_ops == [["work__c0"]]
        assert "work__c1" not in job.compiled.application.graph.operators
        assert "work__c1" not in job.compiled.placement
        splitter = job.operator_instance("region__split")
        assert not splitter.is_quiesced  # resumed at the old width
        system.run_for(30.0)
        sink = job.operator_instance("sink")
        assert sorted(t["iter"] for t in sink.seen) == list(range(200))

    def test_fused_channels_refuse_scale_in(self, big_system):
        compiled = big_system.compile(build_region_app(width=2), strategy="fuse_all")
        job = big_system.sam.submit_job(compiled)
        big_system.run_for(1.0)
        with pytest.raises(ElasticError):
            big_system.elastic.set_channel_width(job, "region", 1)


class TestScalingPolicies:
    def obs(self, width, backlogs, throughput=None):
        return RegionObservation(
            job_id="job_1",
            region="region",
            width=width,
            channel_backlogs=backlogs,
            throughput=throughput,
        )

    def test_queue_policy_scales_out_above_high_watermark(self):
        policy = QueueSizeScalingPolicy(high_watermark=10, low_watermark=1)
        assert policy.decide(self.obs(2, {0: 3.0, 1: 12.0})) == 3

    def test_queue_policy_scales_in_below_low_watermark(self):
        policy = QueueSizeScalingPolicy(high_watermark=10, low_watermark=1)
        assert policy.decide(self.obs(3, {0: 0.0, 1: 1.0, 2: 0.5})) == 2

    def test_queue_policy_dead_band_returns_none(self):
        policy = QueueSizeScalingPolicy(high_watermark=10, low_watermark=1)
        assert policy.decide(self.obs(2, {0: 5.0, 1: 5.0})) is None

    def test_queue_policy_respects_bounds(self):
        policy = QueueSizeScalingPolicy(
            high_watermark=10, low_watermark=1, min_width=2, max_width=3
        )
        assert policy.decide(self.obs(3, {0: 99.0})) is None  # at max
        assert policy.decide(self.obs(2, {0: 0.0, 1: 0.0})) is None  # at min

    def test_throughput_policy_sizes_by_demand(self):
        policy = ThroughputScalingPolicy(target_per_channel=10.0, max_width=8)
        assert policy.decide(self.obs(1, {}, throughput=35.0)) == 4
        assert policy.decide(self.obs(4, {}, throughput=35.0)) is None
        assert policy.decide(self.obs(4, {}, throughput=5.0)) == 1

    def test_throughput_policy_headroom(self):
        policy = ThroughputScalingPolicy(
            target_per_channel=10.0, max_width=8, headroom=1.5
        )
        assert policy.decide(self.obs(1, {}, throughput=35.0)) == 6

    def test_throughput_policy_without_observation_is_none(self):
        policy = ThroughputScalingPolicy(target_per_channel=10.0)
        assert policy.decide(self.obs(2, {0: 5.0})) is None

    def test_policy_constructor_validation(self):
        with pytest.raises(ValueError):
            QueueSizeScalingPolicy(high_watermark=1, low_watermark=2)
        with pytest.raises(ValueError):
            ThroughputScalingPolicy(target_per_channel=0)


class TestOneMover:
    """Each state-moving decision exists once under ``src/repro/elastic/``.

    Structural, like ``test_runtime_pe_transport.TestOneWire``: "which
    channel owns this key, and how do its entries get onto the live
    operator there" used to be written in seven routines of the
    controller, next to a private copy of the compiler's PE grouping; an
    eighth copy of either must fail here, not in a golden three PRs later.
    """

    @staticmethod
    def _functions(root):
        return functions_under(root)

    _where = staticmethod(where)

    _calls = staticmethod(calls)

    @staticmethod
    def _names(*names):
        return lambda node: isinstance(node, ast.Name) and node.id in names

    @property
    def elastic(self):
        return pathlib.Path(repro.elastic.__file__).parent

    def test_keyed_state_is_taken_and_placed_by_the_mover_alone(self):
        assert self._where(self.elastic, self._calls("extract_partition")) == [
            "migration.py:KeyedMover.take"
        ]
        assert self._where(self.elastic, self._calls("install")) == [
            "migration.py:KeyedMover.place"
        ]

    def test_keyed_state_moves_only_in_a_rescale(self):
        # a crashed channel's keys wait for it at the splitter: the
        # rerouter never moves state, only the rescale's migration does
        assert self._where(self.elastic, self._calls("KeyedMover")) == [
            "migration.py:RegionMigration.__init__"
        ]

    def test_ownership_functions_are_built_in_one_place(self):
        assert sorted(
            self._where(self.elastic, self._names("stable_channel_of"))
        ) == ["migration.py:owner_at"]

    def test_pe_specs_are_built_by_the_compiler_alone(self):
        src = self.elastic.parent
        assert self._where(src, self._calls("PESpec")) == ["compiler.py:SPLCompiler._build_pes"]
        split = self._where(
            src,
            lambda node: isinstance(node, ast.Attribute)
            and node.attr == "intra_pe_edges"
            and isinstance(node.ctx, ast.Store),
        )
        assert split == ["compiler.py:CompiledApplication.split_edges"]

    def test_the_forks_and_copies_are_gone(self):
        names = [name.split(".")[-1] for _, name, _ in self._functions(self.elastic)]
        for gone in (
            "_remask_channels_of",
            "_extend_compiled",
            "_recompute_edge_split",
            "_extract_keyed_partitions",
            "_install_keyed_partitions",
            "_install_via_detour",
            "_uninstall_keyed_partitions",
            "_reinstall_extracted",
            "_reclaim_detour_state",
            "_seed_detour_state",
            "_seed",
            "_reclaim",
            "detour_at",
        ):
            assert gone not in names, gone
        # ``migrate_state`` is a dataclass field with a default: no guards
        guarded = self._where(
            self.elastic,
            lambda node: self._calls("getattr")(node)
            and any(getattr(arg, "value", None) == "migrate_state" for arg in node.args),
        )
        assert guarded == []
        # no routine is forked on a ``masked: bool`` parameter
        forked = [
            f"{file}:{name}"
            for file, name, function in self._functions(self.elastic)
            for arg in function.args.args + function.args.kwonlyargs
            if arg.arg == "masked" and getattr(arg.annotation, "id", None) == "bool"
        ]
        assert forked == []

    def test_no_elastic_module_outgrows_its_decision(self):
        for path in sorted(self.elastic.glob("*.py")):
            assert len(path.read_text().splitlines()) <= 700, path.name
