"""Double-fault timing races: a second fault landing inside a state
transition window.

PR 2/3 left two epoch-clock races untested:

* a host failure landing *during* a rescale's drain/migration phase
  (the migrating region must either complete around the dead channel or
  roll back — never lose the epoch barrier or hang the splitter);
* a host failure landing *during* a checkpoint commit (the epoch must
  stay torn and recovery must fall back to the previous committed
  epoch).
"""

from __future__ import annotations

import pytest

from repro import SystemConfig, SystemS
from repro.apps.workloads import ChaosFeed
from repro.chaos import FailHost, RestartPE
from repro.elastic.controller import RescaleState
from repro.runtime.pe import PEState
from repro.spl.application import Application
from repro.spl.library import CallbackSource, KeyedCounter, Sink
from repro.spl.parallel import parallel


def build_app(feed, width=3, period=0.05):
    app = Application("DoubleFault")
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": feed.generator(), "period": period},
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
            max_width=8,
            reorder_grace=1.0,
        ),
    )
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


def build_plain_app(feed, period=0.05):
    app = Application("DoubleFaultPlain")
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": feed.generator(), "period": period},
        partition="feed",
    )
    work = g.add_operator("work", KeyedCounter, params={"key": "key"})
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


class TestHostFailureDuringRescale:
    def test_doomed_channel_host_dies_mid_drain(self):
        """Shrink 3 -> 2 while the doomed channel's host dies mid-drain.

        The migration phase must skip the dead channel (its state died
        with the crash) and the rescale must still complete: the barrier
        epoch advances and the region keeps flowing at the new width.
        """
        system = SystemS(hosts=14, seed=42, config=SystemConfig())
        feed = ChaosFeed(seed=5, base_rate=2)
        job = system.submit_job(build_app(feed, width=3))
        system.run_for(3.0)
        doomed_pe = job.pe_of_operator("work__c2")
        operation = system.elastic.set_channel_width(job, "region", 2)
        # the host dies before the first drain poll (poll interval 0.05)
        system.chaos.inject(FailHost(host=doomed_pe.host_name), at=system.now + 0.01)
        system.run_for(20.0)
        assert operation.state is RescaleState.COMPLETED
        assert operation.error is None
        assert operation.migration is not None
        assert 2 in operation.migration.skipped_channels
        plan = job.compiled.parallel_regions["region"]
        assert plan.width == 2
        splitter = job.operator_instance(plan.splitter)
        assert not splitter.is_quiesced
        assert operation.epoch > 0
        # the region still flows after the double fault
        sink_op = job.operator_instance("sink")
        count_after_rescale = len(sink_op.seen)
        system.run_for(3.0)
        assert len(sink_op.seen) > count_after_rescale

    def test_surviving_destination_dies_mid_drain(self):
        """Shrink 3 -> 2 while a *surviving* channel dies mid-drain.

        Partitions extracted off the doomed channel whose new owner is
        the dead channel are dropped with crash semantics (counted in
        ``keys_lost``) — the rescale itself must still complete and the
        epoch clock must advance exactly once.
        """
        system = SystemS(
            hosts=14,
            seed=42,
            config=SystemConfig(failure_notification_delay=0.001),
        )
        feed = ChaosFeed(seed=5, base_rate=2, n_keys=24)
        job = system.submit_job(build_app(feed, width=3))
        system.run_for(3.0)
        survivor_pe = job.pe_of_operator("work__c0")
        epochs_before = system.checkpoint_store.epochs.current
        operation = system.elastic.set_channel_width(job, "region", 2)
        system.chaos.inject(FailHost(host=survivor_pe.host_name), at=system.now + 0.01)
        system.run_for(20.0)
        assert operation.state is RescaleState.COMPLETED
        assert operation.migration is not None
        # entries rehashed onto the dead survivor died with it
        assert operation.migration.keys_lost > 0
        assert operation.epoch == epochs_before + 1

    def test_splitter_host_dies_mid_drain_fails_gracefully(self):
        """The splitter's own host dying mid-drain fails the rescale
        without hanging: the operation reports FAILED and no exception
        escapes into the kernel."""
        system = SystemS(hosts=14, seed=42, config=SystemConfig())
        feed = ChaosFeed(seed=5, base_rate=2)
        job = system.submit_job(build_app(feed, width=3))
        system.run_for(3.0)
        plan = job.compiled.parallel_regions["region"]
        splitter_pe = job.pe_of_operator(plan.splitter)
        operation = system.elastic.set_channel_width(job, "region", 2)
        system.chaos.inject(FailHost(host=splitter_pe.host_name), at=system.now + 0.01)
        system.run_for(20.0)
        assert operation.state is RescaleState.FAILED
        assert operation.error is not None
        assert plan.width == 3  # region unchanged


class TestHostFailureDuringCheckpointCommit:
    def test_commit_torn_by_host_death_falls_back_to_previous_epoch(self):
        """The host dies between checkpoint record and commit.

        The epoch stays torn; after revive + rehydrating restart the PE
        restores the *previous committed* epoch — never the torn one.
        """
        system = SystemS(
            hosts=6,
            seed=42,
            config=SystemConfig(checkpoint_interval=0.25),
        )
        feed = ChaosFeed(seed=5, base_rate=2, n_keys=10)
        job = system.submit_job(build_plain_app(feed))
        system.run_for(2.0)  # several committed epochs exist
        pe = job.pe_of_operator("work")
        committed_before = system.checkpoint_store.latest_committed(
            job.job_id, pe.pe_id
        )
        assert committed_before is not None
        killed = {}

        def die_during_commit(victim):
            if victim.pe_id == pe.pe_id and not killed:
                killed["at"] = system.now
                system.hcs[victim.host_name].kill()
                return True  # the commit never happens: epoch stays torn
            return False

        system.checkpoints.commit_fault = die_during_commit
        system.run_for(1.0)  # the next checkpoint round triggers the kill
        system.checkpoints.commit_fault = None
        assert killed and pe.state is PEState.CRASHED
        store = system.checkpoint_store
        torn = store.all_chains()[job.job_id, pe.pe_id][-1]
        latest_committed = store.latest_committed(job.job_id, pe.pe_id)
        assert torn is not None and not torn.committed
        assert latest_committed is not None
        assert latest_committed.epoch < torn.epoch

        host = pe.host_name
        system.hcs[host].revive()
        system.chaos.inject(RestartPE(pe_index=pe.index), job=job)
        system.run_for(2.0)
        assert pe.state is PEState.RUNNING
        report = pe.last_restore
        assert report is not None and report.source == "checkpoint"
        # never the torn epoch: recovery fell back to the last commit
        assert report.epoch == latest_committed.epoch
        restored_total = sum(
            count
            for _, count in latest_committed.payloads["work"]["store"]["keyed"][
                "counts"
            ].items()
        )
        live_total = sum(
            count
            for _, count in pe.operators["work"].state.keyed("counts").items()
        )
        assert live_total >= restored_total > 0

    def test_epoch_clock_totally_orders_recovery_and_later_commits(self):
        """Epochs committed after the torn-commit crash are strictly
        newer than both the torn epoch and the recovery, keeping the
        shared clock monotone across the double fault."""
        system = SystemS(
            hosts=6,
            seed=42,
            config=SystemConfig(checkpoint_interval=0.25),
        )
        feed = ChaosFeed(seed=5, base_rate=2, n_keys=10)
        job = system.submit_job(build_plain_app(feed))
        system.run_for(2.0)
        pe = job.pe_of_operator("work")
        killed = {}

        def die_during_commit(victim):
            if victim.pe_id == pe.pe_id and not killed:
                killed["at"] = system.now
                system.hcs[victim.host_name].kill()
                return True
            return False

        system.checkpoints.commit_fault = die_during_commit
        system.run_for(1.0)
        system.checkpoints.commit_fault = None
        store = system.checkpoint_store
        torn_epoch = store.all_chains()[job.job_id, pe.pe_id][-1].epoch
        system.hcs[pe.host_name].revive()
        system.chaos.inject(RestartPE(pe_index=pe.index), job=job)
        system.run_for(3.0)  # new rounds commit after recovery
        newest = store.latest_committed(job.job_id, pe.pe_id)
        assert newest is not None
        assert newest.epoch > torn_epoch
        history = [e.epoch for e in store.all_chains()[job.job_id, pe.pe_id]]
        assert history == sorted(history)
