"""Tests for the repro.checkpoint subsystem: dirty tracking, the epoch
store (commit/retention/torn fallback), the background service, crash
rehydration from committed epochs, a crashed channel's parked keys, the
scale-in global-merge hook, and the new ORCA events."""

import pytest

from repro import ManagedApplication, Orchestrator, OrcaDescriptor, SystemS
from repro.checkpoint import CheckpointStore
from repro.orca.scopes import CheckpointScope
from repro.runtime.system import SystemConfig
from repro.spl.application import Application
from repro.spl.library import CallbackSource, KeyedCounter, Sink
from repro.spl.operators import Operator
from repro.spl.parallel import parallel
from repro.spl.state import KeyedState

N_KEYS = 8


def keyed_generator(n_keys=N_KEYS):
    def generate(now, count):
        return [{"key": f"k{count % n_keys}", "seq": count}]

    return generate


def build_plain_app(period=0.05, limit=None):
    app = Application("PlainCkpt")
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": keyed_generator(), "period": period, "limit": limit},
        partition="feed",
    )
    work = g.add_operator("work", KeyedCounter, params={"key": "key"})
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


def build_region_app(width=2, period=0.02, limit=None):
    app = Application("RegionCkpt")
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
        parallel=parallel(width=width, name="region", partition_by="key", max_width=8),
    )
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


class TestDirtyTracking:
    def test_first_capture_is_full(self):
        state = KeyedState("s")
        state.put("a", 1)
        full, changed, dropped = state.dirty_snapshot()
        assert full and changed == {"a": 1} and dropped == set()

    def test_delta_after_mark_clean(self):
        state = KeyedState("s")
        for i in range(5):
            state.put(f"k{i}", i)
        state.mark_clean()
        state.update("k1", lambda v: v + 10, default=0)
        full, changed, dropped = state.dirty_snapshot()
        assert not full
        assert changed == {"k1": 11}
        assert dropped == set()
        assert state.dirty_count == 1

    def test_get_of_present_key_marks_dirty(self):
        state = KeyedState("s")
        state.put("a", [1])
        state.mark_clean()
        state.get("a").append(2)  # in-place mutation through the handle
        full, changed, _ = state.dirty_snapshot()
        assert not full and changed == {"a": [1, 2]}
        # absent keys are not tracked
        state.mark_clean()
        assert state.get("ghost") is None
        assert state.dirty_count == 0

    def test_delete_tracks_dropped_keys(self):
        state = KeyedState("s")
        state.put("a", 1)
        state.put("b", 2)
        state.mark_clean()
        state.delete("a")
        full, changed, dropped = state.dirty_snapshot()
        assert not full and changed == {} and dropped == {"a"}
        # re-adding moves it back to changed
        state.put("a", 3)
        full, changed, dropped = state.dirty_snapshot()
        assert changed == {"a": 3} and dropped == set()

    def test_restore_invalidates_deltas(self):
        state = KeyedState("s")
        state.put("a", 1)
        state.mark_clean()
        state.restore({"x": 9})
        full, changed, dropped = state.dirty_snapshot()
        assert full and changed == {"x": 9}

    def test_snapshot_values_are_detached(self):
        state = KeyedState("s")
        state.put("a", [1])
        _, changed, _ = state.dirty_snapshot()
        changed["a"].append(2)
        # mutating the captured copy must not affect the live value
        assert state.get("a") == [1]


class TestCheckpointStore:
    def test_commit_gates_visibility(self):
        store = CheckpointStore()
        entry = store.record("j", "pe", {"op": {"store": {}}}, time=1.0)
        assert store.latest_committed("j", "pe") is None  # torn until commit
        assert store.latest("j", "pe") is entry
        store.commit("j", "pe", entry.epoch)
        assert store.latest_committed("j", "pe") is entry

    def test_commit_unknown_epoch_raises(self):
        store = CheckpointStore()
        with pytest.raises(KeyError):
            store.commit("j", "pe", 42)

    def test_retention_keeps_last_n_committed(self):
        store = CheckpointStore(retention=2)
        epochs = []
        for t in range(4):
            entry = store.record("j", "pe", {}, time=float(t))
            store.commit("j", "pe", entry.epoch)
            epochs.append(entry.epoch)
        retained = [e.epoch for e in store.epochs_of("j", "pe")]
        assert retained == epochs[-2:]

    def test_torn_epoch_older_than_commit_is_trimmed(self):
        store = CheckpointStore(retention=2)
        torn = store.record("j", "pe", {}, time=0.0)
        fresh = store.record("j", "pe", {}, time=1.0)
        store.commit("j", "pe", fresh.epoch)
        retained = [e.epoch for e in store.epochs_of("j", "pe")]
        assert torn.epoch not in retained

    def test_epoch_clock_is_monotone_across_pes(self):
        store = CheckpointStore()
        a = store.record("j", "pe1", {}, time=0.0)
        b = store.record("j", "pe2", {}, time=0.0)
        assert b.epoch == a.epoch + 1

    def test_drop_job_and_pe(self):
        store = CheckpointStore()
        e1 = store.record("j1", "pe1", {}, time=0.0)
        store.commit("j1", "pe1", e1.epoch)
        e2 = store.record("j1", "pe2", {}, time=0.0)
        store.commit("j1", "pe2", e2.epoch)
        store.drop_pe("j1", "pe1")
        assert store.latest_committed("j1", "pe1") is None
        assert store.latest_committed("j1", "pe2") is not None
        # a cancelled job is forgotten PE by PE (SAM._discard_pes)
        store.drop_pe("j1", "pe2")
        assert store.latest_committed("j1", "pe2") is None
        assert store.job_status("j1") == {}

    def test_retention_validation(self):
        with pytest.raises(ValueError):
            CheckpointStore(retention=0)


class TestPeriodicCheckpointing:
    def test_background_loop_commits_epochs(self):
        system = SystemS(hosts=6, config=SystemConfig(checkpoint_interval=0.5))
        job = system.submit_job(build_plain_app())
        system.run_for(3.0)
        pe = job.pe_of_operator("work")
        latest = system.checkpoint_store.latest_committed(job.job_id, pe.pe_id)
        assert latest is not None and latest.committed
        assert "work" in latest.payloads
        assert len(system.checkpoints.records) >= 4

    def test_disabled_by_default_paper_semantics(self):
        system = SystemS(hosts=6)
        job = system.submit_job(build_plain_app())
        system.run_for(3.0)
        pe = job.pe_of_operator("work")
        assert system.checkpoint_store.latest_committed(job.job_id, pe.pe_id) is None
        pe.crash("test")
        pe.restart(rehydrate=True)
        assert pe.last_restore is not None
        assert pe.last_restore.source == "none"
        assert len(pe.operators["work"].state.keyed("counts")) == 0

    def test_incremental_capture_skips_cold_partitions(self):
        system = SystemS(hosts=6)
        job = system.submit_job(build_plain_app(limit=64))
        system.run_for(10.0)  # feed exhausted: all 8 keys hold counts
        pe = job.pe_of_operator("work")
        first = system.checkpoints.checkpoint_pe(pe)
        assert first.full and first.keys_total == N_KEYS
        assert first.keys_dirty == N_KEYS
        # touch exactly one key, then capture again: only it re-serializes
        pe.operators["work"].state.keyed("counts").update(
            "k0", lambda v: v + 1, default=0
        )
        second = system.checkpoints.checkpoint_pe(pe)
        assert not second.full
        assert second.keys_dirty == 1
        assert second.keys_total == N_KEYS
        assert second.bytes_written < first.bytes_written
        # the incremental epoch still materializes the complete map
        latest = system.checkpoint_store.latest_committed(job.job_id, pe.pe_id)
        keyed = latest.payloads["work"]["store"]["keyed"]["counts"]
        assert len(keyed) == N_KEYS

    def test_crash_restart_rehydrates_from_committed_epoch(self):
        system = SystemS(hosts=6, config=SystemConfig(checkpoint_interval=0.5))
        job = system.submit_job(build_plain_app())
        system.run_for(5.0)
        pe = job.pe_of_operator("work")
        epoch = system.checkpoint_store.latest_committed(job.job_id, pe.pe_id)
        checkpointed = epoch.payloads["work"]["store"]["keyed"]["counts"]
        assert checkpointed
        pe.crash("test")
        # the crash never produced a quiesced snapshot: no newer epoch
        assert system.checkpoint_store.latest_committed(job.job_id, pe.pe_id) is epoch
        system.sam.restart_pe(job.job_id, pe.pe_id, rehydrate=True)
        system.run_for(2.0)
        assert pe.last_restore is not None
        assert pe.last_restore.source == "checkpoint"
        after = dict(pe.operators["work"].state.keyed("counts").items())
        for key, count in checkpointed.items():
            assert after.get(key, 0) >= count

    def test_graceful_stop_records_committed_epoch(self):
        system = SystemS(hosts=6)
        job = system.submit_job(build_plain_app())
        system.run_for(3.0)
        pe = job.pe_of_operator("work")
        system.sam.stop_pe(job.job_id, pe.pe_id)
        latest = system.checkpoint_store.latest_committed(job.job_id, pe.pe_id)
        assert latest is not None and latest.full
        system.sam.restart_pe(job.job_id, pe.pe_id, rehydrate=True)
        system.run_for(2.0)
        assert pe.last_restore.source == "checkpoint"
        assert pe.last_restore.epoch == latest.epoch

    def test_checkpoint_lag_gauge_flows_to_srm(self):
        system = SystemS(hosts=6, config=SystemConfig(checkpoint_interval=0.5))
        job = system.submit_job(build_plain_app())
        system.run_for(7.0)  # several pushes (every 3s) and checkpoints
        pe = job.pe_of_operator("work")
        lag = system.srm.metric_value(job.job_id, pe.pe_id, None, "checkpointLag")
        assert lag is not None
        assert 0.0 <= lag <= 0.5 + 1e-9

    def test_cancel_job_drops_checkpoints(self):
        system = SystemS(hosts=6, config=SystemConfig(checkpoint_interval=0.5))
        job = system.submit_job(build_plain_app())
        system.run_for(2.0)
        pe = job.pe_of_operator("work")
        assert system.checkpoint_store.latest_committed(job.job_id, pe.pe_id)
        system.cancel_job(job.job_id)
        assert system.checkpoint_store.latest_committed(job.job_id, pe.pe_id) is None

    def test_set_interval_at_runtime(self):
        system = SystemS(hosts=6)
        job = system.submit_job(build_plain_app())
        system.run_for(1.0)
        assert not system.checkpoints.records
        system.checkpoints.set_interval(0.5)
        system.run_for(2.0)
        assert system.checkpoints.records
        pe = job.pe_of_operator("work")
        assert system.checkpoint_store.latest_committed(job.job_id, pe.pe_id)


class TestTornEpochFallback:
    def test_restart_falls_back_to_previous_committed_epoch(self):
        """A torn (uncommitted) epoch must never be loaded: rehydration
        falls back to the newest *committed* epoch."""
        system = SystemS(hosts=6)
        job = system.submit_job(build_plain_app(period=0.2))
        system.run_for(2.0)
        pe = job.pe_of_operator("work")
        committed = system.checkpoints.checkpoint_pe(pe)
        assert committed.committed
        committed_counts = dict(
            system.checkpoint_store.latest_committed(job.job_id, pe.pe_id)
            .payloads["work"]["store"]["keyed"]["counts"]
        )
        system.run_for(2.0)  # more traffic: the next capture differs
        system.checkpoints.commit_fault = lambda pe: True
        torn = system.checkpoints.checkpoint_pe(pe)
        system.checkpoints.commit_fault = None
        assert not torn.committed
        torn_entry = system.checkpoint_store.latest(job.job_id, pe.pe_id)
        assert torn_entry.epoch == torn.epoch and not torn_entry.committed
        torn_counts = torn_entry.payloads["work"]["store"]["keyed"]["counts"]
        assert torn_counts != committed_counts
        pe.crash("test")
        system.sam.restart_pe(job.job_id, pe.pe_id, rehydrate=True)
        probe = {}
        # runs at the same instant as the restart, right after it: sees
        # the restored state before any post-restart tuple arrives
        system.kernel.schedule(
            system.config.pe_restart_delay,
            lambda: probe.update(
                dict(pe.operators["work"].state.keyed("counts").items())
            ),
        )
        system.run_for(2.0)
        assert pe.last_restore.source == "checkpoint"
        assert pe.last_restore.epoch == committed.epoch  # never the torn one
        assert probe == committed_counts

    def test_torn_round_does_not_reset_dirty_tracking(self):
        """After a failed commit the next capture re-serializes the same
        delta (what a restarted checkpointer would do)."""
        system = SystemS(hosts=6)
        job = system.submit_job(build_plain_app(limit=32))
        system.run_for(5.0)
        pe = job.pe_of_operator("work")
        system.checkpoints.checkpoint_pe(pe)  # full, committed
        pe.operators["work"].state.keyed("counts").update(
            "k0", lambda v: v + 1, default=0
        )
        system.checkpoints.commit_fault = lambda pe: True
        torn = system.checkpoints.checkpoint_pe(pe)
        system.checkpoints.commit_fault = None
        assert torn.keys_dirty == 1 and not torn.committed
        retry = system.checkpoints.checkpoint_pe(pe)
        assert retry.committed and retry.keys_dirty == 1


class TestCrashedChannelParks:
    """A crashed channel's keys wait for it at the splitter: no state is
    installed anywhere else, and the rehydrated channel counts on."""

    def _crash_c1(self, config):
        system = SystemS(hosts=12, config=config)
        job = system.submit_job(build_region_app(width=2))
        system.run_for(2.0)
        dead_pe = job.pe_of_operator("work__c1")
        at_crash = dict(dead_pe.operators["work__c1"].state.keyed("counts").items())
        dead_pe.crash("test")
        return system, job, dead_pe, at_crash

    def test_masked_channel_keys_park_and_move_no_state(self):
        system, job, _, at_crash = self._crash_c1(SystemConfig(checkpoint_interval=0.5))
        system.run_for(2.0)
        splitter = job.operator_instance("region__split")
        assert splitter.masked_channels == {1}
        assert splitter.pending_tuples() > 0  # c1's keys wait at the splitter
        survivor = job.operator_instance("work__c0").state.keyed("counts")
        assert at_crash and not any(key in survivor for key in at_crash)

    def test_restart_releases_parked_onto_rehydrated_state(self):
        system, job, dead_pe, at_crash = self._crash_c1(
            SystemConfig(checkpoint_interval=0.5, delivery="exactly_once")
        )
        system.run_for(2.0)
        system.sam.restart_pe(job.job_id, dead_pe.pe_id, rehydrate=True)
        system.run_for(2.0)
        splitter = job.operator_instance("region__split")
        assert splitter.masked_channels == set() and splitter.pending_tuples() == 0
        restarted = job.operator_instance("work__c1").state.keyed("counts")
        for key, count in at_crash.items():
            assert restarted.get(key, 0) > count  # counting went on from the crash
        counts = {}
        for t in job.operator_instance("sink").seen:
            counts.setdefault(t["key"], []).append(t["count"])
        assert all(seq == list(range(1, len(seq) + 1)) for seq in counts.values())


class _GlobalCollector(Operator):
    """Region worker holding a per-channel global list (for merge tests)."""

    STATEFUL = True

    def __init__(self, ctx):
        super().__init__(ctx)
        self._seen = self.state.global_("collected", default=list)

    def on_tuple(self, tup, port):
        self._seen.value.append(tup["seq"])
        self.submit(tup)

    def on_punct(self, punct, port):
        return


def build_global_state_app(width=4, global_merge=None, limit=200, partition_by="key"):
    app = Application("GlobalMerge")
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": keyed_generator(), "period": 0.02, "limit": limit},
        partition="feed",
    )
    work = g.add_operator(
        "work",
        _GlobalCollector,
        parallel=parallel(
            width=width,
            name="region",
            partition_by=partition_by,
            max_width=8,
            global_merge=global_merge,
        ),
    )
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


class TestGlobalMergeHook:
    def test_scale_in_merges_global_state_into_survivors(self):
        merge = lambda name, survivor, doomed: (survivor or []) + (doomed or [])  # noqa: E731
        system = SystemS(hosts=14)
        job = system.submit_job(build_global_state_app(global_merge=merge))
        system.run_for(2.0)
        before = set()
        for channel in range(4):
            instance = job.operator_instance(f"work__c{channel}")
            before.update(instance.state.global_("collected").value)
        assert before
        operation = system.elastic.set_channel_width(job, "region", 2)
        system.run_for(20.0)
        assert operation.migration is not None
        assert operation.migration.global_states_merged == 2  # c2 and c3
        assert operation.migration.dropped_global_states == 0
        after = set()
        for channel in range(2):
            instance = job.operator_instance(f"work__c{channel}")
            after.update(instance.state.global_("collected").value)
        # nothing seen before the shrink was lost with the doomed channels
        assert before <= after

    def test_round_robin_region_still_merges_global_state(self):
        """Regression: a region without partition_by has no keyed
        migration, but its global_merge hook must still fire on shrink."""
        merge = lambda name, survivor, doomed: (survivor or []) + (doomed or [])  # noqa: E731
        system = SystemS(hosts=14)
        job = system.submit_job(
            build_global_state_app(global_merge=merge, partition_by=None)
        )
        system.run_for(2.0)
        before = set()
        for channel in range(4):
            instance = job.operator_instance(f"work__c{channel}")
            before.update(instance.state.global_("collected").value)
        assert before
        operation = system.elastic.set_channel_width(job, "region", 2)
        system.run_for(20.0)
        migration = operation.migration
        assert migration is not None
        assert migration.keys_moved == 0  # no keyed ownership to migrate
        assert migration.global_states_merged == 2
        assert migration.dropped_global_states == 0
        after = set()
        for channel in range(2):
            instance = job.operator_instance(f"work__c{channel}")
            after.update(instance.state.global_("collected").value)
        assert before <= after

    def test_without_hook_global_state_is_dropped_and_counted(self):
        system = SystemS(hosts=14)
        job = system.submit_job(build_global_state_app(global_merge=None))
        system.run_for(2.0)
        operation = system.elastic.set_channel_width(job, "region", 2)
        system.run_for(20.0)
        assert operation.migration is not None
        assert operation.migration.global_states_merged == 0
        assert operation.migration.dropped_global_states == 2


class _CheckpointWatcher(Orchestrator):
    def __init__(self):
        super().__init__()
        self.committed = []
        self.skipped = []
        self.rerouted = []
        self.job_id = None

    def handleOrcaStart(self, context):
        from repro.orca.scopes import ParallelRegionScope

        self._orca.register_event_scope(CheckpointScope("ckpt"))
        self._orca.register_event_scope(ParallelRegionScope("regions"))
        job = self._orca.submit_application("RegionCkpt")
        self.job_id = job.job_id

    def handleChannelReroutedEvent(self, context, scopes):
        self.rerouted.append(context)

    def handleCheckpointCommittedEvent(self, context, scopes):
        self.committed.append(context)

    def handleRehydrateSkippedEvent(self, context, scopes):
        self.skipped.append(context)


class TestOrcaCheckpointEvents:
    def make_orchestrated(self, checkpoint_interval=0.5):
        system = SystemS(
            hosts=12,
            config=SystemConfig(checkpoint_interval=checkpoint_interval),
        )
        app = build_region_app(width=2, period=0.05)
        service = system.submit_orchestrator(
            OrcaDescriptor(
                name="Watcher",
                logic=_CheckpointWatcher,
                applications=[ManagedApplication(name=app.name, application=app)],
                metric_poll_interval=5.0,
            )
        )
        return system, service

    def test_checkpoint_committed_events_reach_the_logic(self):
        system, service = self.make_orchestrated()
        system.run_for(3.0)
        assert service.logic.committed
        context = service.logic.committed[-1]
        assert context.epoch > 0 and context.keys_total >= 0
        assert context.app_name == "RegionCkpt"
        status = service.checkpoint_status(service.logic.job_id)
        assert status  # at least the channel PEs have committed epochs
        for info in status.values():
            assert info["age"] >= 0.0 and info["epoch"] > 0

    def test_channel_rerouted_events_bracket_the_outage(self):
        system, service = self.make_orchestrated()
        system.run_for(2.0)
        job = service.jobs[service.logic.job_id]
        dead_pe = job.pe_of_operator("work__c1")
        dead_pe.crash("test")
        system.run_for(2.0)
        service.restart_pe(dead_pe.pe_id, rehydrate=True)
        system.run_for(3.0)
        assert [(c.channel, c.masked) for c in service.logic.rerouted] == [
            (1, True), (1, False)
        ]
        assert not service.logic.skipped  # the restore succeeded
        assert dead_pe.last_restore.source == "checkpoint"

    def test_rehydrate_skipped_event_when_nothing_restorable(self):
        system, service = self.make_orchestrated(checkpoint_interval=0.0)
        system.run_for(2.0)
        job = service.jobs[service.logic.job_id]
        dead_pe = job.pe_of_operator("work__c1")
        dead_pe.crash("test")
        system.run_for(1.0)
        service.restart_pe(dead_pe.pe_id, rehydrate=True)
        system.run_for(3.0)
        assert service.logic.skipped
        context = service.logic.skipped[-1]
        assert context.pe_id == dead_pe.pe_id
        assert context.reason == "no_snapshot"

    def test_plain_restart_emits_no_skip_event(self):
        system, service = self.make_orchestrated(checkpoint_interval=0.0)
        system.run_for(2.0)
        job = service.jobs[service.logic.job_id]
        dead_pe = job.pe_of_operator("work__c1")
        dead_pe.crash("test")
        system.run_for(1.0)
        service.restart_pe(dead_pe.pe_id)  # rehydrate not requested
        system.run_for(3.0)
        assert not service.logic.skipped

    def test_checkpoint_now_actuation(self):
        system, service = self.make_orchestrated(checkpoint_interval=0.0)
        system.run_for(2.0)
        records = service.checkpoint_now(service.logic.job_id)
        assert records and all(r.committed for r in records)
        assert any(a.action == "checkpoint" for a in service.actuation_log)
        system.run_for(0.5)
        assert service.logic.committed
