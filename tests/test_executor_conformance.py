"""Backend-conformance suite for the executor contract.

Both backends — the deterministic sim kernel and the wall-clock
executor — are held to the same observable semantics through the exact
surface of :class:`repro.sim.kernel.Kernel`, which both are: event ordering,
timer scheduling and cancellation, the event tap, drain behavior, and
(at the system level) identical pipeline results, batch barrier
flushes, crash condemnation with checkpoint rehydration, and an
unmodified chaos campaign.

Wall-clock cases run at ``time_scale=50`` (50 virtual seconds per real
second), so the whole suite stays fast while every relative ordering is
preserved.  A horizon of a few virtual seconds is then a few dozen real
milliseconds, which a loaded host can swallow whole: wherever a case
needs *progress* (a chain of timers, a feed draining, epochs committing)
it waits for it with ``hold`` — exact on the sim, patient on the wall
clock — instead of asserting at the horizon.
"""

from __future__ import annotations

import pytest

from repro import SystemConfig, SystemS
from repro.chaos import FailHost, PEFlap, RateSurge, RestartPE, Scenario
from repro.apps.workloads import ChaosFeed
from repro.runtime.exec import EXECUTOR_BACKENDS, WallClockExecutor, build_executor
from repro.sim.kernel import Kernel
from repro.spl.application import Application
from repro.spl.library import CallbackSource, KeyedCounter, Sink
from repro.spl.parallel import parallel

from tests.conftest import hold

#: virtual seconds per real second for every wall-clock case
SCALE = 50.0

BACKENDS = list(EXECUTOR_BACKENDS)


def make_executor(backend):
    if backend == "sim":
        return Kernel()
    return WallClockExecutor(time_scale=SCALE)


def backend_system(backend, seed=42, hosts=4, **config_kwargs):
    config_kwargs.setdefault("failure_notification_delay", 0.001)
    return SystemS(
        hosts=hosts,
        seed=seed,
        config=SystemConfig(
            executor=backend,
            wallclock_time_scale=SCALE if backend == "wallclock" else 1.0,
            **config_kwargs,
        ),
    )


def build_counter_app(limit=100, period=0.05, width=2, name="Conf"):
    """Keyed pipeline whose output is a pure function of tick *count*.

    The feed closes over the emitted count, never the clock, so the sim
    and wall-clock backends must produce identical tuple streams.
    """

    def feed(now, count):
        if count >= limit:
            return []
        return [{"seq": count, "key": f"k{count % 4}"}]

    app = Application(name)
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": feed, "period": period},
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


def per_key_counts(sink):
    """Map key -> ordered list of KeyedCounter counts seen at the sink."""
    out = {}
    for t in sink.seen:
        out.setdefault(t["key"], []).append(t["count"])
    return out


# ---------------------------------------------------------------------------
# scheduler contract (executor built directly)
# ---------------------------------------------------------------------------


@pytest.fixture(params=BACKENDS)
def executor(request):
    return make_executor(request.param)


class TestSchedulerContract:
    def test_backends_satisfy_the_abc(self, executor):
        # the contract is the kernel class itself: the sim backend is the
        # kernel, the wall-clock executor a subclass with its own clock
        assert isinstance(executor, Kernel)
        assert executor.backend_name in BACKENDS
        assert executor.events_processed == 0
        assert executor.pending_count() == 0

    def test_events_run_in_deadline_then_schedule_order(self, executor):
        ran = []
        base = executor.now
        executor.schedule(0.10, ran.append, "late")  # relative: base + 0.10 or later
        # absolute, so that a stall between these lines cannot reorder them
        executor.schedule_at(base + 0.02, ran.append, "early")
        executor.schedule_at(base + 0.06, ran.append, "mid-a")
        executor.schedule_at(base + 0.06, ran.append, "mid-b")  # same deadline
        executor.run_until(base + 0.2)
        hold(executor, lambda: len(ran) == 4, "all four events", slice_s=0.05)
        assert ran == ["early", "mid-a", "mid-b", "late"]
        assert executor.events_processed == 4
        assert executor.now >= base + 0.2
        assert executor.pending_count() == 0

    def test_cancellation_is_honored_and_idempotent(self, executor):
        ran = []
        handle = executor.schedule(0.02, ran.append, "cancelled")
        keep = executor.schedule(0.04, ran.append, "kept")
        assert handle.time > 0 or executor.wall_clock
        handle.cancel()
        handle.cancel()  # idempotent
        executor.run_for(0.1)
        assert ran == ["kept"]
        assert keep.time <= executor.now

    @pytest.mark.parametrize("drive", ["step", "run_until"])
    def test_fired_is_set_before_the_callback_runs(self, executor, drive):
        """``fired`` tells "already ran" from "pending at this instant":
        both dispatch loops set it before the callback, and a same-time
        sibling that has not run yet still reads as outstanding."""
        seen = []

        def first():
            seen.append((a.fired, b.fired, b.cancelled))

        a = executor.schedule(0.0, first)
        b = executor.schedule(0.0, lambda: None)
        cancelled = executor.schedule(0.0, lambda: None)
        cancelled.cancel()
        assert not a.fired and not b.fired
        if drive == "step":
            while executor.step():
                pass
        else:
            executor.run_until(executor.now + 0.02)
        assert seen == [(True, False, False)]
        assert a.fired and b.fired
        assert cancelled.cancelled and not cancelled.fired

    def test_call_soon_runs_behind_pending_same_time_work(self, executor):
        ran = []
        executor.schedule(0.0, ran.append, "first")
        executor.call_soon(ran.append, "second")
        executor.run_for(0.02)
        assert ran == ["first", "second"]

    def test_chained_periodic_events_advance_within_horizon(self, executor):
        ticks = []

        def tick():
            ticks.append(executor.now)
            if len(ticks) < 5:
                executor.schedule(0.01, tick)

        executor.schedule(0.01, tick)
        executor.run_for(0.2)
        hold(executor, lambda: len(ticks) == 5, "five chained ticks", slice_s=0.05)
        assert ticks == sorted(ticks)

    def test_step_executes_one_event_then_reports_empty(self, executor):
        ran = []
        executor.schedule(0.0, ran.append, 1)
        executor.schedule(0.01, ran.append, 2)
        assert executor.step() is True
        assert ran == [1]
        assert executor.step() is True
        assert ran == [1, 2]
        assert executor.step() is False

    def test_run_drains_the_queue(self, executor):
        ran = []
        for i in range(4):
            executor.schedule(0.002 * i, ran.append, i)
        executor.run()
        assert ran == [0, 1, 2, 3]

    def test_event_tap_sees_every_executed_event(self, executor):
        tapped = []
        executor.event_tap = tapped.append
        executor.schedule(0.0, lambda: None, label="a")
        executor.schedule(0.01, lambda: None, label="b")
        executor.run_for(0.05)
        assert [e.label for e in tapped] == ["a", "b"]
        assert executor.events_processed == 2

    def test_negative_delay_is_rejected(self, executor):
        with pytest.raises(ValueError):
            executor.schedule(-0.1, lambda: None)

    def test_past_deadline_policy(self, executor):
        """Sim rejects the past (determinism needs a total order); the
        wall-clock backend clamps it to "as soon as possible" because
        real time advances between computing and checking a deadline."""
        executor.schedule(0.01, lambda: None)
        executor.run_for(0.02)
        past = executor.now - 0.005
        if executor.wall_clock:
            ran = []
            executor.schedule_at(past, ran.append, "overdue")
            executor.run_for(0.01)
            assert ran == ["overdue"]
        else:
            with pytest.raises(ValueError):
                executor.schedule_at(past, lambda: None)


# ---------------------------------------------------------------------------
# system-level conformance (full middleware on each backend)
# ---------------------------------------------------------------------------


class TestSystemConformance:
    def _run_pipeline(self, backend, **config_kwargs):
        system = backend_system(backend, **config_kwargs)
        job = system.submit_job(build_counter_app())
        system.run_for(8.0)  # feed exhausts at 5.0 virtual seconds
        sink = job.operator_instance("sink")
        hold(system, lambda: len(sink.seen) == 100, "the 100-tuple feed to drain")
        return system, job, sink

    @staticmethod
    def _committed(system):
        return sum(1 for record in system.checkpoints.records if record.committed)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pipeline_delivers_every_tuple_exactly_once(self, backend):
        system, job, sink = self._run_pipeline(backend)
        assert sorted(t["seq"] for t in sink.seen) == list(range(100))
        # keyed state sequenced each key contiguously on both backends
        for counts in per_key_counts(sink).values():
            assert counts == list(range(1, len(counts) + 1))

    def test_both_backends_produce_identical_results(self):
        outputs = {}
        for backend in BACKENDS:
            _system, _job, sink = self._run_pipeline(backend)
            outputs[backend] = per_key_counts(sink)
        assert outputs["sim"] == outputs["wallclock"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_barrier_flushes_partial_batches(self, backend):
        """A batch bigger than the trickle only ships via linger/barrier
        flushes; every tuple must still arrive, on either backend."""
        system, job, sink = self._run_pipeline(
            backend, batch_max_size=64, batch_linger=0.2
        )
        assert sorted(t["seq"] for t in sink.seen) == list(range(100))
        assert sum(system.transport._in_flight.values()) == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_condemnation_and_rehydration(self, backend):
        """A crashed channel PE bumps its incarnation (condemning stale
        in-flight units) and rehydrates from its checkpoint: per-key
        counts stay contiguous — zero state loss, zero duplicates."""
        system = backend_system(
            backend, checkpoint_interval=0.25, delivery="exactly_once"
        )
        job = system.submit_job(build_counter_app(limit=200, period=0.02))
        system.run_for(1.0)  # several epochs committed
        hold(system, lambda: self._committed(system) >= 2, "two committed epochs")
        target = job.pe_of_operator("work__c0")
        incarnation_before = system.transport._incarnations.get(target.pe_id, 0)
        target.crash("conformance")
        system.chaos.inject(RestartPE(pe_index=target.index), job=job)
        system.run_for(8.0)
        sink = job.operator_instance("sink")
        hold(system, lambda: len(sink.seen) >= 200, "the 200-tuple feed to drain")
        assert system.transport._incarnations[target.pe_id] > incarnation_before
        assert sorted(t["seq"] for t in sink.seen) == list(range(200))
        for counts in per_key_counts(sink).values():
            assert counts == list(range(1, len(counts) + 1))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_channel_crash_mid_stream_keeps_keyed_counts_exact(self, backend):
        """Exactly-once with 0.5 s checkpoints: a channel crashes between
        two commits with units in flight and restarts rehydrating after a
        real outage.  Its keys wait at the splitter, its epoch and replay
        rebuild it, and every count the region emits is the count a plain
        dict would have: contiguous per key, final state equal."""
        system = backend_system(
            backend, checkpoint_interval=0.5, delivery="exactly_once",
            failure_notification_delay=0.05,
        )
        job = system.submit_job(build_counter_app(limit=400, period=0.02))
        system.run_for(1.3)
        hold(system, lambda: self._committed(system) >= 2, "two committed epochs")
        target = job.pe_of_operator("work__c1")
        target.crash("conformance")
        system.sam.restart_pe(job.job_id, target.pe_id, rehydrate=True)
        system.run_for(10.0)
        sink = job.operator_instance("sink")
        hold(system, lambda: len(sink.seen) >= 400, "the 400-tuple feed to drain")
        reference = {}
        for seq in range(400):
            key = f"k{seq % 4}"
            reference[key] = reference.get(key, 0) + 1
        assert sorted(t["seq"] for t in sink.seen) == list(range(400))
        for counts in per_key_counts(sink).values():
            assert counts == list(range(1, len(counts) + 1))
        final = {}
        for channel in (0, 1):
            counts = job.operator_instance(f"work__c{channel}").state.keyed("counts")
            assert not set(final) & set(counts.keys())  # one owner per key
            final.update(counts.items())
        assert final == reference

    @pytest.mark.parametrize(
        "backend, victims",
        [
            ("sim", ("region__split", "region__merge", "sink")),
            ("wallclock", ("region__split",)),
        ],
    )
    def test_restarted_region_plumbing_resumes_from_its_epoch(self, backend, victims):
        """Exactly-once with 0.5 s checkpoints: the splitter, then the
        merger, then the sink crash mid-stream and restart rehydrating.
        Each resumes from its epoch — what it is replayed is at most one
        retention window of traffic, not everything it was ever sent —
        and the region loses nothing, doubles nothing, and keeps every
        key's counts contiguous."""
        interval, period, limit = 0.5, 0.02, 600
        system = backend_system(
            backend, checkpoint_interval=interval, delivery="exactly_once",
            failure_notification_delay=0.05,
        )
        job = system.submit_job(build_counter_app(limit=limit, period=period))
        window = interval * system.checkpoint_store.retention / period
        for victim in victims:
            committed = self._committed(system)
            system.run_for(1.2)  # the crash lands mid-interval: a replay is due
            hold(system, lambda: self._committed(system) >= committed + 10, "two rounds")
            pe = job.pe_of_operator(victim)
            before = system.transport.replayed
            pe.crash("conformance")
            system.sam.restart_pe(job.job_id, pe.pe_id, rehydrate=True)
            system.run_for(system.config.pe_restart_delay + 0.05)
            hold(system, lambda: pe.is_running, f"{victim} restarted")
            assert pe.last_restore.restored_ops == (victim,)
            assert system.transport.replayed - before <= window, victim
        system.run_for(limit * period)
        hold(
            system,
            lambda: len(job.operator_instance("sink").seen) >= limit,
            "the feed to drain",
        )
        sink = job.operator_instance("sink")
        assert sorted(t["seq"] for t in sink.seen) == list(range(limit))
        for counts in per_key_counts(sink).values():
            assert counts == list(range(1, len(counts) + 1))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_checkpoint_timers_fire_on_cadence(self, backend):
        system = backend_system(backend, checkpoint_interval=0.25)
        system.submit_job(build_counter_app(limit=50, period=0.02))
        system.run_for(2.0)
        hold(system, lambda: self._committed(system) >= 4, "four committed epochs")

    def test_a_stalled_executor_is_nobodys_death(self):
        """SRM's sweep and the host controllers' heartbeats share one
        executor.  After a stall longer than the heartbeat timeout (60 real
        ms at this scale: a loaded host, or a slow test body between two
        ``run_for`` calls) the overdue sweep runs *before* the equally
        overdue heartbeats, and used to declare every host dead for good —
        which is what ``TestReplicaGraphs``' wall-clock cells died of (every
        later rescale: "no hosts are up").  The sweep discounts its own
        lateness; a controller that really stopped is still found."""
        system = backend_system("wallclock")
        system.run_for(2.0)
        hosts = sorted(system.srm.hosts)
        system.kernel.clock._origin -= 10.0 / SCALE  # the stall: 10 s pass, no event runs
        system.run_for(2.0)
        assert sorted(name for name, host in system.srm.hosts.items() if host.is_up) == hosts
        system.chaos.inject(FailHost(host=hosts[0]))
        hold(system, lambda: sum(h.is_up for h in system.srm.hosts.values()) == len(hosts) - 1, "the dead host found")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chaos_campaign_runs_unmodified(self, backend):
        """The same chaos scenario script — a PE flap plus a rate surge —
        drives either backend through the same engine APIs."""
        system = backend_system(
            backend, checkpoint_interval=0.25, delivery="exactly_once", hosts=6
        )
        feed = ChaosFeed(seed=3, n_keys=8)
        app = Application("ConfChaos")
        g = app.graph
        src = g.add_operator(
            "src",
            CallbackSource,
            params={"generator": feed.generator(), "period": 0.05},
            partition="feed",
        )
        work = g.add_operator(
            "work",
            KeyedCounter,
            params={"key": "key"},
            parallel=parallel(
                width=2, name="region", partition_by="key", max_width=8
            ),
        )
        sink = g.add_operator("sink", Sink, partition="out")
        g.connect(src.oport(0), work.iport(0))
        g.connect(work.oport(0), sink.iport(0))
        job = system.submit_job(app)
        system.run_for(1.0)
        scenario = (
            Scenario("conformance")
            .add(0.5, PEFlap(operator="work__c0", downtime=0.5))
            .add(1.5, RateSurge(factor=3.0, duration=1.0))
        )
        run = system.chaos.run_scenario(scenario, job=job, feed=feed)
        system.run_for(6.0)
        hold(
            system,
            lambda: run.done and run.injections[0].recovery_time is not None,
            "the scenario to finish and the flapped PE to recover",
        )
        assert [i.kind for i in run.injections] == ["pe_flap", "rate_surge"]
        assert len(job.operator_instance("sink").seen) > 0


# ---------------------------------------------------------------------------
# backend selection plumbing
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_build_executor_dispatches_on_config(self):
        sim = build_executor(SystemConfig())
        wall = build_executor(SystemConfig(executor="wallclock"))
        assert sim.backend_name == "sim" and not sim.wall_clock
        assert wall.backend_name == "wallclock" and wall.wall_clock

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            build_executor(SystemConfig(executor="quantum"))

    def test_wallclock_time_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="time_scale"):
            WallClockExecutor(time_scale=0.0)

    def test_system_exposes_selected_backend(self):
        system = backend_system("wallclock")
        assert system.kernel.backend_name == "wallclock"
        assert isinstance(system.kernel, Kernel)
