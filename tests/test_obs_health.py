"""Tests for the repro.obs health plane: sliding-window statistics,
SLO validation and multi-window burn-rate classification, deterministic
bottleneck attribution, transport lag watermarks, byte-stable health
snapshots, exactly-once replay-buffer gauges, ``health_alert`` ORCA
delivery through HealthScope, the health-aware scaling policy, and the
healthwatch dashboard renderer."""

import pytest

from repro import (
    ManagedApplication,
    Orchestrator,
    OrcaDescriptor,
    SystemConfig,
    SystemS,
)
from repro.elastic import HealthAwareScalingPolicy
from repro.elastic.policy import RegionObservation, ScalingPolicy
from repro.obs import SlidingWindow, Slo
from repro.obs.detect import BottleneckDetector, PressureSample
from repro.obs.slo import SHORT_WINDOW, classify
from repro.orca.scopes import HealthScope
from repro.tools.healthwatch import parse_snapshot, render_dashboard

from tests.conftest import make_linear_app
from tests.test_transport_batching import tup, wire_fixture
from tests.test_transport_delivery import reliable_system


class TestSlidingWindow:
    def test_basic_statistics(self):
        w = SlidingWindow(horizon=10.0)
        w.observe(0.1, 2.0)
        w.observe(0.2, 4.0)
        assert w.count(0.2) == 2
        assert w.total(0.2) == 6.0
        assert w.mean(0.2) == 3.0
        assert w.maximum(0.2) == 4.0
        assert w.rate(0.2) == pytest.approx(0.2)

    def test_eviction_beyond_horizon(self):
        w = SlidingWindow(horizon=10.0)
        w.observe(0.0, 5.0)
        assert w.count(5.0) == 1
        assert w.count(20.0) == 0
        assert w.mean(20.0) == 0.0
        assert w.maximum(20.0) == 0.0

    def test_quantile_interpolates_and_clamps(self):
        w = SlidingWindow(horizon=10.0)
        for _ in range(50):
            w.observe(1.0, 0.02)
        for _ in range(50):
            w.observe(1.0, 0.2)
        p95 = w.quantile(1.0, 0.95)
        assert 0.1 < p95 <= 0.25
        # the +Inf bucket clamps to the observed maximum
        tall = SlidingWindow(horizon=10.0)
        tall.observe(1.0, 50.0)
        assert tall.quantile(1.0, 0.99) <= 50.0

    def test_empty_quantile_is_zero(self):
        w = SlidingWindow(horizon=10.0)
        assert w.quantile(0.0, 0.5) == 0.0

    def test_deterministic_across_identical_feeds(self):
        def build():
            w = SlidingWindow(horizon=5.0)
            for i in range(100):
                w.observe(i * 0.05, (i % 7) * 0.01)
            return w

        a, b = build(), build()
        assert a.mean(5.0) == b.mean(5.0)
        assert a.quantile(5.0, 0.95) == b.quantile(5.0, 0.95)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindow(horizon=0.0)
        with pytest.raises(ValueError):
            SlidingWindow(horizon=1.0, buckets=0)


class TestSlo:
    def test_valid_construction(self):
        slo = Slo("lat", "latency_p95", 0.1)
        assert slo.warn_burn == 1.0 and slo.page_burn == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Slo("x", "cpu", 0.1)  # unknown signal
        with pytest.raises(ValueError):
            Slo("x", "loss", 0.0)  # objective must be positive
        with pytest.raises(ValueError):
            Slo("x", "lag", 0.1, short_window=5.0, long_window=1.0)
        with pytest.raises(ValueError):
            Slo("x", "lag", 0.1, warn_burn=2.0, page_burn=1.0)

    def test_classify_requires_both_windows(self):
        slo = Slo("x", "lag", 1.0, warn_burn=1.0, page_burn=2.0)
        assert classify(3.0, 3.0, slo) == "page"
        assert classify(1.5, 1.2, slo) == "warn"
        # a short-window blip without a sustained long burn stays quiet
        assert classify(5.0, 0.5, slo) is None
        assert classify(0.5, 5.0, slo) is None
        assert classify(0.2, 0.2, slo) is None


class TestBottleneckDetector:
    def sample(self, target, depth, growth=0.0, service=0.001, retry=0.0):
        return PressureSample(
            target=target,
            kind="link",
            queue_depth=depth,
            queue_growth=growth,
            service_p95=service,
            retry_pressure=retry,
        )

    def test_calm_fleet_has_no_bottleneck(self):
        detector = BottleneckDetector()
        assert detector.evaluate([]) is None
        assert detector.evaluate([self.sample("a", 0.0)]) is None

    def test_deepest_pressured_link_wins(self):
        detector = BottleneckDetector()
        verdict = detector.evaluate(
            [
                self.sample("calm", 2.0),
                self.sample("hot", 10.0, growth=4.0, retry=3.0),
            ]
        )
        assert verdict is not None
        assert verdict.target == "hot"
        assert verdict.kind == "link"
        assert "queue=10" in verdict.why
        assert "retry_pressure=3" in verdict.why

    def test_equal_scores_tie_break_on_name(self):
        detector = BottleneckDetector()
        verdict = detector.evaluate(
            [self.sample("beta", 5.0), self.sample("alpha", 5.0)]
        )
        assert verdict.target == "alpha"

    def test_negative_growth_never_boosts(self):
        detector = BottleneckDetector()
        verdict = detector.evaluate(
            [
                self.sample("draining", 8.0, growth=-5.0),
                self.sample("filling", 8.0, growth=5.0),
            ]
        )
        assert verdict.target == "filling"


def pressured_system(run_for=5.0):
    """An at-least-once system with a fully dropped sink link: retry
    pressure accumulates, so every health tick sees a lag watermark."""
    system = SystemS(
        hosts=4, seed=42, config=SystemConfig(delivery="at_least_once")
    )
    job = system.submit_job(make_linear_app(period=0.2))
    system.run_for(0.5)
    sink_pe = job.pe_of_operator("sink")
    system.transport.install_link_fault(
        drop_probability=1.0, dst_pe=sink_pe.pe_id
    )
    system.run_for(run_for)
    return system, job, sink_pe


class TestHealthMonitor:
    def test_always_on_tick_runs(self, system):
        system.run_for(5.0)
        assert system.obs.health.ticks >= 9
        assert system.obs.health.snapshot().interval == 0.5

    def test_interval_zero_disables_the_plane(self):
        quiet = SystemS(
            hosts=2, seed=42, config=SystemConfig(health_interval=0.0)
        )
        quiet.run_for(5.0)
        assert quiet.obs.health.ticks == 0

    def test_calm_system_snapshot_is_empty(self, system):
        system.run_for(2.0)
        snap = system.obs.health.snapshot()
        assert snap.links == ()
        assert snap.bottleneck is None
        assert snap.max_lag == 0.0
        assert "bottleneck: none" in snap.render()

    def test_retry_pressure_raises_the_lag_watermark(self):
        system, job, sink_pe = pressured_system()
        health = system.obs.health
        assert health.max_lag > 0.0
        lags = health.link_lags()
        name = f"sink@{sink_pe.pe_id}#0"
        assert name in lags and lags[name] > 0.0
        assert health.peak_link_lag >= lags[name]
        assert health.peak_retry_pressure > 0

    def test_bottleneck_attributes_the_faulted_link(self):
        system, job, sink_pe = pressured_system()
        verdict = system.obs.health.bottleneck
        assert verdict is not None
        assert verdict.target == f"sink@{sink_pe.pe_id}#0"
        assert "retry_pressure=" in verdict.why

    def test_ack_round_trips_feed_latency_signal(self):
        system = reliable_system("at_least_once")
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        for i in range(5):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(1.0)
        health = system.obs.health
        p95 = health._signal_value(
            "latency_p95", None, SHORT_WINDOW, system.now
        )
        assert p95 > 0.0
        assert health.snapshot().ack_p95 == p95

    def test_snapshot_render_is_byte_stable(self):
        first = pressured_system()[0].obs.health.snapshot().render()
        second = pressured_system()[0].obs.health.snapshot().render()
        assert first == second
        assert first.startswith("# health snapshot\n")

    def test_status_summarizes_the_plane(self):
        system, job, sink_pe = pressured_system()
        status = system.obs.health.status()
        assert status["ticks"] > 0
        assert status["max_lag"] > 0.0
        assert status["bottleneck"]["target"] == f"sink@{sink_pe.pe_id}#0"
        assert status["peak_queue_depth"] >= 0


class TestSloAlerts:
    def add_lag_slo(self, system, **overrides):
        params = dict(
            short_window=1.0, long_window=2.0, warn_burn=1.0, page_burn=2.0
        )
        params.update(overrides)
        return system.obs.health.add_slo(
            Slo("lag-budget", "lag", 0.001, **params)
        )

    def test_sustained_pressure_fires_and_escalates(self):
        system = SystemS(
            hosts=4, seed=42, config=SystemConfig(delivery="at_least_once")
        )
        self.add_lag_slo(system)
        job = system.submit_job(make_linear_app(period=0.2))
        system.run_for(0.5)
        sink_pe = job.pe_of_operator("sink")
        system.transport.install_link_fault(
            drop_probability=1.0, dst_pe=sink_pe.pe_id
        )
        system.run_for(5.0)
        health = system.obs.health
        assert health.alerts_fired >= 1
        assert health.pages_fired >= 1
        last = health.alerts[-1]
        assert last.slo == "lag-budget" and last.signal == "lag"
        assert last.bottleneck == f"sink@{sink_pe.pe_id}#0"
        assert last.observed > last.objective

    def test_alert_clears_when_pressure_drains(self):
        system = SystemS(
            hosts=4, seed=42, config=SystemConfig(delivery="at_least_once")
        )
        self.add_lag_slo(system)
        job = system.submit_job(make_linear_app(limit=3, period=0.2))
        system.run_for(0.5)
        sink_pe = job.pe_of_operator("sink")
        fault = system.transport.install_link_fault(
            drop_probability=1.0, dst_pe=sink_pe.pe_id
        )
        system.run_for(3.0)
        assert system.obs.health._active
        system.transport.clear_link_fault(fault)
        system.run_for(10.0)
        assert system.obs.health._active == {}

    def test_escalation_fires_once_per_severity(self):
        """warn -> page fires twice; staying at page does not re-fire."""
        system = SystemS(
            hosts=4, seed=42, config=SystemConfig(delivery="at_least_once")
        )
        self.add_lag_slo(system)
        job = system.submit_job(make_linear_app(period=0.2))
        system.run_for(0.5)
        sink_pe = job.pe_of_operator("sink")
        system.transport.install_link_fault(
            drop_probability=1.0, dst_pe=sink_pe.pe_id
        )
        system.run_for(8.0)
        health = system.obs.health
        assert health.alerts_fired <= 2
        assert health._active == {"lag-budget": "page"}

    def test_quiet_system_never_alerts(self, system):
        self.add_lag_slo(system)
        system.run_for(5.0)
        assert system.obs.health.alerts_fired == 0

    def test_alert_records_control_span(self):
        """A raised alert lands in the flight recorder, so dumps show
        health degradation next to the incident it predicts."""
        system = SystemS(
            hosts=4, seed=42, config=SystemConfig(delivery="at_least_once")
        )
        self.add_lag_slo(system)
        job = system.submit_job(make_linear_app(period=0.2))
        system.run_for(0.5)
        system.transport.install_link_fault(
            drop_probability=1.0, dst_pe=job.pe_of_operator("sink").pe_id
        )
        system.run_for(5.0)
        dump = system.obs.dump_flight("test").render()
        assert "health:" in dump
        assert "slo=lag-budget" in dump


class TestReplayBufferGauges:
    """Satellite: the unbounded exactly-once replay buffer is observable
    as per-link gauges that shrink when an epoch commit truncates it."""

    def test_gauges_track_retention_and_truncation(self):
        system = reliable_system("exactly_once")
        transport, src_pe, sink_pe, sink = wire_fixture(system)
        for i in range(4):
            transport.send(sink_pe, "sink", 0, tup(i), src_pe=src_pe)
        system.run_for(0.5)
        text = system.obs.render_prometheus()
        assert "repro_transport_replay_buffer_items" in text
        labels = {"src": src_pe.pe_id, "dst": sink_pe.pe_id}
        items = system.obs.metrics.gauge(
            "repro_transport_replay_buffer_items", labels
        )
        size = system.obs.metrics.gauge(
            "repro_transport_replay_buffer_bytes", labels
        )
        floor = system.obs.metrics.gauge(
            "repro_transport_replay_truncated_seq", labels
        )
        assert items.value == 4 and size.value > 0 and floor.value == 0
        # an epoch commit truncates the buffer: items down, floor up
        transport.on_epoch_committed(sink_pe.pe_id, {src_pe.pe_id: 2})
        system.obs.scrape_transport()
        assert items.value == 2 and floor.value == 2
        # a full truncation drains the link but keeps reporting zeros
        transport.on_epoch_committed(sink_pe.pe_id, {src_pe.pe_id: 4})
        system.obs.scrape_transport()
        assert items.value == 0 and size.value == 0 and floor.value == 4

    def test_best_effort_exposition_has_no_replay_series(self, system):
        system.submit_job(make_linear_app())
        system.run_for(4.0)
        assert "repro_transport_replay_buffer" not in (
            system.obs.render_prometheus()
        )

    def test_empty_reliable_buffer_stays_lazy(self):
        """An exactly-once system whose buffer never fills renders no
        replay series either (artifact byte-stability)."""
        system = reliable_system("exactly_once")
        system.run_for(1.0)
        assert "repro_transport_replay_buffer" not in (
            system.obs.render_prometheus()
        )


class _HealthAware(Orchestrator):
    def __init__(self, scope=None, slo=None):
        super().__init__()
        self.scope = scope
        self.slo = slo
        self.seen = []
        self.job = None

    def handleOrcaStart(self, context):
        if self.scope is not None:
            self.orca.register_event_scope(self.scope)
        if self.slo is not None:
            self.orca.register_slo(self.slo)
        self.job = self.orca.submit_application("Linear")

    def handleHealthAlertEvent(self, context, scopes):
        self.seen.append((context, tuple(scopes)))


def orchestrated_health_system(scope, slo):
    system = SystemS(
        hosts=4, seed=42, config=SystemConfig(delivery="at_least_once")
    )
    app = make_linear_app(period=0.2)
    logic = _HealthAware(scope, slo)
    service = system.submit_orchestrator(
        OrcaDescriptor(
            name="H",
            logic=lambda: logic,
            applications=[ManagedApplication(name=app.name, application=app)],
        )
    )
    system.run_for(1.0)
    job = next(iter(system.sam.jobs.values()))
    system.transport.install_link_fault(
        drop_probability=1.0, dst_pe=job.pe_of_operator("sink").pe_id
    )
    system.run_for(5.0)
    return system, service, logic


def tight_lag_slo():
    return Slo(
        "lag-budget",
        "lag",
        0.001,
        short_window=1.0,
        long_window=2.0,
        warn_burn=1.0,
        page_burn=2.0,
    )


class TestOrcaHealthSurface:
    def test_health_alert_delivered_with_scope(self):
        system, service, logic = orchestrated_health_system(
            HealthScope("h"), tight_lag_slo()
        )
        assert logic.seen
        context, scopes = logic.seen[0]
        assert scopes == ("h",)
        assert context.slo == "lag-budget"
        assert context.signal == "lag"
        assert context.severity in ("warn", "page")
        assert context.bottleneck.startswith("sink@")
        assert context.burn_short >= 1.0

    def test_blind_orchestrator_sees_nothing(self):
        system, service, logic = orchestrated_health_system(
            None, tight_lag_slo()
        )
        assert system.obs.health.alerts_fired >= 1
        assert logic.seen == []

    def test_severity_filter_narrows_delivery(self):
        scope = HealthScope("pages-only").addSeverityFilter("page")
        system, service, logic = orchestrated_health_system(
            scope, tight_lag_slo()
        )
        assert logic.seen
        assert all(c.severity == "page" for c, _ in logic.seen)

    def test_health_status_inspection(self):
        system, service, logic = orchestrated_health_system(
            HealthScope("h"), tight_lag_slo()
        )
        status = service.health_status()
        assert status["ticks"] > 0
        assert status["slos"] == ["lag-budget"]
        assert status["alerts_fired"] >= 1
        assert status["active_alerts"].get("lag-budget") in ("warn", "page")


class _StubInner(ScalingPolicy):
    def __init__(self, result=None):
        self.result = result
        self.calls = 0

    def decide(self, observation):
        self.calls += 1
        return self.result


class _FakeMonitor:
    def __init__(self, lag=0.0):
        self.lag = lag

        class _Clock:
            now = 0.0

        self.kernel = _Clock()

    def region_lag(self, region):
        return self.lag


class TestHealthAwareScalingPolicy:
    def observation(self, width=2):
        return RegionObservation(job_id="j", region="region", width=width)

    def test_lag_breach_scales_out_and_records_reaction(self):
        inner = _StubInner()
        monitor = _FakeMonitor(lag=1.0)
        policy = HealthAwareScalingPolicy(inner, monitor, lag_objective=0.5)
        assert policy.decide(self.observation(width=2)) == 3
        assert policy.reactions == [0.0]
        assert inner.calls == 0

    def test_cooldown_defers_to_inner(self):
        inner = _StubInner()
        monitor = _FakeMonitor(lag=1.0)
        policy = HealthAwareScalingPolicy(
            inner, monitor, lag_objective=0.5, cooldown=2.0
        )
        assert policy.decide(self.observation()) == 3
        monitor.kernel.now = 1.0  # still cooling down
        assert policy.decide(self.observation()) is None
        assert inner.calls == 1
        monitor.kernel.now = 2.5
        assert policy.decide(self.observation()) == 3
        assert policy.reactions == [0.0, 2.5]

    def test_calm_watermark_delegates_to_inner(self):
        inner = _StubInner(result=5)
        policy = HealthAwareScalingPolicy(
            inner, _FakeMonitor(lag=0.0), lag_objective=0.5
        )
        assert policy.decide(self.observation()) == 5
        assert inner.calls == 1

    def test_max_width_delegates_to_inner(self):
        inner = _StubInner()
        policy = HealthAwareScalingPolicy(
            inner, _FakeMonitor(lag=9.0), lag_objective=0.5, max_width=4
        )
        assert policy.decide(self.observation(width=4)) is None
        assert inner.calls == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            HealthAwareScalingPolicy(_StubInner(), _FakeMonitor(), 0.0)
        with pytest.raises(ValueError):
            HealthAwareScalingPolicy(
                _StubInner(), _FakeMonitor(), 1.0, step=0
            )


class TestHealthwatch:
    def test_parse_round_trips_a_live_snapshot(self):
        system, job, sink_pe = pressured_system()
        text = system.obs.health.snapshot().render()
        report = parse_snapshot(text)
        assert report.header["sim_time"].endswith("000")
        assert any(row.name.startswith("sink@") for row in report.links)
        assert report.bottleneck is not None
        assert report.bottleneck[0] == f"sink@{sink_pe.pe_id}#0"
        assert set(report.signals) == {"ack_rtt_p95", "loss_rate", "max_lag"}

    def test_dashboard_marks_the_bottleneck(self):
        system, job, sink_pe = pressured_system()
        dashboard = render_dashboard(system.obs.health.snapshot().render())
        assert "<- bottleneck" in dashboard
        assert f"bottleneck: sink@{sink_pe.pe_id}#0" in dashboard

    def test_calm_snapshot_renders_without_bars(self, system):
        system.run_for(2.0)
        dashboard = render_dashboard(system.obs.health.snapshot().render())
        assert "links: none" in dashboard
        assert "bottleneck: none" in dashboard
        assert "alerts: none" in dashboard

    def test_cli_renders_artifact(self, tmp_path, capsys):
        from repro.tools.healthwatch import main

        system, job, sink_pe = pressured_system()
        artifact = tmp_path / "snap.health.txt"
        artifact.write_text(system.obs.health.snapshot().render())
        assert main([str(artifact), "--width", "20"]) == 0
        out = capsys.readouterr().out
        assert "health @" in out
        assert "<- bottleneck" in out

    def test_unparseable_line_raises(self):
        with pytest.raises(ValueError):
            parse_snapshot("garbage line\n")
