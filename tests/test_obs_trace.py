"""Tests for the repro.obs tracing pipeline: deterministic sampling,
data-plane span capture, the two-tier gating (control always on, data
gated by ``trace_enabled``), flight-recorder auto-dumps (PE crash,
oracle violation), the satellite acceptance bar — same seed + same
campaign replayed twice produces a byte-identical flight-recorder dump
— and the ``repro.tools.timeline`` renderer."""

import pytest

from repro.chaos import Campaign, Scenario
from repro.chaos.fuzz import FuzzHarnessConfig, run_fuzz_case
from repro.chaos.perturbations import LatencySpike, PEFlap
from repro.obs import CONTROL, DATA, FlightRecorder, Span, Tracer
from repro.runtime.system import SystemConfig, SystemS
from repro.spl.application import Application
from repro.spl.library import CallbackSource, KeyedCounter, Sink
from repro.spl.parallel import parallel
from repro.tools.timeline import main, parse_dump, render_timeline


def build_app(period=0.05, limit=None):
    app = Application("Traced")
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={
            "generator": lambda now, count: [{"key": f"k{count % 4}"}],
            "period": period,
            "limit": limit,
        },
        partition="feed",
    )
    work = g.add_operator("work", KeyedCounter, params={"key": "key"})
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


def traced_system(**config_kwargs):
    config_kwargs.setdefault("trace_enabled", True)
    system = SystemS(hosts=2, config=SystemConfig(**config_kwargs))
    job = system.submit_job(build_app())
    return system, job


class TestTracerSampling:
    def test_sample_every_one_traces_everything(self):
        tracer = Tracer(sample_every=1)
        assert [tracer.sample() for _ in range(5)] == [True] * 5

    def test_sample_every_n_is_counter_based(self):
        tracer = Tracer(sample_every=3)
        decisions = [tracer.sample() for _ in range(9)]
        assert decisions == [False, False, True] * 3

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_every=0)

    def test_span_attrs_are_sorted_and_queryable(self):
        tracer = Tracer()
        captured = []
        tracer.sinks.append(captured.append)
        span = tracer.record("hop", DATA, 1.0, 2.5, zeta="z", alpha="a")
        assert captured == [span]
        assert [k for k, _ in span.attrs] == ["alpha", "zeta"]
        assert span.attr("zeta") == "z"
        assert span.attr("missing", "dflt") == "dflt"
        assert span.duration == 1.5


class TestDataPlaneCapture:
    def test_traced_run_records_tuple_spans(self):
        system, job = traced_system()
        system.run_for(2.0)
        assert system.transport.obs is system.obs
        assert system.kernel.event_tap is not None
        dump = system.obs.dump_flight("inspect", job_id=job.job_id)
        names = {e.name for e in dump.entries if e.kind == DATA}
        assert {"emit", "transport", "process"} <= names

    def test_sampling_rate_thins_data_spans(self):
        dense_sys, dense_job = traced_system(trace_sample_every=1)
        dense_sys.run_for(2.0)
        sparse_sys, sparse_job = traced_system(trace_sample_every=8)
        sparse_sys.run_for(2.0)
        dense = sum(
            1
            for e in dense_sys.obs.dump_flight("n", job_id=dense_job.job_id).entries
            if e.kind == DATA
        )
        sparse = sum(
            1
            for e in sparse_sys.obs.dump_flight("n", job_id=sparse_job.job_id).entries
            if e.kind == DATA
        )
        assert dense > sparse > 0

    def test_tracing_off_keeps_data_plane_unhooked(self):
        system = SystemS(hosts=2, config=SystemConfig())
        job = system.submit_job(build_app())
        system.run_for(2.0)
        assert system.transport.obs is None
        assert system.kernel.event_tap is None
        dump = system.obs.dump_flight("inspect", job_id=job.job_id)
        assert all(e.kind == CONTROL for e in dump.entries)

    def test_control_plane_records_without_tracing(self):
        """Control spans (PE crash) are captured even when tracing is
        off — but the crash auto-dump only fires when tracing is on."""
        system = SystemS(hosts=2, config=SystemConfig())
        job = system.submit_job(build_app())
        system.run_for(1.0)
        pe = job.pes[0]
        system.failures.crash_pe(job.job_id, pe_id=pe.pe_id)
        system.run_for(0.5)
        assert not system.obs.flight.dumps
        dump = system.obs.dump_flight("inspect", job_id=job.job_id)
        assert "pe:crash" in {e.name for e in dump.entries}

    def test_pe_crash_autodumps_when_tracing(self):
        system, job = traced_system()
        system.run_for(1.0)
        pe = job.pes[0]
        system.failures.crash_pe(job.job_id, pe_id=pe.pe_id)
        system.run_for(0.5)
        reasons = [d.reason for d in system.obs.flight.dumps]
        assert f"pe_crash:{pe.pe_id}" in reasons

    def test_detach_unhooks_everything(self):
        system, _ = traced_system()
        system.obs.detach()
        assert system.transport.obs is None
        assert system.kernel.event_tap is None
        assert system.transport.batch_observer is None

    def test_batched_hop_records_one_transport_span(self):
        """A traced batch crossing the wire is one transport span but
        still one process span per member tuple."""
        # the source emits one tuple per 0.05s activation, so a 0.2s
        # linger coalesces several activations into each wire batch
        system, job = traced_system(
            trace_sample_every=1, batch_max_size=8, batch_linger=0.2
        )
        system.run_for(2.0)
        entries = system.obs.dump_flight("inspect", job_id=job.job_id).entries
        transport_spans = sum(1 for e in entries if e.name == "transport")
        process_spans = sum(1 for e in entries if e.name == "process")
        assert 0 < transport_spans < process_spans

    @pytest.mark.parametrize("batch_max_size", [1, 8])
    def test_a_traced_tuple_is_traced_through_a_region(self, batch_max_size):
        """The flag rides the splitter's stamp and the merger's strip: a
        sampled tuple records spans at its channel, the merger and the
        sink, not only up to the region's entry."""
        app = Application("TracedRegion")
        g = app.graph
        src = g.add_operator(
            "src",
            CallbackSource,
            params={"generator": lambda now, count: [{"key": f"k{count % 8}"}], "period": 0.05},
            partition="feed",
        )
        work = g.add_operator(
            "work",
            KeyedCounter,
            params={"key": "key"},
            parallel=parallel(width=2, name="region", partition_by="key"),
        )
        sink = g.add_operator("sink", Sink, partition="out")
        g.connect(src.oport(0), work.iport(0))
        g.connect(work.oport(0), sink.iport(0))
        system = SystemS(
            hosts=6,
            config=SystemConfig(
                trace_enabled=True, trace_sample_every=1, batch_max_size=batch_max_size
            ),
        )
        job = system.submit_job(app)
        system.run_for(2.0)
        entries = system.obs.dump_flight("inspect", job_id=job.job_id).entries
        processed = {e.attr("op") for e in entries if e.name == "process"}
        assert {"region__split", "work__c0", "work__c1", "region__merge", "sink"} <= processed


class TestOrchestratorMarkers:
    def test_emit_trace_marker_lands_in_flight_ring(self):
        from repro import Orchestrator, OrcaDescriptor

        class Marking(Orchestrator):
            def handleOrcaStart(self, context):
                self.emitTraceMarker("booted", phase="start")

        system = SystemS(hosts=2, config=SystemConfig())
        system.submit_orchestrator(
            OrcaDescriptor(name="M", logic=Marking, applications=[])
        )
        system.run_for(0.5)
        dump = system.obs.dump_flight("inspect")
        marker = next(e for e in dump.entries if e.name == "user:booted")
        assert marker.attr("phase") == "start"
        assert marker.attr("orca")

    def test_marker_is_noop_before_binding(self):
        from repro import Orchestrator

        Orchestrator().emitTraceMarker("early")  # must not raise


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        flight = FlightRecorder(capacity=4)
        for i in range(10):
            flight.record(Span("e", CONTROL, float(i), float(i), (("job", "j1"),)))
        assert flight.span_count("j1") == 4
        dump = flight.dump("over", 10.0, job_id="j1")
        assert [e.start for e in dump.entries] == [6.0, 7.0, 8.0, 9.0]

    def test_dump_merges_system_and_job_rings(self):
        flight = FlightRecorder()
        flight.record(Span("sys", CONTROL, 1.0, 1.0))
        flight.record(Span("job", CONTROL, 2.0, 2.0, (("job", "j1"),)))
        flight.record(Span("other", CONTROL, 3.0, 3.0, (("job", "j2"),)))
        dump = flight.dump("mix", 5.0, job_id="j1")
        assert [e.name for e in dump.entries] == ["sys", "job"]

    def test_render_is_headered_and_sorted(self):
        flight = FlightRecorder()
        flight.record(Span("b", CONTROL, 2.0, 3.0, (("job", "j1"),)))
        flight.record(Span("a", DATA, 1.0, 1.5, (("job", "j1"), ("op", "x"))))
        text = flight.dump("why", 4.0, job_id="j1").render()
        lines = text.splitlines()
        assert lines[0] == "# flight-recorder dump"
        assert "# reason: why" in lines
        assert "# sim_time: 4.000000" in lines
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0].startswith("[    1.000000 ..     1.500000] data")
        assert "op=x" in body[0]


class TestDeterministicReplay:
    """Satellite acceptance: same seed + same campaign -> byte-identical
    flight-recorder dump (and Prometheus export), run twice."""

    CAMPAIGN = Campaign(
        name="obs_trace_determinism",
        scenario=Scenario(
            "obs_flap", description="latency noise racing a channel flap"
        )
        .add(0.5, LatencySpike(extra=0.05, duration=1.0))
        .add(1.0, PEFlap(operator="work__c0", downtime=1.0)),
        seed=17,
        duration=6.0,
    )

    def run_once(self):
        config = FuzzHarnessConfig(
            seed=self.CAMPAIGN.seed,
            hosts=4,
            duration=self.CAMPAIGN.duration,
            warmup=1.0,
            recovery_settle=2.0,
            drain=2.0,
        )
        return run_fuzz_case(self.CAMPAIGN.validate().scenario, config)

    def test_flight_dump_is_byte_identical_across_runs(self):
        first = self.run_once()
        second = self.run_once()
        assert first.timeline
        assert first.timeline.startswith("# flight-recorder dump")
        assert first.timeline == second.timeline
        assert first.prometheus == second.prometheus

    def test_clean_run_dump_reason(self):
        outcome = self.run_once()
        assert outcome.report.ok, [v.detail for v in outcome.violations]
        assert "# reason: fuzz_case_complete" in outcome.timeline

    def test_trace_off_case_carries_no_artifacts(self):
        config = FuzzHarnessConfig(
            seed=17, hosts=4, duration=4.0, warmup=1.0,
            recovery_settle=1.0, drain=1.0, trace=False,
        )
        scenario = Scenario("quiet", description="no trace").add(
            1.0, LatencySpike(extra=0.01, duration=0.5)
        )
        outcome = run_fuzz_case(scenario, config)
        assert outcome.timeline == ""
        assert outcome.prometheus == ""


class TestOracleViolationDump:
    def test_violation_autodumps_timeline(self):
        """A fuzz-oracle violation ships its evidence trail: the outcome
        timeline is a flight dump whose reason names the tripped
        oracles."""
        config = FuzzHarnessConfig(duration=6.0, torn_commits=True)
        scenario = Scenario(
            "torn_flap", description="flap under permanently torn commits"
        ).add(1.0, PEFlap(operator="work__c0", downtime=1.0))
        outcome = run_fuzz_case(scenario, config)
        assert outcome.violations
        oracles = ",".join(sorted({v.oracle for v in outcome.violations}))
        assert f"# reason: oracle_violation:{oracles}" in outcome.timeline
        header, entries = parse_dump(outcome.timeline)
        assert header["reason"].startswith("oracle_violation:")
        assert entries


class TestTimelineRenderer:
    def sample_dump(self):
        flight = FlightRecorder()
        flight.record(Span("mask", CONTROL, 1.0, 3.0, (("job", "j1"),)))
        flight.record(Span("crash", CONTROL, 2.0, 2.0, (("job", "j1"),)))
        flight.record(
            Span("hop", DATA, 1.5, 2.5, (("job", "j1"), ("op", "w")))
        )
        return flight.dump("demo", 4.0, job_id="j1").render()

    def test_parse_round_trips_header_and_entries(self):
        header, entries = parse_dump(self.sample_dump())
        assert header["reason"] == "demo"
        assert header["scope"] == "j1"
        assert [e.name for e in entries] == ["mask", "hop", "crash"]
        assert entries[0].start == 1.0 and entries[0].end == 3.0

    def test_render_draws_bars_and_ticks(self):
        text = render_timeline(self.sample_dump(), width=40)
        assert "reason: demo" in text
        mask_row = next(ln for ln in text.splitlines() if ln.startswith("mask"))
        crash_row = next(
            ln for ln in text.splitlines() if ln.startswith("crash")
        )
        assert "[" in mask_row and "]" in mask_row and "=" in mask_row
        assert "|" in crash_row

    def test_kind_filter(self):
        text = render_timeline(self.sample_dump(), kind="data")
        assert "spans: 1" in text
        assert "hop" in text and "mask" not in text

    def test_unparseable_line_raises(self):
        with pytest.raises(ValueError):
            parse_dump("not a span line\n")

    def test_cli_renders_artifact(self, tmp_path, capsys):
        path = tmp_path / "demo.timeline.txt"
        path.write_text(self.sample_dump())
        assert main([str(path), "--width", "30"]) == 0
        out = capsys.readouterr().out
        assert "reason: demo" in out
