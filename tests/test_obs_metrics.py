"""Tests for the repro.obs metrics registry and naming catalog: counter/
gauge/histogram semantics, deterministic quantiles, Prometheus and
JSONL rendering, the paper-name -> canonical ``repro_*`` translation at
export (SRM stores and answers the paper's names), and the hub's SRM
export."""

import json

import pytest

from repro.obs import (
    CANONICAL_BY_LEGACY,
    MetricsRegistry,
    canonical_metric_name,
    sanitize_metric_name,
)
from tests.conftest import make_linear_app


class TestRegistry:
    def test_counter_get_or_create_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_hits_total", {"op": "x"})
        b = reg.counter("repro_hits_total", {"op": "x"})
        c = reg.counter("repro_hits_total", {"op": "y"})
        assert a is b and a is not c
        a.inc()
        a.inc(2)
        assert a.value == 3 and c.value == 0

    def test_gauge_set(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_depth")
        g.set(7.5)
        assert g.value == 7.5

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_thing")
        with pytest.raises(ValueError):
            reg.gauge("repro_thing")

    def test_histogram_quantiles_interpolate(self):
        reg = MetricsRegistry()
        h = reg.histogram(
            "repro_lat", buckets=(1.0, 2.0, 4.0, float("inf"))
        )
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.total == 4
        assert h.sum == 6.5
        assert h.min == 0.5 and h.max == 3.0
        assert 0.0 < h.quantile(0.5) <= 2.0
        assert h.quantile(0.99) <= 4.0
        # quantiles are a pure function of the bucket counts
        assert h.quantile(0.5) == h.quantile(0.5)

    def test_histogram_inf_bucket_clamps_to_observed_max(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_big", buckets=(1.0, float("inf")))
        h.observe(50.0)
        assert h.quantile(0.99) <= 50.0

    def test_empty_histogram_quantile_is_zero(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_none")
        assert h.quantile(0.5) == 0.0


class TestRendering:
    def build(self):
        reg = MetricsRegistry()
        reg.counter(
            "repro_hits_total", {"op": "b"}, help_text="hits"
        ).inc(2)
        reg.counter("repro_hits_total", {"op": "a"}, help_text="hits").inc()
        reg.gauge("repro_depth", help_text="queue depth").set(3)
        h = reg.histogram(
            "repro_lat_seconds",
            {"op": "a"},
            help_text="latency",
            buckets=(0.1, 1.0, float("inf")),
        )
        h.observe(0.05)
        h.observe(0.5)
        return reg

    def test_prometheus_format(self):
        text = self.build().render_prometheus()
        lines = text.splitlines()
        assert "# HELP repro_hits_total hits" in lines
        assert "# TYPE repro_hits_total counter" in lines
        # series sorted within a family, families sorted by name
        assert lines.index('repro_hits_total{op="a"} 1') < lines.index(
            'repro_hits_total{op="b"} 2'
        )
        assert 'repro_lat_seconds_bucket{op="a",le="0.1"} 1' in lines
        assert 'repro_lat_seconds_bucket{op="a",le="+Inf"} 2' in lines
        assert 'repro_lat_seconds_count{op="a"} 2' in lines
        assert "repro_depth 3" in lines

    def test_prometheus_is_byte_stable(self):
        assert self.build().render_prometheus() == self.build().render_prometheus()

    def test_jsonl_rows_carry_quantiles(self):
        rows = [
            json.loads(line)
            for line in self.build().render_jsonl().splitlines()
        ]
        assert all(list(r) == sorted(r) for r in rows)  # sort_keys
        hist = next(r for r in rows if r["type"] == "histogram")
        assert hist["count"] == 2
        assert {"p50", "p95", "p99", "min", "max"} <= set(hist)
        counter = next(
            r
            for r in rows
            if r["type"] == "counter" and r["labels"] == {"op": "b"}
        )
        assert counter["value"] == 2


class TestNaming:
    def test_catalog_translates(self):
        for legacy, canonical in CANONICAL_BY_LEGACY.items():
            assert canonical_metric_name(legacy) == canonical

    def test_srm_builtins_are_catalogued(self):
        assert canonical_metric_name("nTuplesProcessed") == (
            "repro_tuples_processed_total"
        )
        assert canonical_metric_name("stateBytes") == "repro_pe_state_bytes"
        assert canonical_metric_name("queueSize") == "repro_queue_depth"

    def test_per_kind_injection_counters(self):
        assert canonical_metric_name("chaosInjections.crash_pe") == (
            "repro_chaos_injections_crash_pe"
        )

    def test_unknown_names_sanitize(self):
        assert canonical_metric_name("nDiscarded") == "repro_n_discarded"
        assert sanitize_metric_name("my.metric-2") == "my_metric_2"


class TestSRMStorage:
    """SRM stores and answers the paper's spellings; canonical names
    exist only at export."""

    def push_metrics(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(system.config.metric_push_interval + 1.0)
        pe = job.pe_of_operator("sink")
        return job, pe

    def test_storage_keeps_legacy_names(self, system):
        """HC pushes land under the paper's spelling so scope filters
        and dashboards keep matching, and queries use that spelling."""
        job, pe = self.push_metrics(system)
        names = {s.name for s in system.srm.get_metrics([job.job_id])}
        assert "nTuplesProcessed" in names
        assert "repro_tuples_processed_total" not in names
        assert system.srm.metric_value(
            job.job_id, pe.pe_id, "sink", "nTuplesProcessed"
        ) > 0


class TestHubExport:
    def test_scrape_mirrors_srm_under_canonical_names(self, system):
        job = system.submit_job(make_linear_app())
        system.run_for(system.config.metric_push_interval + 1.0)
        assert system.obs.scrape_srm() > 0
        text = system.obs.render_prometheus(scrape=False)
        assert "repro_tuples_processed_total{" in text
        assert f'job="{job.job_id}"' in text
        assert "nTuplesProcessed" not in text

    def test_jsonl_export_parses(self, system):
        system.submit_job(make_linear_app())
        system.run_for(4.0)
        rows = [
            json.loads(line)
            for line in system.obs.render_jsonl().splitlines()
        ]
        assert rows
        assert {"name", "type", "labels"} <= set(rows[0])

    def test_batch_size_histogram_only_when_batching(self, system):
        """The batch-size histogram is created lazily on the first
        flush, so an unbatched run's Prometheus render stays
        byte-identical to the pre-batching artifacts."""
        from repro.runtime import SystemConfig, SystemS

        system.submit_job(make_linear_app())
        system.run_for(4.0)
        assert "repro_transport_batch_size" not in (
            system.obs.render_prometheus()
        )

        batched = SystemS(
            hosts=2, config=SystemConfig(batch_max_size=8)
        )
        batched.submit_job(make_linear_app())
        batched.run_for(4.0)
        text = batched.obs.render_prometheus()
        assert "repro_transport_batch_size_count" in text
        hist = batched.obs.metrics.histogram(
            "repro_transport_batch_size"
        )
        assert hist.total > 0 and hist.max <= 8
