"""repro.obs — sim-time tracing, metrics registry, flight recorder.

The observability layer of the simulated middleware, always
constructed by :class:`~repro.runtime.system.SystemS` as
``system.obs``:

* :mod:`repro.obs.trace` — allocation-light :class:`Span` objects for
  data-plane hops and control-plane operations, sampled
  deterministically so traced runs stay byte-stable;
* :mod:`repro.obs.metrics` — a labeled counter/gauge/histogram
  registry with Prometheus-text and JSONL renders;
* :mod:`repro.obs.naming` — the canonical ``repro_*`` metric-name
  catalog, applied at export;
* :mod:`repro.obs.flight` — bounded per-job span rings that dump
  deterministic timeline artifacts on PE crash, stuck rescale, or
  fuzz-oracle violation;
* :mod:`repro.obs.health` — the always-on health plane: sim-time
  sliding windows, per-link/per-region lag watermarks, and SLO
  burn-rate alerting (``system.obs.health``);
* :mod:`repro.obs.slo` — declarative :class:`Slo` objectives and the
  multi-window burn-rate classifier;
* :mod:`repro.obs.detect` — deterministic bottleneck attribution over
  per-link pressure samples;
* :mod:`repro.obs.hub` — the :class:`ObsHub` wiring all of the above
  to a running system.

See ``docs/observability.md`` for the span model, the metric catalog,
the health plane, and the flight-recorder format; ``tools/timeline.py``
renders dumps as lane views and ``tools/healthwatch.py`` renders health
snapshots as a dashboard.
"""

from repro.obs.detect import Bottleneck, BottleneckDetector, PressureSample
from repro.obs.flight import FlightDump, FlightRecorder
from repro.obs.health import (
    HealthMonitor,
    HealthSnapshot,
    LinkHealth,
    SlidingWindow,
)
from repro.obs.hub import ObsHub
from repro.obs.slo import HealthAlert, Slo
from repro.obs.metrics import (
    MetricsRegistry,
    ObsCounter,
    ObsGauge,
    ObsHistogram,
)
from repro.obs.naming import (
    CANONICAL_BY_LEGACY,
    canonical_metric_name,
    sanitize_metric_name,
)
from repro.obs.trace import CONTROL, DATA, Span, Tracer

__all__ = [
    "Bottleneck",
    "BottleneckDetector",
    "CANONICAL_BY_LEGACY",
    "CONTROL",
    "DATA",
    "FlightDump",
    "FlightRecorder",
    "HealthAlert",
    "HealthMonitor",
    "HealthSnapshot",
    "LinkHealth",
    "MetricsRegistry",
    "ObsCounter",
    "ObsGauge",
    "ObsHistogram",
    "ObsHub",
    "PressureSample",
    "SlidingWindow",
    "Slo",
    "Span",
    "Tracer",
    "canonical_metric_name",
    "sanitize_metric_name",
]
