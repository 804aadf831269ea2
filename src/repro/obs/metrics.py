"""The one metrics registry: counters, gauges, histograms.

A :class:`MetricsRegistry` holds labeled series under Prometheus-style
family names and renders them to the Prometheus text exposition format
or JSONL.  Everything is deterministic by construction: series render
sorted by ``(family, labels)``, histogram quantiles are computed by
linear interpolation over fixed bucket bounds, and values format
identically across platforms — the registry's renders participate in
the repo's byte-stable artifact discipline (chaos scorecards, flight
timelines), so nothing here may consult wall clocks or hash order.

:class:`~repro.runtime.system.SystemS` builds one registry and hands it
to SRM, the chaos engine and the :class:`~repro.obs.hub.ObsHub`.
Counter and gauge series are :class:`repro.spl.metrics.Metric`, the
runtime's own value type.  SRM owns one gauge per stored sample key,
created under its canonical name (:mod:`repro.obs.naming`) when the key
is first pushed, set by every host-controller push and removed with the
PE; the exposition renders the registry as it stands.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.spl.metrics import Metric, MetricKind

LabelItems = Tuple[Tuple[str, str], ...]

#: default histogram bucket upper bounds (seconds), chosen around the
#: simulator's transport latencies (1 ms base hop) and rescale horizons
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, math.inf,
)


def _format_value(value: float) -> str:
    """Render one sample value deterministically (ints without ``.0``)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def _escape_label(value: str) -> str:
    """Escape one label value per the Prometheus text format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_items(labels: Optional[Dict[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(items: LabelItems) -> str:
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in items)
    return "{" + inner + "}"


class ObsHistogram:
    """A fixed-bucket histogram with deterministic quantile estimates.

    Observations land in pre-declared cumulative buckets (the last
    bound is always ``+Inf``); :meth:`quantile` interpolates linearly
    inside the bucket containing the requested rank, clamping the open
    top bucket to the maximum observed value, so p50/p95/p99 are exact
    functions of the observation multiset — no randomness, no decay.
    """

    __slots__ = ("bounds", "counts", "total", "sum", "min", "max")

    def __init__(self, buckets: Optional[Iterable[float]] = None) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.total = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        self.total += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``) of observations.

        Args:
            q: The quantile, e.g. ``0.95``.

        Returns:
            The interpolated estimate (0.0 with no observations).
        """
        if self.total == 0:
            return 0.0
        rank = q * self.total
        cumulative = 0
        lower = 0.0
        for i, bound in enumerate(self.bounds):
            in_bucket = self.counts[i]
            if in_bucket and cumulative + in_bucket >= rank:
                upper = bound if bound != math.inf else self.max
                upper = min(upper, self.max)
                lower = max(lower, self.min) if i == 0 else lower
                if upper <= lower:
                    return upper
                fraction = (rank - cumulative) / in_bucket
                return lower + (upper - lower) * fraction
            cumulative += in_bucket
            if bound != math.inf:
                lower = bound
        return self.max if self.max != -math.inf else 0.0


#: one series: counters and gauges are the runtime's own value type
Series = Union[Metric, ObsHistogram]


class MetricsRegistry:
    """Labeled metric families with Prometheus-text and JSONL renders."""

    def __init__(self) -> None:
        #: family name -> (type, help text), in registration order
        self._families: Dict[str, Tuple[str, str]] = {}
        #: (family, label items) -> its series: a Metric or an ObsHistogram
        self._series: Dict[Tuple[str, LabelItems], Series] = {}

    def _get(
        self,
        name: str,
        labels: Optional[Dict[str, str]],
        kind: str,
        help_text: str,
        make: Callable[[], Series],
    ) -> Series:
        existing = self._families.get(name)
        if existing is None:
            self._families[name] = (kind, help_text)
        elif existing[0] != kind:
            raise ValueError(
                f"metric family {name!r} registered as {existing[0]}, "
                f"requested as {kind}"
            )
        key = (name, _label_items(labels))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = make()
        return series

    def counter(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help_text: str = "",
    ) -> Metric:
        """Get or create one counter series.

        Args:
            name: Family name (``repro_*`` by convention).
            labels: Series labels (order-insensitive).
            help_text: Family HELP line, recorded on first registration.

        Returns:
            The (shared) series object.
        """
        return self._get(
            name, labels, "counter", help_text,
            lambda: Metric(name, MetricKind.COUNTER, help_text, 0.0),
        )

    def gauge(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help_text: str = "",
    ) -> Metric:
        """Get or create one gauge series (see :meth:`counter`)."""
        return self._get(
            name, labels, "gauge", help_text,
            lambda: Metric(name, MetricKind.GAUGE, help_text, 0.0),
        )

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help_text: str = "",
        buckets: Optional[Iterable[float]] = None,
    ) -> ObsHistogram:
        """Get or create one histogram series (see :meth:`counter`).

        Args:
            name: Family name.
            labels: Series labels.
            help_text: Family HELP line.
            buckets: Bucket upper bounds (default
                :data:`DEFAULT_BUCKETS`); only consulted at creation.

        Returns:
            The (shared) series object.
        """
        return self._get(
            name, labels, "histogram", help_text, lambda: ObsHistogram(buckets)
        )

    def remove(self, name: str, labels: Optional[Dict[str, str]] = None) -> None:
        """Drop one series; a family left with none renders nothing."""
        self._series.pop((name, _label_items(labels)), None)

    # -- rendering ----------------------------------------------------------

    def _sorted(self) -> List[Tuple[str, str, str, LabelItems, Series]]:
        """Every series as ``(family, kind, help, labels, series)``, sorted
        by family name, then by label items."""
        return [
            (name, *self._families[name], items, series)
            for (name, items), series in sorted(
                self._series.items(), key=lambda entry: entry[0]
            )
        ]

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format.

        Families render sorted by name, series sorted by label items,
        histograms as cumulative ``_bucket``/``_sum``/``_count`` series
        — byte-stable for a given registry state.

        Returns:
            The exposition text (trailing newline included when
            non-empty).
        """
        lines: List[str] = []
        family = None
        for name, kind, help_text, items, series in self._sorted():
            if name != family:
                family = name
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
            if kind == "histogram":
                lines.extend(self._render_histogram(name, items, series))
            else:
                labels = _render_labels(items)
                lines.append(f"{name}{labels} {_format_value(series.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def _render_histogram(
        name: str, items: LabelItems, series: "ObsHistogram"
    ) -> List[str]:
        lines: List[str] = []
        cumulative = 0
        for bound, count in zip(series.bounds, series.counts):
            cumulative += count
            le = "+Inf" if bound == math.inf else _format_value(bound)
            bucket_items = items + (("le", le),)
            lines.append(f"{name}_bucket{_render_labels(bucket_items)} {cumulative}")
        labels = _render_labels(items)
        lines.append(f"{name}_sum{labels} {_format_value(series.sum)}")
        lines.append(f"{name}_count{labels} {series.total}")
        return lines

    def render_jsonl(self) -> str:
        """One JSON object per series, sorted like the Prometheus render.

        Histogram lines carry ``count``/``sum``/``min``/``max`` and the
        interpolated ``p50``/``p95``/``p99`` — the quantile surface the
        Prometheus text format has no native slot for.

        Returns:
            Newline-delimited JSON (trailing newline when non-empty).
        """
        lines: List[str] = []
        for name, kind, _help, items, series in self._sorted():
            record: Dict[str, object] = {
                "name": name,
                "type": kind,
                "labels": dict(items),
            }
            if kind == "histogram":
                record.update(
                    count=series.total,
                    sum=series.sum,
                    min=series.min if series.total else 0.0,
                    max=series.max if series.total else 0.0,
                    p50=series.quantile(0.50),
                    p95=series.quantile(0.95),
                    p99=series.quantile(0.99),
                )
            else:
                record["value"] = series.value
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")
