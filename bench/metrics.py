"""The metric catalogue: every name the benchmark prints, with unit and bound.

Three groups:

* ``END_TO_END`` — defined on all four workloads and never zero, so
  ``BENCHMARK.json`` lists them under ``end_to_end`` and a ``--trace 0``
  run prints exactly these.
* ``SCENARIO`` — end-to-end in what they measure (adaptation latencies,
  tuple latency, oracle deviations) and measured with tracing off, but
  defined only on some workloads or exactly repeatable in virtual time;
  the full report and ``--compare`` gate them with the bounds below,
  while ``BENCHMARK.json`` can only carry them under ``per_layer``.
* ``PER_LAYER`` — the ledger: one group per module of ``src/repro``.

Units: ``s``/``ms``/``ns`` are wall-clock readings taken in every run;
``exec_ms`` is executor time (virtual and exactly repeatable on the sim
executor, real on the wall-clock one); ``cfg_ms`` is a configured timer
read from ``SystemConfig``; ``wall_ms`` is wall-clock but only taken on
the wall-clock workload (0 elsewhere).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

WALL_BOUND = 0.10


@dataclass(frozen=True)
class Metric:
    """One named reading."""

    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: share of the baseline median by which it may worsen; None = not gated
    bound: Optional[float] = None
    #: exactly repeatable on the sim executor (bound 0 there)
    virtual: bool = False
    #: workloads that define it; empty = all
    workloads: Tuple[str, ...] = ()

    def bound_on(self, executor: str) -> Optional[float]:
        if self.bound is None:
            return None
        return 0.0 if self.virtual and executor == "sim" else self.bound


REGION = ("region_adapt", "wc_region")

#: the driver-gated four.  Their bounds are what BENCHMARK.json carries and
#: are set by the sandbox, not by the program: spreads over ten seeds read
#: 1-3% in its quiet spells and up to 22% in its noisy ones (README).
END_TO_END: Tuple[Metric, ...] = (
    Metric("tuples_per_s", "tuples/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("flatness", "ratio", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.20),
)

SCENARIO: Tuple[Metric, ...] = (
    Metric("failed_share", "share", "lower", 0.25, virtual=True),
    Metric("latency_p50_ms", "wall_ms", "lower", WALL_BOUND, workloads=("wc_region",)),
    Metric("rescale_ms", "exec_ms", "lower", WALL_BOUND, virtual=True, workloads=REGION),
    Metric("recovery_ms", "exec_ms", "lower", WALL_BOUND, virtual=True, workloads=REGION),
    Metric(
        "metric_react_ms", "exec_ms", "lower", WALL_BOUND, virtual=True,
        workloads=("region_adapt",),
    ),
    Metric("orca_events_per_s", "events/s", "higher", WALL_BOUND, workloads=("region_adapt",)),
)


def _layer(prefix: str, *rows: Tuple[str, str, str]) -> Tuple[Metric, ...]:
    return tuple(Metric(f"{prefix}.{name}", unit, better) for name, unit, better in rows)


_SELF = ("self_us_per_tuple", "us/tuple", "lower")

PER_LAYER: Tuple[Metric, ...] = (
    *_layer(
        "kernel",
        ("event_ns", "ns", "lower"),
        ("events_per_tuple", "events/tuple", "lower"),
        _SELF,
    ),
    *_layer(
        "wallclock",
        ("event_ns", "ns", "lower"),
        ("wake_late_ms", "ms", "lower"),
        ("cpu_share", "share", "higher"),
        ("sim_ratio", "ratio", "lower"),
        ("idle_us_per_tuple", "us/tuple", "lower"),
    ),
    *_layer("tuples", ("make_ns", "ns", "lower"), ("with_values_ns", "ns", "lower")),
    *_layer(
        "library",
        *(
            (f"{op}{suffix}", "ns", "lower")
            for op in ("functor", "filter", "keyed_counter", "sink", "split", "merge")
            for suffix in ("_ns", "_batch_ns")
        ),
        ("split_skew", "ratio", "lower"),
        _SELF,
    ),
    *_layer(
        "state",
        ("update_ns", "ns", "lower"),
        ("snapshot_ms", "ms", "lower"),
        ("migrate_ms", "ms", "lower"),
        ("bytes", "bytes", "lower"),
    ),
    *_layer("compiler", ("compile_ms", "ms", "lower")),
    *_layer(
        "pe",
        ("receive_ns", "ns", "lower"),
        ("local_hop_ns", "ns", "lower"),
        ("schedule_ns_at_1k", "ns", "lower"),
        ("schedule_ns_at_10k", "ns", "lower"),
        _SELF,
    ),
    *_layer(
        "transport", ("send_ns", "ns", "lower"), ("send_batch_ns", "ns", "lower"), _SELF
    ),
    *_layer(
        "delivery",
        ("eo_tax", "ratio", "higher"),
        ("acks_per_tuple", "acks/tuple", "lower"),
        ("retransmits", "count", "lower"),
        ("replay_peak_bytes", "bytes", "lower"),
        _SELF,
    ),
    *_layer(
        "sam",
        ("submit_ms", "ms", "lower"),
        ("recovery_timer_ms", "cfg_ms", "lower"),
        ("recovery_work_ms", "exec_ms", "lower"),
        _SELF,
    ),
    *_layer("srm", ("push_ms", "ms", "lower"), ("query_ms", "ms", "lower"), _SELF),
    *_layer(
        "checkpoint",
        ("full_ms", "ms", "lower"),
        ("incr_ms", "ms", "lower"),
        ("restore_ms", "ms", "lower"),
        ("rounds", "count", "lower"),
        ("bytes", "bytes", "lower"),
        _SELF,
    ),
    *_layer(
        "elastic",
        ("drain_polls", "count", "lower"),
        ("keys_moved", "count", "lower"),
        ("rescale_timer_ms", "cfg_ms", "lower"),
        ("rescale_work_ms", "exec_ms", "lower"),
        ("rescale_idle_wall_ms", "ms", "lower"),
        _SELF,
    ),
    *_layer(
        "orca",
        ("dispatch_ns", "ns", "lower"),
        ("match_ns_per_scope", "ns", "lower"),
        ("queue_peak", "count", "lower"),
        ("queue_wait_ms", "exec_ms", "lower"),
        _SELF,
    ),
    *_layer(
        "obs", ("trace_tax", "ratio", "higher"), ("health_tax", "ratio", "higher"), _SELF
    ),
    *_layer("harness", _SELF),
    *_layer(
        "oracle",
        ("count_mismatch", "count", "lower"),
        ("count_breaks", "count", "lower"),
        ("state_mismatch", "count", "lower"),
    ),
    *_layer(
        "loadgen",
        ("max_late_ms", "wall_ms", "lower"),
        ("latency_p99_ms", "wall_ms", "lower"),
        ("latency_samples", "count", "higher"),
    ),
    *_layer(
        "trace",
        ("overhead", "ratio", "lower"),
        ("coverage", "ratio", "higher"),
        ("spans", "count", "lower"),
    ),
    *_layer(
        "loc",
        ("total", "lines", "lower"),
        *((package, "lines", "lower") for package in (
            "apps", "chaos", "checkpoint", "elastic", "obs", "orca", "runtime", "sim",
            "spl", "tools",
        )),
    ),
)

#: span-ledger layer -> the metric its self time is reported under
LEDGER_METRIC: Dict[str, str] = {
    "sim.kernel": "kernel.self_us_per_tuple",
    "runtime.exec.wallclock": "kernel.self_us_per_tuple",
    "spl.library": "library.self_us_per_tuple",
    "runtime.pe": "pe.self_us_per_tuple",
    "runtime.transport": "transport.self_us_per_tuple",
    "runtime.delivery": "delivery.self_us_per_tuple",
    "runtime.sam": "sam.self_us_per_tuple",
    "runtime.srm": "srm.self_us_per_tuple",
    "checkpoint": "checkpoint.self_us_per_tuple",
    "elastic": "elastic.self_us_per_tuple",
    "orca": "orca.self_us_per_tuple",
    "obs": "obs.self_us_per_tuple",
    "harness": "harness.self_us_per_tuple",
    "idle": "wallclock.idle_us_per_tuple",
}

BY_NAME: Dict[str, Metric] = {m.name: m for m in (*END_TO_END, *SCENARIO, *PER_LAYER)}
#: what a ``--trace 0`` / ``--trace 1`` result line carries (BENCHMARK.json's lists)
END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in (*SCENARIO, *PER_LAYER))


def summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's readings."""
    values: List[float] = sorted(samples)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
