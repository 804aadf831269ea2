"""One invocation's worth of measuring: the untraced run and the traced run.

:func:`measure` is the ``--trace 0`` run: one warm-up round discarded,
then measured rounds until ``--seconds`` are used up, set-up repeated on
its own, every round judged by the oracle, medians reported.  Tracing is
off in both senses: ``trace_enabled=False`` and no benchmark wrapper
installed.

:func:`trace` is the ``--trace 1`` run: an untraced reference round, the
same round again under :class:`bench.trace.Recorder`, quarter-length
variant rounds behind the tax ratios, then the fixed-count micro
timings.  It yields every per-layer number; the gap between its two
rounds is the tracing overhead.
"""

from __future__ import annotations

import pathlib
import resource
import time
from typing import Any, Dict, List, Optional

from bench import metrics, micro
from bench.apps import RegionLogic
from bench.trace import Recorder
from bench.workloads import (
    WORKLOADS,
    Round,
    Workload,
    fastest_slices,
    make_inputs,
    run_round,
    throughput,
)

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
SETUP_REPS_SIM, SETUP_REPS_WALLCLOCK = 60, 6


def _judge(rounds: List[Round]) -> Dict[str, Any]:
    """The result line's verdict over ``rounds``, and the oracle's counts."""
    totals: Dict[str, int] = {}
    for r in rounds:
        for key, value in r.verdict.as_dict().items():
            if key != "failed_share":
                totals[key] = totals.get(key, 0) + value
    return {
        # correct: every expected tuple arrived exactly once, in per-key order
        "correct": totals["failed"] == 0 and totals["delivered"] == totals["expected"],
        "attempted": totals["emitted"],
        "failed": totals["failed"],
        "oracle": totals,
    }


def _entry(
    name: str, samples: List[float], executor: str, value: Optional[float] = None
) -> Dict[str, Any]:
    """One metric's reading: ``value`` (the samples' median unless given),
    the samples' quartiles and their count."""
    metric = metrics.BY_NAME[name]
    summary = metrics.summary(samples)
    return {
        "unit": metric.unit,
        "better": metric.better,
        "bound": metric.bound_on(executor),
        "value": summary.pop("median") if value is None else value,
        **summary,
        "samples": samples,
    }


def _repeats(seconds: float) -> int:
    """How often a short round is repeated for extra readings: 1 to 3, as fit."""
    return max(1, min(3, int(seconds / 6)))


def _wallclock_plan(seconds: float) -> List[bool]:
    """Which wall-clock rounds carry the adaptation script and the open loop.

    One does; saturate-only rounds (~1.5 s each) run before and after
    it, so that every block of the saturate phase gets several readings
    spread over the whole run.
    """
    side = _repeats(seconds)
    return [False] * side + [True] + [False] * side


def measure(workload: Workload, seed: int, seconds: float, scale: float) -> Dict[str, Any]:
    """The untraced run: every end-to-end and scenario metric of one workload."""
    data = make_inputs(workload, seed, scale)
    wallclock = workload.executor == "wallclock"
    run_round(workload, data, scale=scale, seconds=seconds, script=not wallclock)  # warm-up

    rounds: List[Round] = []
    started = time.perf_counter()
    if wallclock:
        plan = _wallclock_plan(seconds)
        for script in plan:
            rounds.append(
                run_round(workload, data, scale=scale, seconds=seconds, script=script)
            )
    else:
        # full rounds until the next would overshoot by more than half its length
        while not rounds or elapsed + elapsed / len(rounds) / 2 <= seconds:
            rounds.append(run_round(workload, data, scale=scale, seconds=seconds))
            elapsed = time.perf_counter() - started
    measured_s = time.perf_counter() - started

    # the oracle's deviations are judged on the rounds that ran the script
    full = [r for r, script in zip(rounds, plan) if script] if wallclock else rounds
    setups = [r.values["setup_s"] for r in rounds]
    # set-up on its own, repeated (milliseconds on sim, so many times): the
    # smallest round there is, of which only the set-up reading is kept
    reps = SETUP_REPS_WALLCLOCK if wallclock else SETUP_REPS_SIM
    tiny, tiny_scale = (data, 0.0) if wallclock else (data[: 4 * workload.per_tick], scale)
    for _ in range(max(1, int(reps * min(1.0, seconds / 20.0)))):
        setups.append(
            run_round(workload, tiny, scale=tiny_scale, script=False).values["setup_s"]
        )

    samples: Dict[str, List[float]] = {
        "setup_s": setups,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        "failed_share": [r.verdict.failed_share for r in full],
    }
    for r in rounds:
        for name, value in r.values.items():
            if name in metrics.BY_NAME and name != "setup_s":
                samples.setdefault(name, []).append(value)
    # throughput is read off the rounds' slices, each at its fastest
    steady = throughput(fastest_slices([r.timeline for r in rounds]))
    return {
        "workload": workload.name,
        "executor": workload.executor,
        "trace": 0,
        "rounds": len(rounds),
        "measured_s": measured_s,
        **_judge(rounds),
        "metrics": {
            name: _entry(name, values, workload.executor, steady.get(name))
            for name, values in samples.items()
        },
    }


def _twin_round(workload: Workload, seed: int, scale: float, seconds: float, short: Any) -> Round:
    """A short round of the same application on the other executor, script off."""
    if workload.kind == "pipe":
        return run_round(workload, short, executor="wallclock")
    sibling = WORKLOADS["wc_region" if workload.executor == "sim" else "region_adapt"]
    data = make_inputs(sibling, seed, scale)
    if sibling.executor == "sim":
        data = data[: len(data) // 4]
    return run_round(sibling, data, scale=scale, seconds=seconds, script=False)


def trace(
    workload: Workload, seed: int, seconds: float, scale: float, spans_out: Optional[str] = None
) -> Dict[str, Any]:
    """The traced run: every per-layer (and scenario) metric of one workload."""
    data = make_inputs(workload, seed, scale)
    sim = workload.executor == "sim"
    half = seconds / 2
    reference = run_round(workload, data, scale=scale, seconds=half)

    recorder = Recorder()
    started = time.perf_counter()
    with recorder.installed(RegionLogic):
        traced = run_round(workload, data, scale=scale, seconds=half, tracer=recorder)
    traced_wall = time.perf_counter() - started
    ledger = recorder.ledger()
    if spans_out:
        recorder.dump(spans_out)

    values: Dict[str, float] = {m.name: 0.0 for m in (*metrics.SCENARIO, *metrics.PER_LAYER)}
    for layer, self_s in ledger.items():
        values[metrics.LEDGER_METRIC[layer]] += self_s * 1e6 / traced.verdict.emitted
    values["trace.coverage"] = sum(ledger.values()) / traced_wall
    values["trace.spans"] = float(recorder.span_count)
    values["trace.overhead"] = reference.values["tuples_per_s"] / traced.values["tuples_per_s"]

    for name, value in reference.values.items():
        if name in values:
            values[name] = value
    verdict = reference.verdict
    values["failed_share"] = verdict.failed_share
    values["oracle.count_mismatch"] = float(verdict.count_mismatch)
    values["oracle.count_breaks"] = float(verdict.count_breaks)
    values["oracle.state_mismatch"] = float(verdict.state_mismatch)

    # variant rounds: the same application a quarter as long, script off,
    # one configuration axis flipped each (or the other executor); every
    # tax is a ratio of rates.  Variants are repeated, interleaved, and
    # read off their fastest slices like the measured run.
    short = data[: len(data) // 4] if sim else data
    quarter = seconds / 4
    other_delivery = (
        "best_effort" if workload.config.get("delivery") == "exactly_once" else "exactly_once"
    )

    def variant(**overrides: Any) -> Round:
        return run_round(
            workload, short, scale=scale, seconds=quarter, script=False, **overrides
        )

    variants = {
        "base": variant,
        "traced": lambda: variant(trace_enabled=True),
        "no_health": lambda: variant(health_interval=0.0),
        "delivery": lambda: variant(delivery=other_delivery),
        "twin": lambda: _twin_round(workload, seed, scale, quarter, short),
    }
    runs: Dict[str, List[Round]] = {name: [] for name in variants}
    for _ in range(_repeats(seconds)):
        for name, run in variants.items():
            runs[name].append(run())
    rates = {
        name: throughput(fastest_slices([r.timeline for r in rounds]))["tuples_per_s"]
        for name, rounds in runs.items()
    }
    base = rates["base"]
    values["obs.trace_tax"] = rates["traced"] / base
    values["obs.health_tax"] = base / rates["no_health"]
    exactly, best = (
        (base, rates["delivery"]) if other_delivery == "best_effort" else (rates["delivery"], base)
    )
    values["delivery.eo_tax"] = exactly / best
    values["wallclock.sim_ratio"] = base / rates["twin"] if sim else rates["twin"] / base

    values.update(micro.run_all(seed, scale))
    values.update(micro.loc(SRC_ROOT))
    keys = data if not sim else [row["key"] for row in data]
    values["library.split_skew"] = micro.split_skew(keys)
    return {
        "workload": workload.name,
        "executor": workload.executor,
        "trace": 1,
        "rounds": 2,
        **_judge([reference, traced]),
        "metrics": {
            name: _entry(name, [value], workload.executor) for name, value in values.items()
        },
    }
