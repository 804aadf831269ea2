"""Parallel-region scaling benchmarks (the repro.elastic subsystem).

1. **Fission speedup** — a region of rate-limited workers is compiled at
   widths 1..8 against a feed faster than any single channel; simulated
   sink throughput must increase monotonically and near-linearly with the
   channel count (the core claim of data-parallel fission).
2. **Live rescale consistency** — a running job is re-parallelized
   mid-stream (scale-out, then scale-in) while the source keeps emitting
   uniquely-numbered tuples; the sink must receive every sequence number
   exactly once and in order (the Fries-style epoch-barrier protocol is
   tuple-loss-free and order-preserving by construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro import SystemS
from repro.elastic.controller import RescaleState
from repro.spl.application import Application
from repro.spl.library import Beacon, Sink, Throttle
from repro.spl.parallel import parallel

from benchmarks.conftest import emit

WORKER_RATE = 10.0  # tuples/second one channel can serve
FEED_RATE = 100.0  # tuples/second the source emits (saturates 8 channels)


def build_region_app(width: int, limit=None, worker_rate=WORKER_RATE) -> Application:
    app = Application("Fission")
    g = app.graph
    src = g.add_operator(
        "src",
        Beacon,
        params={"values": {}, "per_tick": 10, "period": 10 / FEED_RATE,
                "limit": limit},
        partition="feed",
    )
    work = g.add_operator(
        "work",
        Throttle,
        params={"rate": worker_rate},
        parallel=parallel(width=width, name="region", max_width=8),
    )
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


@dataclass
class FissionResult:
    widths: List[int]
    throughputs: Dict[int, float]  #: width -> sink tuples/second


def run_fission_scaling(horizon: float = 30.0) -> FissionResult:
    widths = list(range(1, 9))
    throughputs: Dict[int, float] = {}
    for width in widths:
        system = SystemS(hosts=12)
        job = system.submit_job(build_region_app(width))
        system.run_for(horizon)
        sink = job.operator_instance("sink")
        throughputs[width] = len(sink.seen) / horizon
    return FissionResult(widths=widths, throughputs=throughputs)


def test_fission_throughput_scales_with_width(results_dir):
    result = run_fission_scaling()

    lines = [f"{'channels':>8}  {'sink throughput (tuples/s)':>28}"]
    for width in result.widths:
        lines.append(f"{width:8d}  {result.throughputs[width]:28.1f}")
    emit(results_dir, "scaling_parallel_fission", lines)

    rates = [result.throughputs[w] for w in result.widths]
    # monotonically increasing 1 -> 8 channels
    for narrower, wider in zip(rates, rates[1:]):
        assert wider > narrower
    # near-linear: 8 channels deliver at least 6x one channel
    assert rates[-1] / rates[0] >= 6.0


@dataclass
class RescaleResult:
    emitted: int
    received: List[int]
    scale_out_state: RescaleState
    scale_in_state: RescaleState
    widths_seen: List[int]


def run_live_rescale(limit: int = 600) -> RescaleResult:
    system = SystemS(hosts=12)
    # Workers fast enough to finish, slow enough that tuples are genuinely
    # buffered inside the region while it is rewired.
    job = system.submit_job(build_region_app(2, limit=limit, worker_rate=40.0))
    plan = job.compiled.parallel_regions["region"]
    widths = [plan.width]

    system.run_for(2.0)
    scale_out = system.elastic.set_channel_width(job, "region", 5)
    system.run_for(4.0)
    widths.append(plan.width)
    scale_in = system.elastic.set_channel_width(job, "region", 3)
    system.run_for(60.0)
    widths.append(plan.width)

    sink = job.operator_instance("sink")
    return RescaleResult(
        emitted=limit,
        received=[t["iter"] for t in sink.seen],
        scale_out_state=scale_out.state,
        scale_in_state=scale_in.state,
        widths_seen=widths,
    )


def test_live_rescale_zero_tuple_loss(results_dir):
    result = run_live_rescale()

    received = result.received
    emit(
        results_dir,
        "scaling_parallel_rescale",
        [
            f"emitted: {result.emitted}",
            f"received: {len(received)} (unique: {len(set(received))})",
            f"in order: {received == sorted(received)}",
            f"widths: {' -> '.join(str(w) for w in result.widths_seen)}",
            f"scale-out: {result.scale_out_state.value}, "
            f"scale-in: {result.scale_in_state.value}",
        ],
    )

    assert result.scale_out_state is RescaleState.COMPLETED
    assert result.scale_in_state is RescaleState.COMPLETED
    assert result.widths_seen == [2, 5, 3]
    # zero loss, exactly once: every source sequence number exactly once
    assert sorted(received) == list(range(result.emitted))
    assert len(received) == len(set(received))
    # the ordered merger preserves global sequence order across rescales
    assert received == sorted(received)
