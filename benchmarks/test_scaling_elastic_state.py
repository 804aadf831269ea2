"""Keyed-state migration benchmark (the partitioned operator state layer).

A keyed aggregation (running per-key counts behind rate-limited workers)
runs inside a ``partition_by`` parallel region while the region is
live-rescaled 2 -> 4 -> 2.  Every rescale re-partitions ``hash(key) %
width``, so without state migration every key that changes channels would
restart its count from zero.  The benchmark asserts the two invariants
the migration protocol guarantees, and records its latency numbers:

* **zero tuple loss** — the sink receives every source sequence number
  exactly once, in order (the PR 1 barrier protocol, still intact);
* **zero keyed-state loss** — every key's observed counts are exactly
  1, 2, 3, ... with no reset or gap across both rescales (state moved
  transactionally with the routing change);
* **migration latency** — keys/bytes moved, per-edge move counts and the
  drain-to-resume duration of each rescale in simulated ms, persisted
  under ``benchmarks/results/`` (the real cost of extract+install is
  ``state.migrate_ms`` of ``python3 -m bench``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import SystemS
from repro.elastic.controller import RescaleOperation, RescaleState
from repro.spl.application import Application
from repro.spl.library import CallbackSource, KeyedCounter, Sink, Throttle
from repro.spl.parallel import parallel

from benchmarks.conftest import emit

N_KEYS = 12
FEED_RATE = 40.0  #: tuples/second from the source
WORKER_RATE = 15.0  #: tuples/second one channel serves
LIMIT = 600


def build_keyed_aggregation_app(width: int = 2) -> Application:
    app = Application("KeyedStateScaling")
    g = app.graph

    def generate(now: float, count: int) -> List[Dict]:
        return [{"key": f"k{count % N_KEYS}", "seq": count}]

    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": generate, "period": 1.0 / FEED_RATE, "limit": LIMIT},
        partition="feed",
    )
    annotation = parallel(width=width, name="region", partition_by="key", max_width=8)
    thr = g.add_operator(
        "thr", Throttle, params={"rate": WORKER_RATE}, parallel=annotation
    )
    cnt = g.add_operator(
        "cnt", KeyedCounter, params={"key": "key"}, parallel=annotation
    )
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), thr.iport(0))
    g.connect(thr.oport(0), cnt.iport(0))
    g.connect(cnt.oport(0), sink.iport(0))
    return app


@dataclass
class MigrationRunResult:
    received_seqs: List[int]
    counts_by_key: Dict[str, List[int]]
    scale_out: RescaleOperation
    scale_in: RescaleOperation
    widths_seen: List[int]


def run_live_keyed_rescale() -> MigrationRunResult:
    system = SystemS(hosts=14)
    job = system.submit_job(build_keyed_aggregation_app(width=2))
    plan = job.compiled.parallel_regions["region"]
    widths = [plan.width]

    system.run_for(3.0)  # width 2 falls behind the feed; state accrues
    scale_out = system.elastic.set_channel_width(job, "region", 4)
    system.run_for(17.0)  # feed (15 s) finishes; width 4 catches up
    widths.append(plan.width)
    scale_in = system.elastic.set_channel_width(job, "region", 2)
    system.run_for(60.0)  # drain everything through the narrowed region
    widths.append(plan.width)

    sink = job.operator_instance("sink")
    counts: Dict[str, List[int]] = {}
    for t in sink.seen:
        counts.setdefault(t["key"], []).append(t["count"])
    return MigrationRunResult(
        received_seqs=[t["seq"] for t in sink.seen],
        counts_by_key=counts,
        scale_out=scale_out,
        scale_in=scale_in,
        widths_seen=widths,
    )


def _migration_lines(label: str, op: RescaleOperation) -> List[str]:
    migration = op.migration
    lines = [
        f"{label}: {op.old_width} -> {op.new_width} "
        f"({op.state.value}, epoch {op.epoch})",
        f"  rescale duration (quiesce->resume): {op.duration * 1000.0:.1f} sim-ms "
        f"({op.drain_polls} drain polls)",
    ]
    if migration is None:
        lines.append("  no migration (region not partitioned)")
        return lines
    lines += [
        f"  keys moved: {migration.keys_moved} "
        f"({migration.bytes_moved} bytes, {migration.keys_lost} lost)",
        "  per-edge moves: "
        + ", ".join(
            f"c{src}->c{dst}:{n}" for (src, dst), n in sorted(migration.moves.items())
        ),
    ]
    return lines


def test_live_rescale_zero_keyed_state_loss(results_dir):
    result = run_live_keyed_rescale()

    received = result.received_seqs
    reset_keys = [
        key
        for key, counts in result.counts_by_key.items()
        if counts != list(range(1, len(counts) + 1))
    ]
    lines = [
        f"emitted: {LIMIT} over {N_KEYS} keys "
        f"(feed {FEED_RATE}/s, {WORKER_RATE}/s per channel)",
        f"received: {len(received)} (unique: {len(set(received))}, "
        f"in order: {received == sorted(received)})",
        f"widths: {' -> '.join(str(w) for w in result.widths_seen)}",
        f"keys with non-contiguous counts (state loss): {len(reset_keys)}",
        "",
        *_migration_lines("scale-out", result.scale_out),
        *_migration_lines("scale-in", result.scale_in),
    ]
    emit(results_dir, "scaling_elastic_state", lines)

    assert result.scale_out.state is RescaleState.COMPLETED
    assert result.scale_in.state is RescaleState.COMPLETED
    assert result.widths_seen == [2, 4, 2]
    # zero tuple loss, exactly once, order preserved across both rescales
    assert sorted(received) == list(range(LIMIT))
    assert received == sorted(received)
    # zero keyed-state loss: every key counted 1..n without reset
    assert reset_keys == []
    assert set(result.counts_by_key) == {f"k{i}" for i in range(N_KEYS)}
    # both rescales actually migrated state
    for op in (result.scale_out, result.scale_in):
        assert op.migration is not None
        assert op.migration.keys_moved > 0
        assert op.migration.keys_lost == 0
