"""Checkpointing & crash-recovery benchmark (the repro.checkpoint layer).

Three claims, each impossible on the seed's no-checkpoint semantics (what
checkpointing *costs* is wall time: ``checkpoint.full_ms`` /
``checkpoint.incr_ms`` / ``checkpoint.self_us_per_tuple`` of ``python3 -m
bench``):

* **crash-restart recovery** — with periodic checkpointing, a crashed
  PE's ``restart(rehydrate=True)`` restores >= 99% of its keyed state
  from the last committed epoch (the seed restores exactly 0%: a crash
  never produced a snapshot);
* **scale-in merge** — a region's user-defined ``global_merge`` hook
  folds the doomed channels' global state into survivors: zero tuples
  and zero global-state items lost across a 4 -> 2 shrink;
* **exactly-once channel crash** — a region channel crashes mid-stream
  under ``delivery="exactly_once"``: its keyed tuples park at the
  splitter while it is down, the restart rehydrates its epoch and
  replays what it had not committed, and the parked tuples follow —
  zero tuple loss and per-key counts stay *contiguous* across the whole
  crash/park/restart cycle.
"""

from __future__ import annotations

from typing import Dict, List

from repro import SystemS
from repro.runtime.system import SystemConfig
from repro.spl.application import Application
from repro.spl.library import CallbackSource, KeyedCounter, Sink, stable_channel_of
from repro.spl.operators import Operator
from repro.spl.parallel import parallel

from benchmarks.conftest import emit

N_KEYS = 20


def keyed_generator(n_keys=N_KEYS):
    def generate(now, count):
        return [{"key": f"k{count % n_keys}", "seq": count}]

    return generate


def build_plain_app(period=0.02, limit=None):
    app = Application("CkptPlain")
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": keyed_generator(), "period": period, "limit": limit},
        partition="feed",
    )
    work = g.add_operator("work", KeyedCounter, params={"key": "key"})
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


# ---------------------------------------------------------------------------
# 1. crash-restart recovery >= 99% (vs 0% on the seed semantics)
# ---------------------------------------------------------------------------


def run_crash_recovery(checkpoint_interval: float):
    """Crash a keyed-counter PE mid-stream; measure restored keyed state."""
    system = SystemS(
        hosts=6, config=SystemConfig(checkpoint_interval=checkpoint_interval)
    )
    job = system.submit_job(build_plain_app(period=0.02))
    system.run_for(20.0)  # ~1000 tuples counted across 20 keys
    pe = job.pe_of_operator("work")
    crash_counts = dict(pe.operators["work"].state.keyed("counts").items())
    pe.crash("benchmark")
    system.sam.restart_pe(job.job_id, pe.pe_id, rehydrate=True)
    restored: Dict[str, int] = {}
    # scheduled after the restart_pe call, at the same instant the restart
    # completes: the probe sees the restored state before any new tuple
    system.kernel.schedule(
        system.config.pe_restart_delay,
        lambda: restored.update(
            dict(pe.operators["work"].state.keyed("counts").items())
        ),
    )
    system.run_for(3.0)
    total = sum(crash_counts.values())
    recovered = sum(
        min(restored.get(key, 0), count) for key, count in crash_counts.items()
    )
    return recovered / total if total else 0.0, total


# ---------------------------------------------------------------------------
# 2. scale-in global-state merge: zero loss
# ---------------------------------------------------------------------------


class _GlobalCollector(Operator):
    STATEFUL = True

    def __init__(self, ctx):
        super().__init__(ctx)
        self._seen = self.state.global_("collected", default=list)

    def on_tuple(self, tup, port):
        self._seen.value.append(tup["seq"])
        self.submit(tup)

    def on_punct(self, punct, port):
        return


def run_scale_in_merge():
    limit = 400
    app = Application("CkptMerge")
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": keyed_generator(), "period": 0.02, "limit": limit},
        partition="feed",
    )
    work = g.add_operator(
        "work",
        _GlobalCollector,
        parallel=parallel(
            width=4,
            name="region",
            partition_by="key",
            max_width=8,
            global_merge=lambda name, survivor, doomed: (survivor or [])
            + (doomed or []),
        ),
    )
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))

    system = SystemS(hosts=14)
    job = system.submit_job(app)
    system.run_for(3.0)
    before = set()
    for channel in range(4):
        instance = job.operator_instance(f"work__c{channel}")
        before.update(instance.state.global_("collected").value)
    operation = system.elastic.set_channel_width(job, "region", 2)
    system.run_for(30.0)
    after = set()
    for channel in range(2):
        instance = job.operator_instance(f"work__c{channel}")
        after.update(instance.state.global_("collected").value)
    sink_op = job.operator_instance("sink")
    received = sorted(t["seq"] for t in sink_op.seen)
    return operation, before, after, received, limit


# ---------------------------------------------------------------------------
# 3. exactly-once channel crash: zero tuple loss, contiguous per-key counts
# ---------------------------------------------------------------------------


def run_channel_crash_exactly_once():
    limit = 400
    period = 0.05
    app = Application("CkptChannelCrash")
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": keyed_generator(), "period": period, "limit": limit},
        partition="feed",
    )
    work = g.add_operator(
        "work",
        KeyedCounter,
        params={"key": "key"},
        parallel=parallel(width=2, name="region", partition_by="key", max_width=8),
    )
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))

    system = SystemS(
        hosts=12,
        config=SystemConfig(checkpoint_interval=0.5, delivery="exactly_once"),
    )
    job = system.submit_job(app)
    # mid-stream and mid-interval: the 5.25 tick is still on the wire and
    # c1 has processed half an interval past its last committed epoch
    system.run_for(5.2505)
    dead_pe = job.pe_of_operator("work__c1")
    dead_pe.crash("benchmark")
    system.run_for(3.0)  # c1 is down: its keys park at the splitter
    system.sam.restart_pe(job.job_id, dead_pe.pe_id, rehydrate=True)
    system.run_for(30.0)  # replay, parked tuples released, feed finishes

    sink_op = job.operator_instance("sink")
    received = [t["seq"] for t in sink_op.seen]
    counts: Dict[str, List[int]] = {}
    for t in sink_op.seen:
        counts.setdefault(t["key"], []).append(t["count"])
    non_contiguous = [
        key
        for key, seq in counts.items()
        if seq != list(range(1, len(seq) + 1))
    ]
    splitter = job.operator_instance("region__split")
    parked = int(splitter.metric("nParkedTuples").value)
    transport = system.transport
    return (
        received, non_contiguous, parked, transport.replayed,
        transport.retransmissions, limit,
    )


# ---------------------------------------------------------------------------
# the benchmark
# ---------------------------------------------------------------------------


def run_all():
    recovered, total = run_crash_recovery(checkpoint_interval=0.1)
    seed_recovered, _ = run_crash_recovery(checkpoint_interval=0.0)
    merge_op, merge_before, merge_after, merge_received, merge_limit = (
        run_scale_in_merge()
    )
    received, non_contiguous, parked, replayed, retransmitted, crash_limit = (
        run_channel_crash_exactly_once()
    )
    return {
        "recovered": recovered,
        "total": total,
        "seed_recovered": seed_recovered,
        "merge_op": merge_op,
        "merge_before": merge_before,
        "merge_after": merge_after,
        "merge_received": merge_received,
        "merge_limit": merge_limit,
        "received": received,
        "non_contiguous": non_contiguous,
        "parked": parked,
        "replayed": replayed,
        "retransmitted": retransmitted,
        "crash_limit": crash_limit,
    }


def test_checkpoint_recovery(results_dir):
    r = run_all()

    migration = r["merge_op"].migration
    lines = [
        "crash-restart recovery (checkpoint interval 0.1 s, 50 tuples/s, "
        f"{N_KEYS} keys):",
        f"  keyed state at crash: {r['total']} counts",
        f"  recovered with checkpointing: {r['recovered'] * 100:.2f}%",
        f"  recovered on seed semantics (no checkpoints): "
        f"{r['seed_recovered'] * 100:.2f}%",
        "",
        "scale-in 4 -> 2 with global_merge hook:",
        f"  tuples received: {len(r['merge_received'])}/{r['merge_limit']} "
        f"(exactly once: {r['merge_received'] == list(range(r['merge_limit']))})",
        f"  global states merged: {migration.global_states_merged}, "
        f"dropped: {migration.dropped_global_states}",
        f"  global items before: {len(r['merge_before'])}, retained after: "
        f"{len(r['merge_before'] & r['merge_after'])}",
        "",
        "exactly-once: crash mid-stream -> park -> restart -> replay (width 2):",
        f"  tuples received: {len(r['received'])}/{r['crash_limit']} "
        f"(per-key order: {r['non_contiguous'] == []})",
        f"  keyed tuples parked at the splitter while masked: {r['parked']}",
        f"  tuples replayed to the restarted channel: {r['replayed']}",
        f"  tuples retransmitted to it (in flight at the crash): "
        f"{r['retransmitted']}",
        f"  keys with non-contiguous counts (state loss): "
        f"{len(r['non_contiguous'])}",
    ]
    emit(results_dir, "checkpoint_recovery", lines)

    # crash-restart: >= 99% recovered with checkpointing, 0% without
    assert r["recovered"] >= 0.99
    assert r["seed_recovered"] == 0.0
    # scale-in merge: zero tuple loss, zero global-state loss
    assert r["merge_received"] == list(range(r["merge_limit"]))
    assert migration.dropped_global_states == 0
    assert migration.global_states_merged == 2
    assert r["merge_before"] <= r["merge_after"]
    # channel crash: zero tuple loss, zero state loss, per-key order kept
    # (a parked key's tuples reach the sink after the outage, so the
    # global order across keys is not)
    assert sorted(r["received"]) == list(range(r["crash_limit"]))
    assert r["non_contiguous"] == []
    assert r["parked"] > 0 and r["replayed"] > 0
