"""Fixed-count micro timings: each layer priced through its public calls.

These run in the traced (``--trace 1``) invocation after the traced
round.  Every timing calls a layer's public functions from outside, at
an operation count fixed here, over synthetic inputs drawn from the
run's seed; each is the median of ``REPEATS`` repetitions.  They price
the pieces the span ledger cannot separate (a fused hop, a single
``ctx.schedule``, one checkpoint at 50k keys) so that a change to one
layer has a number to point at before the end-to-end metric moves.
"""

from __future__ import annotations

import gc
import pathlib
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from repro import Application, OrcaDescriptor, Orchestrator, SystemConfig, SystemS
from repro.orca.scopes import UserEventScope
from repro.runtime.exec.wallclock import WallClockExecutor
from repro.sim.kernel import Kernel
from repro.spl.compiler import SPLCompiler
from repro.spl.graph import LogicalGraph
from repro.spl.library import (
    CallbackSource,
    Filter,
    Functor,
    KeyedCounter,
    OrderedMerger,
    ParallelSplitter,
    Sink,
    stable_channel_of,
)
from repro.spl.operators import OperatorContext
from repro.spl.state import StateStore
from repro.spl.tuples import StreamTuple

from bench import inputs
from bench.apps import REGION, SCOPES, region_application, region_descriptor

REPEATS = 3
HEAP_DEPTH = 1_000
BATCH = 64
#: operation counts at scale 1.0 (the smoke test shrinks them)
TUPLE_OPS = 20_000
EVENT_OPS = 20_000
STATE_KEYS = inputs.REGION_KEYS
ORCA_EVENTS = 10_000
SCHEDULE_DEPTHS = (1_000, 10_000)
PACKAGES = (
    "apps", "chaos", "checkpoint", "elastic", "obs", "orca", "runtime", "sim", "spl", "tools",
)


def _median_ns(run: Callable[..., Any], ops: int, setup: Callable[[], Any] = None) -> float:
    """Median nanoseconds per operation over ``REPEATS`` timed repetitions.

    ``setup`` (untimed) builds fresh state for each repetition and its
    result is handed to ``run``.
    """
    samples = []
    for _ in range(REPEATS):
        args = () if setup is None else (setup(),)
        gc.collect()
        started = time.perf_counter_ns()
        run(*args)
        samples.append((time.perf_counter_ns() - started) / ops)
    return statistics.median(samples)


def _noop(*_: Any) -> None:
    return None


# -- sim.kernel / runtime.exec.wallclock ---------------------------------------


def _event_ns(kernel: Any, events: int) -> float:
    """Schedule + dispatch of a no-op with a ``HEAP_DEPTH``-deep heap behind it."""
    for i in range(HEAP_DEPTH):
        kernel.schedule(1e9 + i, _noop)

    def run() -> None:
        schedule = kernel.schedule
        for _ in range(events // 100):
            for _ in range(100):
                schedule(0.0, _noop)
            kernel.run_until(kernel.now)

    return _median_ns(run, events)


def _wake_late_ms() -> float:
    """Median overshoot of wall-clock timers set 2 ms apart."""
    kernel = WallClockExecutor()
    late: List[float] = []

    def fire(due: float) -> None:
        late.append(kernel.now - due)

    start = kernel.now + 0.002
    for i in range(100):
        kernel.schedule_at(start + i * 0.002, fire, start + i * 0.002)
    kernel.run_until(start + 0.2)
    return statistics.median(late) * 1e3


# -- spl.tuples / spl.library / spl.state ---------------------------------------


def _tuple_timings(rows: List[Dict[str, Any]], tuples: List[StreamTuple]) -> Dict[str, float]:
    def make() -> None:
        for row in rows:
            StreamTuple(row)

    def with_values() -> None:
        for tup in tuples:
            tup.with_values(count=1)

    return {
        "tuples.make_ns": _median_ns(make, len(rows)),
        "tuples.with_values_ns": _median_ns(with_values, len(rows)),
    }


def _operator(op_class: type, params: Dict[str, Any]) -> Any:
    """An operator instance on a hand-built context whose outputs go nowhere."""
    spec = LogicalGraph().add_operator("op", op_class, params=params)
    ctx = OperatorContext(
        spec=spec,
        job_id="job",
        app_name="Micro",
        submission_params={},
        now_fn=lambda: 0.0,
        submit_fn=_noop,
        punct_fn=_noop,
        schedule_fn=_noop,
    )
    ctx.submit_batch_fn = _noop
    return op_class(ctx)


def _library_timings(tuples: List[StreamTuple]) -> Dict[str, float]:
    stamped = [tup.with_values(_pseq=i) for i, tup in enumerate(tuples)]
    batches = [tuples[i : i + BATCH] for i in range(0, len(tuples), BATCH)]
    stamped_batches = [stamped[i : i + BATCH] for i in range(0, len(stamped), BATCH)]
    cases = {
        "functor": (Functor, {"fn": lambda t: t.with_values(w=t["v"] * 2.0)}, tuples, batches),
        "filter": (Filter, {"predicate": lambda t: t["v"] < inputs.KEEP_SHARE}, tuples, batches),
        "keyed_counter": (KeyedCounter, {"key": "key"}, tuples, batches),
        "sink": (Sink, {"record": False, "consumer": _noop}, tuples, batches),
        "split": (
            ParallelSplitter,
            {"width": 4, "partition_by": "key", "ordered": True},
            tuples,
            batches,
        ),
        "merge": (OrderedMerger, {"width": 4, "ordered": True}, stamped, stamped_batches),
    }
    out: Dict[str, float] = {}
    for name, (op_class, params, singles, runs) in cases.items():

        def one_by_one(op: Any) -> None:
            on_tuple = op.on_tuple
            for tup in singles:
                on_tuple(tup, 0)

        def batched(op: Any) -> None:
            process_batch = op.process_batch
            for run in runs:
                process_batch(run, 0)

        fresh = lambda: _operator(op_class, params)  # noqa: E731 - per-repeat state
        out[f"library.{name}_ns"] = _median_ns(one_by_one, len(singles), fresh)
        out[f"library.{name}_batch_ns"] = _median_ns(batched, len(singles), fresh)
    return out


def _state_timings(keys: List[str], n_keys: int) -> Dict[str, float]:
    distinct = [f"k{i}" for i in range(n_keys)]

    def loaded() -> StateStore:
        store = StateStore()
        counts = store.keyed("counts")
        for key in distinct:
            counts.put(key, 1)
        return store

    def update(store: StateStore) -> None:
        bump = store.keyed("counts").update
        for key in keys:
            bump(key, lambda n: n + 1, default=0)

    def migrate(store: StateStore) -> None:
        moved = store.keyed("counts").extract_partition(
            lambda key: stable_channel_of(key, 4) >= 2
        )
        StateStore().keyed("counts").install(moved)

    store = loaded()
    return {
        "state.update_ns": _median_ns(update, len(keys), loaded),
        "state.snapshot_ms": _median_ns(lambda s: s.snapshot(), 1, loaded) / 1e6,
        "state.migrate_ms": _median_ns(migrate, 1, loaded) / 1e6,
        "state.bytes": float(store.size_bytes()),
    }


# -- runtime.pe / runtime.transport ----------------------------------------------


def _chain_system(length: int, batch: int) -> Any:
    """A running job: ``length`` fused identity functors, then a remote sink."""
    system = SystemS(hosts=2, config=SystemConfig(batch_max_size=batch, health_interval=0.0))
    app = Application("Chain")
    g = app.graph
    src = g.add_operator(
        "src", CallbackSource, params={"generator": lambda now, n: [], "period": 1e9},
        partition="head",
    )
    previous = src
    for i in range(length):
        op = g.add_operator(f"f{i}", Functor, params={"fn": lambda t: t}, partition="head")
        g.connect(previous.oport(0), op.iport(0))
        previous = op
    sink = g.add_operator("sink", Sink, params={"record": False}, partition="tail")
    g.connect(previous.oport(0), sink.iport(0))
    job = system.submit_job(app)
    system.run_for(1.0)
    return system, job


def _pe_timings(tuples: List[StreamTuple], depths: Tuple[int, int]) -> Dict[str, float]:
    def receive_into(length: int) -> float:
        system, job = _chain_system(length, batch=BATCH)
        head = job.pe_of_operator("f0")

        def run() -> None:
            receive = head.receive
            for tup in tuples:
                receive("f0", 0, tup)
            system.run_for(0.01)

        return _median_ns(run, len(tuples))

    one_hop, three_hops = receive_into(1), receive_into(3)

    def schedule_after(earlier: int) -> float:
        system, job = _chain_system(1, batch=1)
        ctx = job.operator_instance("f0").ctx
        for _ in range(earlier):
            ctx.schedule(1e9, _noop)
        started = time.perf_counter_ns()
        for _ in range(200):
            ctx.schedule(1e9, _noop)
        return (time.perf_counter_ns() - started) / 200

    system, job = _chain_system(1, batch=1)
    tail = job.pe_of_operator("sink")

    def receive() -> None:
        take = tail.receive
        for tup in tuples:
            take("sink", 0, tup)

    return {
        "pe.receive_ns": _median_ns(receive, len(tuples)),
        "pe.local_hop_ns": (three_hops - one_hop) / 2,
        "pe.schedule_ns_at_1k": schedule_after(depths[0]),
        # the issue asked for 30k; priming alone would cost ~8 s at the seed
        # (each earlier call rescans the list), so the deep point is 10k
        "pe.schedule_ns_at_10k": schedule_after(depths[1]),
    }


def _transport_timings(tuples: List[StreamTuple]) -> Dict[str, float]:
    def send_ns(batch: int) -> float:
        system, job = _chain_system(1, batch=batch)
        head, tail = job.pe_of_operator("f0"), job.pe_of_operator("sink")
        transport = system.transport

        def one_at_a_time() -> None:
            for tup in tuples:
                transport.send(tail, "sink", 0, tup, src_pe=head)
            system.run_for(0.01)

        def in_runs() -> None:
            for i in range(0, len(tuples), BATCH):
                transport.send_batch(tail, "sink", 0, tuples[i : i + BATCH], src_pe=head)
            system.run_for(0.01)

        return _median_ns(one_at_a_time if batch == 1 else in_runs, len(tuples))

    return {"transport.send_ns": send_ns(1), "transport.send_batch_ns": send_ns(BATCH)}


# -- spl.compiler / runtime.sam / runtime.srm / checkpoint / elastic / orca ------


def _loaded_region(n_keys: int) -> Any:
    """A quiet region job holding ``n_keys`` distinct keys, source exhausted."""
    rows = [{"seq": i, "key": f"k{i}"} for i in range(n_keys)]
    system = SystemS(
        hosts=4, config=SystemConfig(batch_max_size=BATCH, health_interval=0.0)
    )
    app = region_application(
        lambda now, count: rows[count : count + 500], 0.01, len(rows), _noop
    )
    service = system.submit_orchestrator(region_descriptor(app, {}, float("inf")))
    system.run_for(5.0)
    return system, service, service.logic.job


def _control_plane_timings(n_keys: int) -> Dict[str, float]:
    app = region_application(lambda now, count: [], 1.0, 0, _noop)
    compiler = SPLCompiler("manual", 0)
    compiled = compiler.compile(app)
    out = {
        "compiler.compile_ms": _median_ns(lambda: compiler.compile(app), 1) / 1e6,
        "sam.submit_ms": _median_ns(
            lambda system: system.submit_job(compiled),
            1,
            lambda: SystemS(hosts=4, config=SystemConfig(health_interval=0.0)),
        )
        / 1e6,
    }

    system, service, job = _loaded_region(n_keys)
    push = lambda: [hc.collect_and_push() for hc in system.hcs.values()]  # noqa: E731
    out["srm.push_ms"] = _median_ns(push, 1) / 1e6
    out["srm.query_ms"] = _median_ns(lambda: system.srm.get_metrics([job.job_id]), 1) / 1e6

    checkpoints = system.checkpoints
    started = time.perf_counter_ns()
    checkpoints.checkpoint_job(job)
    out["checkpoint.full_ms"] = (time.perf_counter_ns() - started) / 1e6

    def dirty_one_percent() -> None:
        for channel in service.region_channels(job.job_id, REGION):
            counts = job.operator_instance(channel[0]).state.keyed("counts")
            for key in counts.keys()[: len(counts) // 100]:
                counts.update(key, lambda n: n + 1)

    out["checkpoint.incr_ms"] = (
        _median_ns(lambda _: checkpoints.checkpoint_job(job), 1, dirty_one_percent) / 1e6
    )

    done: Dict[str, Any] = {}
    started = time.perf_counter_ns()
    system.elastic.set_channel_width(job, REGION, 4, on_complete=lambda op: done.update(op=op))
    while "op" not in done:
        system.run_for(0.05)
    out["elastic.rescale_idle_wall_ms"] = (time.perf_counter_ns() - started) / 1e6

    checkpoints.checkpoint_job(job)
    victim = job.pe_of_operator(service.region_channels(job.job_id, REGION)[0][0])
    victim.crash("micro")
    started = time.perf_counter_ns()
    victim.restart(rehydrate=True)
    out["checkpoint.restore_ms"] = (time.perf_counter_ns() - started) / 1e6
    return out


class _FloodLogic(Orchestrator):
    """A routine that registers ``scopes`` user-event scopes; one matches."""

    def __init__(self, scopes: int) -> None:
        super().__init__()
        self.scopes = scopes

    def handleOrcaStart(self, context: Any) -> None:  # noqa: N802
        self.orca.register_event_scope(UserEventScope("flood").addNameFilter("flood"))
        for i in range(self.scopes - 1):
            self.orca.register_event_scope(UserEventScope(f"decoy{i}").addNameFilter(f"never{i}"))


def _orca_timings(events: int) -> Dict[str, float]:
    def per_event_ns(scopes: int) -> float:
        def fresh() -> Any:
            system = SystemS(hosts=1, config=SystemConfig(health_interval=0.0))
            service = system.submit_orchestrator(
                OrcaDescriptor(name="Flood", logic=lambda: _FloodLogic(scopes))
            )
            system.run_for(0.0)
            return system, service

        def flood(pair: Any) -> None:
            system, service = pair
            for i in range(events):
                service.inject_user_event("flood", {"i": i})
            system.run_for(0.0)

        return _median_ns(flood, events, fresh)

    one, many = per_event_ns(1), per_event_ns(SCOPES)
    return {"orca.dispatch_ns": one, "orca.match_ns_per_scope": (many - one) / (SCOPES - 1)}


# -- harness ---------------------------------------------------------------------


def loc(src_root: pathlib.Path) -> Dict[str, float]:
    """Lines per package under ``src/repro`` (what a simplicity change cites)."""
    out: Dict[str, float] = {}
    for package in PACKAGES:
        out[f"loc.{package}"] = float(
            sum(
                len(path.read_text().splitlines())
                for path in (src_root / package).rglob("*.py")
            )
        )
    out["loc.total"] = float(
        sum(len(path.read_text().splitlines()) for path in src_root.rglob("*.py"))
    )
    return out


def split_skew(keys: List[str], width: int = 4) -> float:
    """Busiest channel over the mean, routing ``keys`` over ``width`` channels."""
    counts = [0] * width
    for key in keys:
        counts[stable_channel_of(key, width)] += 1
    return max(counts) * width / len(keys)


def run_all(seed: int, scale: float = 1.0) -> Dict[str, float]:
    """Every fixed-count timing, by metric name (``scale`` shrinks the counts)."""
    n_tuples = max(BATCH, int(TUPLE_OPS * scale))
    n_events = max(100, int(EVENT_OPS * scale))
    n_keys = max(100, int(STATE_KEYS * scale))
    depths = (max(10, int(SCHEDULE_DEPTHS[0] * scale)), max(20, int(SCHEDULE_DEPTHS[1] * scale)))
    rows = inputs.pipe_inputs(seed, n_tuples)
    keys = random.Random(seed).choices([f"k{i}" for i in range(n_keys)], k=n_tuples)
    out = {
        "kernel.event_ns": _event_ns(Kernel(), n_events),
        "wallclock.event_ns": _event_ns(WallClockExecutor(), n_events),
        "wallclock.wake_late_ms": _wake_late_ms(),
    }
    tuples = [StreamTuple(row) for row in rows]
    out.update(_tuple_timings(rows, tuples))
    out.update(_library_timings(tuples))
    out.update(_state_timings(keys, n_keys))
    out.update(_pe_timings(tuples, depths))
    out.update(_transport_timings(tuples))
    out.update(_control_plane_timings(n_keys))
    out.update(_orca_timings(max(100, int(ORCA_EVENTS * scale))))
    return out
