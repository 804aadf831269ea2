"""The four workloads and the code that runs one round of each.

A *round* builds a fresh ``SystemS``, runs the workload's application
over the generated input until the sink has everything, and returns the
round's readings plus the oracle's verdict.  Rounds never share state;
the caller repeats them and reports medians.

Sizes are fixed here (one round at ``scale=1.0``) and were chosen at the
seed commit so that a round takes 4-8 s on the 2-core sandbox: long
enough for run-length effects (``pipe_tick``'s ``_pending`` rescan,
checkpoint growth in the region workloads) to dominate noise, short
enough that a 20 s run holds several rounds.  ``scale`` shrinks a round
for the smoke test and the determinism check without changing the
region script's simulated-time line: the pipeline workloads emit fewer
ticks, the region workloads fewer tuples per tick.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import SystemConfig, SystemS

from bench import inputs, oracle
from bench.apps import REGION, pipe_application, region_application, region_descriptor
from bench.trace import Recorder

HOSTS = 4
#: SystemS's own seed (placement, fault streams); the workload seed only
#: drives the generated input, which is all the program sees
SYSTEM_SEED = 42
#: open-loop phase of ``wc_region``: fixed offered rate, tuples per second
OPEN_LOOP_RATE = 5_000.0
OPEN_LOOP_TICK_S = 0.001
SATURATING_PERIOD_S = 1e-6
#: adaptation script instants, as shares of the tuples emitted
CRASH_AT, SCALE_IN_AT = 0.6, 0.8
#: the metric rule fires above this multiple of the initial input rate
RATE_RULE = 1.5
FLOOD_EVENTS = 40_000
#: ``wc_region``: the saturate phase ends after this many tuples at the
#: sink (so every round's phase is the same work, block for block); the
#: open loop takes this share of ``--seconds``; the adaptation script
#: between them takes what it takes, ~3 s
SATURATE_TUPLES = 32_768
#: timeline points of the saturate phase (4,096 tuples apart): on real
#: time the interleaving of source ticks and deliveries differs round to
#: round, so fine blocks are not the same work (at 64 tuples the
#: fastest-block reading came out 40% above the fastest whole round)
SATURATE_BLOCKS = 8
#: sim rounds are read in slices of about a millisecond of work (the
#: sandbox's slow spells are mostly that short, see fastest_slices):
#: this many source ticks per slice on the pipeline workloads, this
#: share of a source period on the region workload
PIPE_TICKS_PER_SLICE = {1: 4, 64: 1}
REGION_SLICE_SHARE = 0.25
OPEN_LOOP_SHARE = 0.3
_STEP_TIMEOUT_S = 60.0

REGION_CONFIG = {
    "batch_max_size": 64,
    "delivery": "exactly_once",
    "checkpoint_interval": 0.5,
}


@dataclass(frozen=True)
class Workload:
    """One workload: what runs, at which size, and why it is here."""

    name: str
    why: str
    kind: str  # "pipe" | "region"
    executor: str  # "sim" | "wallclock"
    tuples: int  # per round at scale 1.0 (wc_region is time-driven: 0)
    per_tick: int
    period: float  # source period in simulated seconds
    config: Mapping[str, Any] = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pipe_tick",
            why="sim, 1 tuple per tick: ~3 kernel events and one ctx.schedule per "
            "tuple, so kernel, PE scheduling and the health tax dominate",
            kind="pipe",
            executor="sim",
            tuples=20_000,
            per_tick=1,
            period=0.001,
        ),
        Workload(
            name="pipe_burst",
            why="same pipeline, 64-tuple ticks and batches: <0.1 kernel events per "
            "tuple, so tuple construction, process_batch and keyed state dominate",
            kind="pipe",
            executor="sim",
            tuples=150_000,
            per_tick=64,
            period=0.001,
            config={"batch_max_size": 64},
        ),
        Workload(
            name="region_adapt",
            why="sim, orchestrated keyed region, exactly-once + checkpoints, Zipf keys: "
            "metric-driven scale-out, crash recovery, scale-in, event flood",
            kind="region",
            executor="sim",
            tuples=120_000,
            per_tick=64,
            period=0.02,
            config=REGION_CONFIG,
        ),
        Workload(
            name="wc_region",
            why="the same region program on the wall-clock executor: saturation "
            "capacity, real-ms rescale/recovery, open-loop tuple latency",
            kind="region",
            executor="wallclock",
            tuples=0,
            per_tick=64,
            period=SATURATING_PERIOD_S,
            config=REGION_CONFIG,
        ),
    )
}


@dataclass
class Round:
    """One round's readings, by metric name, and the oracle's verdict."""

    values: Dict[str, float]
    verdict: oracle.Verdict
    digest: str = ""
    #: sim rounds: (wall time, tuples at the sink) after every slice
    timeline: List[Tuple[float, int]] = field(default_factory=list)


def make_inputs(workload: Workload, seed: int, scale: float) -> Any:
    """The workload's generated input for one round (same seed, same input)."""
    if workload.kind == "pipe":
        n = max(workload.per_tick, int(workload.tuples * scale))
        return inputs.pipe_inputs(seed, n)
    if workload.executor == "sim":
        n = workload.tuples * _per_tick(workload, scale) // workload.per_tick
        return inputs.region_inputs(seed, n)
    # wall-clock rounds are time-driven: a power-of-two pool of key draws,
    # cycled by sequence number, decides every tuple the generator emits
    return inputs.zipf_keys(seed, 1 << 18)


def run_round(
    workload: Workload,
    data: Any,
    *,
    scale: float = 1.0,
    seconds: float = 20.0,
    script: bool = True,
    tracer: Optional[Recorder] = None,
    want_digest: bool = False,
    **overrides: Any,
) -> Round:
    """Run one round of ``workload`` over ``data``.

    ``overrides`` replace ``SystemConfig`` fields (the variant rounds
    behind ``obs.trace_tax``, ``delivery.eo_tax``, ... and the executor
    twin behind ``wallclock.sim_ratio``); ``script=False`` runs the
    region application steadily, without the adaptation script.
    """
    config = SystemConfig(**{"executor": workload.executor, **workload.config, **overrides})
    gc.collect()
    if workload.kind == "pipe":
        return _pipe_round(workload, data, config, tracer, want_digest)
    if config.executor == "sim":
        return _region_sim_round(workload, data, config, scale, script, tracer, want_digest)
    return _region_wc_round(workload, data, config, scale, seconds, script, tracer)


# -- shared helpers -----------------------------------------------------------


def _per_tick(workload: Workload, scale: float) -> int:
    return max(1, round(workload.per_tick * scale))


def _advance(system: SystemS, duration: float, tracer: Optional[Recorder]) -> None:
    system.run_for(duration)
    if tracer is not None:
        tracer.end_event()


def _until_first_arrival(system: SystemS, arrivals: List[Any], tracer: Optional[Recorder]) -> None:
    step = system.kernel.step
    deadline = time.perf_counter() + _STEP_TIMEOUT_S
    while not arrivals:
        if not step() or time.perf_counter() > deadline:
            raise RuntimeError("no tuple reached the sink during set-up")
    if tracer is not None:
        tracer.end_event()


def _time_at(timeline: Sequence[Tuple[float, int]], target: float) -> float:
    """When the arrival count first reached ``target`` (linear interpolation)."""
    counts = [count for _, count in timeline]
    i = bisect_left(counts, target)
    if i == 0:
        return timeline[0][0]
    (t0, c0), (t1, c1) = timeline[i - 1], timeline[i]
    return t1 if c1 == c0 else t0 + (t1 - t0) * (target - c0) / (c1 - c0)


def fastest_slices(timelines: Sequence[Sequence[Tuple[float, int]]]) -> List[Tuple[float, int]]:
    """One timeline from several rounds: each slice at its fastest reading.

    Rounds over one input are the same work slice for slice, and the
    sandbox only ever disturbs a reading upward (its CPU runs 30-50%
    slower in spells of milliseconds to seconds), so the fastest reading
    of a slice is the one closest to the undisturbed machine.  What the
    fastest reading drops with the noise is work that lands in a
    different slice every round: on the wall-clock executor the
    checkpoint and health ticks, which fire on real time.
    """
    counts = [[count for _, count in timeline] for timeline in timelines]
    if any(row != counts[0] for row in counts):
        raise RuntimeError("rounds over one input delivered at different slices")
    merged, at = [(0.0, 0)], 0.0
    for i in range(1, len(counts[0])):
        at += min(timeline[i][0] - timeline[i - 1][0] for timeline in timelines)
        merged.append((at, counts[0][i]))
    return merged


def throughput(timeline: Sequence[Tuple[float, int]]) -> Dict[str, float]:
    """Rate from first source tick to last sink tuple, and last/first quarter."""
    total = timeline[-1][1]
    start, end = timeline[0][0], _time_at(timeline, total)
    first_quarter = _time_at(timeline, total / 4) - start
    last_quarter = end - _time_at(timeline, 3 * total / 4)
    return {"tuples_per_s": total / (end - start), "flatness": first_quarter / last_quarter}


def _digest(arrivals: Sequence[Tuple[int, str, int]]) -> str:
    return hashlib.sha256(repr(arrivals).encode()).hexdigest()


def _transport_values(system: SystemS, emitted: int) -> Dict[str, float]:
    transport = system.transport
    return {
        "kernel.events_per_tuple": system.kernel.events_processed / emitted,
        "delivery.acks_per_tuple": transport.acks / emitted,
        "delivery.retransmits": float(transport.retransmissions),
        "checkpoint.rounds": float(len(system.checkpoints.records)),
        "checkpoint.bytes": float(sum(r.bytes_written for r in system.checkpoints.records)),
    }


def _replay_bytes(system: SystemS) -> float:
    plane = system.transport.reliability
    return float(sum(plane.replay_bytes.values())) if plane is not None else 0.0


# -- pipeline workloads ---------------------------------------------------------


def _pipe_round(
    workload: Workload,
    data: List[Dict[str, Any]],
    config: SystemConfig,
    tracer: Optional[Recorder],
    want_digest: bool,
) -> Round:
    n, per_tick = len(data), workload.per_tick
    sim = config.executor == "sim"
    arrivals: List[Any] = []
    marks: Dict[str, float] = {}

    def generator(now: float, count: int) -> List[Dict[str, Any]]:
        if not count:
            marks["first_tick"] = time.perf_counter()
        return data[count : count + per_tick]

    built_at = time.perf_counter()
    system = SystemS(hosts=HOSTS, config=config, seed=SYSTEM_SEED)
    if tracer is not None:
        system.kernel.event_tap = tracer.on_event
    period = workload.period if sim else SATURATING_PERIOD_S
    job = system.submit_job(pipe_application(generator, period, n, arrivals.append))
    _until_first_arrival(system, arrivals, tracer)
    setup_s = time.perf_counter() - built_at

    slice_s = PIPE_TICKS_PER_SLICE[per_tick] * period if sim else 0.05
    deadline = time.perf_counter() + 4 * _STEP_TIMEOUT_S
    timeline = [(marks["first_tick"], 0)]
    sink = job.operator_instance("sink")
    while not sink.is_finalized:
        _advance(system, slice_s, tracer)
        timeline.append((time.perf_counter(), len(arrivals)))
        if time.perf_counter() > deadline:
            raise RuntimeError(f"{workload.name}: the sink never saw the final punctuation")

    if not sim:
        # real-time slices hold different work every round: keep the ends only
        timeline = [timeline[0], (_time_at(timeline, len(arrivals)), len(arrivals))]
    seen = oracle.arrivals_of(arrivals)
    verdict = oracle.check(
        [row["key"] for row in data],
        [row["v"] < inputs.KEEP_SHARE for row in data],
        seen,
        dict(job.operator_instance("count").state.keyed("counts").items()),
    )
    values = {"setup_s": setup_s, **throughput(timeline), **_transport_values(system, n)}
    return Round(values, verdict, _digest(seen) if want_digest else "", timeline)


# -- region workloads -------------------------------------------------------------


class _RegionRun:
    """A submitted region application with its orchestrator and script steps."""

    def __init__(
        self,
        config: SystemConfig,
        generator: Callable[[float, int], List[Dict[str, Any]]],
        period: float,
        limit: Optional[int],
        consumer: Callable[[Any], None],
        rate_threshold: float,
        tracer: Optional[Recorder],
    ) -> None:
        self.marks: Dict[str, Any] = {}
        self.config = config
        self.tracer = tracer
        self.system = SystemS(hosts=HOSTS, config=config, seed=SYSTEM_SEED)
        if tracer is not None:
            self.system.kernel.event_tap = tracer.on_event
        app = region_application(generator, period, limit, consumer)
        self.service = self.system.submit_orchestrator(
            region_descriptor(app, self.marks, rate_threshold)
        )
        self.queue_peak = 0

    @property
    def job(self) -> Any:
        return self.service.logic.job

    def advance(self, duration: float) -> None:
        _advance(self.system, duration, self.tracer)
        self.queue_peak = max(self.queue_peak, len(self.service.queue))

    def inject(self, name: str) -> None:
        self.service.inject_user_event(name, {})
        self.queue_peak = max(self.queue_peak, len(self.service.queue))

    def done(self, step: str) -> bool:
        """Whether the rescale issued by ``step`` has resumed the region."""
        operation = self.marks.get(step)
        return operation is not None and operation.completed_at is not None

    def crash_channel(self) -> None:
        """Kill the PE of channel 1; the routine restarts it on ``pe_failure``."""
        job = self.job
        victim = job.pe_of_operator(self.service.region_channels(job.job_id, REGION)[1][0])

        def restarted(pe: Any) -> None:
            if pe.pe_id == victim.pe_id:
                self.marks["restarted_at"] = self.system.now

        self.system.sam.pe_restart_observers.append(restarted)
        self.marks["crash_at"] = self.system.now
        victim.crash("bench")

    def recovered(self) -> bool:
        return "restarted_at" in self.marks and "unmasked_at" in self.marks

    def flood(self, events: int) -> float:
        """Inject ``events`` user events at once; events handled per wall second."""
        started = time.perf_counter()
        inject = self.service.inject_user_event
        for i in range(events):
            inject("flood", {"i": i})
        self.queue_peak = max(self.queue_peak, len(self.service.queue))
        deadline = started + _STEP_TIMEOUT_S
        while self.marks.get("flood_handled", 0) < events:
            self.advance(0.0)
            if time.perf_counter() > deadline:
                raise RuntimeError("the event flood did not drain")
        return events / (time.perf_counter() - started)

    def final_state(self) -> Dict[str, int]:
        job = self.job
        state: Dict[str, int] = {}
        for channel in self.service.region_channels(job.job_id, REGION):
            for name in channel:
                state.update(job.operator_instance(name).state.keyed("counts").items())
        return state

    def scenario_values(self) -> Dict[str, float]:
        """Adaptation latencies in executor ms, each beside its timer/work split."""
        marks, config = self.marks, self.config
        scale_out = marks["scale_out"]
        rescale_ms = (scale_out.completed_at - scale_out.started_at) * 1e3
        rescale_timer_ms = scale_out.drain_polls * config.elastic_drain_poll * 1e3
        back_at = max(marks["restarted_at"], marks["unmasked_at"], marks.get("reclaimed_at", 0.0))
        recovery_ms = (back_at - marks["crash_at"]) * 1e3
        recovery_timer_ms = 1e3 * (
            config.failure_notification_delay + config.orca_rpc_latency + config.pe_restart_delay
        )
        migration = scale_out.migration
        return {
            "rescale_ms": rescale_ms,
            "elastic.drain_polls": float(scale_out.drain_polls),
            "elastic.keys_moved": float(migration.keys_moved if migration else 0),
            "elastic.rescale_timer_ms": rescale_timer_ms,
            "elastic.rescale_work_ms": round(rescale_ms - rescale_timer_ms, 6) + 0.0,
            "recovery_ms": recovery_ms,
            "sam.recovery_timer_ms": recovery_timer_ms,
            "sam.recovery_work_ms": round(recovery_ms - recovery_timer_ms, 6) + 0.0,
            "orca.queue_peak": float(self.queue_peak),
            "orca.queue_wait_ms": self.service.queue_latency_stats().mean * 1e3,
        }

    def check_handlers(self) -> None:
        if self.service.handler_errors:
            raise RuntimeError(f"adaptation routine failed: {self.service.handler_errors}")


def _region_sim_round(
    workload: Workload,
    data: List[Dict[str, Any]],
    config: SystemConfig,
    scale: float,
    script: bool,
    tracer: Optional[Recorder],
    want_digest: bool,
) -> Round:
    n, per_tick = len(data), _per_tick(workload, scale)
    double_at = n // 4
    arrivals: List[Any] = []
    progress = {"emitted": 0}

    def generator(now: float, count: int) -> List[Dict[str, Any]]:
        if not count:
            run.marks["first_tick"] = time.perf_counter()
        burst = per_tick
        if count >= double_at:
            # the input rate doubles a quarter of the way through
            run.marks.setdefault("doubled_at", now)
            burst = 2 * per_tick
        progress["emitted"] = min(n, count + burst)
        return data[count : count + burst]

    built_at = time.perf_counter()
    threshold = RATE_RULE * per_tick / workload.period if script else float("inf")
    run = _RegionRun(config, generator, workload.period, n, arrivals.append, threshold, tracer)
    _until_first_arrival(run.system, arrivals, tracer)
    setup_s = time.perf_counter() - built_at

    marks = run.marks
    timeline = [(marks["first_tick"], 0)]
    replay_peak = 0.0
    deadline = time.perf_counter() + 4 * _STEP_TIMEOUT_S
    slice_s = REGION_SLICE_SHARE * workload.period
    while not run.job.operator_instance("sink").is_finalized:
        run.advance(slice_s)
        timeline.append((time.perf_counter(), len(arrivals)))
        replay_peak = max(replay_peak, _replay_bytes(run.system))
        if script:
            emitted = progress["emitted"]
            if "crash_at" not in marks and emitted >= CRASH_AT * n and run.done("scale_out"):
                run.crash_channel()
            if "scale_in_sent" not in marks and emitted >= SCALE_IN_AT * n and run.recovered():
                marks["scale_in_sent"] = True
                run.inject("scale_in")
        if time.perf_counter() > deadline:
            raise RuntimeError(f"{workload.name}: the sink never saw the final punctuation")

    values = {"setup_s": setup_s, **throughput(timeline), **_transport_values(run.system, n)}
    values["delivery.replay_peak_bytes"] = replay_peak
    if script:
        if not (run.done("scale_out") and run.recovered() and run.done("scale_in")):
            raise RuntimeError(f"{workload.name}: the adaptation script did not complete: {marks}")
        values["orca_events_per_s"] = run.flood(max(100, int(FLOOD_EVENTS * scale)))
        values.update(run.scenario_values())
        values["metric_react_ms"] = (marks["scale_out_at"] - marks["doubled_at"]) * 1e3
    run.check_handlers()
    seen = oracle.arrivals_of(arrivals)
    verdict = oracle.check([row["key"] for row in data], None, seen, run.final_state())
    return Round(values, verdict, _digest(seen) if want_digest else "", timeline)


def _region_wc_round(
    workload: Workload,
    pool: List[str],
    config: SystemConfig,
    scale: float,
    seconds: float,
    script: bool,
    tracer: Optional[Recorder],
) -> Round:
    mask = len(pool) - 1
    burst = workload.per_tick
    arrivals: List[Any] = []
    stamps: List[float] = []
    now = time.perf_counter
    gen = {"phase": "saturate", "emitted": 0, "open_start": 0.0, "open_emitted": 0, "max_late": 0.0}

    def generator(_now: float, count: int) -> List[Dict[str, Any]]:
        phase = gen["phase"]
        if phase == "saturate":
            gen["emitted"] = count + burst
            return [
                {"seq": seq, "key": pool[seq & mask], "due": 0.0}
                for seq in range(count, count + burst)
            ]
        if phase == "stop":
            return []
        # open loop: emit every tuple that is due by now, stamped with the
        # instant it was due, however late this tick runs
        at, start, sent = now(), gen["open_start"], gen["open_emitted"]
        due = int((at - start) * OPEN_LOOP_RATE) + 1
        if due <= sent:
            return []
        gen["max_late"] = max(gen["max_late"], at - (start + sent / OPEN_LOOP_RATE))
        gen["open_emitted"] = due
        gen["emitted"] = count + due - sent
        return [
            {
                "seq": count + j,
                "key": pool[(count + j) & mask],
                "due": start + (sent + j) / OPEN_LOOP_RATE,
            }
            for j in range(due - sent)
        ]

    def consumer(tup: Any) -> None:
        arrivals.append(tup)
        stamps.append(now())

    built_at = now()
    run = _RegionRun(
        config, generator, SATURATING_PERIOD_S, None, consumer, float("inf"), tracer
    )
    _until_first_arrival(run.system, arrivals, tracer)
    setup_s = now() - built_at
    marks = run.marks

    def hold(condition: Callable[[], bool], what: str, slice_s: float = 0.02) -> None:
        deadline = now() + _STEP_TIMEOUT_S
        while not condition():
            run.advance(slice_s)
            if now() > deadline:
                raise RuntimeError(f"{workload.name}: {what} did not complete: {marks}")

    # -- saturate: the source ticks as fast as the executor lets it, until
    # a fixed number of tuples is through; the sink stamps give the
    # phase's timeline block by block
    block = max(burst, int(SATURATE_TUPLES * scale) // SATURATE_BLOCKS)
    target = block * SATURATE_BLOCKS
    started, cpu = now(), time.process_time()
    hold(lambda: len(arrivals) >= target, "the saturate phase")
    values = {
        "setup_s": setup_s,
        "wallclock.cpu_share": (time.process_time() - cpu) / (now() - started),
    }
    timeline = [(stamps[0], 0)] + [
        (stamps[count - 1], count) for count in range(block, target + 1, block)
    ]
    values.update(throughput(timeline))

    # -- adapt: the script, still at saturation
    if script:
        run.inject("scale_out")
        hold(lambda: run.done("scale_out"), "scale-out")
        run.crash_channel()
        hold(run.recovered, "crash recovery")
        run.inject("scale_in")
        hold(lambda: run.done("scale_in"), "scale-in")
        values.update(run.scenario_values())

    # -- open loop: fixed offered rate, latency from when each tuple was due
    open_s = max(0.3, OPEN_LOOP_SHARE * seconds * scale) if script else 0.0
    if open_s:
        run.job.operator_instance("src").period = OPEN_LOOP_TICK_S
        gen["open_start"] = now()
        gen["phase"] = "open"
        hold(lambda: now() - gen["open_start"] >= open_s, "the open-loop phase", 0.05)
    gen["phase"] = "stop"
    hold(lambda: len(arrivals) >= gen["emitted"], "draining the pipeline")
    run.check_handlers()

    emitted = gen["emitted"]
    values.update(_transport_values(run.system, emitted))
    values["delivery.replay_peak_bytes"] = _replay_bytes(run.system)
    if open_s:
        by_arrival = [
            (stamp - tup["due"]) * 1e3 for tup, stamp in zip(arrivals, stamps) if tup["due"]
        ]
        kept = sorted(by_arrival[len(by_arrival) // 10 :])  # first 10% dropped
        values["latency_p50_ms"] = statistics.median(kept)
        values["loadgen.latency_p99_ms"] = kept[min(len(kept) - 1, int(len(kept) * 0.99))]
        values["loadgen.latency_samples"] = float(len(kept))
        values["loadgen.max_late_ms"] = gen["max_late"] * 1e3
    seen = oracle.arrivals_of(arrivals)
    verdict = oracle.check(
        [pool[seq & mask] for seq in range(emitted)], None, seen, run.final_state()
    )
    return Round(values, verdict, timeline=timeline)
