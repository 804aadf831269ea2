"""A source's tick leaves as one run when — and only when — the transport batches.

Parity: the same application and seed at ``batch_max_size`` 1 and 64, on
the sim, in all three delivery modes, must deliver the identical sink
sequence, end on the identical keyed state and count the identical
``nTuplesSubmitted`` / ``nTuplesProcessed`` on every operator and port.
The cases are the places where "the whole tick at once" could differ from
"tuple by tuple": a ``limit`` that lands mid-tick, ``Beacon``'s ``iter``
numbering, ``generator_factory``, ticks of 0 or 1 tuples, a source-PE
crash and restart mid-run, and trace sampling.

Structure: on the benchmark's pipe shape with batching on, ``on_tuple``
is never entered on ``parse`` / ``keep`` / ``count`` / ``sink`` and
``process_batch`` is entered once per tick on each; with batching off
``process_batch`` is entered nowhere (the "never called when batching is
disabled" contract of :meth:`Operator.process_batch`).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, List

import pytest

from repro import SystemConfig, SystemS
from repro.spl.application import Application
from repro.spl.library import Beacon, CallbackSource, Filter, Functor, KeyedCounter, Sink
from repro.spl.metrics import OperatorMetricName
from repro.spl.operators import Operator

DELIVERIES = ("best_effort", "at_least_once", "exactly_once")
OPERATORS = ("src", "parse", "keep", "count", "sink")
PERIOD = 0.1
COUNTED = (OperatorMetricName.N_TUPLES_SUBMITTED, OperatorMetricName.N_TUPLES_PROCESSED)


def pipe_app(source: type, source_params: Dict[str, Any]) -> Application:
    """The benchmark's pipe: ``src -> parse -> keep -> count -> sink``, three PEs."""
    app = Application("Pipe")
    g = app.graph
    src = g.add_operator(
        "src", source, params={"period": PERIOD, **source_params}, partition="feed"
    )
    parse = g.add_operator(
        "parse",
        Functor,
        params={"fn": lambda t: t.with_values(w=t.get("iter", t.get("n", 0)) * 2)},
        partition="feed",
    )
    keep = g.add_operator(
        "keep",
        Filter,
        params={"predicate": lambda t: t["w"] % 10 != 0},
        partition="feed",
    )
    count = g.add_operator("count", KeyedCounter, params={"key": "key"}, partition="work")
    sink = g.add_operator("sink", Sink, partition="out")
    for up, down in ((src, parse), (parse, keep), (keep, count), (count, sink)):
        g.connect(up.oport(0), down.iport(0))
    return app


def bursts(sizes: List[int]) -> Callable[[], Callable[[float, int], List[dict]]]:
    """A ``generator_factory``: tick ``i`` emits ``sizes[i % len(sizes)]`` tuples."""

    def factory() -> Callable[[float, int], List[dict]]:
        tick = [0]

        def generate(now: float, emitted: int) -> List[dict]:
            size = sizes[tick[0] % len(sizes)]
            tick[0] += 1
            return [{"n": emitted + i, "key": f"k{(emitted + i) % 7}"} for i in range(size)]

        return generate

    return factory


BEACON = (Beacon, {"values": {"key": "k"}, "per_tick": 5, "limit": 63})
CASES = {
    # 7 per tick, limit 40 = 5 ticks + 5: the sixth tick is cut short
    "limit_mid_tick": (Beacon, {"values": {"key": "k"}, "per_tick": 7, "limit": 40}),
    "beacon_iter": BEACON,
    "generator_factory": (CallbackSource, {"generator_factory": bursts([9]), "limit": 90}),
    "ticks_of_0_and_1": (
        CallbackSource,
        {"generator_factory": bursts([0, 1, 0, 12, 1, 1, 0, 70]), "limit": 200},
    ),
}


def run_pipe(
    source: type,
    source_params: Dict[str, Any],
    batch_max_size: int,
    delivery: str,
    seconds: float = 6.0,
    disturb: Callable[[SystemS, Any], None] = lambda system, job: None,
    **config: Any,
) -> Dict[str, Any]:
    system = SystemS(
        hosts=4,
        seed=11,
        config=SystemConfig(batch_max_size=batch_max_size, delivery=delivery, **config),
    )
    job = system.submit_job(pipe_app(source, source_params))
    disturb(system, job)
    system.run_for(seconds)
    ops = {name: job.operator_instance(name) for name in OPERATORS}
    return {
        "sink": [(t.values, t.size_bytes, t.created_at) for t in ops["sink"].seen],
        "traced": [i for i, t in enumerate(ops["sink"].seen) if t.traced],
        "state": ops["count"].state.snapshot(),
        "counted": {
            (name, port, metric): value
            for name, op in ops.items()
            for (port, metric), value in op.metrics.snapshot().items()
            if metric in COUNTED
        },
        "emitted": ops["src"].emitted,
        "finals": ops["sink"].metric(OperatorMetricName.N_FINAL_PUNCTS_PROCESSED).value,
    }


@pytest.mark.parametrize("delivery", DELIVERIES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_source_matches_the_per_tuple_source(case, delivery):
    source, params = CASES[case]
    single = run_pipe(source, params, 1, delivery)
    batched = run_pipe(source, params, 64, delivery)
    assert batched == single
    # the limit was reached exactly and FINAL followed the last tuple: a
    # finalized sink ignores tuples, so none can have arrived behind it
    assert batched["emitted"] == params["limit"]
    assert batched["finals"] == 1
    expected = sum(1 for n in range(params["limit"]) if (n * 2) % 10 != 0)
    assert len(batched["sink"]) == expected


def test_beacon_numbers_its_tuples_consecutively_when_batched():
    source, params = BEACON
    batched = run_pipe(source, params, 64, "best_effort")
    assert [values["iter"] for values, _, _ in batched["sink"]] == [
        n for n in range(params["limit"]) if (n * 2) % 10 != 0
    ]


@pytest.mark.parametrize("delivery", DELIVERIES)
def test_source_pe_crash_and_restart_mid_run(delivery):
    def disturb(system: SystemS, job: Any) -> None:
        feed = job.pe_of_operator("src")
        # between ticks (period 0.1), so neither run is cut inside a tick
        system.kernel.schedule_at(1.234, feed.crash, "test")
        system.kernel.schedule_at(1.678, feed.restart)

    source, params = BEACON
    single = run_pipe(source, params, 1, delivery, disturb=disturb)
    batched = run_pipe(source, params, 64, delivery, disturb=disturb)
    assert batched == single
    # the restarted Beacon starts over: ticks before the crash, then all 63
    assert len(batched["sink"]) > sum(1 for n in range(63) if (n * 2) % 10 != 0)
    assert batched["emitted"] == params["limit"]


@pytest.mark.parametrize("sample_every", (1, 7))
def test_trace_sampling_marks_the_same_tuples(sample_every):
    source, params = CASES["ticks_of_0_and_1"]
    trace = {"trace_enabled": True, "trace_sample_every": sample_every}
    single = run_pipe(source, params, 1, "best_effort", **trace)
    batched = run_pipe(source, params, 64, "best_effort", **trace)
    assert batched == single
    assert batched["traced"]
    if sample_every == 1:
        assert batched["traced"] == list(range(len(batched["sink"])))
    else:
        assert len(batched["traced"]) < len(batched["sink"])


# -- the structural guarantee ----------------------------------------------------


@pytest.fixture
def entries(monkeypatch):
    """Count entries into ``on_tuple`` / ``process_batch`` per operator name."""
    counts: Counter = Counter()
    for cls in (Functor, Filter, KeyedCounter, Sink, Operator):
        for method in ("on_tuple", "process_batch"):
            if method not in vars(cls):
                continue

            def counting(self, *args, _original=vars(cls)[method], _method=method):
                counts[(self.ctx.spec.full_name, _method)] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, method, counting)
    return counts


TICKS = 12


def test_batching_on_one_process_batch_per_tick_and_no_on_tuple(entries):
    params = {"generator_factory": bursts([64]), "limit": 64 * TICKS}
    outcome = run_pipe(CallbackSource, params, 64, "best_effort")
    assert outcome["emitted"] == 64 * TICKS
    for name in OPERATORS[1:]:
        assert entries[(name, "on_tuple")] == 0, name
        assert entries[(name, "process_batch")] == TICKS, name


@pytest.mark.parametrize("delivery", DELIVERIES)
def test_batching_off_process_batch_is_never_entered(entries, delivery):
    params = {"generator_factory": bursts([64]), "limit": 64 * TICKS}
    outcome = run_pipe(CallbackSource, params, 1, delivery)
    assert outcome["emitted"] == 64 * TICKS
    assert [key for key in entries if key[1] == "process_batch"] == []
    assert entries[("parse", "on_tuple")] == 64 * TICKS
    assert entries[("sink", "on_tuple")] == len(outcome["sink"])
