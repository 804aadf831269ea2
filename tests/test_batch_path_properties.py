"""Property tests: a ``process_batch`` override is its ``on_tuple`` loop.

Every class in :mod:`repro.spl.library` that overrides ``process_batch``
is found by introspection, so a future override cannot ship uncovered:
``CASES`` must name exactly the classes ``inspect`` finds.  For each,
``hypothesis`` draws operator parameters and a run of tuples cut into
batches; one instance takes the batches through ``_process_batch``, a
second takes the same tuples one by one through ``_process``.  Both must
have emitted the same ``(port, values, size_bytes, created_at, traced)``
sequence (per output port for the two routers, which regroup a run by
port), hold the same ``state.snapshot()``, the same built-in and
custom metric values, the same trace-sampling log and the same internal
buffers.

``estimate_value_size`` answers exact ``float`` / ``int`` / ``str`` by
type identity before its ``isinstance`` ladder; the ladder alone is kept
here as the reference and must agree on every input.

Tier-1 runs a small example budget; the CI ``delivery-matrix`` job runs
this file under ``--hypothesis-profile=batch-ci`` (registered in
``tests/conftest.py``).
"""

from __future__ import annotations

import copy
import inspect
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

import pytest
from hypothesis import given, strategies as st

from repro.spl import library
from repro.spl.operators import Operator
from repro.spl.tuples import StreamTuple, estimate_value_size

from tests.conftest import example_budget, make_operator_harness
from tests.test_spl_schema_tuples import _Float, _Str, _scalars as _plain_scalars

BUDGET = example_budget("batch-ci", tier1=40)

OVERRIDES = sorted(
    (
        cls
        for _, cls in inspect.getmembers(library, inspect.isclass)
        if issubclass(cls, Operator)
        and cls.__module__ == library.__name__
        and "process_batch" in vars(cls)
    ),
    key=lambda cls: cls.__name__,
)

#: these regroup a run into one sub-batch per output port, so what must
#: match the loop is each port's sequence, not the interleaving across ports
ROUTERS = (library.Split, library.ParallelSplitter)
WIDTH = 3
KEYS = [f"k{i}" for i in range(5)]


class Case(NamedTuple):
    """One operator configuration: parameters, control commands sent
    before and after the run, and what to read off the instance besides
    emissions, state and metrics."""

    params: Dict[str, Any]
    before: Tuple[Tuple[str, Dict[str, Any]], ...] = ()
    after: Tuple[Tuple[str, Dict[str, Any]], ...] = ()
    probe: Callable[[Operator], Any] = lambda op: None
    n_inputs: int = 1


# -- operator parameters -------------------------------------------------------

_FUNCTOR_FNS = (
    lambda t: t,
    lambda t: t.with_values(w=t["v"] * 2.0),
    lambda t: {"key": t["key"], "doubled": t["v"] * 2.0},  # wrapped at submit
    lambda t: None if t["v"] < 0.5 else t,
    lambda t: [t, {"echo": t["iter"]}] if t["iter"] % 2 else [],
    lambda t: (t.with_values(a=1), t.with_values(a=2)),
)


class _LogConsumer:
    """A ``Sink`` consumer that keeps what it was handed (``_drive``
    deep-copies the parameters, so each instance logs into its own)."""

    def __init__(self) -> None:
        self.log: List[StreamTuple] = []

    def __call__(self, tup: StreamTuple) -> None:
        self.log.append(tup)


def _sink_probe(op: Operator) -> Any:
    consumed = getattr(op.consumer, "log", None)
    return [_row(0, t) for t in op.seen], consumed and [_row(0, t) for t in consumed]


def _splitter_probe(op: Operator) -> Any:
    return op._seq, op._rr, op.pending_tuples(), sorted(op.masked_channels)


def _merger_probe(op: Operator) -> Any:
    return op._next, sorted(op._pending)


_controls = st.sampled_from(
    [
        ((), ()),
        ((("maskChannel", {"channel": 1}),), ()),
        ((("quiesce", {}),), (("resume", {"width": 2, "epoch": 1}),)),
        ((("maskChannel", {"channel": 0}), ("quiesce", {})), (("resume", {}),)),
    ]
)

CASES: Dict[type, st.SearchStrategy] = {
    library.Filter: st.sampled_from(
        [Case({"predicate": lambda t: t["v"] < 0.6}), Case({"predicate": lambda t: False})]
    ),
    library.Functor: st.sampled_from(_FUNCTOR_FNS).map(lambda fn: Case({"fn": fn})),
    library.Projection: st.just(Case({"attributes": ("key", "iter")})),
    library.Split: st.sampled_from(
        [
            Case({"n_outputs": WIDTH}),
            Case({"n_outputs": WIDTH, "router": lambda t: [0, t["iter"] % WIDTH]}),
            Case({"n_outputs": WIDTH, "router": lambda t: []}),
        ]
    ),
    library.Merge: st.just(Case({"n_inputs": WIDTH}, n_inputs=WIDTH)),
    library.KeyedCounter: st.sampled_from(
        [Case({"key": "key"}), Case({"key": "missing", "count_attr": "v"})]
    ),
    library.Sink: st.builds(
        lambda record, consume: Case(
            {"record": record, "consumer": _LogConsumer() if consume else None},
            probe=_sink_probe,
        ),
        st.booleans(),
        st.booleans(),
    ),
    library.ParallelSplitter: st.builds(
        lambda ordered, partition_by, controls: Case(
            {"width": WIDTH, "ordered": ordered, "partition_by": partition_by},
            before=controls[0],
            after=controls[1],
            probe=_splitter_probe,
        ),
        st.booleans(),
        st.sampled_from([None, "key"]),
        _controls,
    ),
    library.OrderedMerger: st.booleans().map(
        lambda ordered: Case(
            {"width": WIDTH, "ordered": ordered}, probe=_merger_probe, n_inputs=WIDTH
        )
    ),
}


def test_every_override_in_the_library_is_covered():
    assert OVERRIDES, "introspection found no process_batch override"
    assert set(CASES) == set(OVERRIDES)


# -- the run -------------------------------------------------------------------

#: ``_pseq`` stamps with repeats, gaps and stragglers; None = unstamped
_stamps = st.one_of(st.none(), st.integers(0, 24))


@st.composite
def runs(draw) -> List[Tuple[int, List[StreamTuple]]]:
    """Batches of ``(input port offset, tuples)``; the port is folded onto
    the operator's input count by the driver."""
    batches = []
    index = 0
    for _ in range(draw(st.integers(0, 5))):
        members = []
        for _ in range(draw(st.integers(1, 9))):
            values = {
                "key": draw(st.sampled_from(KEYS)),
                "v": draw(st.floats(0.0, 1.0, exclude_max=True)),
                "iter": index,
            }
            stamp = draw(_stamps)
            if stamp is not None:
                values["_pseq"] = stamp
            members.append(
                StreamTuple(
                    values,
                    created_at=draw(st.sampled_from((0.0, 1.5, 2.25))),
                    traced=draw(st.booleans()),
                )
            )
            index += 1
        batches.append((draw(st.integers(0, WIDTH - 1)), members))
    return batches


class _EveryThird:
    """Stand-in for the obs hub on the submit path: samples every third
    newly wrapped tuple and logs where it was emitted."""

    def __init__(self) -> None:
        self.calls = 0
        self.emits: List[Tuple[str, float]] = []

    def sample_tuple(self) -> bool:
        self.calls += 1
        return self.calls % 3 == 0

    def record_emit(self, op: str, pe_id: Any, job_id: str, time: float) -> None:
        self.emits.append((op, time))


def _row(port: int, item: Any) -> Tuple:
    if not isinstance(item, StreamTuple):
        return (port, item)
    return (port, item.values, item.size_bytes, item.created_at, item.traced)


def _drive(cls: type, case: Case, run, batched: bool) -> Dict[str, Any]:
    operator, emitted = make_operator_harness(cls, copy.deepcopy(case.params))
    operator.ctx.obs = obs = _EveryThird()
    if batched:
        operator.ctx.submit_batch_fn = lambda port, tuples: emitted.extend(
            (port, tup) for tup in tuples
        )
    for command, payload in case.before:
        operator.on_control(command, payload)
    for port, members in run:
        port %= case.n_inputs
        if batched:
            operator._process_batch(list(members), port)
        else:
            for tup in members:
                operator._process(tup, port)
    for command, payload in case.after:
        operator.on_control(command, payload)
    return {
        "emitted": [_row(port, item) for port, item in emitted],
        "state": operator.state.snapshot(),
        "metrics": operator.metrics.snapshot(),
        "sampling": (obs.calls, obs.emits),
        "pending": operator.pending_items(),
        "probe": case.probe(operator),
    }


@pytest.mark.parametrize("cls", OVERRIDES, ids=lambda cls: cls.__name__)
@BUDGET
@given(data=st.data(), run=runs())
def test_process_batch_equals_the_on_tuple_loop(cls, data, run):
    case = data.draw(CASES[cls])
    batched = _drive(cls, case, run, batched=True)
    looped = _drive(cls, case, run, batched=False)
    if cls in ROUTERS:
        for outcome in (batched, looped):
            outcome["emitted"].sort(key=lambda row: row[0])  # stable: per-port order
    for aspect in looped:
        assert batched[aspect] == looped[aspect], aspect


# -- estimate_value_size: fast path == ladder ------------------------------------


def _ladder(value: Any) -> int:
    """``estimate_value_size`` as it was before the type-identity fast path."""
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, (list, tuple, set, frozenset)):
        return 8 + sum(_ladder(v) for v in value)
    if isinstance(value, dict):
        return 8 + sum(_ladder(k) + _ladder(v) for k, v in value.items())
    size_bytes = getattr(value, "size_bytes", None)  # nested StreamTuple
    if isinstance(size_bytes, int):
        return size_bytes
    return 16


class _Int(int):
    pass


#: the scalars ``TestDerivedSize`` sizes tuples from, plus the subclasses
#: that must miss the type-identity fast path
_scalars = st.one_of(
    _plain_scalars,
    st.integers().map(_Int),
    st.floats(allow_nan=False).map(_Float),
    st.text(max_size=12).map(_Str),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
        st.builds(lambda v: StreamTuple({"nested": v}), inner),
    ),
    max_leaves=8,
)


@BUDGET
@given(value=_values)
def test_estimate_value_size_fast_path_equals_the_ladder(value):
    assert estimate_value_size(value) == _ladder(value)


def test_estimate_value_size_keeps_bool_and_subclasses_on_the_ladder():
    assert estimate_value_size(True) == 1
    assert estimate_value_size(_Int(7)) == estimate_value_size(7) == 8
    assert estimate_value_size(_Float(0.5)) == estimate_value_size(0.5) == 8
    assert estimate_value_size(_Str("abc")) == estimate_value_size("abc") == 3
