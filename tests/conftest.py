"""Shared fixtures: small applications and a fresh simulated system."""

from __future__ import annotations

import ast
import pathlib
import time

import pytest
from hypothesis import settings

from repro import SystemS
from repro.spl.application import Application
from repro.spl.library import Beacon, Filter, Sink
from repro.spl.operators import Operator, OperatorContext
from repro.spl.tuples import Punctuation, StreamTuple

#: the CI ``delivery-matrix`` job runs ``tests/test_wire_properties.py``
#: under ``--hypothesis-profile=wire-ci``,
#: ``tests/test_elastic_properties.py`` under ``elastic-ci``,
#: ``tests/test_orca_scopes.py`` and the inspection property of
#: ``tests/test_properties_orchestration.py`` under ``orca-ci`` and
#: ``tests/test_batch_path_properties.py``, ``tests/test_spl_schema_tuples.py``,
#: ``tests/test_spl_state_properties.py`` and the run-hash property of
#: ``tests/test_spl_parallel.py`` under ``batch-ci``; tier-1
#: keeps each module's own small budget.  The ``wire-ci`` step also runs
#: ``TestCancelCyclesLeakNothing`` at its long cycle count,
#: ``TestControlPlaneStaysFlat`` at its long horizon,
#: ``tests/test_sim_kernel.py::TestKernelOrderProperty`` at its CI budget and
#: ``tests/test_runtime_pe_transport.py::TestCompiledHops``
settings.register_profile("wire-ci", max_examples=400, deadline=None)
settings.register_profile("elastic-ci", max_examples=300, deadline=None)
settings.register_profile("orca-ci", max_examples=1500, deadline=None)
settings.register_profile("batch-ci", max_examples=600, deadline=None)


def under_profile(ci_profile: str) -> bool:
    """Whether this run loaded ``ci_profile`` (``--hypothesis-profile``)."""
    ci = settings.get_profile(ci_profile).max_examples
    return settings.default.max_examples == ci


def example_budget(ci_profile: str, tier1: int) -> settings:
    """``tier1`` examples, or ``ci_profile``'s budget when CI loaded that profile."""
    ci = settings.get_profile(ci_profile).max_examples
    return settings(
        max_examples=ci if under_profile(ci_profile) else tier1, deadline=None
    )


def functions_under(root: pathlib.Path):
    """``(file name, qualified name, FunctionDef)`` for every function and
    method of the module ``root``, or of every module under the directory
    ``root`` (the structural tests' index)."""
    found = []
    for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
        for owner in ast.walk(ast.parse(path.read_text())):
            if isinstance(owner, (ast.ClassDef, ast.Module)):
                prefix = f"{owner.name}." if isinstance(owner, ast.ClassDef) else ""
                found += [
                    (path.name, prefix + node.name, node)
                    for node in owner.body
                    if isinstance(node, ast.FunctionDef)
                ]
    return found


def calls(name: str):
    """AST matcher: a call of the function or method called ``name``."""

    def matches(node):
        if not isinstance(node, ast.Call):
            return False
        return name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))

    return matches


def where(root: pathlib.Path, matches, skip=()):
    """``file:qualified name`` of each function under ``root`` (bar ``skip``,
    by qualified name) that has an AST node for which ``matches`` is true."""
    return [
        f"{file}:{name}"
        for file, name, function in functions_under(root)
        if name not in skip and any(matches(node) for node in ast.walk(function))
    ]


def hold(system, condition, what, ceiling_s: float = 30.0, slice_s: float = 0.25) -> None:
    """Assert ``condition()`` on the sim; on the wall clock, wait for it.

    The sim reaches a state at an exact virtual instant, so a false
    condition fails at once.  A wall-clock executor reaches it when the
    host gets round to it: ``system`` (a ``SystemS`` or a bare executor)
    is advanced in ``slice_s`` steps of executor time until the condition
    holds, and only ``ceiling_s`` *real* seconds without it is a failure —
    so a loaded host makes a test slower, never red.  The one place under
    ``tests/`` that reads the host clock (``TestOneStopwatch``).

    Args:
        system: Anything with ``run_for``; its ``kernel`` (or itself) says
            whether time is real.
        condition: Zero-argument predicate.
        what: What was being waited for — text, or a zero-argument
            callable rendered only on failure (for state worth logging).
        ceiling_s: Real seconds to keep trying on the wall clock.
        slice_s: Executor seconds per step.
    """
    real_time = getattr(system, "kernel", system).wall_clock
    deadline = time.monotonic() + (ceiling_s if real_time else 0.0)
    while not condition():
        if time.monotonic() >= deadline:
            waited = f" within {ceiling_s:g} real seconds" if real_time else ""
            raise AssertionError(f"{what() if callable(what) else what}: not reached{waited}")
        system.run_for(slice_s)


@pytest.fixture
def system() -> SystemS:
    """A 4-host system with default (paper) timing constants."""
    return SystemS(hosts=4, seed=42)


@pytest.fixture
def big_system() -> SystemS:
    """An 8-host system for placement-heavy scenarios."""
    return SystemS(hosts=8, seed=42)


def make_linear_app(
    name: str = "Linear",
    limit: int | None = None,
    period: float = 1.0,
    per_tick: int = 1,
    partitions: tuple = ("p1", "p2"),
) -> Application:
    """source -> sink, in two partitions (two PEs)."""
    app = Application(name)
    g = app.graph
    src = g.add_operator(
        "src",
        Beacon,
        params={"values": {"k": 1}, "limit": limit, "period": period,
                "per_tick": per_tick},
        partition=partitions[0],
    )
    sink = g.add_operator("sink", Sink, partition=partitions[1])
    g.connect(src.oport(0), sink.iport(0))
    return app


def make_filter_app(name: str = "Filtered", threshold: int = 5) -> Application:
    """source -> filter(iter >= threshold) -> sink, one PE."""
    app = Application(name)
    g = app.graph
    src = g.add_operator("src", Beacon, params={"values": {}, "period": 1.0})
    filt = g.add_operator(
        "filt", Filter, params={"predicate": lambda t: t["iter"] >= threshold}
    )
    sink = g.add_operator("sink", Sink)
    g.connect(src.oport(0), filt.iport(0))
    g.connect(filt.oport(0), sink.iport(0))
    return app


class CollectingOperator(Operator):
    """Test operator that records everything it receives."""

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self.tuples: list[tuple[StreamTuple, int]] = []
        self.puncts: list[tuple[Punctuation, int]] = []
        self.controls: list[tuple[str, dict]] = []
        self.finalized_called = 0

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        self.tuples.append((tup, port))

    def on_punct(self, punct: Punctuation, port: int) -> None:
        self.puncts.append((punct, port))

    def on_all_ports_final(self) -> None:
        self.finalized_called += 1

    def on_control(self, command: str, payload) -> None:
        self.controls.append((command, dict(payload)))


def make_operator_harness(
    op_class: type,
    params: dict | None = None,
    n_inputs: int | None = None,
    n_outputs: int | None = None,
    submission_params: dict | None = None,
):
    """Instantiate an operator outside any PE, capturing its output.

    Returns (operator, emitted) where emitted is a list of
    (port, item) pairs covering both tuples and punctuation.
    """
    from repro.spl.graph import LogicalGraph

    param_dict = dict(params or {})
    if n_inputs is not None:
        param_dict["n_inputs"] = n_inputs
    if n_outputs is not None:
        param_dict["n_outputs"] = n_outputs
    graph = LogicalGraph()
    spec = graph.add_operator("probe", op_class, params=param_dict)
    emitted: list = []
    scheduled: list = []

    class _FakeHandle:
        def __init__(self, delay, fn):
            self.delay = delay
            self.fn = fn
            self.cancelled = False

        def cancel(self):
            self.cancelled = True

    def schedule(delay, fn):
        handle = _FakeHandle(delay, fn)
        scheduled.append(handle)
        return handle

    clock = {"now": 0.0}
    ctx = OperatorContext(
        spec=spec,
        job_id="job_test",
        app_name="TestApp",
        submission_params=submission_params or {},
        now_fn=lambda: clock["now"],
        submit_fn=lambda port, tup: emitted.append((port, tup)),
        punct_fn=lambda port, punct: emitted.append((port, punct)),
        schedule_fn=schedule,
    )
    operator = op_class(ctx)
    operator._test_clock = clock
    operator._test_scheduled = scheduled
    return operator, emitted
