"""Property-based tests (hypothesis) on core invariants.

The headline property is the Sec. 4.1 equivalence: on arbitrarily nested
composite hierarchies, the ORCA scope matcher selects exactly the rows the
paper's recursive SQL query selects.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.orca.epochs import FailureEpochTracker
from repro.orca.scopes import OperatorMetricScope
from repro.sim.kernel import Kernel
from repro.spl.adl import ADLComposite, ADLModel, ADLOperator
from repro.spl.application import Application
from repro.spl.compiler import SPLCompiler
from repro.spl.library import Beacon, Functor, Merge, Sink, Split
from repro.spl.windows import SlidingTimeWindow

from tests.sqlbaseline import (
    Relation,
    paper_scope_query,
    scope_match_reference,
    tables_from_adl,
)

# ---------------------------------------------------------------------------
# Random nested ADL models
# ---------------------------------------------------------------------------

COMPOSITE_KINDS = ("composite1", "composite2", "wrapper")
OPERATOR_KINDS = ("Split", "Merge", "Functor", "Filter")
METRIC_NAMES = ("queueSize", "nTuplesProcessed")


@st.composite
def nested_adl_models(draw):
    """An ADLModel with a random composite forest and random operators."""
    n_composites = draw(st.integers(min_value=0, max_value=8))
    composites = []
    for i in range(n_composites):
        parent = None
        if composites and draw(st.booleans()):
            parent = draw(st.sampled_from([c.name for c in composites]))
        name = f"{parent}.c{i}" if parent else f"c{i}"
        kind = draw(st.sampled_from(COMPOSITE_KINDS))
        composites.append(ADLComposite(name=name, kind=kind, parent=parent))
    n_operators = draw(st.integers(min_value=1, max_value=12))
    operators = []
    for i in range(n_operators):
        composite = None
        if composites and draw(st.booleans()):
            composite = draw(st.sampled_from([c.name for c in composites]))
        prefix = f"{composite}." if composite else ""
        operators.append(
            ADLOperator(
                name=f"{prefix}op{i}",
                kind=draw(st.sampled_from(OPERATOR_KINDS)),
                composite=composite,
                pe_index=1,
                n_inputs=1,
                n_outputs=1,
            )
        )
    metrics = []
    for op in operators:
        for metric_name in METRIC_NAMES:
            if draw(st.booleans()):
                metrics.append(
                    (op.name, metric_name, float(draw(st.integers(0, 100))))
                )
    model = ADLModel(
        name="Random",
        version="1",
        operators=operators,
        composites=composites,
        pes=[],
        streams=[],
        host_pools=[],
        exports=[],
        imports=[],
    )
    return model, metrics


class TestScopeSqlEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        model_and_metrics=nested_adl_models(),
        metric=st.sampled_from(METRIC_NAMES),
        kinds=st.sets(st.sampled_from(OPERATOR_KINDS), min_size=1, max_size=3),
        composite_kind=st.sampled_from(COMPOSITE_KINDS),
    )
    def test_recursive_query_equals_scope_matcher(
        self, model_and_metrics, metric, kinds, composite_kind
    ):
        """Sec. 4.1: the scope API and the recursive SQL are equivalent."""
        model, metrics = model_and_metrics
        tables = tables_from_adl(model, metrics)
        sql_rows = set(
            paper_scope_query(tables, metric, sorted(kinds), composite_kind).rows
        )
        reference = scope_match_reference(
            model, metrics, metric, sorted(kinds), composite_kind
        )
        assert sql_rows == reference

    @settings(max_examples=60, deadline=None)
    @given(model_and_metrics=nested_adl_models())
    def test_scope_filter_semantics_on_random_graphs(self, model_and_metrics):
        """Conjunction across attributes / disjunction within, directly
        on the matcher, cross-checked against a naive evaluation."""
        model, metrics = model_and_metrics
        parents = {c.name: c.parent for c in model.composites}
        kinds = {c.name: c.kind for c in model.composites}
        scope = OperatorMetricScope("s")
        scope.addOperatorTypeFilter(["Split", "Merge"])
        scope.addCompositeTypeFilter("composite1")
        for op in model.operators:
            chain_types = set()
            current = op.composite
            while current is not None:
                chain_types.add(kinds[current])
                current = parents[current]
            attrs = {
                "operator_type": op.kind,
                "composite_type": chain_types,
            }
            expected = op.kind in ("Split", "Merge") and "composite1" in chain_types
            assert scope.matches(attrs) == expected


# ---------------------------------------------------------------------------
# Sliding windows
# ---------------------------------------------------------------------------


class TestWindowProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        deltas=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        ),
        span=st.floats(min_value=0.5, max_value=50.0),
    )
    def test_window_matches_naive_model(self, deltas, span):
        window = SlidingTimeWindow(span)
        naive: list[tuple[float, float]] = []
        now = 0.0
        for delta, value in deltas:
            now += delta
            window.insert(now, value)
            naive.append((now, value))
            naive = [(t, v) for t, v in naive if t >= now - span]
            assert len(window) == len(naive)
            values = [v for _, v in naive]
            assert window.minimum() == min(values)
            assert window.maximum() == max(values)
            assert window.mean() == pytest.approx(
                sum(values) / len(values), rel=1e-6, abs=1e-6
            )

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=2,
            max_size=50,
        )
    )
    def test_bollinger_brackets_mean(self, values):
        window = SlidingTimeWindow(1e9)
        for i, value in enumerate(values):
            window.insert(float(i), value)
        upper, lower = window.bollinger_bands(2.0)
        mean = window.mean()
        assert lower <= mean <= upper


# ---------------------------------------------------------------------------
# Kernel ordering
# ---------------------------------------------------------------------------


class TestKernelProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_callbacks_fire_in_time_then_fifo_order(self, delays):
        kernel = Kernel()
        fired: list[tuple[float, int]] = []
        for seq, delay in enumerate(delays):
            kernel.schedule(
                delay, lambda d=delay, s=seq: fired.append((d, s))
            )
        kernel.run_until(101.0)
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


# ---------------------------------------------------------------------------
# Failure epochs
# ---------------------------------------------------------------------------


class TestEpochProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from(["crash", "host_failure"]),
                # discrete grid: keeps gaps well above the tracker tolerance
                st.integers(min_value=0, max_value=200).map(lambda i: i / 2.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_epoch_changes_iff_key_changes(self, events):
        tracker = FailureEpochTracker()
        previous_key = None
        previous_epoch = None
        for reason, ts in events:
            epoch = tracker.epoch_for(reason, ts)
            if previous_key == (reason, ts):
                assert epoch == previous_epoch
            elif previous_epoch is not None:
                assert epoch == previous_epoch + 1
            previous_key = (reason, ts)
            previous_epoch = epoch


# ---------------------------------------------------------------------------
# Compiler partitioning
# ---------------------------------------------------------------------------


class TestPartitionProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        tags=st.lists(
            st.one_of(st.none(), st.sampled_from(["p1", "p2", "p3"])),
            min_size=2,
            max_size=10,
        )
    )
    def test_every_operator_in_exactly_one_pe(self, tags):
        app = Application("Prop")
        g = app.graph
        prev = g.add_operator("op0", Beacon, partition=tags[0])
        for i, tag in enumerate(tags[1:-1], start=1):
            node = g.add_operator(
                f"op{i}", Functor, params={"fn": lambda t: t}, partition=tag
            )
            g.connect(prev.oport(0), node.iport(0))
            prev = node
        sink = g.add_operator(f"op{len(tags)-1}", Sink, partition=tags[-1])
        g.connect(prev.oport(0), sink.iport(0))
        compiled = SPLCompiler("manual").compile(app)
        seen = [name for pe in compiled.pes for name in pe.operators]
        assert sorted(seen) == sorted(g.operators)
        # same tag -> same PE
        by_tag = {}
        for name, spec in g.operators.items():
            if spec.partition:
                by_tag.setdefault(spec.partition, set()).add(
                    compiled.pe_of(name)
                )
        for pes in by_tag.values():
            assert len(pes) == 1
        # every edge endpoint placement is consistent with edge lists
        for edge in compiled.inter_pe_edges:
            assert compiled.pe_of(edge.src.full_name) != compiled.pe_of(
                edge.dst.full_name
            )
        for edge in compiled.intra_pe_edges:
            assert compiled.pe_of(edge.src.full_name) == compiled.pe_of(
                edge.dst.full_name
            )


# ---------------------------------------------------------------------------
# Relational engine
# ---------------------------------------------------------------------------


row_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30
)


class TestRelationProperties:
    @settings(max_examples=100, deadline=None)
    @given(rows=row_lists)
    def test_distinct_idempotent(self, rows):
        rel = Relation(("a", "b"), rows)
        once = rel.distinct()
        twice = once.distinct()
        assert once.rows == twice.rows
        assert len(once) == len(set(rows))

    @settings(max_examples=100, deadline=None)
    @given(rows=row_lists)
    def test_select_conjunction_commutes(self, rows):
        rel = Relation(("a", "b"), rows)
        p1 = lambda r: r["a"] % 2 == 0  # noqa: E731
        p2 = lambda r: r["b"] > 2  # noqa: E731
        assert (
            rel.select(p1).select(p2).rows == rel.select(p2).select(p1).rows
        )

    @settings(max_examples=100, deadline=None)
    @given(rows=row_lists, other=row_lists)
    def test_union_all_preserves_cardinality(self, rows, other):
        left = Relation(("a", "b"), rows)
        right = Relation(("a", "b"), other)
        assert len(left.union_all(right)) == len(rows) + len(other)

    @settings(max_examples=60, deadline=None)
    @given(rows=row_lists, other=row_lists)
    def test_equi_join_matches_theta_join(self, rows, other):
        left = Relation(("a", "b"), rows)
        right = Relation(("c", "d"), other)
        fast = left.equi_join(right, "a", "c")
        slow = left.join(right, lambda r: r["a"] == r["c"])
        assert sorted(fast.rows) == sorted(slow.rows)
