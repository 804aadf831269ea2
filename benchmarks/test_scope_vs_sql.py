"""Sec. 4.1 claim — the scope API vs the SQL-equivalent recursive query.

The paper argues the scope API is the simpler interface and shows the
recursive CTE a developer would otherwise write.  This benchmark
verifies the two select identical rows on a family of synthetic nested
applications.  (The matcher's per-scope cost is wall time:
``orca.match_ns_per_scope`` of ``python3 -m bench``.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.orca.scopes import OperatorMetricScope
from tests.sqlbaseline import (
    paper_scope_query,
    scope_match_reference,
    tables_from_adl,
)
from repro.spl.adl import ADLComposite, ADLModel, ADLOperator

from benchmarks.conftest import emit


def synthetic_model(n_composites: int, ops_per_composite: int, depth: int) -> ADLModel:
    """A forest of composite chains of the given nesting depth."""
    composites: List[ADLComposite] = []
    operators: List[ADLOperator] = []
    for c in range(n_composites):
        parent = None
        for d in range(depth):
            name = f"c{c}_d{d}" if parent is None else f"{parent}.c{c}_d{d}"
            kind = "composite1" if (c + d) % 2 == 0 else "wrapper"
            composites.append(ADLComposite(name=name, kind=kind, parent=parent))
            parent = name
        for o in range(ops_per_composite):
            kind = ["Split", "Merge", "Functor"][o % 3]
            operators.append(
                ADLOperator(
                    name=f"{parent}.op{o}",
                    kind=kind,
                    composite=parent,
                    pe_index=1,
                    n_inputs=1,
                    n_outputs=1,
                )
            )
    return ADLModel(
        name="Synthetic", version="1", operators=operators,
        composites=composites, pes=[], streams=[], host_pools=[],
        exports=[], imports=[],
    )


@dataclass
class ScopeVsSqlResult:
    sizes: List[int]
    all_equivalent: bool


def run_scope_vs_sql() -> ScopeVsSqlResult:
    sizes = []
    equivalent = True
    for n_composites in (5, 20, 60):
        model = synthetic_model(n_composites, ops_per_composite=4, depth=3)
        metrics = [(op.name, "queueSize", 1.0) for op in model.operators]
        tables = tables_from_adl(model, metrics)

        # --- scope matcher (what the ORCA service does per poll) ---
        parents = {c.name: c.parent for c in model.composites}
        kinds = {c.name: c.kind for c in model.composites}
        chains = {}
        for op in model.operators:
            chain = set()
            current = op.composite
            while current is not None:
                chain.add(kinds[current])
                current = parents[current]
            chains[op.name] = chain
        scope = OperatorMetricScope("s")
        scope.addOperatorTypeFilter(["Split", "Merge"])
        scope.addCompositeTypeFilter("composite1")
        scope.addOperatorMetric("queueSize")
        op_kind = {op.name: op.kind for op in model.operators}

        scope_rows = {
            (name, value)
            for name, metric, value in metrics
            if scope.matches(
                {
                    "operator_type": op_kind[name],
                    "composite_type": chains[name],
                    "metric_name": metric,
                }
            )
        }
        sql_rows = set(
            paper_scope_query(
                tables, "queueSize", ["Split", "Merge"], "composite1"
            ).rows
        )
        reference = scope_match_reference(
            model, metrics, "queueSize", ["Split", "Merge"], "composite1"
        )
        equivalent = equivalent and scope_rows == sql_rows == reference
        sizes.append(len(model.operators))
    return ScopeVsSqlResult(sizes, equivalent)


def test_scope_vs_sql(results_dir):
    result = run_scope_vs_sql()

    lines = [f"{'operators':>10}"]
    lines += [f"{size:10d}" for size in result.sizes]
    lines.append("")
    lines.append(f"result sets identical on all sizes: {result.all_equivalent}")
    emit(results_dir, "scope_vs_sql", lines)

    assert result.all_equivalent, "Sec. 4.1 equivalence must hold"
