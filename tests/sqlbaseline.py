"""SQL-equivalent baseline for scope matching (Sec. 4.1 of the paper).

The paper argues that the scope API "offers a much simpler interface to
developers when compared to an SQL-based approach", because composite
containment is recursive and the equivalent SQL needs a recursive common
table expression.  To *verify* that claim — it is the reference the scope
matcher is compared against by ``tests/test_properties.py``,
``tests/test_orca_descriptor_sql.py`` and ``benchmarks/test_scope_vs_sql.py``,
and nothing in ``src/`` imports it — this module implements

* a miniature in-memory relational engine — relations with named columns,
  selection, projection, theta-joins, union, distinct, and fixpoint
  evaluation of recursive CTEs;
* the paper's exact query over three tables
  (``CompositeInstances(compName, parentName, compKind)``,
  ``OperatorInstances(operName, operKind, compName)``,
  ``OperatorMetrics(metricName, operName, metricValue)``), parameterized
  by metric name, operator kinds and composite kind.

Property-based tests check that the recursive query and the scope
matcher select exactly the same operators on randomly nested graphs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Sequence, Set, Tuple

from repro.spl.adl import ADLModel

Row = Tuple[Any, ...]


class Relation:
    """An immutable bag of rows with named columns."""

    def __init__(self, columns: Sequence[str], rows: Iterable[Row]) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        self.rows: List[Row] = [tuple(r) for r in rows]
        if any(len(r) != len(self.columns) for r in self.rows):
            raise ValueError("row arity does not match columns")
        self._index = {name: i for i, name in enumerate(self.columns)}

    # -- helpers ---------------------------------------------------------------

    def col(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; have {list(self.columns)}"
            ) from None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    # -- relational operators -----------------------------------------------------

    def select(self, predicate: Callable[[Dict[str, Any]], bool]) -> "Relation":
        """sigma: keep rows satisfying ``predicate`` (given as a dict view)."""
        kept = [
            row
            for row in self.rows
            if predicate(dict(zip(self.columns, row)))
        ]
        return Relation(self.columns, kept)

    def project(self, names: Sequence[str]) -> "Relation":
        """pi: keep (and reorder) the named columns."""
        idx = [self.col(n) for n in names]
        return Relation(names, [tuple(row[i] for i in idx) for row in self.rows])

    def rename(self, prefix: str) -> "Relation":
        """Prefix every column name (``CI.compName`` style aliases)."""
        return Relation([f"{prefix}.{c}" for c in self.columns], self.rows)

    def cross(self, other: "Relation") -> "Relation":
        """Cartesian product; column names must not collide."""
        clash = set(self.columns) & set(other.columns)
        if clash:
            raise ValueError(f"column clash in cross product: {sorted(clash)}")
        rows = [a + b for a in self.rows for b in other.rows]
        return Relation(self.columns + other.columns, rows)

    def join(
        self, other: "Relation", predicate: Callable[[Dict[str, Any]], bool]
    ) -> "Relation":
        """theta-join: cross product then selection."""
        return self.cross(other).select(predicate)

    def equi_join(self, other: "Relation", left: str, right: str) -> "Relation":
        """Hash equi-join on one column pair (the fast path)."""
        li = self.col(left)
        buckets: Dict[Any, List[Row]] = {}
        for row in other.rows:
            buckets.setdefault(row[other.col(right)], []).append(row)
        rows = []
        for a in self.rows:
            for b in buckets.get(a[li], ()):
                rows.append(a + b)
        return Relation(self.columns + other.columns, rows)

    def union_all(self, other: "Relation") -> "Relation":
        if self.columns != other.columns:
            raise ValueError("union requires identical schemas")
        return Relation(self.columns, self.rows + other.rows)

    def distinct(self) -> "Relation":
        seen: Set[Row] = set()
        rows = []
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                rows.append(row)
        return Relation(self.columns, rows)


def recursive_cte(
    base: Relation, step: Callable[[Relation], Relation]
) -> Relation:
    """Fixpoint evaluation of a linear recursive CTE.

    ``step`` receives the rows produced in the previous iteration and
    returns the next batch; evaluation stops when no *new* rows appear
    (standard semi-naive semantics, which terminates on acyclic data).
    """
    all_rows: Set[Row] = set(base.rows)
    frontier = base
    result_rows: List[Row] = list(base.rows)
    while True:
        produced = step(frontier)
        if produced.columns != base.columns:
            raise ValueError("recursive step must preserve the CTE schema")
        fresh = [row for row in produced.rows if row not in all_rows]
        if not fresh:
            return Relation(base.columns, result_rows)
        all_rows.update(fresh)
        result_rows.extend(fresh)
        frontier = Relation(base.columns, fresh)


# ---------------------------------------------------------------------------
# The paper's tables, built from an ADL model
# ---------------------------------------------------------------------------


def tables_from_adl(
    adl: ADLModel,
    metrics: Iterable[Tuple[str, str, float]],
) -> Dict[str, Relation]:
    """Build CompositeInstances / OperatorInstances / OperatorMetrics.

    ``metrics`` is an iterable of (operator name, metric name, value) —
    typically the latest SRM snapshot.  As in the paper's simplification,
    composite and operator *types* are attributes of the instance tables.
    Top-level entities use ``None`` as their composite/parent.
    """
    composite_rows = [(c.name, c.parent, c.kind) for c in adl.composites]
    operator_rows = [(o.name, o.kind, o.composite) for o in adl.operators]
    metric_rows = [(name, op, value) for op, name, value in metrics]
    return {
        "CompositeInstances": Relation(
            ("compName", "parentName", "compKind"), composite_rows
        ),
        "OperatorInstances": Relation(
            ("operName", "operKind", "compName"), operator_rows
        ),
        "OperatorMetrics": Relation(
            ("metricName", "operName", "metricValue"), metric_rows
        ),
    }


def paper_scope_query(
    tables: Dict[str, Relation],
    metric_name: str,
    operator_kinds: Sequence[str],
    composite_kind: str,
) -> Relation:
    """The exact recursive query of Sec. 4.1, parameterized.

    Returns a relation with columns (operName, metricValue): the metric
    values of operators of one of ``operator_kinds`` residing (at any
    nesting depth) in a composite instance of ``composite_kind``.
    (We keep ``operName`` so the result can be compared set-wise against
    the scope matcher; the paper's SELECT projects only metricValue.)
    """
    ci = tables["CompositeInstances"]
    oi = tables["OperatorInstances"]
    om = tables["OperatorMetrics"]

    # WITH CompPairs(compName, parentName) AS (
    #   SELECT compName, parentName FROM CompositeInstances
    #   UNION ALL
    #   SELECT CI.compName, CP.parentName
    #   FROM CompositeInstances CI, CompPairs CP
    #   WHERE CI.parentName = CP.compName )
    base = ci.project(("compName", "parentName")).select(
        lambda r: r["parentName"] is not None
    )

    def step(frontier: Relation) -> Relation:
        joined = ci.rename("CI").equi_join(
            frontier.rename("CP"), "CI.parentName", "CP.compName"
        )
        return Relation(
            ("compName", "parentName"),
            [
                (row[joined.col("CI.compName")], row[joined.col("CP.parentName")])
                for row in joined.rows
                if row[joined.col("CP.parentName")] is not None
            ],
        ).distinct()

    comp_pairs = recursive_cte(base, step)

    # Main query body.
    kinds = set(operator_kinds)
    om_f = om.select(lambda r: r["metricName"] == metric_name)
    oi_f = oi.select(lambda r: r["operKind"] in kinds)
    ci_f = ci.select(lambda r: r["compKind"] == composite_kind).rename("CI")
    joined = om_f.equi_join(oi_f, "operName", "operName")
    # drop the duplicated operName column from the equi-join
    joined = Relation(
        ("metricName", "operName", "metricValue", "operKind", "compName"),
        [
            (
                row[0],
                row[1],
                row[2],
                row[joined.col("operKind")],
                row[joined.col("compName")],
            )
            for row in joined.rows
        ],
    )
    direct = joined.join(
        ci_f, lambda r: r["compName"] == r["CI.compName"]
    ).project(("operName", "metricValue"))
    cp = comp_pairs.rename("CP")
    indirect = (
        joined.join(cp, lambda r: r["compName"] == r["CP.compName"])
        .join(ci_f, lambda r: r["CP.parentName"] == r["CI.compName"])
        .project(("operName", "metricValue"))
    )
    return direct.union_all(indirect).distinct()


def scope_match_reference(
    adl: ADLModel,
    metrics: Iterable[Tuple[str, str, float]],
    metric_name: str,
    operator_kinds: Sequence[str],
    composite_kind: str,
) -> Set[Tuple[str, float]]:
    """What the ORCA scope matcher selects, computed directly from the ADL.

    Used by tests/benchmarks to compare against :func:`paper_scope_query`.
    """
    parents = {c.name: c.parent for c in adl.composites}
    kinds = {c.name: c.kind for c in adl.composites}
    kind_of_op = {o.name: o.kind for o in adl.operators}
    comp_of_op = {o.name: o.composite for o in adl.operators}
    wanted_kinds = set(operator_kinds)
    result: Set[Tuple[str, float]] = set()
    for op_name, name, value in metrics:
        if name != metric_name:
            continue
        if kind_of_op.get(op_name) not in wanted_kinds:
            continue
        current = comp_of_op.get(op_name)
        while current is not None:
            if kinds.get(current) == composite_kind:
                result.add((op_name, value))
                break
            current = parents.get(current)
    return result
