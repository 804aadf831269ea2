"""Tests for the orchestrator descriptor and the SQL baseline engine."""

import pytest

from repro import ManagedApplication, Orchestrator, OrcaDescriptor
from repro.errors import DescriptorError
from repro.orca.descriptor import resolve_dotted
from repro.spl.adl import adl_model_of
from repro.spl.compiler import SPLCompiler

from repro.apps.figure2 import build_figure2_application
from tests.conftest import make_linear_app
from tests.sqlbaseline import (
    Relation,
    paper_scope_query,
    recursive_cte,
    scope_match_reference,
    tables_from_adl,
)


class NamedOrca(Orchestrator):
    """Module-level logic class, resolvable by dotted path."""


class TestDescriptor:
    def test_create_logic_from_class(self):
        descriptor = OrcaDescriptor(name="O", logic=NamedOrca)
        assert isinstance(descriptor.create_logic(), NamedOrca)

    def test_create_logic_from_callable(self):
        descriptor = OrcaDescriptor(name="O", logic=lambda: NamedOrca())
        assert isinstance(descriptor.create_logic(), NamedOrca)

    def test_create_logic_from_dotted_path(self):
        path = f"{__name__}.NamedOrca"
        descriptor = OrcaDescriptor(name="O", logic=path)
        assert isinstance(descriptor.create_logic(), NamedOrca)

    def test_non_orchestrator_factory_rejected(self):
        descriptor = OrcaDescriptor(name="O", logic=lambda: object())
        with pytest.raises(DescriptorError):
            descriptor.create_logic()

    def test_managed_application_requires_content(self):
        with pytest.raises(DescriptorError):
            ManagedApplication(name="X")

    def test_managed_application_name_must_match(self):
        with pytest.raises(DescriptorError):
            ManagedApplication(name="X", application=make_linear_app("Y"))

    def test_application_lookup(self):
        app = make_linear_app("A")
        descriptor = OrcaDescriptor(
            name="O",
            logic=NamedOrca,
            applications=[ManagedApplication(name="A", application=app)],
        )
        assert descriptor.manages("A")
        assert not descriptor.manages("B")
        assert descriptor.application("A").application is app
        with pytest.raises(DescriptorError):
            descriptor.application("B")

    def test_xml_round_trip(self):
        from repro.spl.adl import adl_to_xml

        compiled = SPLCompiler("manual").compile(make_linear_app("A"))
        descriptor = OrcaDescriptor(
            name="MyORCA",
            logic=f"{__name__}.NamedOrca",
            applications=[
                ManagedApplication(name="A", adl_xml=adl_to_xml(compiled))
            ],
            metric_poll_interval=5.0,
        )
        text = descriptor.to_xml()
        parsed = OrcaDescriptor.from_xml(text)
        assert parsed.name == "MyORCA"
        assert parsed.metric_poll_interval == 5.0
        assert parsed.applications[0].name == "A"
        assert parsed.applications[0].adl_xml is not None
        assert isinstance(parsed.create_logic(), NamedOrca)

    def test_malformed_xml(self):
        with pytest.raises(DescriptorError):
            OrcaDescriptor.from_xml("<broken")
        with pytest.raises(DescriptorError):
            OrcaDescriptor.from_xml("<wrong/>")
        with pytest.raises(DescriptorError):
            OrcaDescriptor.from_xml("<orchestrator name='x'/>")

    def test_resolve_dotted_errors(self):
        with pytest.raises(DescriptorError):
            resolve_dotted("no_dots")
        with pytest.raises(DescriptorError):
            resolve_dotted("nonexistent_module.Thing")
        with pytest.raises(DescriptorError):
            resolve_dotted(f"{__name__}.NoSuchClass")


class TestRelationalEngine:
    def rel(self):
        return Relation(("a", "b"), [(1, "x"), (2, "y"), (3, "x")])

    def test_select(self):
        result = self.rel().select(lambda r: r["b"] == "x")
        assert result.rows == [(1, "x"), (3, "x")]

    def test_project_reorders(self):
        result = self.rel().project(("b", "a"))
        assert result.columns == ("b", "a")
        assert result.rows[0] == ("x", 1)

    def test_rename_prefixes(self):
        assert self.rel().rename("T").columns == ("T.a", "T.b")

    def test_cross_product(self):
        left = Relation(("a",), [(1,), (2,)])
        right = Relation(("b",), [("x",)])
        assert left.cross(right).rows == [(1, "x"), (2, "x")]

    def test_cross_rejects_clashes(self):
        with pytest.raises(ValueError):
            self.rel().cross(self.rel())

    def test_theta_join(self):
        left = Relation(("a",), [(1,), (2,)])
        right = Relation(("b",), [(1,), (3,)])
        result = left.join(right, lambda r: r["a"] == r["b"])
        assert result.rows == [(1, 1)]

    def test_equi_join(self):
        left = Relation(("a", "v"), [(1, "l1"), (2, "l2")])
        right = Relation(("k", "w"), [(1, "r1"), (1, "r2")])
        result = left.equi_join(right, "a", "k")
        assert len(result) == 2

    def test_union_all_and_distinct(self):
        left = Relation(("a",), [(1,)])
        merged = left.union_all(Relation(("a",), [(1,), (2,)]))
        assert len(merged) == 3
        assert len(merged.distinct()) == 2

    def test_union_requires_same_schema(self):
        with pytest.raises(ValueError):
            Relation(("a",), []).union_all(Relation(("b",), []))

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            Relation(("a", "b"), [(1,)])

    def test_missing_column(self):
        with pytest.raises(KeyError):
            self.rel().col("ghost")

    def test_to_dicts(self):
        assert self.rel().to_dicts()[0] == {"a": 1, "b": "x"}

    def test_recursive_cte_transitive_closure(self):
        edges = Relation(("src", "dst"), [("a", "b"), ("b", "c"), ("c", "d")])

        def step(frontier):
            joined = edges.rename("E").equi_join(
                frontier.rename("F"), "E.dst", "F.src"
            )
            return Relation(
                ("src", "dst"),
                [
                    (row[joined.col("E.src")], row[joined.col("F.dst")])
                    for row in joined.rows
                ],
            ).distinct()

        closure = recursive_cte(edges, step)
        assert ("a", "d") in closure.rows
        assert len(closure) == 6  # ab ac ad bc bd cd

    def test_recursive_cte_schema_checked(self):
        base = Relation(("a",), [(1,)])
        with pytest.raises(ValueError):
            recursive_cte(base, lambda f: Relation(("z",), []))


class TestPaperQuery:
    def figure2_tables(self, metric="queueSize"):
        compiled = SPLCompiler("manual").compile(build_figure2_application())
        adl = adl_model_of(compiled)
        metrics = [
            (op.name, metric, float(i)) for i, op in enumerate(adl.operators)
        ]
        return adl, metrics

    def test_matches_fig5_expectation(self):
        """The query must select op3/op6 of both composite instances."""
        adl, metrics = self.figure2_tables()
        tables = tables_from_adl(adl, metrics)
        result = paper_scope_query(tables, "queueSize", ["Split", "Merge"],
                                   "composite1")
        names = {name for name, _ in result.rows}
        assert names == {"c1.op3", "c1.op6", "c2.op3", "c2.op6"}

    def test_equals_scope_reference(self):
        adl, metrics = self.figure2_tables()
        tables = tables_from_adl(adl, metrics)
        result = set(
            paper_scope_query(
                tables, "queueSize", ["Split", "Merge"], "composite1"
            ).rows
        )
        reference = scope_match_reference(
            adl, metrics, "queueSize", ["Split", "Merge"], "composite1"
        )
        assert result == reference

    def test_metric_name_filters(self):
        adl, metrics = self.figure2_tables(metric="nTuplesProcessed")
        tables = tables_from_adl(adl, metrics)
        result = paper_scope_query(tables, "queueSize", ["Split"], "composite1")
        assert len(result) == 0

    def test_nested_composites_need_recursion(self):
        """An operator nested two levels deep is only found recursively."""
        from repro.spl.adl import ADLComposite, ADLModel, ADLOperator

        adl = ADLModel(
            name="Nested",
            version="1",
            operators=[
                ADLOperator(
                    name="outer.inner.op", kind="Split",
                    composite="outer.inner", pe_index=1, n_inputs=1, n_outputs=2,
                )
            ],
            composites=[
                ADLComposite(name="outer", kind="composite1", parent=None),
                ADLComposite(name="outer.inner", kind="wrapper", parent="outer"),
            ],
            pes=[], streams=[], host_pools=[], exports=[], imports=[],
        )
        metrics = [("outer.inner.op", "queueSize", 7.0)]
        tables = tables_from_adl(adl, metrics)
        result = paper_scope_query(tables, "queueSize", ["Split"], "composite1")
        assert set(result.rows) == {("outer.inner.op", 7.0)}
        reference = scope_match_reference(
            adl, metrics, "queueSize", ["Split"], "composite1"
        )
        assert set(result.rows) == reference
