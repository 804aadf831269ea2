"""Tests for parallel-region annotation, expansion, and the channel operators."""

import ast
import pathlib

import pytest
from hypothesis import given, strategies as st

import repro
from repro.errors import ParallelRegionError
from repro.spl.application import Application
from repro.spl.compiler import SPLCompiler
from repro.spl.library import (
    Beacon,
    Filter,
    Functor,
    OrderedMerger,
    ParallelSplitter,
    Sink,
    stable_channel_of,
    stable_channels_of,
)
from repro.spl.parallel import expand_parallel_regions, parallel, resize_region
from repro.spl.tuples import Punctuation, StreamTuple

from tests.conftest import calls, example_budget, make_operator_harness, where


def build_app(width=3, chain_len=1, annotation=None, partition="work"):
    """src -> [work0 -> ... -> work{n-1}] (annotated) -> sink."""
    app = Application("Par")
    g = app.graph
    src = g.add_operator("src", Beacon, params={"values": {}}, partition="feed")
    prev = src
    annotation = annotation or parallel(width=width, name="region")
    for i in range(chain_len):
        work = g.add_operator(
            f"work{i}",
            Functor,
            params={"fn": lambda t: t},
            partition=partition,
            parallel=annotation,
        )
        g.connect(prev.oport(0), work.iport(0))
        prev = work
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(prev.oport(0), sink.iport(0))
    return app


class TestExpansion:
    def test_no_annotation_is_identity(self):
        app = Application("Plain")
        g = app.graph
        src = g.add_operator("src", Beacon)
        sink = g.add_operator("sink", Sink)
        g.connect(src.oport(0), sink.iport(0))
        expanded, plans = expand_parallel_regions(app)
        assert expanded is app
        assert plans == {}

    def test_splitter_channels_merger(self):
        expanded, plans = expand_parallel_regions(build_app(width=3))
        ops = expanded.graph.operators
        assert "region__split" in ops and "region__merge" in ops
        for channel in range(3):
            assert f"work0__c{channel}" in ops
        assert "work0" not in ops
        plan = plans["region"]
        assert plan.width == 3
        assert plan.channel_ops == [["work0__c0"], ["work0__c1"], ["work0__c2"]]

    def test_channel_partition_tags_are_suffixed(self):
        expanded, _ = expand_parallel_regions(build_app(width=2, chain_len=2))
        g = expanded.graph
        assert g.operator("work0__c0").partition == "work__c0"
        assert g.operator("work1__c0").partition == "work__c0"
        assert g.operator("work0__c1").partition == "work__c1"

    def test_chain_is_replicated_per_channel(self):
        expanded, plans = expand_parallel_regions(build_app(width=2, chain_len=3))
        plan = plans["region"]
        assert plan.chain == ["work0", "work1", "work2"]
        assert plan.channel_ops[1] == ["work0__c1", "work1__c1", "work2__c1"]
        # internal chain edges exist per channel
        edges = {
            (e.src.full_name, e.dst.full_name) for e in expanded.graph.edges
        }
        assert ("work0__c1", "work1__c1") in edges
        assert ("work2__c0", "region__merge") in edges

    def test_compiler_fuses_channels_into_per_channel_pes(self):
        compiled = SPLCompiler("manual").compile(build_app(width=2, chain_len=2))
        pe_of = compiled.pe_of
        assert pe_of("work0__c0") == pe_of("work1__c0")
        assert pe_of("work0__c0") != pe_of("work0__c1")
        assert compiled.parallel_regions["region"].width == 2
        assert compiled.source_application is not None

    def test_external_edges_rewired_through_splitter_and_merger(self):
        expanded, _ = expand_parallel_regions(build_app(width=2))
        edges = {
            (e.src.full_name, e.dst.full_name) for e in expanded.graph.edges
        }
        assert ("src", "region__split") in edges
        assert ("region__merge", "sink") in edges

    def test_host_exlocation_suffixed_per_channel(self):
        app = Application("Exloc")
        g = app.graph
        src = g.add_operator("src", Beacon)
        work = g.add_operator(
            "work",
            Functor,
            params={"fn": lambda t: t},
            host_exlocation="spread",
            parallel=parallel(width=2, name="r"),
        )
        sink = g.add_operator("sink", Sink)
        g.connect(src.oport(0), work.iport(0))
        g.connect(work.oport(0), sink.iport(0))
        expanded, _ = expand_parallel_regions(app)
        assert expanded.graph.operator("work__c0").host_exlocation == "spread__c0"
        assert expanded.graph.operator("work__c1").host_exlocation == "spread__c1"


class TestValidation:
    def test_width_must_be_positive(self):
        with pytest.raises(ParallelRegionError):
            expand_parallel_regions(build_app(annotation=parallel(width=0)))

    def test_max_width_must_cover_width(self):
        with pytest.raises(ParallelRegionError):
            expand_parallel_regions(
                build_app(annotation=parallel(width=4, max_width=2))
            )

    def test_branching_region_rejected(self):
        app = Application("Branch")
        g = app.graph
        annotation = parallel(width=2, name="r")
        src = g.add_operator("src", Beacon)
        a = g.add_operator("a", Functor, params={"fn": lambda t: t},
                           parallel=annotation)
        b = g.add_operator("b", Functor, params={"fn": lambda t: t},
                           parallel=annotation)
        sink1 = g.add_operator("s1", Sink)
        sink2 = g.add_operator("s2", Sink)
        g.connect(src.oport(0), a.iport(0))
        g.connect(a.oport(0), b.iport(0))
        g.connect(a.oport(0), sink1.iport(0))  # a branches out of the region
        g.connect(b.oport(0), sink2.iport(0))
        with pytest.raises(ParallelRegionError):
            expand_parallel_regions(app)

    def test_disconnected_members_rejected(self):
        app = Application("Disc")
        g = app.graph
        annotation = parallel(width=2, name="r")
        src = g.add_operator("src", Beacon)
        a = g.add_operator("a", Functor, params={"fn": lambda t: t},
                           parallel=annotation)
        mid = g.add_operator("mid", Functor, params={"fn": lambda t: t})
        b = g.add_operator("b", Functor, params={"fn": lambda t: t},
                           parallel=annotation)
        sink = g.add_operator("sink", Sink)
        g.connect(src.oport(0), a.iport(0))
        g.connect(a.oport(0), mid.iport(0))
        g.connect(mid.oport(0), b.iport(0))
        g.connect(b.oport(0), sink.iport(0))
        with pytest.raises(ParallelRegionError):
            expand_parallel_regions(app)

    def test_source_cannot_be_a_region(self):
        app = Application("SrcPar")
        g = app.graph
        src = g.add_operator("src", Beacon, parallel=parallel(width=2))
        sink = g.add_operator("sink", Sink)
        g.connect(src.oport(0), sink.iport(0))
        with pytest.raises(ParallelRegionError):
            expand_parallel_regions(app)


class TestResize:
    def expanded(self, width=2):
        expanded, plans = expand_parallel_regions(build_app(width=width, chain_len=2))
        return expanded, plans["region"]

    def test_grow_adds_channels_and_ports(self):
        expanded, plan = self.expanded(2)
        added, removed = resize_region(expanded.graph, plan, 4)
        assert removed == []
        assert [s.full_name for s in added] == [
            "work0__c2", "work1__c2", "work0__c3", "work1__c3"
        ]
        assert plan.width == 4
        assert expanded.graph.operator("region__split").n_outputs == 4
        assert expanded.graph.operator("region__merge").n_inputs == 4
        expanded.validate()  # all new ports are connected

    def test_shrink_removes_channels_and_edges(self):
        expanded, plan = self.expanded(3)
        added, removed = resize_region(expanded.graph, plan, 1)
        assert added == []
        assert set(removed) == {
            "work0__c1", "work1__c1", "work0__c2", "work1__c2"
        }
        assert plan.width == 1
        for name in removed:
            assert name not in expanded.graph.operators
        expanded.validate()

    def test_resize_outside_max_width_rejected(self):
        expanded, plan = self.expanded(2)
        with pytest.raises(ParallelRegionError):
            resize_region(expanded.graph, plan, plan.max_width + 1)
        with pytest.raises(ParallelRegionError):
            resize_region(expanded.graph, plan, 0)


def tup(**values):
    return StreamTuple(values)


class TestParallelSplitter:
    def make(self, **params):
        defaults = {"width": 3, "region": "r"}
        defaults.update(params)
        return make_operator_harness(ParallelSplitter, params=defaults)

    def test_round_robin_with_sequence_stamps(self):
        op, emitted = self.make()
        for i in range(6):
            op._process(tup(i=i), 0)
        ports = [port for port, _ in emitted]
        assert ports == [0, 1, 2, 0, 1, 2]
        assert [item["_pseq"] for _, item in emitted] == list(range(6))

    def test_hash_partitioning_is_stable(self):
        op, emitted = self.make(partition_by="key")
        for _ in range(3):
            op._process(tup(key="alpha"), 0)
            op._process(tup(key="beta"), 0)
        alpha_ports = {p for p, item in emitted if item["key"] == "alpha"}
        beta_ports = {p for p, item in emitted if item["key"] == "beta"}
        assert len(alpha_ports) == 1 and len(beta_ports) == 1

    def test_unordered_region_does_not_stamp(self):
        op, emitted = self.make(ordered=False)
        op._process(tup(i=1), 0)
        assert "_pseq" not in emitted[0][1].values

    def test_quiesce_buffers_and_resume_flushes(self):
        op, emitted = self.make()
        op._process(tup(i=0), 0)
        op.on_control("quiesce", {})
        op._process(tup(i=1), 0)
        op._process(tup(i=2), 0)
        assert len(emitted) == 1
        assert op.pending_items() == 2
        op.on_control("resume", {"width": 2, "epoch": 7})
        tuples = [item for _, item in emitted if isinstance(item, StreamTuple)]
        assert len(tuples) == 3
        assert op.width == 2 and op.epoch == 7
        # sequence numbering continues across the barrier
        assert [t["_pseq"] for t in tuples] == [0, 1, 2]

    def test_window_puncts_buffered_while_quiesced(self):
        """A rescale must not merge two windows: WINDOW puncts hold position
        in the barrier buffer relative to the tuples around them."""
        op, emitted = self.make(width=1)
        op.on_control("quiesce", {})
        op._process(tup(i=0), 0)
        op._process(Punctuation.WINDOW, 0)
        op._process(tup(i=1), 0)
        assert emitted == []
        op.on_control("resume", {})
        kinds = [
            item if item is Punctuation.WINDOW else item["i"]
            for _, item in emitted
        ]
        assert kinds == [0, Punctuation.WINDOW, 1]

    def test_final_held_while_quiesced(self):
        op, emitted = self.make()
        op.on_control("quiesce", {})
        op._process(tup(i=0), 0)
        op._process(Punctuation.FINAL, 0)
        assert Punctuation.FINAL not in [item for _, item in emitted]
        op.on_control("resume", {})
        finals = [item for _, item in emitted if item is Punctuation.FINAL]
        assert len(finals) == op.width  # FINAL broadcast after the flush


class TestOrderedMerger:
    def make(self, **params):
        defaults = {"width": 2, "region": "r"}
        defaults.update(params)
        return make_operator_harness(OrderedMerger, params=defaults)

    def test_reorders_across_channels(self):
        op, emitted = self.make()
        op._process(tup(v="b", _pseq=1), 1)
        assert emitted == []  # waiting for seq 0
        assert op.pending_items() == 1
        op._process(tup(v="a", _pseq=0), 0)
        values = [item["v"] for _, item in emitted]
        assert values == ["a", "b"]
        assert all("_pseq" not in item.values for _, item in emitted)

    def test_unstamped_tuples_pass_through(self):
        op, emitted = self.make()
        op._process(tup(v="x"), 0)
        assert [item["v"] for _, item in emitted] == ["x"]

    def test_final_flushes_gaps(self):
        op, emitted = self.make()
        op._process(tup(v="late", _pseq=5), 0)
        op._process(Punctuation.FINAL, 0)
        op._process(Punctuation.FINAL, 1)
        values = [
            item["v"] for _, item in emitted if isinstance(item, StreamTuple)
        ]
        assert values == ["late"]
        assert emitted[-1][1] is Punctuation.FINAL

    def test_set_width_control(self):
        op, _ = self.make()
        op.on_control("setWidth", {"width": 5})
        assert op.n_inputs == 5
        # the widened port is usable (per-port metrics were created)
        op._process(tup(v="y", _pseq=0), 4)

    def test_gap_skipped_after_grace(self):
        """A permanent hole (crashed channel) stalls only until the grace."""
        op, emitted = self.make(reorder_grace=5.0)
        op._process(tup(v="a", _pseq=0), 0)
        op._process(tup(v="c", _pseq=2), 1)  # seq 1 died with its channel
        assert [i["v"] for _, i in emitted] == ["a"]
        # fire the scheduled gap guard (the harness captures schedules);
        # expiry is judged by arrival age, so advance the fake clock first
        guard = op._test_scheduled[-1]
        assert guard.delay == 5.0
        op._test_clock["now"] = 5.0
        guard.fn()
        assert [i["v"] for _, i in emitted] == ["a", "c"]
        assert op.metric("nSeqGapsSkipped").value == 1
        assert op.pending_items() == 0

    def test_straggler_after_skip_is_delivered(self):
        op, emitted = self.make(reorder_grace=5.0)
        op._process(tup(v="c", _pseq=2), 1)
        op._test_clock["now"] = 5.0
        op._test_scheduled[-1].fn()  # skip the 0..1 hole
        op._process(tup(v="a", _pseq=0), 0)  # straggler arrives late
        assert [i["v"] for _, i in emitted] == ["c", "a"]  # delivered, not dropped

    def test_double_crash_gap_skip_advances_monotonically(self):
        """Regression: holes from *two* crashed channels must be skipped in
        strictly increasing seq order, and fresh tuples (a slow-but-alive
        channel) must not be flushed past just because older seqs expired."""
        op, emitted = self.make(width=4, reorder_grace=5.0)
        # channels 1 and 2 died: seqs 1, 2, 5, 6 will never arrive
        op._process(tup(v="s0", _pseq=0), 0)   # released immediately
        op._process(tup(v="s3", _pseq=3), 3)   # blocked by holes 1, 2
        op._process(tup(v="s4", _pseq=4), 0)
        assert [i["v"] for _, i in emitted] == ["s0"]
        guard = op._test_scheduled[-1]
        # a *fresh* tuple far ahead arrives just before the guard fires:
        # its holes (5, 6) have not aged out yet and must stay open
        op._test_clock["now"] = 4.9
        op._process(tup(v="s7", _pseq=7), 3)
        op._test_clock["now"] = 5.0
        guard.fn()
        # holes 1-2 expired (witnessed by s3/s4, both 5s old); hole 5-6 is
        # only witnessed by the 0.1s-old s7, so s7 stays buffered
        assert [i["v"] for _, i in emitted] == ["s0", "s3", "s4"]
        assert op.metric("nSeqGapsSkipped").value == 1
        assert op.pending_items() == 1
        # second crashed channel's holes expire once s7 has aged out
        op._test_clock["now"] = 9.9
        op._test_scheduled[-1].fn()
        assert [i["v"] for _, i in emitted] == ["s0", "s3", "s4", "s7"]
        assert op.metric("nSeqGapsSkipped").value == 2
        # emission order was strictly monotone in seq throughout
        seqs = [i.get("v") for _, i in emitted]
        assert seqs == sorted(seqs, key=lambda v: int(v[1:]))

    def test_gap_guard_rearms_on_progress(self):
        op, emitted = self.make(reorder_grace=5.0)
        op._process(tup(v="b", _pseq=1), 0)  # hole at 0
        first_guard = op._test_scheduled[-1]
        op._process(tup(v="a", _pseq=0), 0)  # hole fills normally
        op._process(tup(v="d", _pseq=3), 1)  # new hole at 2
        first_guard.fn()  # old guard fires after progress: no skip
        assert op.metric("nSeqGapsSkipped").value == 0
        assert [i["v"] for _, i in emitted] == ["a", "b"]


class TestOneTupleConstructor:
    """A dict becomes a tuple in one place, and a key finds its channel by
    one rule.

    Structural, like ``test_elastic.TestOneMover``: every other tuple is a
    derived copy (``with_value`` / ``with_values`` / ``without`` /
    ``project``, or a replay rebuilt from its wire form), all made by one
    primitive, ``tuples._assemble``, and each keeps the size, creation
    time and trace flag exactly — the region plumbing once
    rebuilt whole tuples and dropped ``traced`` on the way.  And a keyed
    tuple once had a second channel — a detour over the surviving ones
    while its owner was masked — whose rule the splitter and the state
    seeding each had to follow.
    """

    src = pathlib.Path(repro.__file__).parent

    def test_only_submission_constructs_tuples(self):
        def constructs(node):
            """A tuple made from a dict: one at a time by the constructor,
            or a run at a time by ``make_run``."""
            return calls("StreamTuple")(node) or calls("make_run")(node)

        assert where(self.src, constructs) == [
            "operators.py:Operator.submit",
            "operators.py:Operator.submit_batch",
        ]

    def test_a_key_has_one_channel_its_owner(self):
        library = self.src / "spl" / "library.py"

        def alive_channels(node):
            return isinstance(node, ast.ListComp) and any(
                isinstance(op, ast.NotIn)
                for compare in ast.walk(node)
                if isinstance(compare, ast.Compare)
                for op in compare.ops
            )

        assert where(library, alive_channels) == []  # no list of survivors
        # the owner rule is ``hash(key) % width`` and nothing else; a run
        # of keys is hashed by the rule's run form, which spells the same
        # CRC-32 at C level (``test_the_run_form_is_the_rule``)
        def hashes(node):
            return calls("_stable_hash")(node) or getattr(node, "attr", None) == "crc32"

        assert where(library, hashes) == [
            "library.py:_stable_hash",
            "library.py:stable_channel_of",
            "library.py:stable_channels_of",
            "library.py:ParallelSplitter._forward",
        ]

    @example_budget("batch-ci", tier1=100)
    @given(
        keys=st.lists(
            st.one_of(st.text(max_size=6), st.integers(), st.floats(allow_nan=False), st.none()),
            max_size=12,
        ),
        width=st.integers(1, 8),
    )
    def test_the_run_form_is_the_rule(self, keys, width):
        assert stable_channels_of(keys, width) == [stable_channel_of(k, width) for k in keys]
