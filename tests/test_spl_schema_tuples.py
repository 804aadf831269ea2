"""Tests for tuple schemas and stream data items."""

import ast
import copy
import enum
import pathlib

import pytest
from hypothesis import given, strategies as st

import repro

from repro.errors import SchemaError
from repro.spl.library import OrderedMerger, ParallelSplitter
from repro.spl.schema import ANY_SCHEMA, Attribute, TupleSchema
from repro.spl.tuples import (
    FinalMarker,
    Punctuation,
    StreamTuple,
    TupleBatch,
    WindowMarker,
    estimate_value_size,
    from_wire_form,
    make_run,
    to_wire_form,
    with_value_run,
    without_run,
)

from tests.conftest import example_budget, make_operator_harness, where

#: tier-1's budget; the CI ``delivery-matrix`` job runs this file under
#: ``--hypothesis-profile=batch-ci``
BUDGET = example_budget("batch-ci", tier1=200)
#: runs of up to eight members cost several tuples' examples each
RUN_BUDGET = example_budget("batch-ci", tier1=25)


class TestSchema:
    def test_of_constructor(self):
        schema = TupleSchema.of(symbol=str, price=float)
        assert schema.names == ("symbol", "price")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            TupleSchema([("a", int), ("a", str)])

    def test_invalid_identifier_rejected(self):
        with pytest.raises(SchemaError):
            TupleSchema([("not valid", int)])

    def test_unsupported_type_rejected(self):
        with pytest.raises(SchemaError):
            TupleSchema([("x", complex)])

    def test_contains(self):
        schema = TupleSchema.of(a=int)
        assert "a" in schema
        assert "b" not in schema

    def test_len(self):
        assert len(TupleSchema.of(a=int, b=str)) == 2

    def test_attribute_lookup(self):
        schema = TupleSchema.of(a=int)
        assert schema.attribute("a") == Attribute("a", int)
        with pytest.raises(SchemaError):
            schema.attribute("missing")

    def test_validate_accepts_matching(self):
        schema = TupleSchema.of(symbol=str, price=float)
        schema.validate({"symbol": "IBM", "price": 10.5})

    def test_validate_int_widens_to_float(self):
        TupleSchema.of(price=float).validate({"price": 10})

    def test_validate_rejects_missing(self):
        with pytest.raises(SchemaError):
            TupleSchema.of(a=int).validate({})

    def test_validate_rejects_wrong_type(self):
        with pytest.raises(SchemaError):
            TupleSchema.of(a=int).validate({"a": "str"})

    def test_validate_rejects_extra(self):
        with pytest.raises(SchemaError):
            TupleSchema.of(a=int).validate({"a": 1, "b": 2})

    def test_object_accepts_anything(self):
        ANY_SCHEMA.validate({"payload": object()})

    def test_equality_and_hash(self):
        a = TupleSchema.of(x=int)
        b = TupleSchema.of(x=int)
        c = TupleSchema.of(x=float)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestStreamTuple:
    def test_item_access(self):
        tup = StreamTuple({"a": 1, "b": "x"})
        assert tup["a"] == 1
        assert "b" in tup
        assert tup.get("missing", 9) == 9

    def test_with_values_copies(self):
        tup = StreamTuple({"a": 1})
        new = tup.with_values(a=2, b=3)
        assert new["a"] == 2 and new["b"] == 3
        assert tup["a"] == 1  # original untouched

    def test_project(self):
        tup = StreamTuple({"a": 1, "b": 2, "c": 3})
        assert tup.project("a", "c").values == {"a": 1, "c": 3}

    def test_equality_on_values(self):
        assert StreamTuple({"a": 1}) == StreamTuple({"a": 1})
        assert StreamTuple({"a": 1}) != StreamTuple({"a": 2})

    def test_hashable(self):
        assert len({StreamTuple({"a": 1}), StreamTuple({"a": 1})}) == 1

    def test_equal_tuples_of_different_spellings_are_one_set_member(self):
        assert len({StreamTuple({"a": 1}), StreamTuple({"a": 1.0})}) == 1
        assert len({StreamTuple({"x": True}), StreamTuple({"x": 1})}) == 1

    def test_unhashable_values_stay_hashable_in_a_tuple(self):
        nested = {"l": [1, {"d": [2.0]}], "s": {3}, "b": bytearray(b"x")}
        assert hash(StreamTuple(nested)) == hash(StreamTuple(copy.deepcopy(nested)))

    def test_size_estimate_positive_and_monotone(self):
        small = StreamTuple({"a": 1})
        big = StreamTuple({"a": 1, "text": "x" * 1000})
        assert small.size_bytes >= StreamTuple.FRAME_OVERHEAD
        assert big.size_bytes > small.size_bytes + 900

    def test_size_estimate_covers_types(self):
        tup = StreamTuple(
            {
                "i": 1,
                "f": 1.5,
                "b": True,
                "s": "abc",
                "by": b"xyz",
                "l": [1, 2],
                "d": {"k": 1},
                "o": object(),
            }
        )
        assert tup.size_bytes > StreamTuple.FRAME_OVERHEAD

    def test_created_at_preserved_by_with_values(self):
        tup = StreamTuple({"a": 1}, created_at=7.5)
        assert tup.with_values(b=2).created_at == 7.5

    def test_repr_contains_values(self):
        assert "a=1" in repr(StreamTuple({"a": 1}))


class TestTupleIsAValue:
    """A snapshot of parked, reordered or recorded tuples copies the list
    that holds them, not the tuples: ``copy.deepcopy`` of a tuple is the
    tuple.  That is sound only while nothing changes a tuple after it is
    made — the invariant the exactly-once wire form (which shares values
    dicts between a retained unit and the tuples sent) relies on too."""

    def test_deepcopy_of_a_tuple_is_the_tuple(self):
        tup = StreamTuple({"a": [1, 2]})
        lane = [tup, tup.with_values(b=1)]
        copied = copy.deepcopy({"lane": lane})["lane"]
        assert copied is not lane and all(x is y for x, y in zip(copied, lane))

    def test_nothing_in_src_mutates_a_tuples_values(self):
        """No assignment into, deletion from, or mutating call on any
        ``.values`` mapping in ``src/``; ``.values`` itself is bound only
        by the constructor and by ``_assemble``, the one primitive every
        derived copy and every tuple rebuilt from its wire form comes from."""
        mutators = {"update", "pop", "popitem", "clear", "setdefault", "__setitem__"}

        def on_values(node):
            return isinstance(node, ast.Attribute) and node.attr == "values"

        def mutates(node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = getattr(node, "targets", None) or [node.target]
                return any(isinstance(t, ast.Subscript) and on_values(t.value) for t in targets)
            return (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in mutators
                and on_values(node.func.value)
            )

        def binds(node):
            return isinstance(node, ast.Assign) and any(on_values(t) for t in node.targets)

        src = pathlib.Path(repro.__file__).parent
        assert where(src, mutates) == []
        assert sorted(where(src, binds)) == [
            "tuples.py:StreamTuple.__init__",
            "tuples.py:_assemble",
        ]


#: attribute values of every kind the size estimate distinguishes,
#: nested up to a few levels (lists, dicts, tuples inside tuples)
_scalars = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.none(),
)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 22


class _Float(float):
    pass


class _Str(str):
    pass


#: values the type-identity sizing must *not* take: each is an ``int``,
#: ``float`` or ``str`` by ``isinstance`` but not by type (``bool`` is in
#: ``_scalars``)
_subclassed = st.one_of(
    st.sampled_from(_Level),
    st.floats(allow_nan=False).map(_Float),
    st.text(max_size=12).map(_Str),
)
_values = st.recursive(
    st.one_of(_scalars, _subclassed),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
        st.builds(lambda v: StreamTuple({"nested": v}), inner),
    ),
    max_leaves=8,
)
_names = st.sampled_from("abcdefgh")
_attrs = st.dictionaries(_names, _values, max_size=6)


def _reference_size(values):
    """The size a tuple of ``values`` must read, from the ladder alone:
    independent of the inlined sizing in the constructor and derivations."""
    return StreamTuple.FRAME_OVERHEAD + sum(
        len(name) + estimate_value_size(value) for name, value in values.items()
    )


class TestDerivedSize:
    """Every tuple — made or derived — carries the size the ladder gives
    its values (``nTupleBytesProcessed`` cannot tell a derived copy from
    a fresh one), and a derived copy keeps the creation time and trace
    flag: the constructor, ``with_value``, ``with_values``, ``without``,
    ``project``, and the region splitter's ``_pseq`` stamp and the
    merger's strip."""

    @BUDGET
    @given(base=_attrs)
    def test_construction_matches_the_reference(self, base):
        assert StreamTuple(base).size_bytes == _reference_size(base)

    @BUDGET
    @given(base=_attrs, name=_names, value=_values)
    def test_with_value_matches_the_reference(self, base, name, value):
        derived = StreamTuple(base, created_at=3.0, traced=True).with_value(name, value)
        assert derived.values == {**base, name: value}
        assert derived.size_bytes == _reference_size(derived.values)
        assert (derived.created_at, derived.traced) == (3.0, True)

    @BUDGET
    @given(base=_attrs, updates=_attrs)
    def test_with_values_matches_a_fresh_tuple(self, base, updates):
        # ``updates`` over the same small alphabet both adds and replaces
        derived = StreamTuple(base, created_at=3.0, traced=True).with_values(**updates)
        fresh = StreamTuple({**base, **updates})
        assert derived.values == fresh.values
        assert derived.size_bytes == fresh.size_bytes == _reference_size(fresh.values)
        assert (derived.created_at, derived.traced) == (3.0, True)
        # and again off the derived copy: errors must not accumulate
        again = derived.with_values(**base)
        assert again.size_bytes == _reference_size({**updates, **base})

    @BUDGET
    @given(base=_attrs, name=_names)
    def test_without_matches_the_reference(self, base, name):
        # ``name`` may be absent: the tuple itself comes back
        derived = StreamTuple(base, created_at=3.0, traced=True).without(name)
        assert derived.values == {n: v for n, v in base.items() if n != name}
        assert derived.size_bytes == _reference_size(derived.values)
        assert (derived.created_at, derived.traced) == (3.0, True)

    @BUDGET
    @given(base=_attrs, data=st.data())
    def test_project_matches_a_fresh_tuple(self, base, data):
        names = data.draw(st.lists(st.sampled_from(sorted(base)), max_size=8)) if base else []
        derived = StreamTuple(base, created_at=3.0, traced=True).project(*names)
        fresh = StreamTuple({n: base[n] for n in names})
        assert derived.values == fresh.values
        assert derived.size_bytes == fresh.size_bytes == _reference_size(fresh.values)
        assert (derived.created_at, derived.traced) == (3.0, True)

    @staticmethod
    def _through(op_class, tup, batched, **state):
        """The one tuple a fresh width-1 region operator emits for ``tup``."""
        op, emitted = make_operator_harness(op_class, params={"width": 1})
        vars(op).update(state)
        if batched:
            op._process_batch([tup], 0)
        else:
            op._process(tup, 0)
        [(_port, out)] = emitted
        return out

    @BUDGET
    @given(base=_attrs, seq=st.integers(0, 2**40), batched=st.booleans())
    def test_region_stamp_and_strip_match_a_fresh_tuple(self, base, seq, batched):
        sent = StreamTuple(base, created_at=3.0, traced=True)
        stamped = self._through(ParallelSplitter, sent, batched, _seq=seq)
        stripped = self._through(OrderedMerger, stamped, batched, _next=seq)
        for derived, values in ((stamped, {**base, "_pseq": seq}), (stripped, base)):
            assert derived.values == values
            assert derived.size_bytes == StreamTuple(values).size_bytes == _reference_size(values)
            assert (derived.created_at, derived.traced) == (3.0, True)


#: one member of a run: its attributes, creation time and trace flag
_members = st.tuples(_attrs, st.floats(0, 1e6), st.booleans())
_runs = st.lists(_members, max_size=8)


def _tuples_of(members):
    return [StreamTuple(attrs, created_at=at, traced=flag) for attrs, at, flag in members]


def _fields(tup):
    return tup.values, tup.created_at, tup.size_bytes, tup.traced


def _assert_carries_its_sums(run):
    """A run carries the byte total and traced flag of its members."""
    assert type(run) is TupleBatch
    assert run.size_bytes == sum(tup.size_bytes for tup in run)
    assert run.traced == any(tup.traced for tup in run)


class TestRunKernels:
    """A run kernel does in one call what the per-member path does member
    by member: every member it makes or derives has the values, creation
    time and trace flag the per-member reference gives, and the size
    ``TestDerivedSize``'s ladder reference gives; every member it keeps
    is itself; and the run carries the sums over its members.  Runs mix
    rare value kinds, attributes present and absent, and the empty run."""

    @RUN_BUDGET
    @given(
        items=st.lists(st.one_of(_attrs, _members.map(lambda m: _tuples_of([m])[0])), max_size=8),
        at=st.floats(0, 1e6),
        flags=st.lists(st.booleans(), min_size=8, max_size=8),
        sampled=st.booleans(),
    )
    def test_make_run_makes_each_dict_as_the_constructor_does(self, items, at, flags, sampled):
        asked = iter(flags)
        run = make_run(items, at, (lambda: next(asked)) if sampled else None)
        assert len(run) == len(items)
        decisions = iter(flags)
        for item, tup in zip(items, run):
            if isinstance(item, StreamTuple):
                assert tup is item
                continue
            assert tup.values == item and tup.values is not item
            assert tup.size_bytes == StreamTuple(item).size_bytes == _reference_size(item)
            assert (tup.created_at, tup.traced) == (at, next(decisions) if sampled else False)
        # sampling was asked once per dict, in order, and for nothing else
        assert sum(1 for _ in asked) == (8 - sum(type(i) is dict for i in items) if sampled else 8)
        _assert_carries_its_sums(run)

    @RUN_BUDGET
    @given(members=_runs, name=_names, data=st.data())
    def test_with_value_run_sets_each_member_as_with_value_does(self, members, name, data):
        run = _tuples_of(members)
        values = data.draw(st.lists(_values, min_size=len(run), max_size=len(run)))
        derived = with_value_run(run, name, values)
        assert len(derived) == len(run)
        for tup, value, copy in zip(run, values, derived):
            assert copy.values == {**tup.values, name: value}
            assert copy.size_bytes == _reference_size(copy.values)
            assert (copy.created_at, copy.traced) == (tup.created_at, tup.traced)
            assert _fields(copy) == _fields(tup.with_value(name, value))
        _assert_carries_its_sums(derived)

    @RUN_BUDGET
    @given(members=_runs, name=_names)
    def test_without_run_drops_from_each_member_as_without_does(self, members, name):
        run = _tuples_of(members)
        stripped = without_run(run, name)
        assert len(stripped) == len(run)
        for tup, copy in zip(run, stripped):
            if name not in tup.values:
                assert copy is tup is tup.without(name)
                continue
            assert copy.values == {n: v for n, v in tup.values.items() if n != name}
            assert copy.size_bytes == _reference_size(copy.values)
            assert (copy.created_at, copy.traced) == (tup.created_at, tup.traced)
            assert _fields(copy) == _fields(tup.without(name))
        _assert_carries_its_sums(stripped)

    @RUN_BUDGET
    @given(members=_runs)
    def test_a_run_and_its_wire_form_carry_the_same_sums(self, members):
        run = TupleBatch(_tuples_of(members))
        _assert_carries_its_sums(run)
        rebuilt = from_wire_form(to_wire_form(run))
        assert [_fields(tup) for tup in rebuilt] == [_fields(tup) for tup in run]
        _assert_carries_its_sums(rebuilt)

    def test_a_present_name_is_replaced_not_added(self):
        tup = StreamTuple({"count": "seven", "k": 1.5}, created_at=2.0, traced=True)
        [copy] = with_value_run([tup], "count", [7])
        assert copy.size_bytes == _reference_size({"count": 7, "k": 1.5}) == tup.size_bytes - 5 + 8

    def test_the_empty_run(self):
        for run in (make_run([], 1.0), with_value_run([], "a", []), without_run([], "a")):
            assert run == [] and (run.size_bytes, run.traced) == (0, False)


#: a nested shape of 0s and 1s; each leaf is spelled ``n``, ``float(n)``
#: or ``bool(n)`` — equal values of three types
_shapes = st.recursive(
    st.sampled_from([0, 1]),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from("xy"), inner, max_size=2),
    ),
    max_leaves=6,
)


def _spell(shape, draw):
    """One spelling of ``shape``, every leaf's type drawn independently."""
    if isinstance(shape, list):
        return [_spell(leaf, draw) for leaf in shape]
    if isinstance(shape, dict):
        return {k: _spell(leaf, draw) for k, leaf in shape.items()}
    return draw(st.sampled_from([shape, float(shape), bool(shape)]))


class TestTupleHash:
    """``a == b`` implies ``hash(a) == hash(b)``: a set or dict keyed by
    tuples holds one of two equal tuples, however their values are
    spelled, and unhashable values (lists, dicts) stay allowed."""

    @BUDGET
    @given(shapes=st.dictionaries(st.sampled_from("abc"), _shapes, max_size=3), data=st.data())
    def test_equal_tuples_hash_equal(self, shapes, data):
        a = StreamTuple({k: _spell(shape, data.draw) for k, shape in shapes.items()})
        b = StreamTuple({k: _spell(shape, data.draw) for k, shape in shapes.items()})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestPunctuation:
    def test_markers(self):
        assert WindowMarker is Punctuation.WINDOW
        assert FinalMarker is Punctuation.FINAL

    def test_two_kinds_only(self):
        assert {p.value for p in Punctuation} == {"window", "final"}
