"""Tests for tuple schemas and stream data items."""

import ast
import copy
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import repro

from repro.errors import SchemaError
from repro.spl.library import OrderedMerger, ParallelSplitter
from repro.spl.schema import ANY_SCHEMA, Attribute, TupleSchema
from repro.spl.tuples import FinalMarker, Punctuation, StreamTuple, WindowMarker

from tests.conftest import make_operator_harness, where


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
        where a tuple is made (``repro.spl.tuples``)."""
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
            "tuples.py:StreamTuple._derive",
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
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
        st.builds(lambda v: StreamTuple({"nested": v}), inner),
    ),
    max_leaves=8,
)
_attrs = st.dictionaries(st.sampled_from("abcdefgh"), _values, max_size=6)


class TestDerivedSize:
    """Derived copies carry the size a fresh tuple of the same values
    would estimate — ``nTupleBytesProcessed`` cannot tell them apart —
    and keep the creation time and trace flag: ``with_values``,
    ``project``, and the region splitter's ``_pseq`` stamp and the
    merger's strip."""

    @settings(max_examples=200, deadline=None)
    @given(base=_attrs, updates=_attrs)
    def test_with_values_matches_a_fresh_tuple(self, base, updates):
        # ``updates`` over the same small alphabet both adds and replaces
        derived = StreamTuple(base, created_at=3.0, traced=True).with_values(**updates)
        fresh = StreamTuple({**base, **updates})
        assert derived.values == fresh.values
        assert derived.size_bytes == fresh.size_bytes
        assert (derived.created_at, derived.traced) == (3.0, True)
        # and again off the derived copy: errors must not accumulate
        assert derived.with_values(**base).size_bytes == StreamTuple(
            {**updates, **base}
        ).size_bytes

    @settings(max_examples=200, deadline=None)
    @given(base=_attrs, data=st.data())
    def test_project_matches_a_fresh_tuple(self, base, data):
        names = data.draw(st.lists(st.sampled_from(sorted(base)), max_size=8)) if base else []
        derived = StreamTuple(base, created_at=3.0, traced=True).project(*names)
        fresh = StreamTuple({n: base[n] for n in names})
        assert derived.values == fresh.values
        assert derived.size_bytes == fresh.size_bytes
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

    @settings(max_examples=200, deadline=None)
    @given(base=_attrs, seq=st.integers(0, 2**40), batched=st.booleans())
    def test_region_stamp_and_strip_match_a_fresh_tuple(self, base, seq, batched):
        sent = StreamTuple(base, created_at=3.0, traced=True)
        stamped = self._through(ParallelSplitter, sent, batched, _seq=seq)
        stripped = self._through(OrderedMerger, stamped, batched, _next=seq)
        for derived, values in ((stamped, {**base, "_pseq": seq}), (stripped, base)):
            assert derived.values == values
            assert derived.size_bytes == StreamTuple(values).size_bytes
            assert (derived.created_at, derived.traced) == (3.0, True)


class TestPunctuation:
    def test_markers(self):
        assert WindowMarker is Punctuation.WINDOW
        assert FinalMarker is Punctuation.FINAL

    def test_two_kinds_only(self):
        assert {p.value for p in Punctuation} == {"window", "final"}
