"""Stream data items: tuples, runs of tuples, and punctuations.

A :class:`StreamTuple` is an immutable-ish record of attribute values plus
bookkeeping (creation time, an estimated wire size used for the PE byte
metrics).  A :class:`TupleBatch` is a run of tuples that carries its byte
total and traced flag from where it is made.  :class:`Punctuation` markers
flow through the same channels as tuples; ``FINAL`` punctuation signals
that a stream will never carry tuples again, and its propagation through
the graph is managed by the runtime (Sec. 5.3 of the paper relies on final
punctuation to garbage-collect C3 applications).

The batched path makes and derives whole runs with one Python call per
run, each a *run kernel*: :func:`make_run` builds a run from dicts,
:func:`with_value_run` sets one attribute over a run and
:func:`without_run` drops one.  ``StreamTuple.with_value`` and
``StreamTuple.without`` run the same bodies over a run of one, so each
size rule is written once per job.  Every derived tuple, and every
tuple rebuilt from its wire form, is bound by one primitive,
:func:`_assemble`, from one member's fields or from a run's columns.
"""

from __future__ import annotations

import enum
from itertools import chain, compress, repeat
from operator import attrgetter, not_
from typing import Any, Callable, Iterable, List, Mapping, Optional, Sequence


class Punctuation(enum.Enum):
    """Marker kinds that can be interleaved with tuples on a stream."""

    WINDOW = "window"
    FINAL = "final"


#: Singletons used when submitting punctuation.
WindowMarker = Punctuation.WINDOW
FinalMarker = Punctuation.FINAL


class StreamTuple:
    """A data item flowing on a stream.

    Attribute values are held in a plain dict; attribute access is provided
    both via item syntax (``t["price"]``) and :meth:`get`.  Tuples estimate
    their serialized size once at construction so the runtime can maintain
    the ``nTupleBytesProcessed`` built-in PE metric cheaply.

    The estimate is :func:`estimate_value_size` per value plus each name's
    length.  The constructor, :func:`make_run` and the derivations size
    exact ``float`` / ``int`` / ``str`` values inline, by type identity,
    and hand every other value to :func:`estimate_value_size` — the same
    numbers, without a call per attribute on the tuple path.
    """

    __slots__ = ("values", "created_at", "size_bytes", "traced")

    #: Baseline per-tuple framing overhead, in bytes (header + ports).
    FRAME_OVERHEAD = 24

    def __init__(
        self,
        values: Mapping[str, Any],
        created_at: float = 0.0,
        size_bytes: Optional[int] = None,
        traced: bool = False,
    ) -> None:
        self.values = values = dict(values)
        self.created_at = created_at
        if size_bytes is None:
            size_bytes = self.FRAME_OVERHEAD
            for key, value in values.items():
                kind = type(value)
                if kind is float or kind is int:
                    size_bytes += len(key) + 8
                elif kind is str:
                    size_bytes += len(key) + len(value)
                else:
                    size_bytes += len(key) + estimate_value_size(value)
        self.size_bytes = size_bytes
        #: sampled for span tracing (repro.obs); decided once at creation
        #: and propagated through derived copies so a traced tuple's whole
        #: path shows up in the flight recorder
        self.traced = traced

    def __getitem__(self, name: str) -> Any:
        return self.values[name]

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def get(self, name: str, default: Any = None) -> Any:
        """The value of attribute ``name``, or ``default`` when it has none."""
        return self.values.get(name, default)

    def with_value(self, name: str, value: Any) -> "StreamTuple":
        """A copy with one attribute set: :func:`with_value_run`'s body
        for a run of one."""
        values, size = _with_value_columns((self,), name, (value,))
        return _assemble(values, size, self)

    def with_values(self, **updates: Any) -> "StreamTuple":
        """Return a copy of this tuple with some attributes replaced/added.

        The copy's size is this tuple's adjusted by what the updates add
        or replace — the same value a fresh estimate over the merged
        attributes would give, without re-walking the unchanged ones.
        """
        values = self.values
        size = self.size_bytes
        for name, value in updates.items():
            if name in values:
                size -= estimate_value_size(values[name])
            else:
                size += len(name)
            kind = type(value)
            if kind is float or kind is int:
                size += 8
            elif kind is str:
                size += len(value)
            else:
                size += estimate_value_size(value)
        return _assemble({**values, **updates}, size, self)

    def without(self, name: str) -> "StreamTuple":
        """A copy without one attribute (this tuple itself if it has none):
        :func:`without_run`'s body for a run of one."""
        columns = _without_columns((self,), name)
        if not columns:
            return self
        return _assemble(columns[0], columns[1], self)

    def project(self, *names: str) -> "StreamTuple":
        """Return a copy containing only the named attributes."""
        values = self.values
        kept = {n: values[n] for n in names}
        dropped = sum(
            len(name) + estimate_value_size(value)
            for name, value in values.items()
            if name not in kept
        )
        return _assemble(kept, self.size_bytes - dropped, self)

    def __deepcopy__(self, memo: dict) -> "StreamTuple":
        """A tuple is a value (every change is a derived copy): itself."""
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamTuple):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        """Equal tuples hash equal: ``1``, ``1.0`` and ``True`` hash alike,
        and an unhashable value is hashed by its contents."""
        return hash(frozenset((k, _hashable(v)) for k, v in self.values.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.values.items())
        return f"StreamTuple({inner})"


_SIZE_BYTES = attrgetter("size_bytes")
_TRACED = attrgetter("traced")
#: a tuple's four fields, in wire-form order
_FIELDS = attrgetter("values", "created_at", "size_bytes", "traced")


class TupleBatch(list):
    """A run of tuples travelling as one unit of work: a list of its
    members that carries their byte total (``size_bytes``) and whether any
    of them is traced (``traced``).

    When transport batching is on (``SystemConfig.batch_max_size > 1``)
    an operator emits a run, the transport coalesces same-flow runs into
    one of these, schedules a *single* kernel event for it, and the PE
    hands it to the destination operator through one ``process_batch``
    call — amortizing scheduling and dispatch overhead across every
    member.  Punctuation never rides in a batch: markers flush the open
    batch and travel singly, so ordering relative to the tuples ahead of
    them is preserved.

    The aggregates come from whoever makes the run — a run kernel, or
    the transport appending runs whose aggregates it already has; only a
    plain list made into a run here is summed, at C level.  A run is
    never mutated once it is handed on (the transport's open batch grows
    only until its flush commits it): code that wants a different run
    makes a new one.
    """

    __slots__ = ("size_bytes", "traced")

    def __init__(self, tuples: Iterable[StreamTuple] = ()) -> None:
        super().__init__(tuples)
        self.size_bytes = sum(map(_SIZE_BYTES, self))
        self.traced = any(map(_TRACED, self))

    def __repr__(self) -> str:
        return f"TupleBatch(n={len(self)}, bytes={self.size_bytes})"


class _Origin:
    """Where a tuple was made: its creation time and trace flag, the two
    fields a derived copy keeps (any :class:`StreamTuple` is one too)."""

    __slots__ = ("created_at", "traced")

    def __init__(self, created_at: float, traced: bool) -> None:
        self.created_at = created_at
        self.traced = traced


_new_run = list.__new__
_new_tuple = object.__new__


def _assemble(values: Any, size_bytes: Any, origin: Any) -> Any:
    """Tuples from their fields, each ``values`` adopted and nothing
    estimated: every derived copy, and every tuple rebuilt from its wire
    form, is made here.

    Given one member (``values`` a dict, its ``size_bytes``, and the
    ``origin`` whose ``created_at`` and ``traced`` it keeps — the tuple
    it derives from, or an :class:`_Origin`), that tuple.  Given a run as
    columns (``values`` and ``size_bytes`` lists, ``origin`` an iterable,
    all in member order), the :class:`TupleBatch` of them, carrying its
    byte total and traced flag.
    """
    if type(values) is dict:
        tup = _new_tuple(StreamTuple)
        tup.values = values
        tup.created_at = origin.created_at
        tup.size_bytes = size_bytes
        tup.traced = origin.traced
        return tup
    run = _new_run(TupleBatch)
    run += map(_new_tuple, repeat(StreamTuple, len(values)))
    traced = False
    for tup, member, size, made in zip(run, values, size_bytes, origin):
        tup.values = member
        tup.created_at = made.created_at
        tup.size_bytes = size
        tup.traced = flag = made.traced
        if flag:
            traced = True
    run.size_bytes = sum(size_bytes)
    run.traced = traced
    return run


def make_run(
    items: Sequence[Any],
    created_at: float,
    sample: Optional[Callable[[], bool]] = None,
) -> TupleBatch:
    """A run of ``items``: each dict becomes a tuple made at ``created_at``,
    each tuple stays as it is, in order.

    A dict is copied and sized as the constructor sizes it.  ``sample``,
    when given, is asked once per dict, in order, whether that tuple is
    traced (trace sampling is decided at creation).  A list of tuples
    only becomes a run as it is, its aggregates summed at C level.
    """
    kinds = list(map(isinstance, items, repeat(StreamTuple)))
    if all(kinds):
        return TupleBatch(items)
    mixed = any(kinds)
    made = list(map(dict, compress(items, map(not_, kinds)) if mixed else items))
    sizes: List[int] = []
    add_size = sizes.append
    frame = StreamTuple.FRAME_OVERHEAD
    for values in made:
        size = frame
        for key, value in values.items():
            kind = type(value)
            if kind is float or kind is int:
                size += len(key) + 8
            elif kind is str:
                size += len(key) + len(value)
            else:
                size += len(key) + estimate_value_size(value)
        add_size(size)
    plain = _Origin(created_at, False)
    if sample is None:
        origins: Iterable[_Origin] = repeat(plain)
    else:
        traced = _Origin(created_at, True)
        origins = [traced if sample() else plain for _ in made]
    run = _assemble(made, sizes, origins)
    if not mixed:
        return run
    fresh = iter(run)
    return TupleBatch([item if kind else next(fresh) for item, kind in zip(items, kinds)])


def _with_value_columns(
    run: Sequence[StreamTuple], name: str, values: Iterable[Any]
) -> List[Any]:
    """The body of the set job: for each member of ``run``, in turn, its
    values with ``name`` set to the matching item of ``values``, and the
    size that copy reads — the member's, less what the value replaces or
    plus the name it adds, plus the new value's."""
    columns: List[Any] = []
    added = len(name)
    for tup, value in zip(run, values):
        old = tup.values
        size = tup.size_bytes
        if name in old:
            size -= estimate_value_size(old[name])
        else:
            size += added
        kind = type(value)
        if kind is int or kind is float:  # stamps and counts are ints
            size += 8
        elif kind is str:
            size += len(value)
        else:
            size += estimate_value_size(value)
        copy = old.copy()
        copy[name] = value
        columns += (copy, size)
    return columns


def with_value_run(run: Sequence[StreamTuple], name: str, values: Iterable[Any]) -> TupleBatch:
    """A copy of each member of ``run`` with attribute ``name`` set to the
    matching item of ``values``: :meth:`StreamTuple.with_value` over a run.

    One dict copy per member, and each copy reads the size a fresh tuple
    of its values would; creation time and trace flag are kept.
    """
    columns = _with_value_columns(run, name, values)
    return _assemble(columns[0::2], columns[1::2], run)


def _without_columns(run: Sequence[StreamTuple], name: str) -> List[Any]:
    """The body of the drop job: for each member of ``run`` that has
    ``name``, in turn, its values without it, the size that copy reads
    (the member's less exactly what the attribute added), and the member."""
    columns: List[Any] = []
    dropped = len(name)
    for tup in run:
        old = tup.values
        if name not in old:
            continue
        copy = old.copy()
        value = copy.pop(name)
        size = tup.size_bytes - dropped
        kind = type(value)
        if kind is float or kind is int:
            size -= 8
        elif kind is str:
            size -= len(value)
        else:
            size -= estimate_value_size(value)
        columns += (copy, size, tup)
    return columns


def without_run(run: Sequence[StreamTuple], name: str) -> TupleBatch:
    """Each member of ``run`` without attribute ``name``, in order; a
    member without it is itself: :meth:`StreamTuple.without` over a run.

    Each copy reads the size a fresh tuple of the remaining values would.
    """
    columns = _without_columns(run, name)
    stripped = _assemble(columns[0::3], columns[1::3], columns[2::3])
    if len(stripped) == len(run):
        return stripped
    fresh = iter(stripped)
    return TupleBatch([next(fresh) if name in tup.values else tup for tup in run])


def _hashable(value: Any) -> Any:
    """A hashable stand-in for ``value``, equal-hashing for equal values.

    Hashable values stand for themselves; the unhashable builtins become
    their hashable counterparts (a list its tuple, a dict the frozenset of
    its items, a set its frozenset, a bytearray its bytes); any other
    unhashable value stands in as ``None``.
    """
    if isinstance(value, (list, tuple)):
        return tuple(map(_hashable, value))
    if isinstance(value, dict):
        return frozenset((k, _hashable(v)) for k, v in value.items())
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    if isinstance(value, bytearray):
        return bytes(value)
    try:
        hash(value)
    except TypeError:
        return None
    return value


def to_wire_form(item: Any) -> Any:
    """A wire unit as plain data: what replaying it needs, no tuple objects.

    A :class:`StreamTuple` becomes the tuple ``(values, created_at,
    size_bytes, traced)``; a :class:`TupleBatch` one flat list of those
    four fields per member, in order, packed at C level; punctuation is
    already plain data and stays as it is.  Values dicts are shared, not
    copied.  The form holds one container per unit, so a retained unit
    costs the cyclic collector one object instead of a batch and every
    member.  :func:`from_wire_form` rebuilds an equal unit.
    """
    if isinstance(item, TupleBatch):
        return list(chain.from_iterable(map(_FIELDS, item)))
    if isinstance(item, StreamTuple):
        return _FIELDS(item)
    return item


def from_wire_form(form: Any) -> Any:
    """The unit :func:`to_wire_form` packed: same members, fields and order."""
    if type(form) is list:
        origins = map(_Origin, form[1::4], form[3::4])
        return _assemble(form[0::4], form[2::4], origins)
    if type(form) is tuple:
        values, created_at, size_bytes, traced = form
        return _assemble(values, size_bytes, _Origin(created_at, traced))
    return form


def estimate_value_size(value: Any) -> int:
    """Cheap, deterministic byte estimate of one attribute/state value.

    The single accounting scheme shared by tuple wire sizes
    (``nTupleBytesProcessed``) and the operator-state footprint gauges
    (``stateBytes``) — keeping both on one ruler means thresholds
    calibrated against transport metrics transfer to state metrics.

    Exact ``float`` / ``int`` / ``str`` — nearly every attribute value —
    are answered by type identity; everything else (``bool`` and
    subclasses included) walks the ``isinstance`` ladder, which gives the
    same value for those three too.
    """
    kind = type(value)
    if kind is float or kind is int:
        return 8
    if kind is str:
        return len(value)
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, (list, tuple, set, frozenset)):
        return 8 + sum(estimate_value_size(v) for v in value)
    if isinstance(value, dict):
        return 8 + sum(
            estimate_value_size(k) + estimate_value_size(v)
            for k, v in value.items()
        )
    size_bytes = getattr(value, "size_bytes", None)  # nested StreamTuple
    if isinstance(size_bytes, int):
        return size_bytes
    return 16
