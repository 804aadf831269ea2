"""Stream data items: tuples and punctuations.

A :class:`StreamTuple` is an immutable-ish record of attribute values plus
bookkeeping (creation time, an estimated wire size used for the PE byte
metrics).  :class:`Punctuation` markers flow through the same channels as
tuples; ``FINAL`` punctuation signals that a stream will never carry tuples
again, and its propagation through the graph is managed by the runtime
(Sec. 5.3 of the paper relies on final punctuation to garbage-collect C3
applications).
"""

from __future__ import annotations

import enum
from typing import Any, Iterator, List, Mapping, Optional


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
    length.  The constructor, :meth:`with_value` and :meth:`without` size
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
        """A copy with one attribute set: :meth:`with_values` for one name.

        One dict copy and one object, with no keyword dict to build and
        unpack — the form the runtime's own stamps and counts use.
        """
        values = self.values
        size = self.size_bytes
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
        derived = values.copy()
        derived[name] = value
        return _assemble(derived, self.created_at, size, self.traced)

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
            size += estimate_value_size(value)
        return _assemble({**values, **updates}, self.created_at, size, self.traced)

    def without(self, name: str) -> "StreamTuple":
        """A copy without one attribute (this tuple itself if it has none).

        The size drops by exactly what the attribute added, so the copy
        reads the size a fresh tuple of the remaining values would.
        """
        values = self.values
        if name not in values:
            return self
        kept = values.copy()
        value = kept.pop(name)
        size = self.size_bytes - len(name)
        kind = type(value)
        if kind is float or kind is int:
            size -= 8
        elif kind is str:
            size -= len(value)
        else:
            size -= estimate_value_size(value)
        return _assemble(kept, self.created_at, size, self.traced)

    def project(self, *names: str) -> "StreamTuple":
        """Return a copy containing only the named attributes."""
        values = self.values
        kept = {n: values[n] for n in names}
        dropped = sum(
            len(name) + estimate_value_size(value)
            for name, value in values.items()
            if name not in kept
        )
        return _assemble(kept, self.created_at, self.size_bytes - dropped, self.traced)

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


class TupleBatch:
    """A contiguous run of tuples travelling as one unit of work.

    When transport batching is on (``SystemConfig.batch_max_size > 1``)
    the transport coalesces same-flow tuples into one of these, schedules
    a *single* kernel event for the whole run, and the PE hands the run
    to the destination operator through one ``process_batch`` call —
    amortizing scheduling and dispatch overhead across every member.
    Punctuation never rides in a batch: markers flush the open batch and
    travel singly, so ordering relative to the tuples ahead of them is
    preserved.

    Aggregates (total wire size, whether any member is traced) are
    computed once at construction; the member list is owned by the batch
    after construction and must not be mutated.
    """

    __slots__ = ("tuples", "size_bytes", "traced")

    def __init__(self, tuples: List[StreamTuple]) -> None:
        self.tuples = tuples
        self.size_bytes = sum(t.size_bytes for t in tuples)
        self.traced = any(t.traced for t in tuples)

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self.tuples)

    def __repr__(self) -> str:
        return f"TupleBatch(n={len(self.tuples)}, bytes={self.size_bytes})"


def _assemble(
    values: dict, created_at: float, size_bytes: int, traced: bool
) -> StreamTuple:
    """A tuple from its four fields, ``values`` adopted and nothing estimated:
    every derived copy, and every tuple rebuilt from its wire form."""
    tup = StreamTuple.__new__(StreamTuple)
    tup.values = values
    tup.created_at = created_at
    tup.size_bytes = size_bytes
    tup.traced = traced
    return tup


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
    four fields per member, in order; punctuation is already plain data
    and stays as it is.  Values dicts are shared, not copied.  The form
    holds one container per unit, so a retained unit costs the cyclic
    collector one object instead of a batch, its list and every member.
    :func:`from_wire_form` rebuilds an equal unit.
    """
    if isinstance(item, TupleBatch):
        form: List[Any] = []
        for tup in item.tuples:
            form += (tup.values, tup.created_at, tup.size_bytes, tup.traced)
        return form
    if isinstance(item, StreamTuple):
        return (item.values, item.created_at, item.size_bytes, item.traced)
    return item


def from_wire_form(form: Any) -> Any:
    """The unit :func:`to_wire_form` packed: same members, fields and order."""
    if type(form) is list:
        return TupleBatch(
            [_assemble(*form[i : i + 4]) for i in range(0, len(form), 4)]
        )
    if type(form) is tuple:
        return _assemble(*form)
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
