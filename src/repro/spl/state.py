"""Partitioned operator state: the StateStore layer.

PR 1's elastic parallel regions remap ``hash(key) % width`` on rescale, so
keyed operator state held in ad-hoc instance attributes silently restarts
on its new channel.  This module makes operator state *explicit* so every
adaptation routine — live re-parallelization, PE restart rehydration,
periodic checkpointing, state-aware scaling policies — can reason about it:

* :class:`KeyedState` — a named map ``partition key -> value``.  Keys are
  the unit of migration: when a parallel region changes width, the elastic
  controller extracts the entries whose ``hash(key) % width'`` owner
  changed and installs them on their new channel (Fries-style: state moves
  transactionally with the routing change).
* :class:`GlobalState` — a named single value (often a list or a window
  object) that belongs to the operator instance as a whole.  Global state
  cannot be re-partitioned; on a scale-in the doomed channels' global
  state is dropped (and counted) — unless the region declares a
  ``global_merge`` hook, in which case it is folded into a survivor.
* :class:`StateStore` — the per-operator collection of named states,
  reachable as ``self.state`` from any :class:`~repro.spl.operators.Operator`
  (``state.keyed(name)`` / ``state.global_(name)``).  It snapshots and
  restores as a plain dict so PE restarts can optionally rehydrate.

Handles stay valid across ``restore()``/``install()``: both mutate the
named state objects in place, so an operator may cache
``self._counts = self.state.keyed("counts")`` in ``__init__`` and never
notice that a migration or a rehydration swapped the contents underneath.

Keyed state in a partitioned parallel region must be keyed by the region's
``partition_by`` attribute value — that is the contract that makes
ownership computable as ``hash(key) % width`` on both the splitter and the
migration planner.

**Dirty tracking.**  Every keyed state tracks which keys were touched
since the last :meth:`KeyedState.mark_clean` so the checkpoint subsystem
(:mod:`repro.checkpoint`) can capture *incremental* snapshots: a hot loop
that keeps hammering a few keys never forces the cold partitions to be
re-serialized.  Handing out a mutable value (``get`` on a present key,
``setdefault``) counts as a potential write — operators routinely mutate
entries in place — so the tracking errs on the safe side.
"""

from __future__ import annotations

import copy
import heapq
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

#: one accounting scheme for tuple wire sizes and stateBytes gauges
from repro.spl.tuples import estimate_value_size  # noqa: F401  (re-export)


class KeyedState:
    """A named keyed state: ``partition key -> value``.

    The value may be anything copyable (a count, a list of tuples, a
    window object...).  :meth:`extract_partition` / :meth:`install` are
    the migration primitives used by :mod:`repro.elastic`, and
    :meth:`dirty_snapshot` / :meth:`mark_clean` are the incremental
    checkpoint primitives used by :mod:`repro.checkpoint`.

    ``version`` increments on every *external* bulk mutation (install,
    restore, extract, clear) — operators that maintain in-memory indexes
    over the state (eviction heaps, counts) compare it to know when a
    migration or rehydration changed the contents underneath them.
    """

    def __init__(self, name: str) -> None:
        """Create an empty keyed state.

        Args:
            name: State name, unique within the owning :class:`StateStore`.
        """
        self.name = name
        self._data: Dict[Any, Any] = {}
        #: bumped by install/restore/extract_partition/clear
        self.version = 0
        #: keys touched since mark_clean, as an insertion-ordered set (hash-seed free)
        self._dirty: Dict[Any, None] = {}
        #: keys removed since mark_clean (checkpoint deltas need deletions)
        self._dropped: Set[Any] = set()
        #: True until the first mark_clean, and again after any bulk
        #: mutation that invalidates per-key deltas (restore, clear)
        self._full_dirty = True

    # -- mapping access --------------------------------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        """Return the value stored for ``key``.

        A present key is marked dirty: the returned value is the live
        object and callers routinely mutate it in place.

        Args:
            key: Partition key to look up.
            default: Returned (and *not* stored) when the key is absent.

        Returns:
            The stored value, or ``default`` when the key is absent.
        """
        if key in self._data:
            self._touch(key)
        return self._data.get(key, default)

    def put(self, key: Any, value: Any) -> None:
        """Store ``value`` under ``key``, overwriting any previous value.

        Args:
            key: Partition key to write.
            value: Value to store.
        """
        self._touch(key)
        self._data[key] = value

    def setdefault(self, key: Any, factory: Callable[[], Any]) -> Any:
        """Return the value for ``key``, creating it when absent.

        Args:
            key: Partition key to look up or create.
            factory: Zero-argument callable producing the initial value.

        Returns:
            The (possibly just created) live value for ``key``.
        """
        self._touch(key)
        if key not in self._data:
            self._data[key] = factory()
        return self._data[key]

    def update(self, key: Any, fn: Callable[[Any], Any], default: Any = None) -> Any:
        """Apply ``fn`` to the current value (or ``default``); store the result.

        Args:
            key: Partition key to update.
            fn: Mapping from the current value to the new value.
            default: Input to ``fn`` when the key is absent.

        Returns:
            The newly stored value.
        """
        self._touch(key)
        value = fn(self._data.get(key, default))
        self._data[key] = value
        return value

    def count(self, keys: Iterable[Any]) -> List[Any]:
        """Add one to each key's value (an absent key's is 0), in order.

        The run form of ``update(key, lambda n: n + 1, 0)``: one call for
        a whole run of keys, whose dirty-key bookkeeping ends exactly as
        that many :meth:`update` calls leave it.

        Args:
            keys: Partition keys, one per occurrence, in order.

        Returns:
            The value stored for each key after its own step, in order.
        """
        data, dirty, dropped = self._data, self._dirty, self._dropped
        counts = []
        for key in keys:
            dirty[key] = None
            if dropped:
                dropped.discard(key)
            value = data.get(key, 0) + 1
            data[key] = value
            counts.append(value)
        return counts

    def delete(self, key: Any) -> bool:
        """Remove ``key`` from the state.

        Args:
            key: Partition key to remove.

        Returns:
            True when the key was present.
        """
        removed = self._data.pop(key, _MISSING) is not _MISSING
        if removed:
            self._drop(key)
        return removed

    def __contains__(self, key: Any) -> bool:
        """Return True when ``key`` is stored (no dirty marking)."""
        return key in self._data

    def __len__(self) -> int:
        """Return the number of stored keys."""
        return len(self._data)

    def keys(self) -> List[Any]:
        """Return a list of all stored keys (a read-only view by contract)."""
        return list(self._data)

    def items(self) -> List[Tuple[Any, Any]]:
        """Return ``(key, value)`` pairs (a read-only view by contract).

        Mutating values obtained through this view is not dirty-tracked;
        use :meth:`get` / :meth:`put` / :meth:`update` for writes.
        """
        return list(self._data.items())

    def clear(self) -> None:
        """Drop every entry and invalidate per-key checkpoint deltas."""
        self._data.clear()
        self.version += 1
        self._invalidate_deltas()

    # -- dirty tracking (repro.checkpoint) --------------------------------------

    def _touch(self, key: Any) -> None:
        self._dirty[key] = None
        if self._dropped:
            self._dropped.discard(key)

    def _drop(self, key: Any) -> None:
        self._dirty.pop(key, None)
        self._dropped.add(key)

    def _invalidate_deltas(self) -> None:
        self._full_dirty = True
        self._dirty.clear()
        self._dropped.clear()

    def dirty_snapshot(self) -> Tuple[bool, Dict[Any, Any], Set[Any]]:
        """Capture the changes since the last :meth:`mark_clean`.

        Returns:
            A ``(full, changed, dropped)`` triple.  When ``full`` is True
            the per-key delta is unavailable (first capture, or a bulk
            restore/clear happened) and ``changed`` holds a deep copy of
            the *entire* state; otherwise ``changed`` holds deep copies of
            only the dirty keys' values (an immutable scalar is its own
            copy) and ``dropped`` the keys removed since the last clean
            point.
        """
        data = self._data
        if self._full_dirty:
            return True, copy.deepcopy(data), set()
        deepcopy = copy.deepcopy
        changed = {}
        for key in self._dirty:
            value = data.get(key, _MISSING)
            if value is not _MISSING:
                changed[key] = value if type(value) in _SCALARS else deepcopy(value)
        return False, changed, set(self._dropped)

    def mark_clean(self) -> None:
        """Reset dirty tracking after a successfully committed capture."""
        self._full_dirty = False
        self._dirty.clear()
        self._dropped.clear()

    @property
    def dirty_count(self) -> int:
        """Number of keys currently tracked as changed or dropped."""
        if self._full_dirty:
            return len(self._data)
        return len(self._dirty) + len(self._dropped)

    # -- migration primitives ---------------------------------------------------

    def extract_partition(self, predicate: Callable[[Any], bool]) -> Dict[Any, Any]:
        """Remove and return every entry whose key satisfies ``predicate``.

        The extracted dict is the *live* values (not copies): the caller
        owns them exclusively from this point on, which is exactly the
        transactional hand-off a migration needs.

        Args:
            predicate: Key filter selecting the entries to extract.

        Returns:
            The removed ``key -> value`` entries.
        """
        moving = [key for key in self._data if predicate(key)]
        if moving:
            self.version += 1
        extracted = {key: self._data.pop(key) for key in moving}
        for key in extracted:
            self._drop(key)
        return extracted

    def install(
        self,
        entries: Dict[Any, Any],
        merge_fn: Optional[Callable[[Any, Any], Any]] = None,
    ) -> None:
        """Install migrated entries into this state.

        Args:
            entries: ``key -> value`` entries to take ownership of.
            merge_fn: Optional collision resolver ``(existing, incoming) ->
                merged``; by default the incoming value wins (collisions
                only occur when partitions from several source channels
                merge onto one).
        """
        if entries:
            self.version += 1
        for key, value in entries.items():
            self._touch(key)
            if merge_fn is not None and key in self._data:
                self._data[key] = merge_fn(self._data[key], value)
            else:
                self._data[key] = value

    # -- snapshot ---------------------------------------------------------------

    def snapshot(self) -> Dict[Any, Any]:
        """Return a detached deep copy of the whole ``key -> value`` map."""
        return copy.deepcopy(self._data)

    def restore(self, payload: Dict[Any, Any]) -> None:
        """Replace the contents with a deep copy of ``payload``.

        Args:
            payload: A map previously produced by :meth:`snapshot` (or an
                equivalent plain dict).
        """
        self._data = copy.deepcopy(payload)
        self.version += 1
        self._invalidate_deltas()

    def size_bytes(self) -> int:
        """Return the estimated byte footprint of all keys and values."""
        return sum(
            estimate_value_size(k) + estimate_value_size(v)
            for k, v in self._data.items()
        )

    def __repr__(self) -> str:
        """Return a short debugging representation."""
        return f"KeyedState({self.name!r}, {len(self._data)} keys)"


_MISSING = object()

#: exact types whose values cannot change in place: a snapshot may share them
_SCALARS = frozenset({int, float, str, bool, type(None)})


class KeyedSeqIndex:
    """Oldest-first in-memory index over a :class:`KeyedState` whose
    entries embed their arrival sequence numbers.

    The authoritative data — the seqs inside the entries — migrates with
    the keys; this index is disposable accel structure.  It rebuilds
    itself from the store (via ``seqs_of``) whenever the store's
    ``version`` shows an external mutation (migration install/extract,
    rehydration), and uses lazy deletion: :meth:`pop_oldest` may return a
    ``(seq, key)`` that is no longer live, so callers must verify the
    entry still carries that seq before acting on it.
    """

    def __init__(
        self, keyed: KeyedState, seqs_of: Callable[[Any], Iterable[int]]
    ) -> None:
        """Build an index over ``keyed``.

        Args:
            keyed: The keyed state to index.
            seqs_of: Maps one stored entry to the arrival seqs it contains.
        """
        self._keyed = keyed
        self._seqs_of = seqs_of
        self._heap: List[Tuple[int, int, Any]] = []
        self._synced_version = -1
        self._tiebreak = 0  #: keeps heap comparisons off (uncomparable) keys

    def _resync(self) -> None:
        if self._synced_version == self._keyed.version:
            return
        heap: List[Tuple[int, int, Any]] = []
        for key, entry in self._keyed.items():
            for seq in self._seqs_of(entry):
                self._tiebreak += 1
                heap.append((seq, self._tiebreak, key))
        heapq.heapify(heap)
        self._heap = heap
        self._synced_version = self._keyed.version

    def push(self, seq: int, key: Any) -> None:
        """Record that ``key`` gained an entry with arrival seq ``seq``.

        Args:
            seq: Arrival sequence number.
            key: Partition key the entry lives under.
        """
        self._resync()
        self._tiebreak += 1
        heapq.heappush(self._heap, (seq, self._tiebreak, key))

    def pop_oldest(self) -> Optional[Tuple[int, Any]]:
        """Pop the lowest ``(seq, key)`` in the index.

        Returns:
            The oldest indexed pair, or None when the index is exhausted.
            The pair may be stale (lazy deletion) — callers must verify.
        """
        self._resync()
        if not self._heap:
            return None
        seq, _tiebreak, key = heapq.heappop(self._heap)
        return seq, key


class GlobalState:
    """A named, non-partitioned value owned by one operator instance.

    Global values are handed out live (``.value``) and mutated in place,
    so checkpoints always re-capture them in full — there is no per-key
    delta to track.
    """

    def __init__(self, name: str, default: Optional[Callable[[], Any]] = None) -> None:
        """Create a global state.

        Args:
            name: State name, unique within the owning :class:`StateStore`.
            default: Optional zero-argument factory for the initial value.
        """
        self.name = name
        self._value: Any = default() if default is not None else None

    @property
    def value(self) -> Any:
        """The live stored value (mutable in place)."""
        return self._value

    @value.setter
    def value(self, new_value: Any) -> None:
        """Replace the stored value (property form of :meth:`set`)."""
        self._value = new_value

    def get(self, default: Any = None) -> Any:
        """Return the stored value.

        Args:
            default: Returned when the stored value is None.

        Returns:
            The stored value, or ``default`` when unset.
        """
        return self._value if self._value is not None else default

    def set(self, value: Any) -> None:
        """Replace the stored value.

        Args:
            value: The new value.
        """
        self._value = value

    def snapshot(self) -> Any:
        """Return a detached deep copy of the stored value."""
        return copy.deepcopy(self._value)

    def restore(self, payload: Any) -> None:
        """Replace the stored value with a deep copy of ``payload``.

        Args:
            payload: A value previously produced by :meth:`snapshot`.
        """
        self._value = copy.deepcopy(payload)

    def size_bytes(self) -> int:
        """Return the estimated byte footprint of the stored value."""
        return estimate_value_size(self._value)

    def __repr__(self) -> str:
        """Return a short debugging representation."""
        return f"GlobalState({self.name!r})"


class StateStore:
    """All named states of one operator instance.

    Created by the :class:`~repro.spl.operators.OperatorContext`; operators
    reach it as ``self.state``.  ``snapshot()`` returns a plain dict
    (deep-copied, safe to hold across mutations); ``restore()`` re-installs
    a snapshot *in place*, so handles returned by :meth:`keyed` /
    :meth:`global_` before the restore stay valid.
    """

    def __init__(self) -> None:
        """Create an empty store."""
        self._keyed: Dict[str, KeyedState] = {}
        self._global: Dict[str, GlobalState] = {}

    # -- named state access ------------------------------------------------------

    def keyed(self, name: str) -> KeyedState:
        """Return the named keyed state, creating it on first use.

        Args:
            name: State name.

        Returns:
            The (stable) :class:`KeyedState` handle.
        """
        state = self._keyed.get(name)
        if state is None:
            state = KeyedState(name)
            self._keyed[name] = state
        return state

    def global_(self, name: str, default: Optional[Callable[[], Any]] = None) -> GlobalState:
        """Return the named global state, creating it on first use.

        Args:
            name: State name.
            default: Optional initial-value factory, used only on creation.

        Returns:
            The (stable) :class:`GlobalState` handle.
        """
        state = self._global.get(name)
        if state is None:
            state = GlobalState(name, default)
            self._global[name] = state
        return state

    @property
    def in_use(self) -> bool:
        """True when at least one named state has been declared."""
        return bool(self._keyed or self._global)

    def keyed_states(self) -> Dict[str, KeyedState]:
        """Return a name -> :class:`KeyedState` map (copy of the registry)."""
        return dict(self._keyed)

    def global_states(self) -> Dict[str, GlobalState]:
        """Return a name -> :class:`GlobalState` map (copy of the registry)."""
        return dict(self._global)

    def __iter__(self) -> Iterator[str]:
        """Yield every declared state name (keyed first, then global)."""
        yield from self._keyed
        yield from self._global

    # -- accounting --------------------------------------------------------------

    def n_keys(self) -> int:
        """Return the total keyed entries across all named keyed states."""
        return sum(len(state) for state in self._keyed.values())

    def size_bytes(self) -> int:
        """Return the estimated byte footprint of every named state."""
        return sum(s.size_bytes() for s in self._keyed.values()) + sum(
            s.size_bytes() for s in self._global.values()
        )

    # -- snapshot / restore -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Capture every named state as one detached payload.

        Returns:
            ``{"keyed": {name: map}, "global": {name: value}}`` with all
            contents deep-copied.
        """
        return {
            "keyed": {name: s.snapshot() for name, s in self._keyed.items()},
            "global": {name: s.snapshot() for name, s in self._global.items()},
        }

    def restore(self, payload: Dict[str, Any]) -> None:
        """Re-install a :meth:`snapshot` payload in place.

        Args:
            payload: A dict previously produced by :meth:`snapshot`.
        """
        for name, data in payload.get("keyed", {}).items():
            self.keyed(name).restore(data)
        for name, data in payload.get("global", {}).items():
            self.global_(name).restore(data)

    def clear(self) -> None:
        """Empty every named state (handles stay valid)."""
        for state in self._keyed.values():
            state.clear()
        for state in self._global.values():
            state._value = None

    def __repr__(self) -> str:
        """Return a short debugging representation."""
        return (
            f"StateStore(keyed={sorted(self._keyed)}, "
            f"global={sorted(self._global)})"
        )
