"""Built-in operator library.

These are the stock operators an SPL developer composes applications from:
sources, relational-style transforms (Filter, Functor, Aggregate), routing
(Split, Merge), sinks, and the dynamic-composition pair Import/Export
(Sec. 2.1: applications import and export streams to/from each other and
the runtime connects them automatically while both are executing).

Behavioural parameters are plain callables (predicates, mapping functions,
routers) so applications stay concise; operators that the paper's use cases
need with richer semantics (sentiment classification, trend calculation...)
live in :mod:`repro.apps` as Operator subclasses.
"""

from __future__ import annotations

import random as _random
import zlib
from itertools import repeat
from operator import attrgetter, methodcaller
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import GraphError
from repro.spl.metrics import MetricKind
from repro.spl.operators import Operator, OperatorContext, Submittable
from repro.spl.state import KeyedSeqIndex
from repro.spl.tuples import (
    Punctuation,
    StreamTuple,
    TupleBatch,
    with_value_run,
    without_run,
)


class Source(Operator):
    """Base class for operators that generate tuples on a timer.

    Parameters
    ----------
    period:
        Seconds between generation ticks (default 1.0).
    limit:
        Stop (and emit FINAL punctuation) after this many tuples
        (default: unbounded).
    initial_delay:
        Seconds before the first tick (default: one period).
    """

    N_INPUTS = 0
    N_OUTPUTS = 1

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self.period = float(self.param("period", 1.0))
        self.limit: Optional[int] = self.param("limit", None)
        self.initial_delay = float(self.param("initial_delay", self.period))
        self._emitted = 0
        self._stopped = False
        #: bound once: a bound method per tick would be one more GC-tracked
        #: allocation on the tick path
        self._next_tick = self._tick

    def on_initialize(self) -> None:
        self.ctx.schedule(self.initial_delay, self._next_tick)

    def generate(self) -> List[Dict[str, Any]]:
        """Produce the values for one tick (override in subclasses)."""
        return []

    def _tick(self) -> None:
        if self._stopped:
            return
        if self.ctx.submit_batch_fn is not None:
            # the PE wires a batch route only when the transport batches:
            # the tick's generation, cut at ``limit``, leaves as one run
            burst = list(self.generate())
            if self.limit is not None:
                del burst[max(self.limit - self._emitted, 0):]
            self.submit_batch(burst)
            self._emitted += len(burst)
        else:
            for values in self.generate():
                if self.limit is not None and self._emitted >= self.limit:
                    break
                self.submit(values)
                self._emitted += 1
        if self.limit is not None and self._emitted >= self.limit:
            self._stop_and_finalize()
            return
        self.ctx.schedule(self.period, self._next_tick)

    def _stop_and_finalize(self) -> None:
        if not self._stopped:
            self._stopped = True
            self.submit_final()

    @property
    def emitted(self) -> int:
        return self._emitted


class Beacon(Source):
    """Emits copies of a template dict, with an iteration counter.

    Parameters: ``values`` (template dict), ``per_tick`` (tuples per tick),
    plus the :class:`Source` timing parameters.  Each tuple gets an ``iter``
    attribute with the global emission index.
    """

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self.values: Mapping[str, Any] = self.param("values", {})
        self.per_tick = int(self.param("per_tick", 1))

    def generate(self) -> List[Dict[str, Any]]:
        batch = []
        for offset in range(self.per_tick):
            values = dict(self.values)
            values["iter"] = self._emitted + offset
            batch.append(values)
        return batch


class CallbackSource(Source):
    """Emits whatever a user callback produces each tick.

    Parameter ``generator`` is a callable ``(now: float, count: int) ->
    list[dict]`` where ``count`` is the number of tuples emitted so far.
    Alternatively, ``generator_factory`` is a zero-argument callable
    invoked once per operator *instance* — use it when each job (e.g.
    each replica of an application) must get its own independent,
    identically-seeded workload.  This is the workhorse for injecting
    synthetic workloads.
    """

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        factory = self.param("generator_factory", None)
        if factory is not None:
            self.generator: Callable[[float, int], List[Dict[str, Any]]] = factory()
        else:
            self.generator = self.param("generator")

    def generate(self) -> List[Dict[str, Any]]:
        return self.generator(self.ctx.now(), self._emitted)


class Filter(Operator):
    """Forwards tuples satisfying ``predicate``; counts the discarded ones.

    The ``nDiscarded`` custom metric is the paper's Sec. 2.1 example of a
    custom metric ("a filter operator may maintain the number of tuples it
    discards").
    """

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self.predicate: Callable[[StreamTuple], bool] = self.param("predicate")
        self.n_discarded = self.create_custom_metric(
            "nDiscarded", MetricKind.COUNTER, "tuples dropped by the filter"
        )

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        if self.predicate(tup):
            self.submit(tup)
        else:
            self.n_discarded.increment()

    def process_batch(self, tuples: List[StreamTuple], port: int) -> None:
        """Vectorized pass: one predicate sweep, one batched re-emit."""
        kept = TupleBatch(filter(self.predicate, tuples))
        dropped = len(tuples) - len(kept)
        if dropped:
            self.n_discarded.increment(dropped)
        if kept:
            self.submit_batch(kept)

    def on_punct(self, punct: Punctuation, port: int) -> None:
        if punct is Punctuation.WINDOW:
            self.submit_punct(punct)

    def on_control(self, command: str, payload: Mapping[str, Any]) -> None:
        """A dynamic filter: ``setPredicate`` swaps the condition at runtime."""
        if command == "setPredicate":
            self.predicate = payload["predicate"]


class Functor(Operator):
    """Per-tuple map / flat-map / filter-map.

    Parameter ``fn`` is ``(tup) -> dict | StreamTuple | list | None``;
    ``None`` drops the tuple, a list emits several.
    """

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self.fn: Callable[[StreamTuple], Any] = self.param("fn")

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        result = self.fn(tup)
        if result is None:
            return
        if isinstance(result, (list, tuple)):
            for item in result:
                self.submit(item)
        else:
            self.submit(result)

    def process_batch(self, tuples: List[StreamTuple], port: int) -> None:
        """Vectorized pass: map the whole run, re-emit it as one batch (a
        run as it is when every result is a tuple)."""
        results = list(map(self.fn, tuples))
        if all(map(isinstance, results, repeat(StreamTuple))):
            out: Union[TupleBatch, List[Submittable]] = TupleBatch(results)
        else:
            out = []
            for result in results:
                if result is None:
                    continue
                if isinstance(result, (list, tuple)):
                    out.extend(result)
                else:
                    out.append(result)
        if out:
            self.submit_batch(out)

    def on_punct(self, punct: Punctuation, port: int) -> None:
        if punct is Punctuation.WINDOW:
            self.submit_punct(punct)


class Projection(Operator):
    """Keeps only the named attributes of each tuple.

    Parameter ``attributes``: iterable of attribute names to retain.
    Together with :class:`Filter` and :class:`Functor` this completes the
    stateless relational trio whose chains dominate hot paths — all three
    carry vectorized ``process_batch`` overrides, so a fused
    Functor/Filter/Projection chain moves whole batches end to end.
    """

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self.attributes: Tuple[str, ...] = tuple(self.param("attributes"))

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        self.submit(tup.project(*self.attributes))

    def process_batch(self, tuples: List[StreamTuple], port: int) -> None:
        """Vectorized pass: project the whole run, re-emit it as one batch."""
        attrs = self.attributes
        self.submit_batch(TupleBatch([tup.project(*attrs) for tup in tuples]))

    def on_punct(self, punct: Punctuation, port: int) -> None:
        if punct is Punctuation.WINDOW:
            self.submit_punct(punct)


class Split(Operator):
    """Routes each tuple to one or more output ports.

    Parameter ``router``: ``(tup) -> int | list[int]``.  ``n_outputs`` sets
    the port count.  The input queue length is visible through the built-in
    ``queueSize`` metric — the metric the paper's Fig. 5 subscribes to for
    Split and Merge operators.
    """

    N_OUTPUTS = 2

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        default_router = lambda tup: tup.get("iter", 0) % self.n_outputs  # noqa: E731
        self.router: Callable[[StreamTuple], Union[int, List[int]]] = self.param(
            "router", default_router
        )

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        target = self.router(tup)
        if isinstance(target, int):
            targets: List[int] = [target]
        else:
            targets = list(target)
        for out_port in targets:
            self.submit(tup, port=out_port)

    def process_batch(self, tuples: List[StreamTuple], port: int) -> None:
        """Vectorized pass: one routing sweep into per-port sub-batches."""
        router = self.router
        by_port: Dict[int, List[StreamTuple]] = {}
        for tup in tuples:
            target = router(tup)
            if isinstance(target, int):
                by_port.setdefault(target, []).append(tup)
            else:
                for out_port in target:
                    by_port.setdefault(out_port, []).append(tup)
        for out_port in sorted(by_port):
            self.submit_batch(TupleBatch(by_port[out_port]), port=out_port)

    def on_punct(self, punct: Punctuation, port: int) -> None:
        if punct is Punctuation.WINDOW:
            for out_port in range(self.n_outputs):
                self.submit_punct(punct, port=out_port)


class Merge(Operator):
    """Funnels every input port into output port 0 (arrival order)."""

    N_INPUTS = 2

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        self.submit(tup)

    def process_batch(self, tuples: List[StreamTuple], port: int) -> None:
        """Pass-through: the whole run survives the funnel as one batch."""
        self.submit_batch(tuples)

    def on_punct(self, punct: Punctuation, port: int) -> None:
        # WINDOW puncts are not meaningful across a merge; FINAL handling
        # (wait for all ports) is done by the base class.
        return


class Join(Operator):
    """Windowed equi-join of two input streams.

    Keeps a sliding count window (``window`` tuples, default 100) per
    input port; a tuple arriving on one port is matched against the other
    port's window on the ``key`` attribute, emitting one merged tuple per
    match (left values win on attribute clashes, the right side is
    prefixed with ``right_prefix`` when ``prefix_right=True``).

    The windows live in the operator's :class:`~repro.spl.state.StateStore`
    partitioned by the join key — entries carry their arrival sequence, so
    inside a parallel region annotated with ``partition_by=key`` the
    per-key match candidates *and* their eviction bookkeeping migrate with
    the key on a rescale (the window bound stays exact on both channels).
    """

    N_INPUTS = 2
    STATEFUL = True

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self.key: str = self.param("key")
        self.window = int(self.param("window", 100))
        if self.window <= 0:
            raise GraphError(f"{ctx.full_name}: Join window must be positive")
        self.prefix_right = bool(self.param("prefix_right", False))
        #: per port: join-key -> [[arrival seq, tuple], ...].  The arrival
        #: seq lives *inside* the keyed entry so eviction bookkeeping
        #: migrates together with the entries it orders (an external order
        #: list would be left behind by a partition move, leaking tuples
        #: past the window bound on the destination channel forever).
        self._by_key = (self.state.keyed("w0"), self.state.keyed("w1"))
        self._seq = (
            self.state.global_("seq0", default=int),
            self.state.global_("seq1", default=int),
        )
        #: in-memory eviction accel per port (rebuilds itself after a
        #: migration or rehydration mutates the keyed store underneath);
        #: keeps the per-tuple path O(log window) while the authoritative
        #: seqs stay inside the migratable entries
        self._index = tuple(
            KeyedSeqIndex(keyed, lambda bucket: (entry[0] for entry in bucket))
            for keyed in self._by_key
        )
        self._entry_count = [0, 0]
        self._count_version = [-1, -1]
        self.n_matches = self.create_custom_metric(
            "nMatches", MetricKind.COUNTER, "joined tuple pairs emitted"
        )

    def _resync_count(self, port: int) -> None:
        """Refresh the entry count — and the arrival-seq floor — after a
        migration or rehydration mutated the keyed store.

        The seq counter is channel-local (global state, not migrated), so
        migrated entries can carry seqs *above* the local counter.  New
        appends must stay the bucket maximum or the seq-sorted-bucket
        invariant breaks and eviction misclassifies live index entries as
        stale, leaking entries past the window bound forever.
        """
        keyed = self._by_key[port]
        if self._count_version[port] != keyed.version:
            count = 0
            max_seq = -1
            for _key, bucket in keyed.items():
                count += len(bucket)
                if bucket and bucket[-1][0] > max_seq:
                    max_seq = bucket[-1][0]
            self._entry_count[port] = count
            if self._seq[port].get(0) <= max_seq:
                self._seq[port].set(max_seq + 1)
            self._count_version[port] = keyed.version

    def _evict_to_window(self, port: int) -> None:
        """Drop oldest-arrival entries until the port holds <= window.

        After a migration merges partitions from several source channels,
        seqs from different channels interleave only approximately — the
        window *bound* stays exact, the eviction order is best-effort
        FIFO.
        """
        keyed = self._by_key[port]
        while self._entry_count[port] > self.window:
            popped = self._index[port].pop_oldest()
            if popped is None:
                break
            seq, key_value = popped
            bucket = keyed.get(key_value)
            if not bucket or bucket[0][0] != seq:
                continue  # stale index entry (re-keyed since push)
            bucket.pop(0)
            self._entry_count[port] -= 1
            if not bucket:
                keyed.delete(key_value)

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        key_value = tup.get(self.key)
        for _seq, candidate in self._by_key[1 - port].get(key_value, ()):
            left, right = (tup, candidate) if port == 0 else (candidate, tup)
            merged = dict(right.values)
            if self.prefix_right:
                merged = {f"r_{k}": v for k, v in merged.items()}
            merged.update(left.values)
            self.n_matches.increment()
            self.submit(merged)
        self._resync_count(port)
        seq = self._seq[port].get(0)
        self._seq[port].set(seq + 1)
        self._by_key[port].setdefault(key_value, list).append([seq, tup])
        self._index[port].push(seq, key_value)
        self._entry_count[port] += 1
        self._evict_to_window(port)

    def on_punct(self, punct: Punctuation, port: int) -> None:
        # WINDOW puncts are not meaningful across a join; FINAL handling
        # (wait for both ports) is done by the base class.
        return


class Aggregate(Operator):
    """Tumbling count-window aggregation, optionally keyed.

    Parameters: ``count`` (window size), ``aggregator``
    (``list[StreamTuple] -> dict``), and optional ``key``: when set, one
    tumbling window is kept *per distinct value* of that attribute (in
    keyed state, so the windows migrate with their key inside a
    ``partition_by=key`` parallel region) and the key attribute is merged
    into each emitted tuple.  Emits one tuple per tumble and a WINDOW
    punctuation after it.  On FINAL, flushes the partial window(s).
    """

    STATEFUL = True

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self.count = int(self.param("count"))
        if self.count <= 0:
            raise GraphError(f"{ctx.full_name}: Aggregate count must be positive")
        self.aggregator: Callable[[List[StreamTuple]], Dict[str, Any]] = self.param(
            "aggregator"
        )
        self.key: Optional[str] = self.param("key", None)
        self._window = self.state.global_("window", default=list)
        self._keyed_windows = self.state.keyed("windows")

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        if self.key is None:
            window = self._window.value
            window.append(tup)
            if len(window) >= self.count:
                self._flush_global()
            return
        key_value = tup.get(self.key)
        window = self._keyed_windows.setdefault(key_value, list)
        window.append(tup)
        if len(window) >= self.count:
            self._flush_key(key_value)

    def _flush_global(self) -> None:
        batch = self._window.value
        if not batch:
            return
        self._window.set([])
        self.submit(self.aggregator(batch))
        self.submit_punct(Punctuation.WINDOW)

    def _flush_key(self, key_value: Any) -> None:
        batch = self._keyed_windows.get(key_value)
        if not batch:
            return
        self._keyed_windows.delete(key_value)
        result = dict(self.aggregator(batch))
        result.setdefault(self.key, key_value)
        self.submit(result)
        self.submit_punct(Punctuation.WINDOW)

    def on_all_ports_final(self) -> None:
        if self.key is None:
            self._flush_global()
        else:
            for key_value in sorted(self._keyed_windows.keys(), key=str):
                self._flush_key(key_value)


class Dedup(Operator):
    """Forwards the first tuple per distinct ``key`` value; drops repeats.

    Parameters: ``key`` (attribute deduplicated on) and optional
    ``capacity`` (max distinct keys remembered; oldest-first eviction, so
    a re-occurrence after eviction passes again).  The seen-set lives in
    keyed state and therefore migrates with its keys across rescales of a
    ``partition_by=key`` parallel region — without migration, a rescale
    would re-admit duplicates for every key that changed channels.
    """

    STATEFUL = True

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self.key: str = self.param("key")
        self.capacity: Optional[int] = self.param("capacity", None)
        if self.capacity is not None and int(self.capacity) <= 0:
            raise GraphError(f"{ctx.full_name}: Dedup capacity must be positive")
        #: key -> [first-seen arrival seq, occurrence count]; the seq lives
        #: inside the keyed entry so capacity eviction keeps working after
        #: a migration moved part of the seen-set to another channel
        self._seen = self.state.keyed("seen")
        self._next_seq = self.state.global_("nextSeq", default=int)
        #: in-memory eviction accel (rebuilds itself after migrations /
        #: rehydrations) — the authoritative first-seen seqs stay inside
        #: the migratable entries
        self._index = KeyedSeqIndex(self._seen, lambda entry: (entry[0],))
        self._seq_floor_version = -1
        self.n_duplicates = self.create_custom_metric(
            "nDuplicates", MetricKind.COUNTER, "tuples dropped as repeats"
        )

    def _resync_seq_floor(self) -> None:
        """Keep the channel-local seq counter above migrated-in seqs so
        first-seen ordering stays meaningful after a partition merge."""
        if self._seq_floor_version == self._seen.version:
            return
        max_seq = max((entry[0] for _, entry in self._seen.items()), default=-1)
        if self._next_seq.get(0) <= max_seq:
            self._next_seq.set(max_seq + 1)
        self._seq_floor_version = self._seen.version

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        key_value = tup.get(self.key)
        entry = self._seen.get(key_value)
        if entry is not None:
            entry[1] += 1
            self.n_duplicates.increment()
            return
        self._resync_seq_floor()
        seq = self._next_seq.get(0)
        self._next_seq.set(seq + 1)
        self._seen.put(key_value, [seq, 1])
        self._index.push(seq, key_value)
        if self.capacity is not None:
            while len(self._seen) > int(self.capacity):
                popped = self._index.pop_oldest()
                if popped is None:
                    break
                old_seq, old_key = popped
                old_entry = self._seen.get(old_key)
                if old_entry is None or old_entry[0] != old_seq:
                    continue  # stale index entry (evicted and re-admitted)
                self._seen.delete(old_key)
        self.submit(tup)

    def on_punct(self, punct: Punctuation, port: int) -> None:
        if punct is Punctuation.WINDOW:
            self.submit_punct(punct)


_VALUES = attrgetter("values")


class KeyedCounter(Operator):
    """Forwards each tuple with a running per-key occurrence count.

    Parameters: ``key`` (attribute counted on) and ``count_attr`` (output
    attribute, default ``"count"``).  The counts live in keyed state, so
    inside a ``partition_by=key`` parallel region the sequence of counts
    observed downstream for one key is contiguous (1, 2, 3, ...) across
    live rescales *iff* state migration worked — which makes this operator
    the canonical probe for zero-state-loss assertions, on top of being a
    useful keyed running aggregation in its own right.
    """

    STATEFUL = True

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self.key: str = self.param("key")
        self.count_attr: str = self.param("count_attr", "count")
        self._counts = self.state.keyed("counts")

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        [count] = self._counts.count((tup.values.get(self.key),))
        self.submit(tup.with_value(self.count_attr, count))

    def process_batch(self, tuples: List[StreamTuple], port: int) -> None:
        """Count the run's keys in arrival order, re-emit the counted run."""
        keys = map(methodcaller("get", self.key), map(_VALUES, tuples))
        self.submit_batch(with_value_run(tuples, self.count_attr, self._counts.count(keys)))

    def on_punct(self, punct: Punctuation, port: int) -> None:
        if punct is Punctuation.WINDOW:
            self.submit_punct(punct)


class Sink(Operator):
    """Terminal operator: hands each tuple to an optional ``consumer``.

    With ``record=True`` (default) tuples are also kept in ``self.seen``
    so tests and display applications can inspect the stream. The built-in
    ``nFinalPunctsProcessed`` metric on sinks is what Sec. 5.3 uses to
    detect that a C3 application has consumed its whole input.

    The record is state and rides every checkpoint epoch; an exactly-once
    replay of what came after the epoch rebuilds ``seen`` but does not
    call the ``consumer`` again (an effect).
    """

    N_OUTPUTS = 0

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self.consumer: Optional[Callable[[StreamTuple], None]] = self.param(
            "consumer", None
        )
        self.record = bool(self.param("record", True))
        self.seen: List[StreamTuple] = []

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        if self.record:
            self.seen.append(tup)
        if self.consumer is not None and not self.ctx.replaying_fn():
            self.consumer(tup)

    def process_batch(self, tuples: List[StreamTuple], port: int) -> None:
        """Vectorized pass: bulk-extend the record, loop the consumer."""
        if self.record:
            self.seen.extend(tuples)
        consumer = self.consumer
        if consumer is not None and not self.ctx.replaying:
            for tup in tuples:
                consumer(tup)

    def on_snapshot(self) -> Any:
        return _Record(self.seen) if self.record else None

    def on_restore(self, extra: Any) -> None:
        self.seen = extra.tuples[: extra.n]


class _Record:
    """An epoch's view of a growing sink record, its first ``n`` tuples:
    it never changes, so it is its own deep copy and an epoch costs O(1)."""

    __slots__ = ("tuples", "n")

    def __init__(self, tuples: List[StreamTuple]) -> None:
        self.tuples, self.n = tuples, len(tuples)

    def __deepcopy__(self, memo: dict) -> "_Record":
        return self


class Export(Operator):
    """Publishes its input stream for other applications to import.

    Parameters: ``stream_id`` (explicit name) and/or ``properties`` (a dict
    of values importers can match on).  The PE hands exported tuples to the
    runtime's import/export registry, which routes them to every matching
    Import operator of every running job.  An exactly-once replay
    (``ctx.replaying``) publishes nothing: the dead incarnation already
    handed those items to the importers.
    """

    N_OUTPUTS = 0

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self.stream_id: Optional[str] = self.param("stream_id", None)
        self.properties: Dict[str, Any] = dict(self.param("properties", {}))
        if self.stream_id is None and not self.properties:
            raise GraphError(
                f"{ctx.full_name}: Export needs a stream_id and/or properties"
            )
        self._export_fn: Optional[Callable[[Any], None]] = None

    def bind_export(self, export_fn: Callable[[Any], None]) -> None:
        """Called by the PE to wire this operator to the registry."""
        self._export_fn = export_fn

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        if self._export_fn is not None and not self.ctx.replaying:
            self._export_fn(tup)

    def on_punct(self, punct: Punctuation, port: int) -> None:
        if self._export_fn is not None and not self.ctx.replaying:
            self._export_fn(punct)


class Import(Operator):
    """Receives tuples from matching Export operators of other jobs.

    Parameters: ``stream_id`` (match an export by name) or ``subscription``
    (a dict; matches exports whose properties contain all these key/value
    pairs).  Connections are established and torn down dynamically as
    exporting jobs come and go.
    """

    N_INPUTS = 0
    N_OUTPUTS = 1

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self.stream_id: Optional[str] = self.param("stream_id", None)
        self.subscription: Dict[str, Any] = dict(self.param("subscription", {}))
        if self.stream_id is None and not self.subscription:
            raise GraphError(
                f"{ctx.full_name}: Import needs a stream_id or a subscription"
            )

    def deliver(self, item: Union[StreamTuple, Punctuation]) -> None:
        """Called by the import/export registry with remote items."""
        if isinstance(item, StreamTuple):
            self.submit(item)
        elif item is Punctuation.WINDOW:
            self.submit_punct(item)
        # FINAL punctuation from a remote job does NOT finalize the importer:
        # other exporters may still connect later (dynamic composition).


class Custom(Operator):
    """Fully callback-driven operator for one-off logic.

    Parameters (all optional): ``on_tuple_fn(op, tup, port)``,
    ``on_punct_fn(op, punct, port)``, ``on_init_fn(op)``,
    ``on_final_fn(op)``, ``n_inputs``, ``n_outputs``.
    """

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self._on_tuple = self.param("on_tuple_fn", None)
        self._on_punct = self.param("on_punct_fn", None)
        self._on_init = self.param("on_init_fn", None)
        self._on_final = self.param("on_final_fn", None)

    def on_initialize(self) -> None:
        if self._on_init is not None:
            self._on_init(self)

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        if self._on_tuple is not None:
            self._on_tuple(self, tup, port)

    def on_punct(self, punct: Punctuation, port: int) -> None:
        if self._on_punct is not None:
            self._on_punct(self, punct, port)

    def on_all_ports_final(self) -> None:
        if self._on_final is not None:
            self._on_final(self)


class LoadShedder(Operator):
    """Probabilistically drops a controllable fraction of tuples.

    The paper's Sec. 1 motivating example: "when the application is
    overloaded due to a transient high input data rate, it may need to
    temporarily apply load shedding policies to maintain answer
    timeliness".  The shedding fraction starts at ``fraction`` (default
    0.0 = pass-through) and is adjusted at runtime through the
    ``setSheddingFraction`` control command — which an orchestrator sends
    via its actuation API when it observes queue build-up.
    """

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self.fraction = float(self.param("fraction", 0.0))
        self._rng = _random.Random(int(self.param("seed", 1337)))
        self.n_shed = self.create_custom_metric(
            "nShed", MetricKind.COUNTER, "tuples dropped by load shedding"
        )
        self.fraction_gauge = self.create_custom_metric(
            "sheddingFraction", MetricKind.GAUGE, "current shedding fraction"
        )

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        if self.fraction > 0.0 and self._rng.random() < self.fraction:
            self.n_shed.increment()
            return
        self.submit(tup)

    def on_punct(self, punct: Punctuation, port: int) -> None:
        if punct is Punctuation.WINDOW:
            self.submit_punct(punct)

    def on_control(self, command: str, payload: Mapping[str, Any]) -> None:
        if command == "setSheddingFraction":
            fraction = float(payload["fraction"])
            self.fraction = min(max(fraction, 0.0), 1.0)
            self.fraction_gauge.set(self.fraction)


class Throttle(Operator):
    """Re-emits tuples no faster than ``rate`` tuples/second.

    Excess tuples are buffered and drained on a timer; the buffer length is
    exposed through the custom ``nBuffered`` gauge.  FINAL punctuation is
    held back until the buffer is empty so a throttled stream never loses
    its tail (the elastic drain protocol relies on this).

    Subclasses may override :meth:`process` to transform each tuple as it
    leaves the buffer — a rate-limited worker is exactly this machinery
    plus per-tuple work (see :class:`repro.apps.elastic_trend.TrendWorker`).
    """

    FORWARD_FINAL = False

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self.rate = float(self.param("rate"))
        if self.rate <= 0:
            raise GraphError(f"{ctx.full_name}: Throttle rate must be positive")
        self._buffer: List[StreamTuple] = []
        self._draining = False
        self._final_pending = False
        self.n_buffered = self.create_custom_metric(
            "nBuffered", MetricKind.GAUGE, "tuples waiting in the throttle"
        )

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        self._buffer.append(tup)
        self.n_buffered.set(len(self._buffer))
        if not self._draining:
            self._draining = True
            self.ctx.schedule(1.0 / self.rate, self._drain_one)

    def on_all_ports_final(self) -> None:
        if self._buffer:
            self._final_pending = True
        else:
            self.submit_final()

    def pending_items(self) -> int:
        return len(self._buffer)

    def process(self, tup: StreamTuple) -> Submittable:
        """Hook: what to emit for a drained tuple (identity by default)."""
        return tup

    def _drain_one(self) -> None:
        if self._buffer:
            self.submit(self.process(self._buffer.pop(0)))
            self.n_buffered.set(len(self._buffer))
        if self._buffer:
            self.ctx.schedule(1.0 / self.rate, self._drain_one)
        else:
            self._draining = False
            if self._final_pending:
                self._final_pending = False
                self.submit_final()


# ---------------------------------------------------------------------------
# Parallel-region plumbing (see repro.spl.parallel and repro.elastic)
# ---------------------------------------------------------------------------


def _stable_hash(value: Any) -> int:
    """Deterministic cross-run hash (``hash(str)`` is salted per process):
    the CRC-32 of the value's UTF-8 ``str``."""
    return zlib.crc32(str(value).encode("utf8"))


def stable_channel_of(value: Any, width: int) -> int:
    """Owner channel of a partition key at the given region width.

    The single source of truth shared by the :class:`ParallelSplitter`'s
    routing and the elastic state-migration planner — both must agree on
    ``hash(key) % width`` or a migrated partition would land on a channel
    the splitter never routes its key to.  :func:`stable_channels_of` is
    the same rule over a run of keys.
    """
    return _stable_hash(value) % width


def stable_channels_of(values: Iterable[Any], width: int) -> List[int]:
    """The owner channel of each key of ``values`` at the given width, in
    order: :func:`stable_channel_of` over a run, in one call — the same
    CRC-32 of each key's UTF-8 ``str``, mapped at C level."""
    return list(map(width.__rmod__, map(zlib.crc32, map(str.encode, map(str, values)))))


class _Lane(list):
    """A masked channel's parked tuples in arrival order, its ``mask``
    token, and ``since``: the stream position (``arrived``) it parks from
    (None: masked while the splitter was down, until its replay is done)."""

    __slots__ = ("since", "mask")

    def __init__(self, since: Optional[int], mask: Optional[int] = None) -> None:
        super().__init__()
        self.since = since
        self.mask = mask


class ParallelSplitter(Operator):
    """Entry operator of a parallel region: routes tuples onto N channels.

    Inserted by the compiler when it expands a ``parallel(width=N)``
    annotation.  Routing is hash-based on the ``partition_by`` attribute
    when one is declared (so stateful per-key workers see a stable key
    partitioning), round-robin otherwise.  When the region is ``ordered``,
    every forwarded tuple is stamped with a region-global sequence number
    (``_pseq``) that the matching :class:`OrderedMerger` uses to restore
    tuple order across channels.

    The splitter is also the barrier point of the elastic
    re-parallelization protocol (Fries-style epoch alignment): on the
    ``quiesce`` control command it stops forwarding and buffers arrivals;
    ``resume`` installs the new width, increments the reconfiguration
    epoch, and flushes the buffer through the new routing — which is what
    makes a live rescale tuple-loss-free by construction.

    Channels whose PE crashed are *masked* (``maskChannel`` /
    ``unmaskChannel`` control commands, driven by
    :mod:`repro.elastic.reroute` on ``pe_failure`` / ``pe_restart``).  A
    round-robin region skips a masked channel.  A keyed tuple goes only to
    its owner channel, ``hash(key) % width``: while the owner is masked
    the tuple waits, unstamped and in arrival order, in that channel's
    *parked lane*.  ``unmaskChannel`` releases the lane and stamps each
    tuple as it leaves, after the restarted channel restored its epoch and
    replayed its link history, so the merger never waits on an outage and
    each key's tuples reach one channel in order.  ``resume`` re-forwards
    the lanes ahead of the barrier buffer through the new routing.

    The cursor (``_seq``, ``_rr``, ``arrived``, ``epoch``) and the lanes
    ride every epoch.  The rerouter's mask set is the authority, sent
    again (``remask``) when this PE restarts; the replay of what arrived
    after the epoch re-parks from each lane's ``since``, and a channel
    that rejoins before it is through is released at the first arrival
    that is not a replay.  Without rehydration ``_pseq`` restarts low and
    the merger passes what follows through as stragglers.
    """

    N_INPUTS = 1
    FORWARD_FINAL = False

    @classmethod
    def port_counts(cls, params: Mapping[str, Any]) -> Tuple[int, int]:
        return 1, int(params.get("width", 2))

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        self.width = int(self.param("width"))
        if self.width < 1:
            raise GraphError(f"{ctx.full_name}: splitter width must be >= 1")
        self.partition_by: Optional[str] = self.param("partition_by", None)
        self.ordered = bool(self.param("ordered", True))
        self.region: str = self.param("region", ctx.full_name)
        self._rr = 0
        self._seq = 0
        self._quiesced = False
        #: data tuples received, replays included: the stream position
        #: a mask takes effect at (see :class:`_Lane`)
        self.arrived = 0
        #: masked channel -> its parked lane (keyed tuples waiting for it)
        self._masked: Dict[int, _Lane] = {}
        #: a restarted instance is re-walking its input: unmasks wait
        self._catching_up = False
        #: channels unmasked while catching up, released once caught up
        self._rejoined: List[int] = []
        #: items held at the barrier: tuples and WINDOW puncts, in order
        self._buffer: List[Union[StreamTuple, Punctuation]] = []
        self._final_pending = False
        self.epoch = 0
        self.width_gauge = self.create_custom_metric(
            "channelWidth", MetricKind.GAUGE, "active channel count"
        )
        self.width_gauge.set(self.width)
        self.epoch_gauge = self.create_custom_metric(
            "reconfigEpoch", MetricKind.GAUGE, "completed reconfiguration epochs"
        )
        self.quiesced_gauge = self.create_custom_metric(
            "nQuiescedBuffered", MetricKind.GAUGE, "tuples held during a rescale"
        )
        self.masked_gauge = self.create_custom_metric(
            "nMaskedChannels", MetricKind.GAUGE, "channels routed around"
        )
        self.parked_counter = self.create_custom_metric(
            "nParkedTuples", MetricKind.COUNTER,
            "keyed tuples parked for a masked owner channel",
        )

    # -- routing ---------------------------------------------------------------

    @property
    def masked_channels(self) -> set:
        return set(self._masked)

    def _round_robin(self) -> int:
        for _ in range(self.width):
            channel = self._rr
            self._rr = (self._rr + 1) % self.width
            if channel not in self._masked:
                return channel
        return channel  # every channel masked: nowhere better to go

    def _forward(self, tup: StreamTuple) -> None:
        if self.partition_by is None:
            channel = self._round_robin()
        else:
            channel = _stable_hash(tup.get(self.partition_by)) % self.width
            if self._masked and not self._park([tup], [channel])[0]:
                return
        if self.ordered:
            tup = tup.with_value("_pseq", self._seq)
            self._seq += 1
        self.submit(tup, port=channel)

    def _arrive(self, count: int) -> None:
        """Count ``count`` arrivals; the first that is not a replay ends a
        restarted instance's catch-up: lanes without a ``since`` park from
        here on, and the rejoined lanes are released."""
        if self._catching_up and not self.ctx.replaying:
            self._catching_up = False
            for lane in self._masked.values():
                if lane.since is None:
                    lane.since = self.arrived
            rejoined, self._rejoined = self._rejoined, []
            for channel in rejoined:
                self._unmask(channel)
        self.arrived += count

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        self._arrive(1)
        if self._quiesced:
            self._buffer.append(tup)
            self.quiesced_gauge.set(len(self._buffer))
        else:
            self._forward(tup)

    def process_batch(self, tuples: List[StreamTuple], port: int) -> None:
        """Route a whole batch in one hash pass into per-channel sub-batches.

        Quiesced, the run joins the barrier buffer unchanged (a rescale
        must not see tuples slip past).  Otherwise :meth:`_route_run`.
        """
        self._arrive(len(tuples))
        if self._quiesced:
            self._buffer.extend(tuples)
            self.quiesced_gauge.set(len(self._buffer))
            return
        self._route_run(tuples)

    def _route_run(self, tuples: List[StreamTuple]) -> None:
        """Route a run of tuples exactly as :meth:`_forward` would, one by one.

        The partition attribute, width and mask are read once for the
        run, its keys are hashed in one call (:func:`stable_channels_of`),
        members whose owner is masked join its lane, ordered regions stamp
        ``_pseq`` over the run in one kernel call, in arrival order from
        the run's first sequence number (identical stamps to the
        per-tuple path), and each channel receives its sub-batch through a
        single batched submission, lowest channel first — which the
        matching :class:`OrderedMerger` consumes sub-batch by sub-batch.
        """
        key, width = self.partition_by, self.width
        if key is None:
            channels = [self._round_robin() for _ in tuples]
        else:
            channels = stable_channels_of(
                map(methodcaller("get", key), map(_VALUES, tuples)), width
            )
            if self._masked:
                tuples, channels = self._park(tuples, channels)
        if self.ordered and tuples:
            seq = self._seq
            self._seq = seq + len(tuples)
            tuples = with_value_run(tuples, "_pseq", range(seq, self._seq))
        lanes: List[List[StreamTuple]] = [[] for _ in range(width)]
        for tup, channel in zip(tuples, channels):
            lanes[channel].append(tup)
        for channel, lane in enumerate(lanes):
            if lane:
                self.submit_batch(TupleBatch(lane), port=channel)

    def _park(
        self, tuples: List[StreamTuple], channels: List[int]
    ) -> Tuple[List[StreamTuple], List[int]]:
        """Move the members owned by a masked channel into its lane.

        The run just arrived: its members sit at the last ``len(tuples)``
        stream positions.  An exactly-once replay toward a restarted
        splitter re-walks the dead incarnation's input with emissions
        suppressed, so a replayed member parks again only if the dead
        incarnation parked it (at or after its lane's ``since``).  Returns
        the rest of the run and their channels, in order.
        """
        kept: List[StreamTuple] = []
        kept_channels: List[int] = []
        masked = self._masked
        replaying = self.ctx.replaying
        position = self.arrived - len(tuples)
        for tup, channel in zip(tuples, channels):
            lane = masked.get(channel)
            if lane is None or replaying and (lane.since is None or position < lane.since):
                kept.append(tup)
                kept_channels.append(channel)
            else:
                lane.append(tup)
            position += 1
        self.parked_counter.increment(len(tuples) - len(kept))
        return kept, kept_channels

    def _broadcast_window(self) -> None:
        for out_port in range(self.width):
            self.submit_punct(Punctuation.WINDOW, port=out_port)

    def on_punct(self, punct: Punctuation, port: int) -> None:
        if punct is not Punctuation.WINDOW:
            return
        self._arrive(0)
        if self._quiesced:
            # window boundaries are held at the barrier alongside tuples so
            # a rescale never merges two windows into one
            self._buffer.append(punct)
            self.quiesced_gauge.set(len(self._buffer))
        else:
            self._broadcast_window()

    def on_all_ports_final(self) -> None:
        if self.ctx.replaying:  # the re-walk reached the end: catch up after it
            self.ctx.schedule(0.0, lambda: self._arrive(0))
        else:
            self._arrive(0)
        self._final_pending = True
        self._release_final()

    def _release_final(self) -> None:
        """Forward a held FINAL once no barrier or lane holds anything."""
        if self._final_pending and not self._quiesced and not self.pending_items():
            self._final_pending = False
            self.submit_final()

    @property
    def is_quiesced(self) -> bool:
        return self._quiesced

    def _n_parked(self) -> int:
        return sum(map(len, self._masked.values()))

    def pending_items(self) -> int:
        return len(self._buffer) + self._n_parked()

    def pending_tuples(self) -> int:
        # the quiesce buffer holds WINDOW punctuations alongside tuples;
        # crash-loss accounting must not count those as condemned data
        held = sum(1 for item in self._buffer if isinstance(item, StreamTuple))
        return held + self._n_parked()

    # -- control (driven by the ElasticController) -----------------------------

    def _set_width(self, width: int) -> None:
        width = int(width)
        if width < 1:
            raise GraphError(f"{self.ctx.full_name}: width must be >= 1")
        self.width = width
        self.n_outputs = width
        self._bind_port_metrics()
        self._rr %= width
        self._masked = {c: lane for c, lane in self._masked.items() if c < width}
        self.width_gauge.set(width)
        self.masked_gauge.set(len(self._masked))

    def _unmask(self, channel: int) -> None:
        """Release ``channel``'s lane in arrival order, stamping as it goes."""
        lane = self._masked.pop(channel, [])
        self.masked_gauge.set(len(self._masked))
        if self._quiesced:
            self._buffer[:0] = lane  # parked before anything at the barrier
        elif lane:
            self._route_run(lane)
            self._release_final()

    def on_snapshot(self) -> Any:
        return dict(seq=self._seq, rr=self._rr, arrived=self.arrived, epoch=self.epoch,
                    final=self._final_pending, lanes=self._masked)

    def on_restore(self, extra: Any) -> None:
        self._seq, self._rr, self.arrived = extra["seq"], extra["rr"] % self.width, extra["arrived"]
        self.epoch, self._final_pending, self._masked = extra["epoch"], extra["final"], extra["lanes"]
        self.epoch_gauge.set(self.epoch)

    def _remask(self, masked: Mapping[int, Tuple[Optional[int], int]]) -> None:
        """Install the rerouter's ``{channel: (since, mask token)}`` on a
        restarted instance.  A restored lane of another mask was released
        after the epoch: its tuples are downstream, ``_seq`` moves past
        their stamps.  Input whose FINAL is in the epoch replays nothing."""
        restored, self._masked = self._masked, {}
        for channel, (since, mask) in sorted(masked.items()):
            lane = restored.get(channel)
            if lane is not None and lane.mask == mask:
                del restored[channel]
            else:
                lane = _Lane(since, mask)
            self._masked[channel] = lane
        self._seq += sum(map(len, restored.values()))
        self._catching_up = bool(self._masked) and not self._finalized
        self.masked_gauge.set(len(self._masked))
        self._release_final()

    def on_control(self, command: str, payload: Mapping[str, Any]) -> None:
        if command == "maskChannel":
            channel = int(payload["channel"])
            if 0 <= channel < self.width and channel not in self._masked:
                self._masked[channel] = _Lane(self.arrived, payload.get("mask"))
                self.masked_gauge.set(len(self._masked))
        elif command == "remask":
            self._remask(payload["masked"])
        elif command == "unmaskChannel":
            channel = int(payload["channel"])
            if self._catching_up and channel in self._masked:
                self._rejoined.append(channel)
            else:
                self._unmask(channel)
        elif command == "quiesce":
            self._quiesced = True
        elif command == "resume":
            # the lanes re-route through the new width, ahead of the buffer
            parked = [tup for lane in self._masked.values() for tup in lane]
            for lane in self._masked.values():
                lane.clear()
            if "width" in payload:
                self._set_width(int(payload["width"]))
            if "epoch" in payload:
                self.epoch = int(payload["epoch"])
                self.epoch_gauge.set(self.epoch)
            self._quiesced = False
            buffered, self._buffer = self._buffer, []
            if parked:
                self._route_run(parked)
            for item in buffered:
                if isinstance(item, StreamTuple):
                    self._forward(item)
                else:
                    self._broadcast_window()
            self.quiesced_gauge.set(0)
            self._release_final()


class OrderedMerger(Operator):
    """Exit operator of a parallel region: funnels N channels into one stream.

    When the region is ``ordered`` the merger restores the splitter's
    sequence order: tuples carrying a ``_pseq`` stamp are held in a reorder
    buffer and emitted strictly in sequence (the stamp is stripped before
    forwarding).  Tuples without a stamp — e.g. produced by a worker that
    does not propagate ``_pseq`` — pass through in arrival order.  On FINAL
    the reorder buffer is flushed even if gaps remain (a worker may
    legitimately drop tuples).

    A crashed channel loses its in-flight tuples (Sec. 5.2 semantics), which
    would leave a *permanent* hole in the sequence and stall the reorder
    buffer forever.  ``reorder_grace`` bounds that stall per *tuple*: each
    buffered tuple remembers its arrival time, and once the lowest buffered
    seq has waited a full grace period the holes below it are declared dead
    and skipped (counted by ``nSeqGapsSkipped``).  Because expiry is judged
    per arrival rather than by flushing the whole buffer, ``_next`` (and
    hence the emitted sequence) advances monotonically even when several
    consecutive channels crash: recently-arrived tuples from slow-but-alive
    channels are never flushed past, so they cannot later surface out of
    order.  A straggler arriving after its seq was skipped is still emitted
    immediately rather than dropped.
    ``_next`` and the buffer ride every checkpoint epoch; a restart
    without rehydration starts at ``_next = 0`` and waits out one grace.
    """

    N_OUTPUTS = 1
    FORWARD_FINAL = True
    #: tolerance for grace expiry: a re-armed guard can fire a few float
    #: ULPs before ``arrival + grace``; without the slack the check would
    #: re-arm a zero-length timer forever at the same simulated instant
    _GRACE_EPS = 1e-9

    @classmethod
    def port_counts(cls, params: Mapping[str, Any]) -> Tuple[int, int]:
        return int(params.get("width", 2)), 1

    def __init__(self, ctx: OperatorContext) -> None:
        super().__init__(ctx)
        if int(self.param("width")) < 1:
            raise GraphError(f"{ctx.full_name}: merger width must be >= 1")
        self.ordered = bool(self.param("ordered", True))
        self.region: str = self.param("region", ctx.full_name)
        self.reorder_grace = float(self.param("reorder_grace", 30.0))
        self._next = 0
        #: seq -> (tuple, arrival time); arrival drives per-tuple expiry
        self._pending: Dict[int, Tuple[StreamTuple, float]] = {}
        self._guard_armed = False
        self.reorder_gauge = self.create_custom_metric(
            "nReordered", MetricKind.GAUGE, "tuples waiting in the reorder buffer"
        )
        self.gaps_skipped = self.create_custom_metric(
            "nSeqGapsSkipped", MetricKind.COUNTER,
            "sequence holes skipped after the reorder grace period",
        )

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        if not self.ordered:
            self.submit(tup.without("_pseq"))
            return
        seq = tup.get("_pseq")
        if seq is None:
            self.submit(tup)
            return
        if seq < self._next:
            # straggler behind a skipped gap: deliver rather than drop
            self.submit(tup.without("_pseq"))
            return
        if seq == self._next:
            self.submit(tup.without("_pseq"))
            self._next += 1
        else:
            self._pending[seq] = (tup, self.now())
        self._release_ready()

    def process_batch(self, tuples: List[StreamTuple], port: int) -> None:
        """Consume one sub-batch, releasing in-sequence runs as one batch.

        Per-member semantics match :meth:`on_tuple` exactly (unstamped
        tuples and stragglers behind a skipped gap pass straight
        through, an in-sequence arrival leaves without being parked);
        every tuple that becomes releasable while the batch is consumed
        leaves through a single batched submission, in the same order the
        per-tuple path would have emitted.
        """
        if not self.ordered:
            self.submit_batch(without_run(tuples, "_pseq"))
            return
        pending = self._pending
        now = self.now()
        expected = self._next
        out: List[StreamTuple] = []
        for tup in tuples:
            seq = tup.values.get("_pseq")
            if seq is None:
                out.append(tup)
            elif seq > expected:
                pending[seq] = (tup, now)
            else:
                out.append(tup)
                if seq == expected:
                    expected += 1
                    while expected in pending:
                        out.append(pending.pop(expected)[0])
                        expected += 1
        self._next = expected
        if out:
            # the released run, stripped in one call (unstamped members
            # pass through as themselves)
            self.submit_batch(without_run(out, "_pseq"))
        self.reorder_gauge.set(len(pending))
        self._arm_guard()

    def _release_ready(self) -> None:
        while self._next in self._pending:
            tup, _ = self._pending.pop(self._next)
            self.submit(tup.without("_pseq"))
            self._next += 1
        self.reorder_gauge.set(len(self._pending))
        self._arm_guard()

    def _arm_guard(self) -> None:
        """Schedule hole expiry for when the oldest buffered tuple has
        waited a full grace period (one timer outstanding at a time)."""
        if self._guard_armed or not self._pending or self.reorder_grace <= 0:
            return
        oldest = min(arrival for _, arrival in self._pending.values())
        delay = max(self.reorder_grace - (self.now() - oldest), 0.0)
        self._guard_armed = True
        self.ctx.schedule(delay, self._expire_holes)

    def _expire_holes(self) -> None:
        """Skip holes that some buffered tuple has waited out.

        The head hole (the missing ``_next``) is at least as old as every
        pending tuple above it, so once the *oldest pending arrival* is a
        full grace period in the past the hole is declared dead (its
        channel crashed) and ``_next`` jumps forward to the lowest buffered
        seq.  The evidence is re-evaluated after each release: holes whose
        only witnesses are fresh arrivals stay open, so tuples from a
        slow-but-alive channel are never flushed past, and ``_next`` (and
        the emitted sequence) advances monotonically even when several
        consecutive channels crash.  Each lost tuple stalls the stream at
        most one grace period, because expiries pipeline per arrival
        instead of restarting a global timer per hole.
        """
        self._guard_armed = False
        if self._finalized or not self._pending:
            return
        now = self.now()
        while self._pending:
            oldest = min(arrival for _, arrival in self._pending.values())
            if now - oldest < self.reorder_grace - self._GRACE_EPS:
                break
            head = min(self._pending)
            if head > self._next:
                self.gaps_skipped.increment()
            self._next = head
            while self._next in self._pending:
                tup, _ = self._pending.pop(self._next)
                self.submit(tup.without("_pseq"))
                self._next += 1
        self.reorder_gauge.set(len(self._pending))
        self._arm_guard()

    def on_punct(self, punct: Punctuation, port: int) -> None:
        # WINDOW puncts are not meaningful across a merge; FINAL handling
        # (wait for all ports) is done by the base class.
        return

    def on_all_ports_final(self) -> None:
        for seq in sorted(self._pending):
            tup, _ = self._pending.pop(seq)
            self._next = max(self._next, seq + 1)
            self.submit(tup.without("_pseq"))
        self.reorder_gauge.set(0)

    def pending_items(self) -> int:
        return len(self._pending)

    def on_snapshot(self) -> Any:
        return {"next": self._next, "pending": self._pending} if self.ordered else None

    def on_restore(self, extra: Any) -> None:
        self._next, self._pending = extra["next"], extra["pending"]
        self.reorder_gauge.set(len(self._pending))
        self._arm_guard()

    def set_width(self, width: int) -> None:
        width = int(width)
        if width < 1:
            raise GraphError(f"{self.ctx.full_name}: width must be >= 1")
        self.n_inputs = width
        self._bind_port_metrics()

    def on_control(self, command: str, payload: Mapping[str, Any]) -> None:
        if command == "setWidth":
            self.set_width(int(payload["width"]))
