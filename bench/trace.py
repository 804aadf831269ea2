"""Span recorder for the traced run, installed from outside the program.

Spans are recorded by this file alone: ``kernel.event_tap`` opens one
span per executed kernel event, and :meth:`Recorder.installed` wraps the
public entry points of each layer (and removes the wrappers again), so
the spans of a tuple's path nest inside the kernel event that carried
it.  Each span stores its name, start, end and the span that caused it;
everything stays in memory until :meth:`Recorder.dump`.

A layer's *self time* is its spans' duration minus the part their child
spans cover.  Because every span nests inside the root (the traced
round), the self times of all layers add up to the round's wall time —
:meth:`Recorder.ledger` returns both so the caller can check it.

Attribution follows the boundaries that can be observed from outside: a
span's self time includes the private helpers it runs until the next
wrapped entry point (a PE's fused hop runs inside the upstream
operator's span; a source's emission loop runs inside the PE's
``opwork`` event).  The micro timings in :mod:`bench.micro` price those
pieces separately.
"""

from __future__ import annotations

import contextlib
import json
import re
import time
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: module prefix -> layer (first match wins); layers are the repo's modules
LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim.kernel"),
    ("repro.runtime.exec", "runtime.exec.wallclock"),
    ("repro.spl", "spl.library"),
    ("repro.runtime.pe", "runtime.pe"),
    ("repro.runtime.transport", "runtime.transport"),
    ("repro.runtime.delivery", "runtime.delivery"),
    ("repro.runtime.srm", "runtime.srm"),
    ("repro.runtime.hc", "runtime.srm"),
    ("repro.runtime", "runtime.sam"),
    ("repro.checkpoint", "checkpoint"),
    ("repro.elastic", "elastic"),
    ("repro.orca", "orca"),
    ("repro.obs", "obs"),
)
HARNESS = "harness"
IDLE = "idle"

_ID_PREFIX = re.compile(r"^[a-z]+_\d+-")


def layer_of(obj: Any) -> str:
    """Layer owning a callable (by the module that defines it)."""
    owner = getattr(obj, "__self__", None)
    module = (type(owner) if owner is not None else obj).__module__ or ""
    for prefix, layer in LAYER_OF_MODULE:
        if module.startswith(prefix):
            return layer
    return HARNESS


def label_class(label: str, callback: Callable[..., Any]) -> str:
    """A kernel event's name with the instance ids stripped (opwork, poll, ...)."""
    if not label:
        return getattr(callback, "__name__", "event").strip("_")
    if label.startswith("transport->"):
        return "deliver"
    if label.startswith("elastic-drain"):
        return "drain"
    return _ID_PREFIX.sub("", label)


class Recorder:
    """In-memory span store with class-level wrappers and a kernel tap."""

    def __init__(self) -> None:
        self._kinds: List[Tuple[str, str]] = []  # kind id -> (layer, name)
        self._kind_ids: Dict[Tuple[str, str], int] = {}
        self._event_kinds: Dict[Any, int] = {}
        # one row per span, as parallel lists (cheapest to append to)
        self._kind: List[int] = []
        self._parent: List[int] = []
        self._start: List[int] = []
        self._end: List[int] = []
        #: [innermost open span, open kernel-event span]
        self._open = [-1, -1]
        self._root = -1

    # -- recording ---------------------------------------------------------

    def _kind_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._kind_ids:
            self._kind_ids[key] = len(self._kinds)
            self._kinds.append(key)
        return self._kind_ids[key]

    def _begin(self, kind: int, parent: int) -> int:
        index = len(self._kind)
        self._kind.append(kind)
        self._parent.append(parent)
        self._end.append(0)
        self._start.append(time.perf_counter_ns())
        return index

    def wrap(self, fn: Callable[..., Any], layer: str, name: str) -> Callable[..., Any]:
        """``fn`` recording one span per call, nested under the open span."""
        kind = self._kind_id(layer, name)
        kinds, parents, starts, ends = self._kind, self._parent, self._start, self._end
        open_, now = self._open, time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(kinds)
            kinds.append(kind)
            parents.append(open_[0])
            ends.append(0)
            open_[0] = index
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = now()
                open_[0] = parents[index]

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def on_event(self, event: Any) -> None:
        """``kernel.event_tap``: close the previous event's span, open the next."""
        now = time.perf_counter_ns()
        open_ = self._open
        if open_[1] >= 0:
            self._end[open_[1]] = now
        key = event.label or getattr(event.callback, "__func__", event.callback)
        kind = self._event_kinds.get(key)
        if kind is None:
            kind = self._event_kinds[key] = self._kind_id(
                layer_of(event.callback), label_class(event.label, event.callback)
            )
        open_[0] = open_[1] = self._begin(kind, self._root)

    def end_event(self) -> None:
        """Close the open kernel-event span (the executor returned control)."""
        open_ = self._open
        if open_[1] >= 0:
            self._end[open_[1]] = time.perf_counter_ns()
            open_[0], open_[1] = self._root, -1

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, handler_class: type = None) -> Iterator["Recorder"]:
        """Open the root span and wrap every layer's public entry points.

        Wrappers go on classes (operator and PE instances are re-created
        by restarts and rescales) and are removed on exit, whatever
        happens in between.  ``time.sleep`` is wrapped too: the wall-clock
        executor idles in it, and that time belongs to no layer.
        """
        from repro.checkpoint import CheckpointService
        from repro.elastic.controller import ElasticController
        from repro.orca import OrcaService
        from repro.runtime.delivery import DeliveryPlane
        from repro.runtime.exec.wallclock import WallClockExecutor
        from repro.runtime.pe import PERuntime
        from repro.runtime.transport import Transport
        from repro.sim.kernel import Kernel
        from repro.spl import library

        targets: List[Tuple[Any, str, str]] = [
            (Kernel, "schedule_at", "sim.kernel"),
            (WallClockExecutor, "schedule_at", "runtime.exec.wallclock"),
            (Transport, "send", "runtime.transport"),
            (Transport, "send_batch", "runtime.transport"),
            (DeliveryPlane, "send", "runtime.delivery"),
            (DeliveryPlane, "send_flushed_batch", "runtime.delivery"),
            (DeliveryPlane, "on_arrival", "runtime.delivery"),
            (PERuntime, "receive", "runtime.pe"),
            (CheckpointService, "checkpoint_job", "checkpoint"),
            (ElasticController, "set_channel_width", "elastic"),
            (OrcaService, "inject_user_event", "orca"),
            (library.CallbackSource, "generate", HARNESS),
            (time, "sleep", IDLE),
        ]
        for op_class in (
            library.Functor,
            library.Filter,
            library.KeyedCounter,
            library.Sink,
            library.ParallelSplitter,
            library.OrderedMerger,
        ):
            for method in ("on_tuple", "process_batch"):
                if method in vars(op_class):
                    targets.append((op_class, method, "spl.library"))
        if handler_class is not None:
            # the adaptation routine's own handlers: ORCA's handler calls
            for method in vars(handler_class):
                if method.startswith("handle"):
                    targets.append((handler_class, method, "orca"))
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
        self._root = self._open[0] = self._begin(self._kind_id(HARNESS, "round"), -1)
        for owner, attr, layer in targets:
            name = f"{getattr(owner, '__name__', owner)}.{attr}"
            setattr(owner, attr, self.wrap(vars(owner)[attr], layer, name))
        try:
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            self.end_event()
            self._end[self._root] = time.perf_counter_ns()

    # -- results -------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._kind)

    def ledger(self) -> Dict[str, float]:
        """Self seconds per layer (they add up to the root span's duration)."""
        n = len(self._kind)
        duration = [self._end[i] - self._start[i] for i in range(n)]
        covered = [0] * n
        for i in range(n):
            parent = self._parent[i]
            if parent >= 0:
                covered[parent] += duration[i]
        per_layer: Dict[str, float] = {}
        for i in range(n):
            layer = self._kinds[self._kind[i]][0]
            per_layer[layer] = per_layer.get(layer, 0.0) + (duration[i] - covered[i]) / 1e9
        return per_layer

    def dump(self, path: str) -> None:
        """Write every span (name, layer, start, end, parent) as JSON."""
        with open(path, "w") as out:
            json.dump(
                {
                    "kinds": [{"layer": layer, "name": name} for layer, name in self._kinds],
                    "spans": {
                        "kind": self._kind,
                        "parent": self._parent,
                        "start_ns": self._start,
                        "end_ns": self._end,
                    },
                },
                out,
            )
