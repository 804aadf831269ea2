"""Discrete-event simulation kernel.

The kernel owns a priority queue of scheduled callbacks keyed by
``(time, sequence)``.  Ties in time are broken by scheduling order, which
makes runs fully deterministic.  Heap entries are ``(time, sequence,
handle)`` tuples, so ``heapq`` orders them by comparing tuples in C;
sequence numbers are unique, so a handle is never compared.  Components
schedule work with :meth:`Kernel.schedule` (relative delay) or
:meth:`Kernel.schedule_at` (absolute time) and may cancel the returned
handle.

The kernel deliberately has no notion of threads: the "application
submission thread" and "cancellation thread" of the paper's Sec. 4.4, PE
metric pushes, SRM polls and failure detections are all modelled as chains
of scheduled callbacks on one clock.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.sim.clock import Clock

#: a handle without an ``__init__`` frame (see :meth:`Kernel.schedule_at`)
_new_handle = object.__new__
_heappush = heapq.heappush


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation.

    Made only by :meth:`Kernel.schedule_at`, which fills the slots
    itself: ``time``, ``seq``, ``callback(*args)`` and ``label`` as
    scheduled, ``cancelled`` and ``fired`` False.  ``fired`` is set by
    the executor's dispatch loop just before the callback runs, so a
    holder of the handle can tell "already ran" from "still pending at
    this very instant" — a handle is *outstanding* while it is neither
    ``fired`` nor ``cancelled``.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "label")

    time: float
    seq: int
    callback: Callable[..., Any]
    args: tuple
    cancelled: bool
    fired: bool
    label: str

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "fired" if self.fired else "pending"
        return f"ScheduledEvent(t={self.time:.3f}, {self.label or self.callback}, {state})"


class OutstandingHandles:
    """The handles one owner must still be able to cancel.

    A PE tracks its operators' timers here and the failure injector its
    scheduled faults: both need "cancel everything that has not run yet"
    without paying for the handles that already have.  :meth:`add` is
    O(1) amortised however many handles are live or have fired — the
    list is only scanned (dropping fired and cancelled handles) once it
    has doubled since the last scan, so a scan of ``n`` entries is paid
    for by the ``n / 2`` adds that preceded it.
    """

    #: list length below which a scan is never worth it
    MIN_SCAN = 256

    def __init__(self) -> None:
        self._handles: list[ScheduledEvent] = []
        self._scan_at = self.MIN_SCAN

    def __len__(self) -> int:
        """Handles currently held, stale ones included (for tests/stats)."""
        return len(self._handles)

    def add(self, handle: ScheduledEvent) -> None:
        """Track ``handle`` until it fires, is cancelled, or is swept."""
        self._handles.append(handle)
        if len(self._handles) > self._scan_at:
            self.outstanding()

    def outstanding(self) -> list[ScheduledEvent]:
        """Forget fired/cancelled handles; return the ones still to run."""
        self._handles = live = [
            h for h in self._handles if not (h.fired or h.cancelled)
        ]
        self._scan_at = max(self.MIN_SCAN, 2 * len(live))
        return live

    def cancel_all(self) -> int:
        """Cancel every outstanding handle; returns how many there were."""
        live = self.outstanding()
        for handle in live:
            handle.cancel()
        self._handles = []
        self._scan_at = self.MIN_SCAN
        return len(live)


class Kernel:
    """Deterministic discrete-event scheduler over a shared :class:`Clock`.

    The executor every component of the middleware schedules on —
    transport, SAM, the elastic controller, the checkpoint service and
    the obs hub.  Both backends are this class: the sim backend is the
    kernel itself, and
    :class:`repro.runtime.exec.wallclock.WallClockExecutor` subclasses
    it with a clock that reads scaled ``time.monotonic()`` and sleeps
    where this one jumps.  They differ in one policy, selected by
    ``wall_clock``: the sim refuses a deadline before ``now``
    (determinism demands a total order); the wall clock runs an overdue
    deadline as soon as possible, since real time moves between a caller
    computing a deadline and the kernel checking it.

    ``event_tap`` is None or a callable invoked with each executed
    handle before its callback runs (the obs hub installs one when
    tracing is enabled).
    """

    #: virtual time, not the host's monotonic clock (the wall clock sets True)
    wall_clock = False

    #: short backend name for logs and artifacts
    backend_name = "sim"

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        #: ``(time, seq, handle)`` entries (see the module docstring)
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = 0
        self._events_processed = 0
        #: optional observer of every executed event (repro.obs installs
        #: one when tracing is enabled); None keeps the loop at a single
        #: attribute check per event
        self.event_tap: Optional[Callable[[ScheduledEvent], None]] = None

    # -- scheduling ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self.clock.now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for tests and stats)."""
        return self._events_processed

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self.clock.now + delay, callback, *args, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute ``time``.

        The one scheduling body of both executors, which differ only in
        the past-deadline policy: the sim refuses a ``time`` before
        ``now``; a wall clock runs it as soon as possible, since its
        ``now`` moves on between a caller computing a deadline and this
        check.  Runs a few times per tuple, so the handle's slots are
        filled here rather than in an ``__init__`` frame, and the policy
        is read only for a deadline already past.
        """
        if time < self.clock.now and not self.wall_clock:
            raise ValueError(
                f"cannot schedule in the past: {time} < {self.clock.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = _new_handle(ScheduledEvent)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = event.fired = False
        event.label = label
        _heappush(self._heap, (time, seq, event))
        return event

    def call_soon(
        self, callback: Callable[..., Any], *args: Any, label: str = ""
    ) -> ScheduledEvent:
        """Schedule a callback at the current time (after pending same-time work)."""
        return self.schedule_at(self.clock.now, callback, *args, label=label)

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Run the single next pending event.  Returns False if none remain."""
        while self._heap:
            due, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.clock._advance_to(due)
            self._events_processed += 1
            event.fired = True
            if self.event_tap is not None:
                self.event_tap(event)
            event.callback(*event.args)
            return True
        return False

    def run_until(self, time: float) -> None:
        """Process all events with timestamp <= ``time``; leave clock at ``time``.

        Events scheduled during execution are processed too as long as they
        fall within the horizon, so chained periodic activities (metric
        pushes, polls) advance naturally.  A horizon in the past is the
        clock's to judge: the simulated one raises ``ValueError``, a
        real-time one has nothing left to wait for.
        """
        # hoisted locals: this loop executes every event in the
        # simulation, so each attribute lookup shaved here is paid back
        # millions of times (self._heap is only ever mutated in place,
        # never rebound, so the local alias stays valid; an entry is
        # ``(time, seq, handle)``: the deadline is read off the entry).
        # ``clock.now = due`` is the per-event advance: a slot store on the
        # sim clock (no deadline in the heap is ever before now, so there
        # is nothing to check), a wait on the wall clock (its ``now``
        # setter); the horizon goes through the checked ``_advance_to``
        heap = self._heap
        heappop = heapq.heappop
        clock = self.clock
        count = 0  # written back once, however the loop ends
        try:
            while heap:
                due, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if due > time:
                    break
                heappop(heap)
                clock.now = due
                count += 1
                event.fired = True
                if self.event_tap is not None:
                    self.event_tap(event)
                event.callback(*event.args)
        finally:
            self._events_processed += count
        clock._advance_to(time)

    def run_for(self, duration: float) -> None:
        """Convenience wrapper: run ``duration`` seconds past the current time."""
        self.run_until(self.clock.now + duration)

    def run(self, max_events: int = 1_000_000) -> None:
        """Drain the event queue completely (bounded by ``max_events``)."""
        count = 0
        while self.step():
            count += 1
            if count >= max_events:
                raise RuntimeError(
                    f"kernel did not quiesce within {max_events} events; "
                    "likely an unbounded periodic activity — use run_until()"
                )

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for _, _, event in self._heap if not event.cancelled)
