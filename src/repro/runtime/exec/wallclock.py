"""Wall-clock executor: the same event loop driven by real time.

:class:`WallClockExecutor` reuses the simulated kernel's heap, handle
type, tie-breaking, and cancellation semantics — it subclasses
:class:`repro.sim.kernel.Kernel` — but its clock is a scaled
``time.monotonic()`` reading and its run loop *sleeps* until the next
event is due instead of warping virtual time forward.  Everything built
against the executor contract (transport retry timers, checkpoint
cadence, chaos scenario steps, health-plane ticks) therefore runs
unmodified in real time.

``time_scale`` maps virtual seconds to real seconds: at the default 1.0
a 0.25 s ack timeout takes 250 real milliseconds; at ``time_scale=50`` a
60-virtual-second chaos campaign finishes in ~1.2 s of wall time while
every relative ordering is preserved.  Benchmarks report at scale 1.0.

Two deliberate contract relaxations versus the sim twin, documented in
:mod:`repro.runtime.exec.base`:

* ``schedule_at`` clamps past deadlines to "now" instead of raising —
  the monotonic clock advances between a caller computing a deadline
  and the executor checking it, so a hard error would be a race.
* Execution order of same-deadline events is still schedule order, but
  *which* events share a deadline depends on real scheduling jitter, so
  wall-clock runs are not byte-reproducible.  The sim kernel remains
  the deterministic twin.
"""

from __future__ import annotations

import heapq
import time as _time
from typing import Any, Callable

from repro.sim.kernel import Kernel, ScheduledEvent

#: longest single sleep while idling toward a horizon; keeps the loop
#: responsive to KeyboardInterrupt without measurable busy-wait cost
_MAX_SLEEP = 0.2


class WallTimeClock:
    """Monotonic real-time clock scaled into executor seconds.

    Mirrors the :class:`repro.sim.clock.Clock` interface (``now`` and
    ``_advance_to``) so the kernel machinery works unchanged, but time
    advances on its own: ``_advance_to`` is a no-op because nothing can
    move real time.
    """

    __slots__ = ("time_scale", "_origin")

    def __init__(self, time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be > 0, got {time_scale}")
        self.time_scale = float(time_scale)
        self._origin = _time.monotonic()

    @property
    def now(self) -> float:
        """Scaled seconds since this clock was created."""
        return (_time.monotonic() - self._origin) * self.time_scale

    def _advance_to(self, time: float) -> None:
        """No-op: real time cannot be warped; overdue events just run."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WallTimeClock(now={self.now:.3f}, scale={self.time_scale})"


class WallClockExecutor(Kernel):
    """Executor backend where ``now`` is scaled real time.

    Inherits the heap, :class:`~repro.sim.kernel.ScheduledEvent`
    handles, ``event_tap``, and ``pending_count`` from the kernel;
    overrides the time source, the past-deadline policy, and the
    execution drivers to wait out gaps in real time.
    """

    wall_clock = True
    backend_name = "wallclock"

    def __init__(self, time_scale: float = 1.0) -> None:
        super().__init__(WallTimeClock(time_scale))

    # -- scheduling ---------------------------------------------------------

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule at absolute ``time``; overdue deadlines run ASAP.

        Unlike the sim kernel this never raises for past times — between
        a caller computing ``now + delay`` and this check, the monotonic
        clock has already advanced.
        """
        event = ScheduledEvent(time, self._seq, callback, args, label)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    # -- execution ----------------------------------------------------------

    def _sleep_until(self, deadline: float) -> None:
        """Block until the scaled clock reaches ``deadline``."""
        clock = self.clock
        scale = clock.time_scale
        while True:
            remaining = (deadline - clock.now) / scale
            if remaining <= 0:
                return
            _time.sleep(min(remaining, _MAX_SLEEP))

    def step(self) -> bool:
        """Run the next pending event, sleeping until it is due."""
        heap = self._heap
        while heap:
            if heap[0].cancelled:
                heapq.heappop(heap)
                continue
            self._sleep_until(heap[0].time)
            event = heapq.heappop(heap)
            if event.cancelled:  # cancelled while we slept? single-threaded,
                continue  # but harmless to re-check after the pop
            self._events_processed += 1
            event.fired = True
            if self.event_tap is not None:
                self.event_tap(event)
            event.callback(*event.args)
            return True
        return False

    def run_until(self, time: float) -> None:
        """Run events due at or before ``time``, waiting out gaps.

        Returns once real (scaled) time has passed ``time`` and no event
        with ``event.time <= time`` remains.  Overdue events — deadlines
        the loop could not honor exactly because callbacks take real
        time — are executed rather than dropped, so the post-condition
        matches the sim kernel's.
        """
        heap = self._heap
        heappop = heapq.heappop
        clock = self.clock
        self._running = True
        try:
            while True:
                while heap and heap[0].cancelled:
                    heappop(heap)
                if not heap or heap[0].time > time:
                    # nothing (left) inside the horizon: idle out the
                    # remainder so `now >= time` on return, like the twin
                    if clock.now < time:
                        self._sleep_until(time)
                        continue  # sleep may have been cut short; re-check
                    return
                event = heap[0]
                if event.time > clock.now:
                    self._sleep_until(min(event.time, time))
                    continue
                heappop(heap)
                self._events_processed += 1
                event.fired = True
                if self.event_tap is not None:
                    self.event_tap(event)
                event.callback(*event.args)
        finally:
            self._running = False
