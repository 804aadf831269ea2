"""Wall-clock executor: the same event loop driven by real time.

:class:`WallClockExecutor` reuses the simulated kernel's heap, handle
type, tie-breaking, cancellation semantics *and dispatch loops* — it
subclasses :class:`repro.sim.kernel.Kernel` — but its clock is a scaled
``time.monotonic()`` reading, and where the sim clock warps virtual time
forward, :meth:`WallTimeClock._advance_to` *sleeps* until the next event
is due.  Everything built against the executor contract (transport
retry timers, checkpoint cadence, chaos scenario steps, health-plane
ticks) therefore runs unmodified in real time.

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
    ``_advance_to``) so the kernel's dispatch loops work unchanged, but
    time advances on its own: ``_advance_to`` waits for it.
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
        """Sleep until the clock reads ``time``; return at once if overdue."""
        while True:  # inlined ``now``: this runs once per dispatched event
            remaining = time - (_time.monotonic() - self._origin) * self.time_scale
            if remaining <= 0:
                return
            _time.sleep(min(remaining / self.time_scale, _MAX_SLEEP))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WallTimeClock(now={self.now:.3f}, scale={self.time_scale})"


class WallClockExecutor(Kernel):
    """Executor backend where ``now`` is scaled real time.

    Inherits the heap, :class:`~repro.sim.kernel.ScheduledEvent`
    handles, ``event_tap``, ``pending_count`` and both dispatch loops
    (``step`` / ``run_until``) from the kernel; overrides the time
    source and the past-deadline policy.  A ``run_until`` horizon that
    has already passed is not an error here either (the monotonic clock
    advances between a caller computing it and the loop reading it): the
    events due by then run and the call returns.  Overdue events —
    deadlines the loop could not honor exactly because callbacks take
    real time — are executed rather than dropped, so ``run_until``'s
    post-condition matches the sim kernel's.
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
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        return event
