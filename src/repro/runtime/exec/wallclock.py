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

import time as _time

from repro.sim.kernel import Kernel

#: longest single sleep while idling toward a horizon; keeps the loop
#: responsive to KeyboardInterrupt without measurable busy-wait cost
_MAX_SLEEP = 0.2


class WallTimeClock:
    """Monotonic real-time clock scaled into executor seconds.

    Mirrors the :class:`repro.sim.clock.Clock` interface (``now`` and
    ``_advance_to``) so the kernel's dispatch loops work unchanged, but
    time advances on its own: ``_advance_to`` waits for it, and so does
    assigning ``now`` (the dispatch loop's per-event advance).
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

    @now.setter
    def now(self, time: float) -> None:
        """Real time cannot be set: wait until the clock reads ``time``."""
        self._advance_to(time)

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
    handles, ``event_tap``, ``pending_count``, the scheduling body
    (``schedule_at``) and both dispatch loops (``step`` /
    ``run_until``) from the kernel; overrides the time source, and
    ``wall_clock = True`` selects the past-deadline policy: a deadline
    already passed runs as soon as possible instead of raising.  A
    ``run_until`` horizon that has already passed is not an error here
    either (the monotonic clock advances between a caller computing it
    and the loop reading it): the events due by then run and the call
    returns.  Overdue events —
    deadlines the loop could not honor exactly because callbacks take
    real time — are executed rather than dropped, so ``run_until``'s
    post-condition matches the sim kernel's.
    """

    wall_clock = True
    backend_name = "wallclock"

    #: the kernel's one scheduling body, also entered under this class's
    #: own name (``bench/trace.py`` attributes it to this layer)
    schedule_at = Kernel.schedule_at

    def __init__(self, time_scale: float = 1.0) -> None:
        super().__init__(WallTimeClock(time_scale))
