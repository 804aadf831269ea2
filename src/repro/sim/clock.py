"""Simulated wall clock.

The clock is advanced only by the :class:`~repro.sim.kernel.Kernel`; every
component that needs the current time holds a reference to the shared clock
and reads :attr:`Clock.now`.  Times are floating-point seconds since the
start of the simulation.

``now`` is a plain slot, not a property: reading the time is one attribute
load (no Python frame), which the per-tuple path does several times per
hop.  The wall-clock twin (:class:`~repro.runtime.exec.wallclock.WallTimeClock`)
keeps ``now`` a property, because there time moves on its own.
"""

from __future__ import annotations


class Clock:
    """Monotonically advancing simulated time in seconds.

    Attributes:
        now: Current simulated time in seconds; read it freely, move it
            only through :meth:`_advance_to` — except the kernel's
            dispatch loop, which assigns each event's deadline (never
            before ``now``: the kernel refuses past deadlines).
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def _advance_to(self, time: float) -> None:
        """Move the clock forward.  Only the kernel may call this."""
        if time < self.now:
            raise ValueError(
                f"clock cannot move backwards: {time} < {self.now}"
            )
        self.now = time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock(now={self.now:.3f})"
