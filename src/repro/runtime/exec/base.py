"""The executor contract extracted from the simulated kernel.

Every component of the middleware — transport, SAM, the elastic
controller, the checkpoint service and the obs hub — talks to the
scheduler through exactly the surface documented here: event
scheduling (:meth:`Executor.schedule` / :meth:`Executor.schedule_at` /
:meth:`Executor.call_soon`), cancellation via the returned handle, the
``now`` time source, the execution drivers (:meth:`Executor.step`,
:meth:`Executor.run_until`, :meth:`Executor.run_for`,
:meth:`Executor.run`), and the ``event_tap`` observer hook.

Two implementations satisfy the contract:

* :class:`repro.sim.kernel.Kernel` — the deterministic discrete-event
  twin.  Virtual time jumps instantaneously between events; ties are
  broken by scheduling order, so identical seeds give byte-identical
  runs.  It is registered as a virtual subclass (it must not import this
  package: ``repro.sim`` sits below ``repro.runtime`` in the layer
  graph).
* :class:`repro.runtime.exec.wallclock.WallClockExecutor` — the
  wall-clock backend.  ``now`` derives from ``time.monotonic()``; the
  run loop sleeps until the next event is due instead of warping time.

Backends are selected with ``SystemConfig(executor=...)`` and built by
:func:`repro.runtime.exec.build_executor`; the conformance suite in
``tests/test_executor_conformance.py`` holds both to the same observable
semantics (event ordering, timer cancellation, barrier flushes, crash
condemnation).
"""

from __future__ import annotations

import abc
from typing import Any, Callable


class Executor(abc.ABC):
    """Abstract scheduler contract every backend must satisfy.

    The contract is intentionally the exact public surface of the
    historical simulated kernel, so every existing component runs
    unmodified on any backend.  Implementations must provide, beyond
    the abstract methods below, two attributes:

    ``event_tap``
        Either ``None`` or a callable invoked with each executed
        event handle *before* its callback runs (the obs hub installs
        one when tracing is enabled).

    ``wall_clock``
        Class-level bool: ``True`` when ``now`` tracks real elapsed
        time (scaled), ``False`` for virtual time.
    """

    #: True when ``now`` is driven by the host's monotonic clock.
    wall_clock: bool = False

    #: short backend name used in logs, benchmarks, and artifacts
    backend_name: str = "executor"

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds (virtual or scaled-monotonic).

        Both backends read it off their ``clock``: on the sim
        :class:`~repro.sim.clock.Clock` ``now`` is a plain slot the
        dispatch loop writes (a per-tuple reader binds
        ``partial(getattr, kernel.clock, "now")`` and pays no Python
        frame), on the wall clock's ``WallTimeClock`` it is a property
        that reads the monotonic clock.
        """

    @property
    @abc.abstractmethod
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""

    @abc.abstractmethod
    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any, label: str = ""
    ) -> Any:
        """Run ``callback(*args)`` ``delay`` seconds from now; return a handle.

        The handle exposes ``cancel()`` (idempotent), a ``time``
        attribute, and ``cancelled`` / ``fired`` flags (``fired`` is set
        by the dispatch loop just before the callback runs; a handle is
        outstanding while neither is set).  ``delay`` must be >= 0.
        """

    @abc.abstractmethod
    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any, label: str = ""
    ) -> Any:
        """Run ``callback(*args)`` at absolute ``time``; return a handle.

        Sim backends reject times in the past (determinism demands a
        total order); wall-clock backends clamp overdue times to "as
        soon as possible" because real time advances between the
        caller computing a deadline and the executor checking it.
        """

    @abc.abstractmethod
    def call_soon(
        self, callback: Callable[..., Any], *args: Any, label: str = ""
    ) -> Any:
        """Run ``callback(*args)`` after already-pending same-time work."""

    @abc.abstractmethod
    def step(self) -> bool:
        """Execute the single next pending event; False when none remain."""

    @abc.abstractmethod
    def run_until(self, time: float) -> None:
        """Execute every event due at or before ``time``.

        On return ``now`` is at least ``time`` and no event with
        ``event.time <= time`` remains pending.  Events scheduled
        *during* execution are processed too when they fall within the
        horizon, so chained periodic activities advance naturally.
        """

    @abc.abstractmethod
    def run_for(self, duration: float) -> None:
        """Equivalent to ``run_until(now + duration)``."""

    @abc.abstractmethod
    def run(self, max_events: int = 1_000_000) -> None:
        """Drain the queue completely (bounded by ``max_events``)."""

    @abc.abstractmethod
    def pending_count(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
