"""Executor backends: the one kernel, on virtual or real time.

Both backends are :class:`repro.sim.kernel.Kernel`: the deterministic
discrete-event kernel itself, and
:class:`repro.runtime.exec.wallclock.WallClockExecutor`, the same kernel
over a scaled ``time.monotonic()`` clock.  Backends are selected by
``SystemConfig(executor=...)`` and constructed through
:func:`build_executor`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.kernel import Kernel
from repro.runtime.exec.wallclock import WallClockExecutor, WallTimeClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.system import SystemConfig

#: executor names accepted by ``SystemConfig(executor=...)``
EXECUTOR_BACKENDS = ("sim", "wallclock")


def build_executor(config: "SystemConfig") -> Kernel:
    """Build the executor backend selected by ``config.executor``.

    ``"sim"`` (default) returns the deterministic discrete-event kernel
    at time 0; ``"wallclock"`` returns a :class:`WallClockExecutor`
    whose time source is ``time.monotonic()`` scaled by
    ``config.wallclock_time_scale``.
    """
    kind = config.executor
    if kind == "sim":
        return Kernel()
    if kind == "wallclock":
        return WallClockExecutor(time_scale=config.wallclock_time_scale)
    raise ValueError(
        f"unknown executor backend {kind!r}; expected one of {EXECUTOR_BACKENDS}"
    )


__all__ = [
    "EXECUTOR_BACKENDS",
    "WallClockExecutor",
    "WallTimeClock",
    "build_executor",
]
