"""Executor backends: the scheduler contract and its implementations.

See :mod:`repro.runtime.exec.base` for the contract,
:mod:`repro.runtime.exec.sim` for the deterministic twin, and
:mod:`repro.runtime.exec.wallclock` for the real-time backend.
Backends are selected by ``SystemConfig(executor=...)`` and constructed
through :func:`build_executor`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtime.exec.base import Executor
from repro.runtime.exec.sim import SimExecutor, build_sim_executor
from repro.runtime.exec.wallclock import WallClockExecutor, WallTimeClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.system import SystemConfig

#: executor names accepted by ``SystemConfig(executor=...)``
EXECUTOR_BACKENDS = ("sim", "wallclock")


def build_executor(config: "SystemConfig") -> Executor:
    """Build the executor backend selected by ``config.executor``.

    ``"sim"`` (default) returns the deterministic discrete-event kernel;
    ``"wallclock"`` returns a :class:`WallClockExecutor` whose time
    source is ``time.monotonic()`` scaled by
    ``config.wallclock_time_scale``.
    """
    kind = config.executor
    if kind == "sim":
        return build_sim_executor()
    if kind == "wallclock":
        return WallClockExecutor(time_scale=config.wallclock_time_scale)
    raise ValueError(
        f"unknown executor backend {kind!r}; expected one of {EXECUTOR_BACKENDS}"
    )


__all__ = [
    "EXECUTOR_BACKENDS",
    "Executor",
    "SimExecutor",
    "WallClockExecutor",
    "WallTimeClock",
    "build_executor",
    "build_sim_executor",
]
