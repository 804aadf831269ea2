"""Deterministic discrete-event simulation substrate.

Every runtime component of the simulated System S middleware (SAM, SRM, host
controllers, PEs) and of the orchestrator (metric polling, dependency
submission threads, timers) is driven by one :class:`~repro.sim.kernel.Kernel`
instance so that entire end-to-end scenarios — including failures and
adaptation — replay identically from a seed.
"""

from repro.sim.clock import Clock
from repro.sim.kernel import Kernel, OutstandingHandles, ScheduledEvent
from repro.sim.rand import RandomStreams

__all__ = ["Clock", "Kernel", "OutstandingHandles", "ScheduledEvent", "RandomStreams"]
