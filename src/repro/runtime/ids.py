"""Monotonic identifier allocation for jobs and PEs.

System S names runtime entities with small monotonically increasing ids;
the orchestrator's event contexts carry these ids, so they must be unique
per System S instance, not per job.
"""

from __future__ import annotations


class IdAllocator:
    """Allocates ``prefix_N`` style identifiers."""

    def __init__(self, prefix: str, start: int = 1) -> None:
        self.prefix = prefix
        self._next = start

    def allocate(self) -> str:
        value = f"{self.prefix}_{self._next}"
        self._next += 1
        return value


class IdRegistry:
    """The allocators one System S instance needs."""

    def __init__(self) -> None:
        self.jobs = IdAllocator("job")
        self.pes = IdAllocator("pe")
        self.orcas = IdAllocator("orca")
        self.timers = IdAllocator("timer")
