"""Internal event records and the one-at-a-time delivery queue.

Sec. 4.2 of the paper: "Events are delivered to the ORCA logic one at a
time.  If other events occur while an event handling routine is under
execution, these events are queued by the ORCA service in the order they
were received."
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, List, Optional


@dataclass
class OrcaEvent:
    """One queued event: type, context, and the matching subscope keys.

    ``txn_id`` implements the paper's future-work reliable-delivery hook:
    every delivered event carries a transaction id, and actuations issued
    while handling the event are attributed to it (see
    :meth:`repro.orca.service.OrcaService.actuation_log`).
    """

    event_type: str
    context: Any
    scope_keys: List[str] = field(default_factory=list)
    txn_id: int = 0
    enqueued_at: float = 0.0
    delivered_at: Optional[float] = None

    @property
    def queue_latency(self) -> Optional[float]:
        """Seconds the event waited in the queue (None until delivered)."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.enqueued_at


@dataclass(frozen=True)
class QueueLatencyStats:
    """Aggregate queue-wait statistics over all delivered events.

    One-at-a-time delivery (Sec. 4.2) means a slow handler delays every
    queued event behind it; these numbers make that head-of-line blocking
    observable through the ORCA service inspection API.
    """

    delivered: int
    mean: float
    maximum: float
    last: float


class EventQueue:
    """FIFO queue with delivery bookkeeping."""

    def __init__(self) -> None:
        self._queue: Deque[OrcaEvent] = deque()
        self._next_txn = 1
        self.delivered_count = 0
        self.dropped_count = 0
        self.total_queue_latency = 0.0
        self.max_queue_latency = 0.0
        self.last_queue_latency = 0.0

    def push(self, event: OrcaEvent) -> OrcaEvent:
        """Append an event, stamping it with the next transaction id."""
        event.txn_id = self._next_txn
        self._next_txn += 1
        self._queue.append(event)
        return event

    def pop(self) -> Optional[OrcaEvent]:
        """Take the oldest queued event for delivery (None when empty)."""
        if not self._queue:
            return None
        self.delivered_count += 1
        return self._queue.popleft()

    def drop_all(self) -> None:
        """Discard every queued event, counting each as dropped."""
        self.dropped_count += len(self._queue)
        self._queue.clear()

    def record_delivery(self, event: OrcaEvent, now: float) -> float:
        """Stamp the delivery time on an event and fold it into the stats."""
        event.delivered_at = now
        latency = max(0.0, now - event.enqueued_at)
        self.total_queue_latency += latency
        self.max_queue_latency = max(self.max_queue_latency, latency)
        self.last_queue_latency = latency
        return latency

    def latency_stats(self) -> QueueLatencyStats:
        """Queue-wait statistics over every event delivered so far."""
        delivered = self.delivered_count
        mean = self.total_queue_latency / delivered if delivered else 0.0
        return QueueLatencyStats(
            delivered=delivered,
            mean=mean,
            maximum=self.max_queue_latency,
            last=self.last_queue_latency,
        )

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)
