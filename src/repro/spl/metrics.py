"""Runtime metrics.

SPL exposes two families of metrics (Sec. 2.1 of the paper):

* **built-in** metrics, common to every operator and PE — numbers of tuples
  processed/submitted, queue sizes, bytes processed;
* **custom** metrics, created by operator code at any point of execution and
  carrying operator-specific semantics (e.g. the sentiment application's
  counts of tweets with known and unknown causes).

Metrics are plain counters/gauges updated synchronously by operator and PE
code.  Host controllers snapshot them periodically and push them to SRM,
from which the ORCA service polls (Sec. 3).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, Optional, Tuple


class MetricKind(enum.Enum):
    """How a metric's value evolves."""

    COUNTER = "counter"
    GAUGE = "gauge"
    TIME = "time"


class OperatorMetricName:
    """Well-known built-in operator metric names."""

    N_TUPLES_PROCESSED = "nTuplesProcessed"
    N_TUPLES_SUBMITTED = "nTuplesSubmitted"
    N_PUNCTS_PROCESSED = "nPunctsProcessed"
    N_FINAL_PUNCTS_PROCESSED = "nFinalPunctsProcessed"
    QUEUE_SIZE = "queueSize"

    #: All built-in operator metrics, in creation order.
    ALL = (
        N_TUPLES_PROCESSED,
        N_TUPLES_SUBMITTED,
        N_PUNCTS_PROCESSED,
        N_FINAL_PUNCTS_PROCESSED,
        QUEUE_SIZE,
    )

    #: Convenience alias mirroring ``OperatorMetricScope::queueSize`` usage
    #: in the paper's Fig. 5.
    queueSize = QUEUE_SIZE


class PEMetricName:
    """Well-known built-in PE metric names."""

    N_TUPLES_PROCESSED = "nTuplesProcessed"
    N_TUPLE_BYTES_PROCESSED = "nTupleBytesProcessed"
    N_TUPLES_SUBMITTED = "nTuplesSubmitted"
    N_RESTARTS = "nRestarts"

    ALL = (
        N_TUPLES_PROCESSED,
        N_TUPLE_BYTES_PROCESSED,
        N_TUPLES_SUBMITTED,
        N_RESTARTS,
    )


class Metric:
    """A single named counter or gauge (the tuple path adds to ``value`` in place)."""

    __slots__ = ("name", "kind", "description", "value")

    def __init__(
        self,
        name: str,
        kind: MetricKind = MetricKind.COUNTER,
        description: str = "",
        value: float = 0,
    ) -> None:
        self.name = name
        self.kind = kind
        self.description = description
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def increment(self, amount: float = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Metric({self.name}={self.value}, {self.kind.value})"


class MetricRegistry:
    """Set of metrics owned by one operator instance or one PE.

    Port-scoped metrics are stored under a composite key ``(port, name)``
    with ``port is None`` meaning operator/PE scope.  Iteration yields
    ``(port, name, metric)`` triples, which is the shape the host controller
    pushes to SRM.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[Optional[int], str], Metric] = {}

    def create(
        self,
        name: str,
        kind: MetricKind = MetricKind.COUNTER,
        description: str = "",
        port: Optional[int] = None,
    ) -> Metric:
        key = (port, name)
        if key in self._metrics:
            raise ValueError(f"metric {name!r} (port={port}) already exists")
        metric = Metric(name, kind, description)
        self._metrics[key] = metric
        return metric

    def get_or_create(
        self,
        name: str,
        kind: MetricKind = MetricKind.COUNTER,
        port: Optional[int] = None,
    ) -> Metric:
        key = (port, name)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Metric(name, kind)
            self._metrics[key] = metric
        return metric

    def get(self, name: str, port: Optional[int] = None) -> Metric:
        try:
            return self._metrics[(port, name)]
        except KeyError:
            raise KeyError(f"no metric {name!r} (port={port})") from None

    def has(self, name: str, port: Optional[int] = None) -> bool:
        return (port, name) in self._metrics

    def __iter__(self) -> Iterator[Tuple[Optional[int], str, Metric]]:
        for (port, name), metric in self._metrics.items():
            yield port, name, metric

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[Tuple[Optional[int], str], float]:
        """Point-in-time copy of all values (used by the host controller)."""
        return {key: metric.value for key, metric in self._metrics.items()}
