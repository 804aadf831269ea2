"""Runtime metrics.

SPL exposes two families of metrics (Sec. 2.1 of the paper):

* **built-in** metrics, common to every operator and PE — numbers of tuples
  processed/submitted, queue sizes, bytes processed;
* **custom** metrics, created by operator code at any point of execution and
  carrying operator-specific semantics (e.g. the sentiment application's
  counts of tweets with known and unknown causes).

Metrics are plain counters/gauges updated synchronously by operator and PE
code, except an operator's ``nTuplesProcessed`` / ``nTuplesSubmitted``
totals: those are read-only sums (:class:`SumMetric`) of the per-port
counters, which are the only ones the tuple path bumps.  Host controllers
snapshot them periodically and push them to SRM, from which the ORCA
service polls (Sec. 3).  :class:`Metric` is also the
value type of the exported registry's counters and gauges
(:mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Tuple


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
        """Replace the value."""
        self.value = value

    def increment(self, amount: float = 1) -> None:
        """Add ``amount`` to the value."""
        self.value += amount

    def reset(self) -> None:
        """Set the value back to 0."""
        self.value = 0

    def __repr__(self) -> str:
        return f"Metric({self.name}={self.value}, {self.kind.value})"


class SumMetric(Metric):
    """A read-only total: the sum of its parts' values, read on demand.

    An operator's ``nTuplesProcessed`` and ``nTuplesSubmitted`` are sums
    of every same-named port counter its registry ever held (ports a
    scale-in took away included), so each hop bumps one counter and the
    total cannot drift from its ports.  Assigning ``value`` (and so
    :meth:`~Metric.set`, :meth:`~Metric.increment`,
    :meth:`~Metric.reset`) raises ``AttributeError``.
    """

    __slots__ = ("_parts",)

    def __init__(self, name: str, kind: MetricKind, parts: List[Metric]) -> None:
        self.name = name
        self.kind = kind
        self.description = ""
        self._parts = parts

    @property
    def value(self) -> float:
        """The sum of the parts' current values."""
        return sum(part.value for part in self._parts)

    @value.setter
    def value(self, _value: float) -> None:
        """Refuse: a sum moves only with its parts."""
        raise AttributeError(f"{self.name} is a sum of port counters and cannot be set")


class MetricRegistry:
    """Set of metrics owned by one operator instance or one PE.

    Port-scoped metrics are stored under a composite key ``(port, name)``
    with ``port is None`` meaning operator/PE scope.  Iteration yields
    ``(port, name, metric)`` triples, which is the shape the host controller
    pushes to SRM.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[Optional[int], str], Metric] = {}
        #: name -> the port-scoped metrics its :class:`SumMetric` adds up
        self._parts: Dict[str, List[Metric]] = {}

    def create(
        self,
        name: str,
        kind: MetricKind = MetricKind.COUNTER,
        description: str = "",
        port: Optional[int] = None,
    ) -> Metric:
        """Create a metric; an existing ``(port, name)`` raises ``ValueError``."""
        key = (port, name)
        if key in self._metrics:
            raise ValueError(f"metric {name!r} (port={port}) already exists")
        return self._add(port, name, Metric(name, kind, description))

    def create_sum(self, name: str, kind: MetricKind = MetricKind.COUNTER) -> Metric:
        """Create ``name`` at ``port=None`` as a :class:`SumMetric` of the
        port-scoped metrics named ``name``, present and future; an existing
        one raises ``ValueError``."""
        if (None, name) in self._metrics:
            raise ValueError(f"metric {name!r} (port=None) already exists")
        parts = self._parts[name] = [
            metric for (port, n), metric in self._metrics.items() if n == name and port is not None
        ]
        return self._add(None, name, SumMetric(name, kind, parts))

    def get_or_create(
        self,
        name: str,
        kind: MetricKind = MetricKind.COUNTER,
        port: Optional[int] = None,
    ) -> Metric:
        """The metric at ``(port, name)``, created on first use."""
        key = (port, name)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._add(port, name, Metric(name, kind))
        return metric

    def _add(self, port: Optional[int], name: str, metric: Metric) -> Metric:
        """Register a new metric, as a part of its name's sum if it has one."""
        self._metrics[(port, name)] = metric
        if port is not None and name in self._parts:
            self._parts[name].append(metric)
        return metric

    def get(self, name: str, port: Optional[int] = None) -> Metric:
        """The metric at ``(port, name)``; a missing one raises ``KeyError``."""
        try:
            return self._metrics[(port, name)]
        except KeyError:
            raise KeyError(f"no metric {name!r} (port={port})") from None

    def has(self, name: str, port: Optional[int] = None) -> bool:
        """Whether a metric exists at ``(port, name)``."""
        return (port, name) in self._metrics

    def __iter__(self) -> Iterator[Tuple[Optional[int], str, Metric]]:
        for (port, name), metric in self._metrics.items():
            yield port, name, metric

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[Tuple[Optional[int], str], float]:
        """Point-in-time copy of all values, keyed ``(port, name)``."""
        return {key: metric.value for key, metric in self._metrics.items()}
