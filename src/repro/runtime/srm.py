"""SRM — Streams Resource Manager.

Sec. 2.2 of the paper: SRM maintains which hosts are available, tracks the
liveness of system components and PEs, detects and notifies process/host
failures, and "serves as a collector for all metrics maintained by the
system" — built-in and custom metrics of all SPL applications.

The ORCA service periodically *pulls* metric snapshots from SRM (default
every 15 seconds, Sec. 4.2); that pull "does not generate further remote
calls to operators" because host controllers push updated values on their
own fixed 3-second cadence.

SRM is also the one writer of the runtime's exported series: each
stored sample key owns a gauge in the system's
:class:`~repro.obs.metrics.MetricsRegistry`, created under the key's
canonical name (:func:`~repro.obs.naming.canonical_metric_name`) when
the key is first pushed, set by every push, and removed with the PE.
The exposition therefore shows what SRM holds, as of the last push.
Stores and queries speak the paper's names only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.naming import canonical_metric_name
from repro.sim.kernel import Kernel, ScheduledEvent
from repro.runtime.host import Host


@dataclass(frozen=True)
class MetricSample:
    """One metric value as stored by SRM.

    ``operator`` is None for PE-level metrics; ``port`` is None for
    operator/PE scope (non-port) metrics.
    """

    job_id: str
    app_name: str
    pe_id: str
    operator: Optional[str]
    port: Optional[int]
    name: str
    value: float
    collection_ts: float
    is_custom: bool


#: seconds of heartbeat silence after which a host is declared failed
HEARTBEAT_TIMEOUT = 3.0
#: seconds between two liveness sweeps over the host registry
SWEEP_INTERVAL = 1.0

#: Storage key: (job, pe, operator-or-None, port-or-None, metric name).
_Key = Tuple[str, str, Optional[str], Optional[int], str]

#: HELP text of every family SRM exports: each gauge holds the value of
#: its key's latest push (the family name says which metric)
SRM_HELP = "latest value a host-controller push stored in SRM"


def _labels(key: _Key) -> Dict[str, str]:
    """The exported labels of one storage key."""
    job_id, pe_id, operator, port, _name = key
    labels = {"job": job_id, "pe": pe_id}
    if operator is not None:
        labels["operator"] = operator
    if port is not None:
        labels["port"] = str(port)
    return labels


class SRM:
    """Host registry, liveness tracking, and the system-wide metric store."""

    def __init__(self, kernel: Kernel, metrics: MetricsRegistry) -> None:
        """Create the store; its exported gauges live in ``metrics``."""
        self.kernel = kernel
        self.metrics = metrics
        self.hosts: Dict[str, Host] = {}
        self._heartbeats: Dict[str, float] = {}
        #: key -> [latest sample, its exported gauge]; a key keeps the
        #: place its first push gave it (ORCA emits one event per row,
        #: in this order)
        self._rows: Dict[_Key, List] = {}
        #: SAM installs this to learn about host failures.
        self.on_host_failure: Optional[Callable[[str, float], None]] = None
        self._next_sweep: Optional[ScheduledEvent] = None

    # -- host registry ----------------------------------------------------------

    def register_host(self, host: Host) -> None:
        """Add a host to the registry."""
        self.hosts[host.name] = host

    # -- liveness -----------------------------------------------------------------

    def start(self) -> None:
        """Begin the heartbeat sweep loop."""
        if self._next_sweep is None:
            self._next_sweep = self.kernel.schedule(SWEEP_INTERVAL, self._sweep)

    def heartbeat(self, host_name: str, ts: float) -> None:
        """Record a host controller's liveness beat at ``ts``."""
        self._heartbeats[host_name] = ts

    def _sweep(self) -> None:
        now = self.kernel.now
        # an executor that ran this sweep late ran the heartbeats due after it
        # late too (wall clock only; 0.0 on the sim): its stall is nobody's death
        silence = HEARTBEAT_TIMEOUT + (now - self._next_sweep.time)
        for name, host in self.hosts.items():
            last = self._heartbeats.get(name)
            if host.is_up and last is not None and now - last > silence:
                host.mark_down()
                if self.on_host_failure is not None:
                    self.on_host_failure(name, now)
        self._next_sweep = self.kernel.schedule(SWEEP_INTERVAL, self._sweep)

    # -- metrics --------------------------------------------------------------------

    def store_metrics(self, samples: Iterable[MetricSample]) -> None:
        """Upsert the latest value of each metric (host controllers push here)."""
        rows = self._rows
        for sample in samples:
            key = (
                sample.job_id,
                sample.pe_id,
                sample.operator,
                sample.port,
                sample.name,
            )
            row = rows.get(key)
            if row is None:
                # a key's series is named once, when the key is first stored
                gauge = self.metrics.gauge(
                    canonical_metric_name(sample.name), _labels(key), help_text=SRM_HELP
                )
                row = rows[key] = [sample, gauge]
            else:
                row[0] = sample
            row[1].value = sample.value

    def get_metrics(self, job_ids: Optional[Iterable[str]] = None) -> List[MetricSample]:
        """Snapshot of all stored metrics, optionally restricted to some jobs.

        This is the call the ORCA service makes on every poll; the response
        "contains all metrics associated with a set of jobs" (Sec. 4.2).
        """
        if job_ids is None:
            return [sample for sample, _gauge in self._rows.values()]
        wanted = set(job_ids)
        return [
            sample for sample, _gauge in self._rows.values() if sample.job_id in wanted
        ]

    def drop_pe_metrics(self, job_id: str, pe_ids: Collection[str]) -> None:
        """Forget the metrics of PEs gone for good (scale-in, cancellation).

        Without this, a parallel-region scale-in would leave ghost samples
        of the removed channels behind, the ORCA metric poll would keep
        emitting events for operators that no longer exist, and the
        exposition would keep their series.
        """
        doomed = [
            key
            for key, (sample, _gauge) in self._rows.items()
            if sample.job_id == job_id and sample.pe_id in pe_ids
        ]
        for key in doomed:
            gauge = self._rows.pop(key)[1]
            self.metrics.remove(gauge.name, _labels(key))

    def sum_operator_metric_by_group(
        self,
        job_id: str,
        groups: Dict[int, Iterable[str]],
        name: str,
        port: Optional[int] = None,
    ) -> Dict[int, float]:
        """Per-group totals of one metric, in a single pass over the store.

        The ORCA congestion check aggregates a region's metric per channel
        on every poll; doing that channel-by-channel would rescan the whole
        system-wide metric store once per channel.  This walks it once.
        """
        group_of: Dict[str, int] = {
            op: key for key, ops in groups.items() for op in ops
        }
        totals: Dict[int, float] = {key: 0.0 for key in groups}
        for sample, _gauge in self._rows.values():
            if (
                sample.job_id == job_id
                and sample.name == name
                and sample.port == port
            ):
                key = group_of.get(sample.operator)
                if key is not None:
                    totals[key] += sample.value
        return totals

    def metric_value(
        self,
        job_id: str,
        pe_id: str,
        operator: Optional[str],
        name: str,
        port: Optional[int] = None,
    ) -> Optional[float]:
        """Point query (tests and tools)."""
        row = self._rows.get((job_id, pe_id, operator, port, name))
        return row[0].value if row else None
