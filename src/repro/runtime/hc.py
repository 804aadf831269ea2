"""Host Controller (HC).

One HC runs on every host (Sec. 2.2): it starts local PE processes on
behalf of SAM, keeps process status, collects metrics from local PEs and
periodically pushes them to SRM (every 3 seconds by default — the paper's
stated rate), and sends liveness heartbeats that SRM uses to detect host
failures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.sim.kernel import Kernel, ScheduledEvent
from repro.spl.metrics import OperatorMetricName, PEMetricName
from repro.runtime.host import Host
from repro.runtime.pe import PERuntime

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.srm import SRM, MetricSample
    from repro.runtime.system import SystemConfig

#: seconds between two liveness heartbeats to SRM
HEARTBEAT_INTERVAL = 1.0


class HostController:
    """Per-host daemon: local PE supervision and metric collection."""

    def __init__(
        self,
        host: Host,
        kernel: Kernel,
        srm: "SRM",
        config: "SystemConfig",
    ) -> None:
        self.host = host
        self.kernel = kernel
        self.srm = srm
        self.config = config
        self.pes: Dict[str, PERuntime] = {}
        #: SAM installs this to learn about local PE crashes.
        self.on_pe_crash: Optional[Callable[[PERuntime, str], None]] = None
        #: loop name -> its one pending firing, empty while the host is
        #: dead: ``kill`` cancels both, so neither loop runs on a dead host
        self._loops: Dict[str, ScheduledEvent] = {}

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self._again(HEARTBEAT_INTERVAL, self._heartbeat_loop)
        self._again(self.config.metric_push_interval, self._metric_loop)
        self.srm.heartbeat(self.host.name, self.kernel.now)

    def kill(self) -> None:
        """Host failure: HC dies with the host, PEs crash silently.

        No crash notifications are sent (the notifying daemon is dead too),
        and the host is *not* marked down here: SRM discovers the failure
        through missed heartbeats and updates its host registry at
        detection time (the gap between death and detection is real).
        """
        for loop in self._loops.values():
            loop.cancel()
        self._loops = {}
        for pe in list(self.pes.values()):
            pe.on_crash = None
            pe.crash("host_failure")

    @property
    def alive(self) -> bool:
        return bool(self._loops)

    def revive(self) -> None:
        """Bring the host (and its controller) back up, with no PEs."""
        self.host.mark_up()
        self.pes = {}
        self.start()

    # -- PE supervision ----------------------------------------------------------

    def add_pe(self, pe: PERuntime) -> None:
        self.pes[pe.pe_id] = pe
        pe.host_name = self.host.name
        pe.on_crash = self._local_pe_crashed

    def remove_pe(self, pe_id: str) -> None:
        pe = self.pes.pop(pe_id, None)
        if pe is not None:
            pe.on_crash = None

    def _local_pe_crashed(self, pe: PERuntime, reason: str) -> None:
        if self.alive and self.on_pe_crash is not None:
            self.on_pe_crash(pe, reason)

    # -- periodic loops ------------------------------------------------------------

    def _again(self, interval: float, loop: Callable[[], None]) -> None:
        """Schedule ``loop``'s next firing in place of the one that just ran."""
        self._loops[loop.__name__] = self.kernel.schedule(interval, loop)

    def _heartbeat_loop(self) -> None:
        self.srm.heartbeat(self.host.name, self.kernel.now)
        self._again(HEARTBEAT_INTERVAL, self._heartbeat_loop)

    def _metric_loop(self) -> None:
        self.collect_and_push()
        self._again(self.config.metric_push_interval, self._metric_loop)

    def collect_and_push(self) -> int:
        """Snapshot metrics of all local running PEs into SRM.

        Returns the number of samples pushed (handy in tests).
        """
        from repro.runtime.srm import MetricSample  # local import: cycle guard

        now = self.kernel.now
        pushed = 0
        for pe in self.pes.values():
            if not pe.is_running:
                continue
            pe.update_queue_metrics()
            samples = []
            for port, name, metric in pe.metrics:
                samples.append(
                    MetricSample(
                        job_id=pe.job.job_id,
                        app_name=pe.job.app_name,
                        pe_id=pe.pe_id,
                        operator=None,
                        port=port,
                        name=name,
                        value=metric.value,
                        collection_ts=now,
                        is_custom=name not in PEMetricName.ALL,
                    )
                )
            for op_name, operator in pe.operators.items():
                for port, name, metric in operator.metrics:
                    samples.append(
                        MetricSample(
                            job_id=pe.job.job_id,
                            app_name=pe.job.app_name,
                            pe_id=pe.pe_id,
                            operator=op_name,
                            port=port,
                            name=name,
                            value=metric.value,
                            collection_ts=now,
                            is_custom=name not in OperatorMetricName.ALL,
                        )
                    )
            self.srm.store_metrics(samples)
            pushed += len(samples)
        return pushed
