"""The observability hub: one object wiring tracer, metrics, recorder.

A :class:`SystemS` always constructs an :class:`ObsHub` and attaches it
(``system.obs``).  Attachment has two tiers:

* **Control plane, always on** — the hub subscribes to the runtime bus
  (:class:`repro.runtime.events.RuntimeEvents`) and records rescale
  barrier phases, channel mask/unmask reroutes (with mask-time
  attribution), checkpoint attempts, chaos injections,
  and PE crash/restart transitions as control spans and registry
  metrics.  These are rare events; the cost is negligible.
* **Data plane, gated by ``SystemConfig.trace_enabled``** — per-tuple
  spans (emit -> transport -> process with per-operator latency
  attribution) and the kernel event tap.  When tracing is off the hot
  paths pay a single ``None`` check and nothing else; when on, tuples
  are sampled deterministically every
  ``SystemConfig.trace_sample_every``-th creation.

Dumps: the flight recorder fires automatically on PE crash (tracing
on), on a FAILED rescale, and — via the fuzz harness — on any oracle
violation.  All artifacts (Prometheus text, JSONL, timeline renders)
are byte-stable for a fixed seed because every value derives from the
sim clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.obs.flight import FlightDump, FlightRecorder
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry, ObsCounter, ObsHistogram
from repro.obs.naming import canonical_metric_name
from repro.obs.trace import CONTROL, DATA, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.engine import ChaosInjection
    from repro.checkpoint.service import CheckpointRecord
    from repro.elastic.controller import (
        BarrierEvent,
        ChannelReroute,
        RescaleOperation,
    )
    from repro.runtime.events import RuntimeEvents
    from repro.runtime.pe import PERuntime
    from repro.runtime.system import SystemConfig, SystemS
    from repro.sim.kernel import Kernel, ScheduledEvent


def _label_family(label: str) -> str:
    """Collapse a kernel event label to its stable family name.

    ``transport->work__c0[0]`` -> ``transport``; ``pe3-opwork`` ->
    ``pe-opwork``; digits are stripped so per-instance labels share one
    counter series.
    """
    if not label:
        return "unlabeled"
    head = label.split("->", 1)[0].split("[", 1)[0]
    family = "".join(ch for ch in head if not ch.isdigit())
    return family or "unlabeled"


class ObsHub:
    """Tracer + metrics registry + flight recorder, attached to a system."""

    def __init__(
        self,
        kernel: "Kernel",
        events: "RuntimeEvents",
        config: "SystemConfig",
    ) -> None:
        """Create the hub (call :meth:`attach` to wire it to a system).

        Args:
            kernel: The simulation kernel (clock source, event tap host).
            events: The runtime bus (the health plane publishes on it).
            config: The system's configuration: ``trace_enabled`` turns
                on data-plane tuple tracing and the kernel event tap,
                ``trace_sample_every`` and ``flight_capacity`` size the
                tracer and the flight ring; the health plane reads the rest.
        """
        self.kernel = kernel
        # read per ORCA event and per PE crash: bound here once
        self.trace_enabled = config.trace_enabled
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(sample_every=config.trace_sample_every)
        self.flight = FlightRecorder(capacity=config.flight_capacity)
        self.tracer.sinks.append(self.flight.record)
        #: the always-on health plane (windows, watermarks, SLO alerts);
        #: it registers no metric series and emits no spans on its own,
        #: so historical expositions stay byte-identical
        self.health = HealthMonitor(kernel, events, config)
        self._system: Optional["SystemS"] = None
        self._unsubscribe: Optional[Callable[[], None]] = None
        #: (job, region) -> quiesce time of the in-flight rescale
        self._quiesce_open: Dict[Tuple[str, str], float] = {}
        #: (job, region, channel) -> mask time of a masked channel
        self._mask_open: Dict[Tuple[str, int, str], float] = {}
        #: kernel label -> family (memoized; labels repeat heavily)
        self._families: Dict[str, str] = {}
        #: family -> its counter series (hot-path cache)
        self._kernel_counters: Dict[str, ObsCounter] = {}
        #: operator full name -> tuple-latency histogram (hot-path cache)
        self._latency_hists: Dict[str, ObsHistogram] = {}
        #: transport batch-size histogram, created lazily on the first
        #: flush — eager creation would add an empty series to every
        #: unbatched system's exposition and break artifact byte-stability
        self._batch_hist: Optional[ObsHistogram] = None
        #: reliable-delivery event kind -> counter, created lazily on the
        #: first event for the same byte-stability reason: a best-effort
        #: system never fires the hook and renders the historical
        #: exposition unchanged
        self._reliability_counters: Dict[str, ObsCounter] = {}
        #: replay-buffer gauge triple, created lazily at the first scrape
        #: that sees a non-empty exactly-once replay buffer (best-effort
        #: and at-least-once systems render unchanged)
        self._replay_gauges: Optional[Tuple[object, object, object]] = None
        #: links the replay gauges reported at the last scrape (so a link
        #: forgotten since reads 0 once before it leaves)
        self._replay_links: set = set()

    # -- wiring --------------------------------------------------------------

    def attach(self, system: "SystemS") -> None:
        """Subscribe the hub to a system's instrumentation taps.

        Control-plane subscriptions always attach; the transport/operator
        data-plane hooks and the kernel event tap only when
        ``trace_enabled`` (so a tracing-off hot path stays one ``None``
        check).

        Args:
            system: The system to observe.
        """
        self._system = system
        self._unsubscribe = system.events.subscribe(
            barrier=self._on_barrier,
            reroute=self._on_reroute,
            rescale=self._on_rescale,
            checkpoint=self._on_checkpoint_attempt,
            pe_failure=self._on_pe_failure,
            pe_restart=self._on_pe_restart,
            injection=self._on_injection,
            health_alert=self._on_health_alert,
        )
        # batch-size observations are control-plane (a counter bump per
        # *batch*, not per tuple), so the hook attaches regardless of
        # trace_enabled; unbatched systems never flush, never call it
        system.transport.batch_observer = self.record_batch_flush
        # reliable-delivery events (retransmit/ack/dedup/replay) are
        # control-plane too: rare, and only ever fired by the reliable
        # modes — a best-effort transport never calls the hook
        system.transport.reliability_observer = self.record_reliability_event
        # the health plane is always on: a kernel tick samples transport
        # pressure, and the ack round-trip tap reports through one
        # None-checked hook (only reliable modes ever fire it)
        system.transport.pressure_observer = self.health.on_transport_pressure
        self.health.attach(system)
        if self.trace_enabled:
            system.transport.obs = self
            self.kernel.event_tap = self._on_kernel_event

    def detach(self) -> None:
        """Unsubscribe from every tap and unhook the data plane."""
        if self._unsubscribe is not None:
            self._unsubscribe()  # idempotent: no need to forget the handle
        if self._system is not None:
            if self._system.transport.obs is self:
                self._system.transport.obs = None
            if self._system.transport.batch_observer == self.record_batch_flush:
                self._system.transport.batch_observer = None
            if (
                self._system.transport.reliability_observer
                == self.record_reliability_event
            ):
                self._system.transport.reliability_observer = None
            if (
                self._system.transport.pressure_observer
                == self.health.on_transport_pressure
            ):
                self._system.transport.pressure_observer = None
            if self.kernel.event_tap == self._on_kernel_event:
                self.kernel.event_tap = None
        self.health.detach()
        self._system = None

    # -- data plane (called only for traced tuples / when tracing on) --------

    def sample_tuple(self) -> bool:
        """Deterministic every-Nth sampling decision for a new tuple."""
        return self.tracer.sample()

    def record_emit(
        self, op: str, pe_id: Optional[str], job_id: str, time: float
    ) -> None:
        """Record a traced tuple's creation point."""
        self.tracer.event(
            "emit", time, kind=DATA, op=op, pe=pe_id or "", job=job_id
        )

    def record_transport(
        self,
        op: str,
        src_key: str,
        dst_pe_id: str,
        job_id: str,
        start: float,
        end: float,
    ) -> None:
        """Record a traced tuple's transport hop (send -> delivery)."""
        self.tracer.record(
            "transport",
            DATA,
            start,
            end,
            op=op,
            src=src_key,
            dst=dst_pe_id,
            job=job_id,
        )

    def record_process(
        self,
        op: str,
        pe_id: str,
        job_id: str,
        created_at: float,
        now: float,
    ) -> None:
        """Record a traced tuple's arrival at one operator.

        The span covers creation -> processing, which in a simulator
        with instantaneous operator work *is* the per-operator latency
        attribution: the observation lands in the
        ``repro_tuple_latency_seconds{op=...}`` histogram.
        """
        self.tracer.record(
            "process", DATA, created_at, now, op=op, pe=pe_id, job=job_id
        )
        hist = self._latency_hists.get(op)
        if hist is None:
            hist = self._latency_hists[op] = self.metrics.histogram(
                "repro_tuple_latency_seconds",
                {"op": op},
                help_text="creation-to-processing latency of sampled tuples",
            )
        hist.observe(now - created_at)

    def record_batch_flush(self, size: int) -> None:
        """Record the member count of one flushed transport batch.

        Observations land in the ``repro_transport_batch_size``
        histogram.  The series is created lazily on the first flush so
        systems that never batch (``batch_max_size`` 1, the default)
        render byte-identical expositions with or without this hook.
        """
        hist = self._batch_hist
        if hist is None:
            hist = self._batch_hist = self.metrics.histogram(
                "repro_transport_batch_size",
                help_text="tuples per flushed transport batch",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128, float("inf")),
            )
        hist.observe(size)

    def record_reliability_event(
        self, kind: str, count: int, op: str, attempt: int, time: float
    ) -> None:
        """Record one reliable-delivery transport event.

        ``kind`` is one of ``retransmit``, ``ack``,
        ``duplicate_suppressed``, ``replay``, ``ack_dropped``; counts
        land in the matching ``repro_transport_*_total`` counter
        (created lazily so best-effort expositions stay byte-identical).  Retransmits are
        additionally recorded as control-plane retry events carrying the
        attempt number, so a flight-recorder timeline shows every backoff
        step of a struggling link.
        """
        names = {
            "retransmit": "repro_transport_retransmissions_total",
            "ack": "repro_transport_acks_total",
            "duplicate_suppressed": "repro_transport_duplicates_suppressed_total",
            "replay": "repro_transport_replays_total",
            "ack_dropped": "repro_transport_acks_dropped_total",
        }
        helps = {
            "retransmit": "wire units re-sent after an ack timeout",
            "ack": "delivery acknowledgements received by senders",
            "duplicate_suppressed": (
                "arrivals suppressed by the exactly-once receiver watermark"
            ),
            "replay": "units replayed from the buffer after a PE restart",
            "ack_dropped": "acknowledgements lost to reverse-link faults",
        }
        counter = self._reliability_counters.get(kind)
        if counter is None:
            counter = self._reliability_counters[kind] = self.metrics.counter(
                names[kind], help_text=helps[kind]
            )
        counter.inc(count)
        if kind == "retransmit":
            self.record_control_event(
                "transport:retry", time, op=op, attempt=attempt
            )

    def record_orca_event(
        self, orca_id: str, event_type: str, enqueued_at: float, now: float
    ) -> None:
        """Record one delivered ORCA event's queue residence as a span."""
        self.tracer.record(
            f"orca:{event_type}", CONTROL, enqueued_at, now, orca=orca_id
        )

    def _on_kernel_event(self, event: "ScheduledEvent") -> None:
        """Kernel event tap: count executed callbacks per label family."""
        label = event.label
        family = self._families.get(label)
        if family is None:
            family = self._families[label] = _label_family(label)
        counter = self._kernel_counters.get(family)
        if counter is None:
            counter = self._kernel_counters[family] = self.metrics.counter(
                "repro_kernel_events_total",
                {"family": family},
                help_text="kernel callbacks executed per label family",
            )
        counter.inc()

    # -- control plane -------------------------------------------------------

    def record_control_event(self, name: str, time: float, **attrs: Any) -> None:
        """Record an ad-hoc control-plane point event (chaos, tools)."""
        self.tracer.event(name, time, kind=CONTROL, **attrs)

    def _on_health_alert(self, alert) -> None:
        # a raised SLO alert is a control-plane incident: span it so
        # flight dumps show health degradation next to the crashes and
        # rescales it predicts (fires only when SLOs are registered, so
        # SLO-free systems keep their artifacts byte-identical)
        self.record_control_event(
            f"health:{alert.severity}",
            alert.time,
            slo=alert.slo,
            signal=alert.signal,
            bottleneck=alert.bottleneck or "-",
        )

    def _on_barrier(self, event: "BarrierEvent") -> None:
        self.tracer.event(
            f"rescale:{event.phase}",
            event.time,
            job=event.job_id,
            region=event.region,
            epoch=event.epoch,
        )
        self.metrics.counter(
            "repro_rescale_barriers_total",
            {"phase": event.phase},
            help_text="rescale protocol phase transitions",
        ).inc()
        key = (event.job_id, event.region)
        if event.phase == "quiesce":
            self._quiesce_open[key] = event.time
        elif event.phase in ("resume", "failed"):
            started = self._quiesce_open.pop(key, None)
            if started is not None:
                self.tracer.record(
                    "rescale",
                    CONTROL,
                    started,
                    event.time,
                    job=event.job_id,
                    region=event.region,
                    outcome=event.phase,
                )
                self.metrics.histogram(
                    "repro_rescale_duration_seconds",
                    {"region": event.region},
                    help_text="quiesce-to-resume duration of rescales",
                ).observe(event.time - started)

    def _on_reroute(self, reroute: "ChannelReroute") -> None:
        action = "mask" if reroute.masked else "unmask"
        self.tracer.event(
            f"reroute:{action}",
            reroute.time,
            job=reroute.job_id,
            region=reroute.region,
            channel=reroute.channel,
            pe=reroute.pe_id,
        )
        self.metrics.counter(
            "repro_channel_reroutes_total",
            {"action": action},
            help_text="splitter mask/unmask reroutes of region channels",
        ).inc()
        key = (reroute.job_id, reroute.channel, reroute.region)
        if reroute.masked:
            self._mask_open[key] = reroute.time
        else:
            masked_at = self._mask_open.pop(key, None)
            if masked_at is not None:
                self.tracer.record(
                    "channel_masked",
                    CONTROL,
                    masked_at,
                    reroute.time,
                    job=reroute.job_id,
                    region=reroute.region,
                    channel=reroute.channel,
                )
                self.metrics.histogram(
                    "repro_region_mask_time_seconds",
                    {"region": reroute.region},
                    help_text="mask-to-unmask time of rerouted channels",
                ).observe(reroute.time - masked_at)

    def _on_rescale(self, op: "RescaleOperation") -> None:
        state = op.state.name.lower()
        self.metrics.counter(
            "repro_rescales_total",
            {"state": state},
            help_text="finished rescale operations by outcome",
        ).inc()
        if state == "failed":
            self.flight.dump(
                f"stuck_rescale:{op.region}", self.kernel.now, job_id=op.job_id
            )

    def _on_checkpoint_attempt(self, record: "CheckpointRecord") -> None:
        outcome = "commit" if record.committed else "torn"
        self.tracer.event(
            f"checkpoint:{outcome}",
            record.time,
            job=record.job_id,
            pe=record.pe_id,
            epoch=record.epoch,
        )
        self.metrics.counter(
            "repro_checkpoint_attempts_total",
            {"outcome": outcome},
            help_text="checkpoint attempts by outcome",
        ).inc()
        if record.committed:
            self.metrics.histogram(
                "repro_checkpoint_bytes",
                help_text="bytes written per committed checkpoint",
                buckets=(64, 256, 1024, 4096, 16384, 65536, float("inf")),
            ).observe(record.bytes_written)

    def _on_pe_failure(self, pe: "PERuntime", reason: str, detection_ts: float) -> None:
        self.tracer.event(
            "pe:crash",
            self.kernel.now,
            job=pe.job.job_id,
            pe=pe.pe_id,
            reason=reason,
        )
        self.metrics.counter(
            "repro_pe_crashes_total", help_text="PE crash notifications"
        ).inc()
        if self.trace_enabled:
            self.flight.dump(
                f"pe_crash:{pe.pe_id}", self.kernel.now, job_id=pe.job.job_id
            )

    def _on_pe_restart(self, pe: "PERuntime") -> None:
        self.tracer.event(
            "pe:restart", self.kernel.now, job=pe.job.job_id, pe=pe.pe_id
        )
        self.metrics.counter(
            "repro_pe_restarts_completed_total",
            help_text="completed PE restarts",
        ).inc()

    def _on_injection(self, injection: "ChaosInjection") -> None:
        self.tracer.event(
            f"chaos:{injection.kind}",
            injection.time,
            job=injection.job_id or "",
            target=injection.target,
            step=injection.step_index,
        )
        self.metrics.counter(
            "repro_chaos_injections_total",
            {"kind": injection.kind},
            help_text="fired chaos perturbations by kind",
        ).inc()

    # -- export --------------------------------------------------------------

    def scrape_srm(self) -> int:
        """Mirror every SRM sample into the registry as a canonical gauge.

        Sample names translate through
        :func:`repro.obs.naming.canonical_metric_name`; labels carry
        the SRM storage key (job, pe, operator, port).

        Returns:
            The number of samples mirrored.
        """
        system = self._system
        if system is None:
            return 0
        samples = system.srm.get_metrics()
        for sample in samples:
            labels = {"job": sample.job_id, "pe": sample.pe_id}
            if sample.operator is not None:
                labels["operator"] = sample.operator
            if sample.port is not None:
                labels["port"] = str(sample.port)
            self.metrics.gauge(
                canonical_metric_name(sample.name),
                labels,
                help_text="mirrored SRM sample",
            ).set(sample.value)
        self.scrape_transport()
        return len(samples)

    def scrape_transport(self) -> None:
        """Refresh transport-level gauges (exactly-once replay buffers).

        The epoch bounds each replay buffer; these per-link gauges show
        it: ``repro_transport_replay_buffer_items`` / ``_bytes`` track the
        retained units above each link's truncation floor, and
        ``repro_transport_replay_truncated_seq`` tracks the floor itself
        (so a shrink at epoch commit shows as items down, floor up).
        The gauge family is created lazily at the first scrape that sees
        a non-empty replay buffer: best-effort and at-least-once systems
        render their historical expositions byte-identically.
        """
        system = self._system
        if system is None:
            return
        if system.transport.reliability is None:
            return
        links = system.transport.links
        if self._replay_gauges is None and not any(
            link.replay for link in links.values()
        ):
            return
        if self._replay_gauges is None:
            self._replay_gauges = (
                lambda labels: self.metrics.gauge(
                    "repro_transport_replay_buffer_items",
                    labels,
                    help_text="exactly-once units retained for replay",
                ),
                lambda labels: self.metrics.gauge(
                    "repro_transport_replay_buffer_bytes",
                    labels,
                    help_text="payload bytes retained for replay",
                ),
                lambda labels: self.metrics.gauge(
                    "repro_transport_replay_truncated_seq",
                    labels,
                    help_text="link seq the replay buffer truncated to",
                ),
            )
        items_gauge, bytes_gauge, floor_gauge = self._replay_gauges
        retaining = {
            key for key, link in links.items() if link.replay or link.truncated_to
        }
        for key in sorted(self._replay_links | retaining):
            labels = {"src": key[0] or "-", "dst": key[1]}
            # None: forgotten with one of its PEs — reads zero once, then goes
            link = links.get(key)
            items = sum(e.count for e in link.replay.values()) if link else 0
            items_gauge(labels).set(items)
            bytes_gauge(labels).set(link.replay_bytes if link else 0)
            floor_gauge(labels).set(link.truncated_to if link else 0)
        self._replay_links = retaining

    def render_prometheus(self, scrape: bool = True) -> str:
        """The hub's metrics in Prometheus text format (byte-stable).

        Args:
            scrape: Refresh the SRM mirror first.

        Returns:
            The exposition text.
        """
        if scrape:
            self.scrape_srm()
        return self.metrics.render_prometheus()

    def render_jsonl(self, scrape: bool = True) -> str:
        """The hub's metrics as JSONL (includes histogram p50/p95/p99).

        Args:
            scrape: Refresh the SRM mirror first.

        Returns:
            Newline-delimited JSON.
        """
        if scrape:
            self.scrape_srm()
        return self.metrics.render_jsonl()

    def dump_flight(
        self, reason: str, job_id: Optional[str] = None
    ) -> FlightDump:
        """Take a flight-recorder dump now (manual trigger).

        Args:
            reason: Incident label for the dump header.
            job_id: Restrict to one job's ring (None: all).

        Returns:
            The retained dump.
        """
        return self.flight.dump(reason, self.kernel.now, job_id=job_id)
