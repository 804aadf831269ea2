"""Continuous health plane: windowed signals, lag watermarks, alerts.

``repro.obs.health`` keeps an always-on, incrementally-maintained view
of how the runtime is doing *right now* — the input the paper's
adaptation routines (and our scaling policies) need in order to react
to degradation before it becomes loss:

* **Sliding windows** — :class:`SlidingWindow` maintains rate / mean /
  max / quantiles of one signal over a sim-time horizon with
  fixed-width buckets, so every statistic is incremental (observe is
  O(1), reads merge a handful of buckets) and fully deterministic.
* **Backpressure & lag watermarks** — every evaluation tick samples the
  transport's per-link in-flight depth, open-batch residency, and
  reliable-delivery retry pressure, and rolls them into a per-link
  **lag watermark**: the sim-time a tuple enqueued now should expect to
  wait before it clears the wire.  Region watermarks take the max over
  the links feeding a parallel region's operators.
* **Bottleneck attribution** — each tick feeds per-link pressure
  samples to :class:`repro.obs.detect.BottleneckDetector`, which names
  the current bottleneck with a why-string.
* **SLO burn-rate alerts** — declarative :class:`repro.obs.slo.Slo`
  objectives are evaluated with multi-window burn rates; raised alerts
  are published as ``health_alert`` runtime events (ORCA forwards them
  to :class:`~repro.orca.scopes.HealthScope` subscribers).

Everything derives from the sim clock and sampled runtime state — no
wall clocks, no randomness — so :meth:`HealthMonitor.snapshot` renders
byte-identically across same-seed runs.  The monitor registers **no**
metric series and emits **no** spans unless SLOs are configured and
fire, which keeps every historical artifact byte-stable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.obs.detect import Bottleneck, BottleneckDetector, PressureSample
from repro.obs.slo import SEVERITY_RANK, SHORT_WINDOW, HealthAlert, Slo, classify

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.events import RuntimeEvents
    from repro.runtime.system import SystemConfig, SystemS
    from repro.sim.kernel import Kernel, ScheduledEvent

#: default quantile bucket bounds for seconds-scale window signals
WINDOW_BOUNDS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, float("inf"),
)


class _WindowBucket:
    """One fixed-width time slice of a sliding window."""

    __slots__ = ("index", "count", "total", "max", "qcounts")

    def __init__(self, index: int, n_bounds: int) -> None:
        self.index = index
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.qcounts = [0] * n_bounds


class SlidingWindow:
    """Incremental sim-time sliding window over one scalar signal.

    Observations land in fixed-width buckets (``horizon / buckets``
    wide); statistics merge the live buckets, and buckets older than
    the horizon are evicted on the next observe/read.  All arithmetic
    is plain float summation in bucket order, so two identical runs
    produce bit-identical statistics.
    """

    __slots__ = ("horizon", "width", "bounds", "_buckets")

    def __init__(
        self,
        horizon: float,
        buckets: int = 10,
        bounds: Tuple[float, ...] = WINDOW_BOUNDS,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"window horizon must be > 0, got {horizon}")
        if buckets < 1:
            raise ValueError(f"window needs >= 1 bucket, got {buckets}")
        self.horizon = horizon
        self.width = horizon / buckets
        self.bounds = bounds
        self._buckets: Deque[_WindowBucket] = deque()

    def observe(self, now: float, value: float) -> None:
        """Record ``value`` at sim-time ``now`` (O(1) amortized)."""
        index = int(now / self.width)
        self._evict(index)
        if not self._buckets or self._buckets[-1].index != index:
            self._buckets.append(_WindowBucket(index, len(self.bounds)))
        bucket = self._buckets[-1]
        bucket.count += 1
        bucket.total += value
        if value > bucket.max:
            bucket.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                bucket.qcounts[i] += 1
                break

    def _evict(self, newest_index: int) -> None:
        floor = newest_index - int(self.horizon / self.width)
        buckets = self._buckets
        while buckets and buckets[0].index <= floor:
            buckets.popleft()

    def _live(self, now: float) -> Deque[_WindowBucket]:
        self._evict(int(now / self.width))
        return self._buckets

    def count(self, now: float) -> int:
        """Observations currently inside the window."""
        return sum(b.count for b in self._live(now))

    def total(self, now: float) -> float:
        """Sum of observed values inside the window."""
        return sum(b.total for b in self._live(now))

    def rate(self, now: float) -> float:
        """Observations per second over the horizon."""
        return self.count(now) / self.horizon

    def mean(self, now: float) -> float:
        """Mean observed value (0.0 when the window is empty)."""
        buckets = self._live(now)
        count = sum(b.count for b in buckets)
        if count == 0:
            return 0.0
        return sum(b.total for b in buckets) / count

    def maximum(self, now: float) -> float:
        """Max observed value (0.0 when the window is empty)."""
        buckets = self._live(now)
        if not buckets:
            return 0.0
        return max(b.max for b in buckets)

    def quantile(self, now: float, q: float) -> float:
        """Deterministic interpolated quantile, clamped to observed max.

        Same estimator family as
        :meth:`repro.obs.metrics.ObsHistogram.quantile`: linear
        interpolation inside the winning fixed bucket, with the +Inf
        bucket clamped to the window's observed maximum.
        """
        buckets = self._live(now)
        total = sum(b.count for b in buckets)
        if total == 0:
            return 0.0
        merged = [0] * len(self.bounds)
        for b in buckets:
            for i, c in enumerate(b.qcounts):
                merged[i] += c
        target = q * total
        cumulative = 0
        observed_max = max(b.max for b in buckets)
        for i, c in enumerate(merged):
            if c == 0:
                continue
            if cumulative + c >= target:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                if hi == float("inf") or hi > observed_max:
                    hi = observed_max
                if hi <= lo:
                    return hi
                fraction = (target - cumulative) / c
                return lo + (hi - lo) * fraction
            cumulative += c
        return observed_max


class _PortHistory:
    """What the plane carries from tick to tick about one input port."""

    __slots__ = ("pe_id", "prev_depth", "growth", "ack")

    def __init__(self, pe_id: str, horizon: float) -> None:
        self.pe_id = pe_id
        self.prev_depth = 0
        self.growth = SlidingWindow(horizon)  #: depth change per second
        self.ack = SlidingWindow(horizon)  #: ack round trips, seconds


@dataclass(frozen=True)
class LinkHealth:
    """One link's sampled pressure at the latest evaluation tick."""

    #: ``<operator>@<pe>#<port>`` — the in-flight key, printable
    name: str
    #: tuples in flight (or buffered in an open batch) toward the link
    depth: int
    #: age of the oldest open batch on the link, seconds (0.0: none)
    open_age: float
    #: outstanding retransmission attempts across pending units
    retry_pressure: int
    #: the lag watermark rolled up from the three components above
    lag: float


@dataclass(frozen=True)
class HealthSnapshot:
    """A byte-stable rendering of the health plane at one instant."""

    time: float
    ticks: int
    interval: float
    links: Tuple[LinkHealth, ...]
    regions: Tuple[Tuple[str, float], ...]
    ack_p95: float
    loss_rate: float
    max_lag: float
    bottleneck: Optional[Bottleneck]
    active_alerts: Tuple[Tuple[str, str, float, float], ...]
    alerts_fired: int
    pages_fired: int

    def render(self) -> str:
        """Deterministic text artifact (input to ``tools/healthwatch``)."""
        out = [
            "# health snapshot",
            f"# sim_time: {self.time:.6f}",
            f"# ticks: {self.ticks}",
            f"# interval: {self.interval:.6f}",
            "links:",
        ]
        for link in self.links:
            out.append(
                f"  {link.name} depth={link.depth}"
                f" open={link.open_age:.6f}"
                f" retries={link.retry_pressure}"
                f" lag={link.lag:.6f}"
            )
        out.append("regions:")
        for name, lag in self.regions:
            out.append(f"  {name} lag={lag:.6f}")
        out.append("signals:")
        out.append(f"  ack_rtt_p95: {self.ack_p95:.6f}")
        out.append(f"  loss_rate: {self.loss_rate:.6f}")
        out.append(f"  max_lag: {self.max_lag:.6f}")
        if self.bottleneck is not None:
            b = self.bottleneck
            out.append(
                f"bottleneck: {b.target} score={b.score:.6f} why={b.why}"
            )
        else:
            out.append("bottleneck: none")
        if self.active_alerts:
            out.append("alerts:")
            for slo, severity, short, long_ in self.active_alerts:
                out.append(
                    f"  {severity} slo={slo}"
                    f" burn_short={short:.3f} burn_long={long_:.3f}"
                )
        else:
            out.append("alerts: none")
        out.append(
            f"# fired: alerts={self.alerts_fired} pages={self.pages_fired}"
        )
        return "\n".join(out) + "\n"


class HealthMonitor:
    """Always-on health aggregation over one simulated system.

    Constructed (and attached) by :class:`repro.obs.hub.ObsHub`; a
    kernel-scheduled tick every ``interval`` sim-seconds samples the
    transport and delivery plane, updates the sliding windows, runs the
    bottleneck detector, and evaluates registered SLOs.  ``interval`` is
    ``SystemConfig.health_interval``; ``<= 0`` disables the plane
    entirely (microbenchmarks).
    """

    def __init__(
        self, kernel: "Kernel", events: "RuntimeEvents", config: "SystemConfig"
    ) -> None:
        self.kernel = kernel
        self.events = events
        self.config = config
        self.slos: List[Slo] = []
        self.detector = BottleneckDetector()
        self._system: Optional["SystemS"] = None
        self._tick_event: Optional["ScheduledEvent"] = None
        self.ticks = 0
        self.alerts_fired = 0
        self.pages_fired = 0
        #: recent raised alerts, newest last (bounded)
        self.alerts: Deque[HealthAlert] = deque(maxlen=64)
        self._active: Dict[str, str] = {}
        self._active_burns: Dict[str, Tuple[float, float]] = {}
        #: latest per-link health, keyed by printable link name
        self._links: Dict[str, LinkHealth] = {}
        self._region_lag: Dict[str, float] = {}
        #: printable port name -> its history; dropped once the transport
        #: has forgotten the port's PE (see :meth:`_tick`)
        self._ports: Dict[str, _PortHistory] = {}
        #: (signal, region-or-"", horizon) -> window; loss/lag are fed
        #: per tick, latency_p95 is fed by the ack round-trip tap
        self._signals: Dict[Tuple[str, str, float], SlidingWindow] = {}
        self._prev_counters = {"sent": 0, "dropped": 0}
        self.bottleneck: Optional[Bottleneck] = None
        self.max_lag = 0.0
        self.peak_link_lag = 0.0
        self.peak_queue_depth = 0
        self.peak_retry_pressure = 0
        #: bottleneck attributed at the tick that set ``peak_link_lag``
        #: (scorecards report this: the verdict *at* peak pressure, not
        #: whatever the post-drain calm shows)
        self.peak_bottleneck = ""
        self._signal_window("latency_p95", None, SHORT_WINDOW)
        self._signal_window("loss", None, SHORT_WINDOW)
        self._signal_window("lag", None, SHORT_WINDOW)

    # -- lifecycle ----------------------------------------------------------

    def attach(self, system: "SystemS") -> None:
        """Bind to a system and start the evaluation tick."""
        self._system = system
        self._arm()

    def _arm(self) -> None:
        interval = self.config.health_interval
        if interval > 0 and self._tick_event is None:
            self._tick_event = self.kernel.schedule(
                interval, self._tick, label="health-tick"
            )

    def detach(self) -> None:
        """Stop ticking and unbind (idempotent)."""
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None
        self._system = None

    def add_slo(self, slo: Slo) -> Slo:
        """Register an objective; its burn windows start immediately."""
        self.slos.append(slo)
        self._signal_window(slo.signal, slo.region, slo.short_window)
        self._signal_window(slo.signal, slo.region, slo.long_window)
        return slo

    # -- taps ---------------------------------------------------------------

    def _port(self, op_full_name: str, pe_id: str, port: int) -> str:
        """``<operator>@<pe>#<port>``; the port's history exists from here on."""
        name = f"{op_full_name}@{pe_id}#{port}"
        if name not in self._ports:
            self._ports[name] = _PortHistory(pe_id, SHORT_WINDOW)
        return name

    def on_transport_pressure(
        self, kind: str, value: float, op_full_name: str, pe_id: str, port: int
    ) -> None:
        """Event-driven pressure tap (installed on the transport).

        ``ack_rtt`` is the only event-fed signal today: the reliable
        delivery plane reports each unit's send-to-ack round trip here;
        everything else is sampled at tick time for zero hot-path cost.
        """
        if kind != "ack_rtt":
            return
        now = self.kernel.now
        for (signal, _region, _h), window in self._signals.items():
            if signal == "latency_p95":
                window.observe(now, value)
        self._ports[self._port(op_full_name, pe_id, port)].ack.observe(now, value)

    # -- the evaluation tick ------------------------------------------------

    def _tick(self) -> None:
        self._tick_event = None
        system = self._system
        if system is None:
            return
        now = self.kernel.now
        transport = system.transport
        latency = transport.latency
        interval = self.config.health_interval
        ack_timeout = self.config.ack_timeout

        # open-batch residency per link (batching enabled only)
        open_age: Dict[str, float] = {}
        for (_src, pe_id, op, port), batch in transport._open_batches.items():
            name = self._port(op, pe_id, port)
            age = now - batch.opened_at
            if age > open_age.get(name, 0.0):
                open_age[name] = age

        # retry pressure per link (reliable modes only)
        retries: Dict[str, int] = {}
        if transport.reliability is not None:
            for entry in transport.reliability.pending.values():
                if entry.acked or entry.condemned or entry.attempts == 0:
                    continue
                name = self._port(
                    entry.op_full_name, entry.dst_pe.pe_id, entry.port
                )
                retries[name] = retries.get(name, 0) + entry.attempts

        # per-link depth, growth, and the rolled-up lag watermark
        links: Dict[str, LinkHealth] = {}
        names = set(open_age) | set(retries)
        depth_by_name: Dict[str, int] = {}
        for (pe_id, op, port), depth in transport._in_flight.items():
            name = self._port(op, pe_id, port)
            depth_by_name[name] = depth_by_name.get(name, 0) + depth
        names |= set(depth_by_name)
        samples: List[PressureSample] = []
        max_lag = 0.0
        new_peak = False
        for name in sorted(names):
            depth = depth_by_name.get(name, 0)
            age = open_age.get(name, 0.0)
            retry = retries.get(name, 0)
            lag = depth * latency + age + retry * ack_timeout
            links[name] = LinkHealth(name, depth, age, retry, lag)
            if lag > max_lag:
                max_lag = lag
            if lag > self.peak_link_lag:
                self.peak_link_lag = lag
                new_peak = True
            if depth > self.peak_queue_depth:
                self.peak_queue_depth = depth
            if retry > self.peak_retry_pressure:
                self.peak_retry_pressure = retry
            history = self._ports[name]
            gwindow = history.growth
            gwindow.observe(now, (depth - history.prev_depth) / interval)
            history.prev_depth = depth
            ack = history.ack
            service_p95 = ack.quantile(now, 0.95) if ack.count(now) else latency
            samples.append(
                PressureSample(
                    target=name,
                    kind="link",
                    queue_depth=float(depth),
                    queue_growth=gwindow.mean(now),
                    service_p95=service_p95,
                    retry_pressure=float(retry),
                )
            )
        self._links = links
        self.max_lag = max_lag
        # a PE the transport has forgotten takes its ports' history
        # along once nothing is left in flight toward it; the ports of a
        # live PE keep theirs, idle or not
        self._ports = {
            name: history
            for name, history in self._ports.items()
            if history.pe_id in transport._toward or name in links
        }

        # region watermarks: max over the links feeding a region's ops
        region_lag: Dict[str, float] = {}
        op_region = self._op_regions(system)
        for name, link in links.items():
            region = op_region.get(name.split("@", 1)[0])
            if region is None:
                continue
            if link.lag > region_lag.get(region, 0.0):
                region_lag[region] = link.lag
        self._region_lag = region_lag

        # loss fraction this tick (first-cause counters are cumulative)
        dropped = (
            transport.total_dropped
            + transport.dropped_in_flight
            + transport.dropped_by_fault
        )
        sent = transport.total_sent
        d_dropped = dropped - self._prev_counters["dropped"]
        d_sent = sent - self._prev_counters["sent"]
        self._prev_counters["dropped"] = dropped
        self._prev_counters["sent"] = sent
        loss_fraction = d_dropped / d_sent if d_sent > 0 else 0.0

        # feed the tick-sampled signal windows
        for (signal, region, _h), window in self._signals.items():
            if signal == "loss":
                window.observe(now, loss_fraction)
            elif signal == "lag":
                if region:
                    window.observe(now, region_lag.get(region, 0.0))
                else:
                    window.observe(now, max_lag)

        self.bottleneck = self.detector.evaluate(samples)
        if new_peak and self.bottleneck is not None:
            self.peak_bottleneck = self.bottleneck.target
        self._evaluate_slos(now)
        self.ticks += 1
        self._arm()

    def _op_regions(self, system: "SystemS") -> Dict[str, str]:
        """Channel-operator full name -> owning parallel region."""
        mapping: Dict[str, str] = {}
        for job in system.sam.jobs.values():
            if not job.is_running:
                continue
            for plan in job.compiled.parallel_regions.values():
                for ops in plan.channel_ops:
                    for op in ops:
                        mapping[op] = plan.name
        return mapping

    # -- SLO evaluation -----------------------------------------------------

    def _signal_window(
        self, signal: str, region: Optional[str], horizon: float
    ) -> SlidingWindow:
        key = (signal, region or "", horizon)
        window = self._signals.get(key)
        if window is None:
            window = SlidingWindow(horizon)
            self._signals[key] = window
        return window

    def _signal_value(
        self, signal: str, region: Optional[str], horizon: float, now: float
    ) -> float:
        window = self._signal_window(signal, region, horizon)
        if signal == "latency_p95":
            return window.quantile(now, 0.95)
        return window.mean(now)

    def _evaluate_slos(self, now: float) -> None:
        for slo in self.slos:
            short = self._signal_value(
                slo.signal, slo.region, slo.short_window, now
            )
            long_ = self._signal_value(
                slo.signal, slo.region, slo.long_window, now
            )
            burn_short = short / slo.objective
            burn_long = long_ / slo.objective
            severity = classify(burn_short, burn_long, slo)
            previous = self._active.get(slo.name)
            if severity is not None:
                self._active[slo.name] = severity
                self._active_burns[slo.name] = (burn_short, burn_long)
                if previous is None or (
                    SEVERITY_RANK[severity] > SEVERITY_RANK[previous]
                ):
                    self._fire(
                        slo, severity, burn_short, burn_long, short, now
                    )
            elif previous is not None and burn_short < slo.warn_burn:
                del self._active[slo.name]
                self._active_burns.pop(slo.name, None)

    def _fire(
        self,
        slo: Slo,
        severity: str,
        burn_short: float,
        burn_long: float,
        observed: float,
        now: float,
    ) -> None:
        bottleneck = self.bottleneck
        alert = HealthAlert(
            slo=slo.name,
            signal=slo.signal,
            severity=severity,
            burn_short=burn_short,
            burn_long=burn_long,
            observed=observed,
            objective=slo.objective,
            region=slo.region,
            bottleneck=bottleneck.target if bottleneck else "",
            why=bottleneck.why if bottleneck else "",
            time=now,
        )
        self.alerts.append(alert)
        self.alerts_fired += 1
        if severity == "page":
            self.pages_fired += 1
        self.events.publish("health_alert", alert)

    # -- inspection ---------------------------------------------------------

    def link_lags(self) -> Dict[str, float]:
        """Latest per-link lag watermarks, keyed by printable link name."""
        return {name: link.lag for name, link in sorted(self._links.items())}

    def region_lag(self, region: str) -> float:
        """Latest lag watermark of one parallel region (0.0: no pressure)."""
        return self._region_lag.get(region, 0.0)

    def snapshot(self) -> HealthSnapshot:
        """Freeze the current health state into a renderable snapshot."""
        now = self.kernel.now
        active = tuple(
            (name, severity) + self._active_burns.get(name, (0.0, 0.0))
            for name, severity in sorted(self._active.items())
        )
        return HealthSnapshot(
            time=now,
            ticks=self.ticks,
            interval=self.config.health_interval,
            links=tuple(
                link for _, link in sorted(self._links.items())
                if link.depth or link.retry_pressure or link.open_age
            ),
            regions=tuple(sorted(self._region_lag.items())),
            ack_p95=self._signal_value(
                "latency_p95", None, SHORT_WINDOW, now
            ),
            loss_rate=self._signal_value("loss", None, SHORT_WINDOW, now),
            max_lag=self.max_lag,
            bottleneck=self.bottleneck,
            active_alerts=active,
            alerts_fired=self.alerts_fired,
            pages_fired=self.pages_fired,
        )

    def status(self) -> Dict[str, object]:
        """Deterministic inspection summary (``orca.health_status()``)."""
        bottleneck = self.bottleneck
        return {
            "ticks": self.ticks,
            "interval": self.config.health_interval,
            "alerts_fired": self.alerts_fired,
            "pages_fired": self.pages_fired,
            "active_alerts": {
                name: severity
                for name, severity in sorted(self._active.items())
            },
            "slos": [slo.name for slo in self.slos],
            "max_lag": self.max_lag,
            "regions": dict(sorted(self._region_lag.items())),
            "bottleneck": (
                {
                    "target": bottleneck.target,
                    "kind": bottleneck.kind,
                    "score": bottleneck.score,
                    "why": bottleneck.why,
                }
                if bottleneck is not None
                else None
            ),
            "peak_link_lag": self.peak_link_lag,
            "peak_queue_depth": self.peak_queue_depth,
            "peak_retry_pressure": self.peak_retry_pressure,
            "peak_bottleneck": self.peak_bottleneck,
        }
