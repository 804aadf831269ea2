"""Pluggable scaling policies for parallel regions.

A policy is a pure decision function: given a :class:`RegionObservation`
(current width, per-channel backlog, optional throughput) it returns the
desired channel width, or ``None`` when no change is warranted.  Policies
never actuate; the caller (typically ORCA logic reacting to a timer or a
``channel_congested`` event) passes the decision to
``set_channel_width()``.  Keeping policies side-effect-free makes them
trivially unit-testable and composable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class RegionObservation:
    """One region's state at observation time."""

    job_id: str
    region: str
    width: int
    #: channel index -> aggregated congestion-metric value of that channel
    channel_backlogs: Dict[int, float] = field(default_factory=dict)
    #: region-wide output rate (tuples/second), when the caller tracked one
    throughput: Optional[float] = None
    #: channel index -> aggregated ``stateBytes`` of the channel's operators
    #: (filled by ``OrcaService.region_observation`` from SRM; the input for
    #: state-aware policies that weigh migration cost against load)
    channel_state_sizes: Dict[int, float] = field(default_factory=dict)
    time: float = 0.0

    @property
    def max_backlog(self) -> float:
        """The busiest channel's backlog (0.0 with no channels observed)."""
        return max(self.channel_backlogs.values()) if self.channel_backlogs else 0.0

    @property
    def total_backlog(self) -> float:
        """Backlog summed over the region's channels."""
        return sum(self.channel_backlogs.values())

    @property
    def total_state_bytes(self) -> float:
        """State footprint summed over the region's channels."""
        return sum(self.channel_state_sizes.values())


class ScalingPolicy:
    """Base class: maps an observation to a desired width (or None)."""

    def decide(self, observation: RegionObservation) -> Optional[int]:
        """The width the region should move to, or None to leave it alone."""
        raise NotImplementedError

    def _clamp(self, width: int, lo: int, hi: int) -> int:
        return max(lo, min(hi, width))


class QueueSizeScalingPolicy(ScalingPolicy):
    """Watermark policy on per-channel backlog.

    Scale out by ``step`` when any channel's backlog exceeds
    ``high_watermark``; scale in by ``step`` when *every* channel's backlog
    is at or below ``low_watermark``.  The dead band between the two
    watermarks prevents oscillation.
    """

    def __init__(
        self,
        high_watermark: float = 10.0,
        low_watermark: float = 1.0,
        min_width: int = 1,
        max_width: int = 8,
        step: int = 1,
    ) -> None:
        if low_watermark > high_watermark:
            raise ValueError("low_watermark must not exceed high_watermark")
        if step < 1:
            raise ValueError("step must be >= 1")
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.min_width = min_width
        self.max_width = max_width
        self.step = step

    def decide(self, observation: RegionObservation) -> Optional[int]:
        """Grow by ``step`` above the high watermark, shrink below the low one."""
        width = observation.width
        if observation.max_backlog > self.high_watermark:
            target = self._clamp(width + self.step, self.min_width, self.max_width)
        elif observation.channel_backlogs and observation.max_backlog <= self.low_watermark:
            target = self._clamp(width - self.step, self.min_width, self.max_width)
        else:
            return None
        return target if target != width else None


class ThroughputScalingPolicy(ScalingPolicy):
    """Capacity policy: width = ceil(observed throughput / per-channel target).

    ``headroom`` inflates the demand estimate so the region is sized with
    spare capacity (1.2 = 20% slack).
    """

    def __init__(
        self,
        target_per_channel: float,
        min_width: int = 1,
        max_width: int = 8,
        headroom: float = 1.0,
    ) -> None:
        if target_per_channel <= 0:
            raise ValueError("target_per_channel must be positive")
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1.0")
        self.target_per_channel = target_per_channel
        self.min_width = min_width
        self.max_width = max_width
        self.headroom = headroom

    def decide(self, observation: RegionObservation) -> Optional[int]:
        """The width whose per-channel capacity covers the observed throughput."""
        if observation.throughput is None:
            return None
        demand = observation.throughput * self.headroom
        target = self._clamp(
            max(1, math.ceil(demand / self.target_per_channel)),
            self.min_width,
            self.max_width,
        )
        return target if target != observation.width else None


class StateAwareScalingPolicy(ScalingPolicy):
    """Wraps another policy and weighs the migration cost of its decision.

    A width change of a partitioned region moves roughly
    ``|Δwidth| / max(width, width')`` of the region's keyed state (every
    key whose ``hash(key) % width`` owner changes).  When that estimate
    exceeds ``max_migration_bytes`` the inner decision is vetoed — unless
    the region is congested beyond ``force_backlog``, at which point
    scaling out is worth any migration pause.  This is the "state-aware
    policy" building block the ORCA inspection API feeds via
    ``RegionObservation.channel_state_sizes``.
    """

    def __init__(
        self,
        inner: ScalingPolicy,
        max_migration_bytes: float,
        force_backlog: Optional[float] = None,
    ) -> None:
        if max_migration_bytes <= 0:
            raise ValueError("max_migration_bytes must be positive")
        self.inner = inner
        self.max_migration_bytes = max_migration_bytes
        self.force_backlog = force_backlog

    def estimated_migration_bytes(
        self, observation: RegionObservation, new_width: int
    ) -> float:
        """Keyed bytes a move to ``new_width`` would shuffle (uniform-hash estimate)."""
        old_width = max(observation.width, 1)
        moved_fraction = abs(new_width - old_width) / max(new_width, old_width)
        return observation.total_state_bytes * moved_fraction

    def decide(self, observation: RegionObservation) -> Optional[int]:
        """The inner policy's decision, vetoed when its migration would cost too much."""
        target = self.inner.decide(observation)
        if target is None:
            return None
        if (
            self.force_backlog is not None
            and observation.max_backlog > self.force_backlog
            and target > observation.width
        ):
            return target
        if self.estimated_migration_bytes(observation, target) > self.max_migration_bytes:
            return None
        return target


class HealthAwareScalingPolicy(ScalingPolicy):
    """Wraps another policy and reacts early on health-plane pressure.

    Backlog-driven policies see congestion only after it has piled up in
    operator queues *and* survived an SRM metric-push round trip.  The
    health plane's lag watermark is live: it rolls per-link in-flight
    depth, open-batch residency, and retry pressure into the sim-time a
    tuple enqueued now should expect to wait (see
    :class:`repro.obs.health.HealthMonitor`).  This policy scales out as
    soon as the observed region's watermark burns past ``lag_objective``
    — typically several metric pushes before the inner policy's backlog
    watermark trips — and otherwise delegates, so scale-in and steady
    state keep the inner policy's behavior (including a
    :class:`StateAwareScalingPolicy` migration veto).

    ``monitor`` is any object with ``region_lag(region) -> float``; pass
    ``system.obs.health``.  A cooldown (sim-seconds of watermark calm
    required between health-driven scale-outs, tracked via the
    monitor's kernel clock when available) stops one sustained spike
    from cascading straight to ``max_width``.
    """

    def __init__(
        self,
        inner: ScalingPolicy,
        monitor,
        lag_objective: float,
        step: int = 1,
        min_width: int = 1,
        max_width: int = 8,
        cooldown: float = 2.0,
    ) -> None:
        if lag_objective <= 0:
            raise ValueError("lag_objective must be positive")
        if step < 1:
            raise ValueError("step must be >= 1")
        self.inner = inner
        self.monitor = monitor
        self.lag_objective = lag_objective
        self.step = step
        self.min_width = min_width
        self.max_width = max_width
        self.cooldown = cooldown
        self._last_reaction: Optional[float] = None
        #: sim-times of health-driven scale-outs (first entry = the
        #: time-to-first-reaction benchmarks measure)
        self.reactions: List[float] = []

    def _now(self) -> float:
        kernel = getattr(self.monitor, "kernel", None)
        return kernel.now if kernel is not None else 0.0

    def decide(self, observation: RegionObservation) -> Optional[int]:
        """Scale out when the region's lag breaks its objective, else ask the inner policy."""
        lag = self.monitor.region_lag(observation.region)
        if lag > self.lag_objective and observation.width < self.max_width:
            now = self._now()
            if (
                self._last_reaction is None
                or now - self._last_reaction >= self.cooldown
            ):
                self._last_reaction = now
                self.reactions.append(now)
                return self._clamp(
                    observation.width + self.step,
                    self.min_width,
                    self.max_width,
                )
        return self.inner.decide(observation)
