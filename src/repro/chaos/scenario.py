"""The declarative chaos-scenario DSL and its preset library.

A :class:`Scenario` is a named list of timed :class:`Step`\\ s, each
wrapping one :class:`~repro.chaos.perturbations.Perturbation`.  Step
times are relative to the scenario's start; a step may declare a
``jitter`` window, in which case its firing time is drawn uniformly from
``[at, at + jitter)`` using the run's *seeded* random stream — schedules
are randomized **within** the seed, so two runs of the same scenario on
the same seed fire at identical instants and produce byte-identical
scorecards.

A :class:`Campaign` bundles a scenario with the seed and horizon a
benchmark runs it under, which is the unit
``benchmarks/test_chaos_campaigns.py`` iterates over.

The presets at the bottom are the composable starting points named in
the roadmap: ``rolling_host_outage``, ``rolling_channel_outage``,
``gray_network``, ``flash_crowd``, and ``torn_checkpoints``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.chaos.perturbations import (
    ChaosError,
    CheckpointFault,
    HostFlap,
    KeySkewShift,
    LatencySpike,
    LinkLoss,
    LinkPartition,
    PEFlap,
    Perturbation,
    RateSurge,
    Rescale,
    perturbation_from_dict,
    perturbation_to_dict,
)


@dataclass(frozen=True)
class Step:
    """One timed entry of a scenario.

    Attributes:
        at: Seconds after the scenario start this step fires.
        perturbation: The disturbance to inject.
        jitter: Optional randomization window: the actual firing time is
            ``at + U[0, jitter)`` drawn from the run's seeded stream.
    """

    at: float
    perturbation: Perturbation
    jitter: float = 0.0

    def resolve_at(self, rng: random.Random) -> float:
        """The step's firing offset for one run (seeded jitter applied)."""
        if self.jitter <= 0.0:
            return self.at
        return self.at + rng.random() * self.jitter

    def validate(self, index: int = 0) -> "Step":
        """Reject unschedulable steps with a precise error.

        Args:
            index: Position within the owning scenario (for the message).

        Returns:
            self, for chaining.

        Raises:
            ChaosError: Negative/non-finite ``at`` or ``jitter``, or a
                payload that is not a :class:`Perturbation`.
        """
        if not math.isfinite(self.at) or self.at < 0.0:
            raise ChaosError(
                f"step {index}: 'at' must be finite and >= 0, got {self.at!r}"
            )
        if not math.isfinite(self.jitter) or self.jitter < 0.0:
            raise ChaosError(
                f"step {index}: 'jitter' must be finite and >= 0, "
                f"got {self.jitter!r}"
            )
        if not isinstance(self.perturbation, Perturbation):
            raise ChaosError(
                f"step {index}: perturbation must be a Perturbation, "
                f"got {type(self.perturbation).__name__}"
            )
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-safe mapping (see :meth:`from_dict`)."""
        return {
            "at": self.at,
            "jitter": self.jitter,
            "perturbation": perturbation_to_dict(self.perturbation),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Step":
        """Rebuild a step from its :meth:`to_dict` form.

        Args:
            data: ``{"at", "jitter", "perturbation"}``.

        Returns:
            The reconstructed step.

        Raises:
            ChaosError: Malformed mapping or unknown perturbation kind.
        """
        try:
            return cls(
                at=float(data["at"]),
                perturbation=perturbation_from_dict(data["perturbation"]),
                jitter=float(data.get("jitter", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ChaosError(f"malformed step mapping: {exc!r}") from exc


def step(at: float, perturbation: Perturbation, jitter: float = 0.0) -> Step:
    """Sugar for building :class:`Step` lists inline."""
    return Step(at=at, perturbation=perturbation, jitter=jitter)


@dataclass
class Scenario:
    """A named, ordered collection of timed perturbation steps.

    Attributes:
        name: Scenario identifier (appears in events and scorecards).
        steps: The timed steps, in declaration order.
        description: One-line human summary.
    """

    name: str
    steps: List[Step] = field(default_factory=list)
    description: str = ""

    def add(self, at: float, perturbation: Perturbation, jitter: float = 0.0) -> "Scenario":
        """Append a step and return self (builder style)."""
        self.steps.append(Step(at=at, perturbation=perturbation, jitter=jitter))
        return self

    def horizon(self) -> float:
        """Latest nominal step offset (jitter windows included)."""
        return max((s.at + s.jitter for s in self.steps), default=0.0)

    def validate(self) -> "Scenario":
        """Reject unrunnable scenarios with a precise error.

        Called by :meth:`~repro.chaos.engine.ChaosEngine.run_scenario`
        before anything is scheduled, so a bad scenario fails loudly at
        submission instead of as silent no-ops mid-campaign.

        Returns:
            self, for chaining.

        Raises:
            ChaosError: Empty/blank name, no steps, or any invalid step
                (negative ``at``/``jitter``, non-perturbation payload).
        """
        if not isinstance(self.name, str) or not self.name.strip():
            raise ChaosError(f"scenario name must be non-empty, got {self.name!r}")
        if not self.steps:
            raise ChaosError(f"scenario {self.name!r} has no steps")
        for index, scenario_step in enumerate(self.steps):
            try:
                scenario_step.validate(index)
            except ChaosError as exc:
                raise ChaosError(f"scenario {self.name!r}: {exc}") from exc
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-safe mapping (the corpus file format)."""
        return {
            "name": self.name,
            "description": self.description,
            "steps": [s.to_dict() for s in self.steps],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        """Rebuild a scenario from its :meth:`to_dict` form.

        Args:
            data: ``{"name", "description", "steps"}``.

        Returns:
            The reconstructed scenario (structurally round-trip-equal:
            ``Scenario.from_dict(s.to_dict()).to_dict() == s.to_dict()``).

        Raises:
            ChaosError: Malformed mapping or unknown perturbation kind.
        """
        try:
            steps = [Step.from_dict(entry) for entry in data.get("steps", [])]
            return cls(
                name=data["name"],
                steps=steps,
                description=data.get("description", ""),
            )
        except (KeyError, TypeError) as exc:
            raise ChaosError(f"malformed scenario mapping: {exc!r}") from exc


@dataclass
class Campaign:
    """One benchmarkable chaos run: a scenario plus its run parameters.

    Attributes:
        name: Campaign identifier (scorecard/result file name).
        scenario: The scenario to execute.
        seed: Root seed of the run's :class:`~repro.sim.rand.RandomStreams`.
        duration: Sim-seconds to run after the scenario starts.
        checkpointed: Whether the stack under test checkpoints — the
            benchmark asserts zero tuple loss and >= 99% state recovery
            only for checkpoint-enabled configurations.
        description: One-line human summary.
    """

    name: str
    scenario: Scenario
    seed: int = 42
    duration: float = 30.0
    checkpointed: bool = True
    description: str = ""

    def validate(self) -> "Campaign":
        """Reject unrunnable campaigns with a precise error.

        Returns:
            self, for chaining.

        Raises:
            ChaosError: Non-positive/non-finite duration, a non-integer
                seed, or an invalid scenario.
        """
        if not math.isfinite(self.duration) or self.duration <= 0.0:
            raise ChaosError(
                f"campaign {self.name!r}: duration must be finite and > 0, "
                f"got {self.duration!r}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ChaosError(
                f"campaign {self.name!r}: seed must be an int, got {self.seed!r}"
            )
        self.scenario.validate()
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-safe mapping (the corpus file format)."""
        return {
            "name": self.name,
            "scenario": self.scenario.to_dict(),
            "seed": self.seed,
            "duration": self.duration,
            "checkpointed": self.checkpointed,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Campaign":
        """Rebuild a campaign from its :meth:`to_dict` form.

        Args:
            data: ``{"name", "scenario", "seed", "duration",
                "checkpointed", "description"}``.

        Returns:
            The reconstructed campaign.

        Raises:
            ChaosError: Malformed mapping or unknown perturbation kind.
        """
        try:
            return cls(
                name=data["name"],
                scenario=Scenario.from_dict(data["scenario"]),
                seed=int(data.get("seed", 42)),
                duration=float(data.get("duration", 30.0)),
                checkpointed=bool(data.get("checkpointed", True)),
                description=data.get("description", ""),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ChaosError(f"malformed campaign mapping: {exc!r}") from exc


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def rolling_host_outage(
    hosts: Sequence[str],
    start: float = 5.0,
    stagger: float = 6.0,
    downtime: float = 2.0,
    rehydrate: bool = True,
) -> Scenario:
    """Take hosts down one after another, reviving each before the next.

    Args:
        hosts: Host names, failed in order.
        start: Offset of the first outage.
        stagger: Seconds between consecutive outages.
        downtime: Seconds each host stays dead.
        rehydrate: Restore state when the host's PEs restart.

    Returns:
        The scenario (one :class:`HostFlap` per host).
    """
    scenario = Scenario(
        "rolling_host_outage",
        description="sequential host crash-and-revive across the cluster",
    )
    for i, host in enumerate(hosts):
        scenario.add(
            start + i * stagger,
            HostFlap(host=host, downtime=downtime, rehydrate=rehydrate),
        )
    return scenario


def rolling_channel_outage(
    operators: Sequence[str],
    start: float = 5.0,
    stagger: float = 5.0,
    downtime: float = 1.5,
    rehydrate: bool = True,
) -> Scenario:
    """Flap parallel-region channel PEs one after another.

    The canonical crash-park-restore stress: each flap masks the channel
    (its keyed tuples park at the splitter), rehydrates it from its last
    committed checkpoint, and releases the parked tuples at unmask.

    Args:
        operators: Channel operator full names (e.g. ``work__c1``),
            flapped in order.
        start: Offset of the first flap.
        stagger: Seconds between consecutive flaps.
        downtime: Seconds each channel PE stays dead.
        rehydrate: Restore state on restart.

    Returns:
        The scenario (one :class:`PEFlap` per channel operator).
    """
    scenario = Scenario(
        "rolling_channel_outage",
        description="sequential crash-and-restart of region channel PEs",
    )
    for i, op_name in enumerate(operators):
        scenario.add(
            start + i * stagger,
            PEFlap(operator=op_name, downtime=downtime, rehydrate=rehydrate),
        )
    return scenario


def gray_network(
    start: float = 4.0,
    waves: int = 3,
    every: float = 5.0,
    extra_latency: float = 0.05,
    spike_length: float = 2.0,
    partition_length: float = 0.8,
    dst_host: Optional[str] = None,
    jitter: float = 0.0,
    loss_probability: float = 0.0,
    loss_length: float = 0.0,
) -> Scenario:
    """A degraded-but-not-dead network: latency waves + short partitions.

    No data is lost by default (partitions hold and flush, TCP-style),
    but delivery timing and ordering pressure spike — the scenario
    adaptive routines misdiagnose most easily.  ``loss_probability > 0``
    adds a per-wave ``LinkLoss`` window on top, which turns the scenario
    genuinely lossy — run it on a reliable-delivery transport (or drop
    the zero-loss expectation).

    Args:
        start: Offset of the first wave.
        waves: Number of spike/partition waves.
        every: Seconds between waves.
        extra_latency: Added seconds during each spike.
        spike_length: Duration of each latency spike.
        partition_length: Duration of each wave's partition.
        dst_host: Restrict faults to links toward this host (None: all).
        jitter: Seeded randomization window per step.
        loss_probability: Per-item drop probability of each wave's
            ``LinkLoss`` window (0 keeps the scenario lossless).
        loss_length: Duration of each wave's loss window (0 falls back
            to the partition length).

    Returns:
        The scenario.
    """
    scenario = Scenario(
        "gray_network",
        description="latency waves and short hold-and-flush partitions",
    )
    for wave in range(waves):
        base = start + wave * every
        scenario.add(
            base,
            LatencySpike(
                extra=extra_latency, duration=spike_length, dst_host=dst_host
            ),
            jitter=jitter,
        )
        scenario.add(
            base + spike_length,
            LinkPartition(duration=partition_length, dst_host=dst_host),
            jitter=jitter,
        )
        if loss_probability > 0.0:
            scenario.add(
                base + spike_length + partition_length,
                LinkLoss(
                    drop_probability=loss_probability,
                    duration=loss_length or partition_length,
                    dst_host=dst_host,
                ),
                jitter=jitter,
            )
    return scenario


def flash_crowd(
    at: float = 5.0,
    factor: float = 4.0,
    duration: float = 8.0,
    hot_fraction: float = 0.8,
    hot_keys: Sequence[str] = (),
    rescale_region: Optional[str] = None,
    rescale_width: int = 4,
) -> Scenario:
    """A sudden load spike with skewed keys, optionally answered by a
    rescale.

    Args:
        at: Offset of the surge.
        factor: Rate multiplier during the surge.
        duration: Surge length; the rate and skew restore afterwards.
        hot_fraction: Fraction of surge traffic on the hot keys.
        hot_keys: The hot key set (empty: the feed's default).
        rescale_region: When set, a live rescale of this region is
            started mid-surge (the adaptation under test).
        rescale_width: Width requested by the mid-surge rescale.

    Returns:
        The scenario.
    """
    scenario = Scenario(
        "flash_crowd",
        description="input-rate surge with key skew (and optional rescale)",
    )
    scenario.add(at, RateSurge(factor=factor, duration=duration))
    scenario.add(
        at,
        KeySkewShift(
            hot_fraction=hot_fraction, hot_keys=tuple(hot_keys), duration=duration
        ),
    )
    if rescale_region is not None:
        scenario.add(
            at + duration / 2.0,
            Rescale(region=rescale_region, width=rescale_width),
        )
    return scenario


def torn_checkpoints(
    operator: str,
    start: float = 4.0,
    fault_window: float = 3.0,
    crash_after: float = 1.0,
    downtime: float = 1.5,
) -> Scenario:
    """Tear checkpoint commits, then crash mid-window.

    The recovery must fall back to the last epoch committed *before* the
    window — the torn-epoch path of :mod:`repro.checkpoint` under
    adversarial timing.

    Args:
        operator: The stateful operator whose PE is flapped.
        start: Offset the commit-fault window opens.
        fault_window: Seconds commits stay torn.
        crash_after: Seconds into the window the crash lands.
        downtime: Seconds the PE stays dead.

    Returns:
        The scenario.
    """
    scenario = Scenario(
        "torn_checkpoints",
        description="commit faults racing a crash (torn-epoch fallback)",
    )
    scenario.add(start, CheckpointFault(duration=fault_window))
    scenario.add(
        start + crash_after,
        PEFlap(operator=operator, downtime=downtime, rehydrate=True),
    )
    return scenario
