"""repro.chaos — deterministic chaos campaigns for adaptation routines.

The paper's evaluation triggers a *single* fault; user-defined adaptation
earns its keep under *combinations* of runtime disturbances with
adversarial timing.  This package is the one fault layer, from a single
hand-made fault (``system.chaos.inject(CrashPE(operator=...), job=job)``)
to seeded campaigns:

* :mod:`repro.chaos.perturbations` — the fault library, one class per
  kind: PE/host crash-and-flap, transport latency spikes / partitions /
  loss, input rate surges and key-skew shifts, torn checkpoint commits,
  and live rescales;
* :mod:`repro.chaos.scenario` — the declarative ``Scenario`` /
  ``Campaign`` DSL (timed steps, seeded jitter) plus composable presets
  (``rolling_host_outage``, ``gray_network``, ``flash_crowd``, ...);
* :mod:`repro.chaos.engine` — the ``ChaosEngine``: applies, counts and
  schedules every fault (no-ops recorded, undos cancellable), runs
  scenarios on the simulation kernel, journals every injection,
  publishes ``chaos_injected`` ORCA events and ``chaos*`` SRM gauges,
  and stamps recovery times;
* :mod:`repro.chaos.scorecard` — the ``ResilienceScorecard``: exact
  tuple loss/duplicates, state-recovery fraction, recovery latency, and
  ORCA event latency, rendered as byte-stable text for determinism
  checks;
* :mod:`repro.chaos.fuzz` — the adversarial layer on top: system-wide
  invariant oracles, a barrier-targeted search driver over the
  seed/step-time space, and a shrinker that reduces failures to minimal
  repros serialized (``Scenario.to_dict``) into the regression corpus
  under ``tests/corpus/``.

See ``docs/chaos.md`` for the full DSL, scorecard, and fuzzing
reference and ``examples/chaos_campaign.py`` /
``examples/chaos_fuzz.py`` for runnable walkthroughs.
"""

from repro.chaos.engine import CHAOS_JOB_ID, ChaosEngine, ChaosInjection, ScenarioRun
from repro.chaos.perturbations import (
    PERTURBATION_KINDS,
    ChaosError,
    CheckpointFault,
    CrashPE,
    FailHost,
    HostFlap,
    KeySkewShift,
    LatencySpike,
    LinkLoss,
    LinkPartition,
    PEFlap,
    Perturbation,
    RateSurge,
    Rescale,
    RestartPE,
    perturbation_from_dict,
    perturbation_to_dict,
)
from repro.chaos.scenario import (
    Campaign,
    Scenario,
    Step,
    flash_crowd,
    gray_network,
    rolling_channel_outage,
    rolling_host_outage,
    step,
    torn_checkpoints,
)
from repro.chaos.scorecard import (
    ResilienceScorecard,
    collect_scorecard,
    live_keyed_state,
    state_recovery_fraction,
    tuple_accounting,
)

__all__ = [
    "CHAOS_JOB_ID",
    "PERTURBATION_KINDS",
    "Campaign",
    "ChaosEngine",
    "ChaosError",
    "ChaosInjection",
    "CheckpointFault",
    "CrashPE",
    "FailHost",
    "HostFlap",
    "KeySkewShift",
    "LatencySpike",
    "LinkLoss",
    "LinkPartition",
    "PEFlap",
    "Perturbation",
    "RateSurge",
    "Rescale",
    "ResilienceScorecard",
    "RestartPE",
    "Scenario",
    "ScenarioRun",
    "Step",
    "collect_scorecard",
    "flash_crowd",
    "gray_network",
    "live_keyed_state",
    "perturbation_from_dict",
    "perturbation_to_dict",
    "rolling_channel_outage",
    "rolling_host_outage",
    "state_recovery_fraction",
    "step",
    "torn_checkpoints",
    "tuple_accounting",
]
