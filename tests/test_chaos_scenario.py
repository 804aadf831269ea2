"""Scenario/Campaign DSL hardening: validation errors, horizon and
jitter semantics, per-seed determinism of step resolution, and the
to_dict/from_dict serialization round-trip the fuzz corpus rides on."""

from __future__ import annotations

import json
import random

import pytest

from repro.chaos import (
    Campaign,
    ChaosError,
    CheckpointFault,
    HostFlap,
    KeySkewShift,
    LatencySpike,
    LinkLoss,
    LinkPartition,
    PEFlap,
    RateSurge,
    Rescale,
    Scenario,
    Step,
    gray_network,
    perturbation_from_dict,
    perturbation_to_dict,
    step,
    torn_checkpoints,
)


class TestValidation:
    def test_empty_scenario_rejected(self):
        with pytest.raises(ChaosError, match="no steps"):
            Scenario("empty").validate()

    def test_blank_name_rejected(self):
        with pytest.raises(ChaosError, match="name"):
            Scenario("  ").add(1.0, PEFlap(operator="x")).validate()

    def test_negative_at_rejected_with_step_index(self):
        scenario = Scenario("bad").add(1.0, PEFlap(operator="x"))
        scenario.add(-0.5, RateSurge())
        with pytest.raises(ChaosError, match="step 1.*'at'"):
            scenario.validate()

    def test_negative_jitter_rejected(self):
        scenario = Scenario("bad").add(1.0, PEFlap(operator="x"), jitter=-1.0)
        with pytest.raises(ChaosError, match="'jitter'"):
            scenario.validate()

    def test_non_finite_at_rejected(self):
        scenario = Scenario("bad").add(float("inf"), RateSurge())
        with pytest.raises(ChaosError, match="finite"):
            scenario.validate()

    def test_non_perturbation_payload_rejected(self):
        scenario = Scenario("bad", steps=[Step(at=1.0, perturbation="boom")])
        with pytest.raises(ChaosError, match="Perturbation"):
            scenario.validate()

    def test_valid_scenario_chains(self):
        scenario = Scenario("ok").add(0.0, RateSurge(factor=2.0))
        assert scenario.validate() is scenario

    def test_engine_rejects_invalid_scenarios_before_scheduling(self):
        from repro import SystemS

        system = SystemS(hosts=2)
        with pytest.raises(ChaosError, match="no steps"):
            system.chaos.run_scenario(Scenario("empty"))
        assert system.chaos.runs == []  # nothing was scheduled

    def test_campaign_validation(self):
        scenario = Scenario("ok").add(1.0, RateSurge())
        Campaign("c", scenario, seed=1, duration=5.0).validate()
        with pytest.raises(ChaosError, match="duration"):
            Campaign("c", scenario, duration=0.0).validate()
        with pytest.raises(ChaosError, match="seed"):
            Campaign("c", scenario, seed="42").validate()
        with pytest.raises(ChaosError, match="no steps"):
            Campaign("c", Scenario("empty")).validate()


class TestHorizonAndResolution:
    def test_horizon_includes_jitter_windows(self):
        scenario = Scenario("h").add(2.0, RateSurge()).add(
            5.0, RateSurge(), jitter=3.0
        )
        assert scenario.horizon() == pytest.approx(8.0)
        # the jittered step dominates even with a later nominal step
        scenario.add(7.5, RateSurge())
        assert scenario.horizon() == pytest.approx(8.0)

    def test_horizon_of_empty_scenario_is_zero(self):
        assert Scenario("h").horizon() == 0.0

    def test_resolve_at_without_jitter_is_exact(self):
        entry = step(3.25, RateSurge())
        assert entry.resolve_at(random.Random(1)) == 3.25

    def test_resolve_at_is_deterministic_per_seed(self):
        entry = step(1.0, RateSurge(), jitter=2.0)
        first = [entry.resolve_at(random.Random(7)) for _ in range(3)]
        second = [entry.resolve_at(random.Random(7)) for _ in range(3)]
        assert first == second
        assert first != [entry.resolve_at(random.Random(8)) for _ in range(3)]
        assert all(1.0 <= t < 3.0 for t in first)  # inside the window


ALL_PERTURBATIONS = [
    PEFlap(operator="work__c0", downtime=1.5, rehydrate=False),
    HostFlap(host="host3", downtime=2.0),
    LatencySpike(extra=0.05, duration=2.0, dst_host="host1"),
    LinkPartition(duration=0.8, dst_operator="work__c1"),
    LinkLoss(drop_probability=0.2, duration=1.0),
    RateSurge(factor=3.0, duration=6.0),
    KeySkewShift(hot_fraction=0.9, hot_keys=("k1", "k2"), duration=4.0),
    CheckpointFault(duration=2.5),
    Rescale(region="region", width=4),
]


class TestSerialization:
    @pytest.mark.parametrize(
        "perturbation", ALL_PERTURBATIONS, ids=lambda p: p.KIND
    )
    def test_perturbation_round_trip(self, perturbation):
        data = perturbation_to_dict(perturbation)
        json.dumps(data)  # JSON-safe
        rebuilt = perturbation_from_dict(data)
        assert type(rebuilt) is type(perturbation)
        assert perturbation_to_dict(rebuilt) == data

    def test_unknown_kind_rejected(self):
        with pytest.raises(ChaosError, match="unknown perturbation kind"):
            perturbation_from_dict({"kind": "meteor_strike", "params": {}})

    def test_bad_params_rejected(self):
        with pytest.raises(ChaosError, match="bad parameters"):
            perturbation_from_dict({"kind": "rescale", "params": {"nope": 1}})

    @pytest.mark.parametrize("duration", [None, 0.0, -1.0, float("inf")])
    @pytest.mark.parametrize(
        "kind",
        ["rate_surge", "key_skew", "latency_spike", "link_partition", "link_loss"],
    )
    def test_a_fault_without_a_finite_positive_duration_is_rejected(
        self, kind, duration
    ):
        """Every windowed fault ends on its own: a stored scenario cannot
        ask for one that lasts until someone heals it."""
        data = {"kind": kind, "params": {"duration": duration}}
        with pytest.raises(ChaosError, match="finite duration"):
            perturbation_from_dict(data)
        stored = {"name": "s", "steps": [{"at": 1.0, "perturbation": data}]}
        with pytest.raises(ChaosError, match="finite duration"):
            Scenario.from_dict(stored)

    def test_scenario_round_trip_through_json(self):
        scenario = torn_checkpoints("work__c0", start=1.0, crash_after=1.02)
        data = scenario.to_dict()
        rebuilt = Scenario.from_dict(json.loads(json.dumps(data)))
        assert rebuilt.to_dict() == data
        assert rebuilt.name == scenario.name
        assert [s.perturbation.KIND for s in rebuilt.steps] == [
            s.perturbation.KIND for s in scenario.steps
        ]
        assert [s.at for s in rebuilt.steps] == [s.at for s in scenario.steps]

    def test_preset_with_jitter_round_trips(self):
        scenario = gray_network(waves=2, jitter=0.5)
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert [s.jitter for s in rebuilt.steps] == [
            s.jitter for s in scenario.steps
        ]

    def test_campaign_round_trip(self):
        campaign = Campaign(
            name="bench",
            scenario=Scenario("s").add(1.0, RateSurge(factor=2.0)),
            seed=7,
            duration=12.5,
            checkpointed=False,
            description="round trip",
        )
        data = json.loads(json.dumps(campaign.to_dict()))
        rebuilt = Campaign.from_dict(data)
        assert rebuilt.to_dict() == campaign.to_dict()
        assert rebuilt.checkpointed is False
        assert rebuilt.seed == 7

    def test_malformed_mappings_raise_chaos_errors(self):
        with pytest.raises(ChaosError, match="malformed step"):
            Step.from_dict({"jitter": 1.0})
        with pytest.raises(ChaosError, match="malformed scenario"):
            Scenario.from_dict({"steps": []})
        with pytest.raises(ChaosError, match="malformed campaign"):
            Campaign.from_dict({"name": "x"})

    def test_malformed_values_raise_chaos_errors_not_raw_exceptions(self):
        """Hand-edited corpus values must surface as ChaosError (the
        documented contract), never a bare TypeError/ValueError."""
        valid = Scenario("s").add(1.0, RateSurge()).to_dict()
        with pytest.raises(ChaosError, match="malformed step"):
            Step.from_dict({"at": None, "perturbation": valid["steps"][0]["perturbation"]})
        with pytest.raises(ChaosError, match="malformed campaign"):
            Campaign.from_dict(
                {"name": "c", "scenario": valid, "seed": "abc"}
            )
        with pytest.raises(ChaosError, match="malformed campaign"):
            Campaign.from_dict(
                {"name": "c", "scenario": valid, "duration": None}
            )
        with pytest.raises(ChaosError, match="malformed"):
            Scenario.from_dict({"name": "s", "steps": [None]})
