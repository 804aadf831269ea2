"""Adversarial fuzz search over the campaign presets (repro.chaos.fuzz).

Three fixed-seed, fixed-budget searches sweep the preset scenarios'
seed/step-time space, re-aiming steps at observed runtime barriers
(rescale phases, checkpoint commits, splitter masks) and maximizing the
oracle-violation / latency objective:

* the **healthy** elastic + checkpoint stack must survive every search
  with zero invariant violations — the presets' robustness claims hold
  under adversarial timing, not just at their declared instants;
* the **weakened** stack (checkpoint commits permanently torn through
  the ``commit_fault`` hook) must be caught within the same budget and
  shrink to a minimal (single-step) repro — the fuzzer finds planted
  bugs, it does not only bless healthy code;
* the whole pipeline is **deterministic**: one search is run twice and
  its summaries diffed byte-for-byte (the CI ``chaos-fuzz`` job mirrors
  this on the test side).

The committed ``results/fuzz_search.txt`` records seeds explored,
barriers targeted, and the worst objective per preset.
"""

from __future__ import annotations

from repro.chaos import (
    Scenario,
    flash_crowd,
    rolling_channel_outage,
    torn_checkpoints,
)
from repro.chaos.fuzz import (
    FuzzBudget,
    FuzzHarnessConfig,
    fuzz_scenario,
    run_fuzz_case,
    shrink_scenario,
)

from benchmarks.conftest import emit

BUDGET = FuzzBudget(seeds=(42, 7), mutation_rounds=3)


def preset_searches():
    """(name, scenario, harness config) per searched preset."""
    return [
        (
            "rolling_channel_outage",
            rolling_channel_outage(
                ["work__c0", "work__c1"], start=1.02, stagger=4.0, downtime=1.0
            ),
            FuzzHarnessConfig(duration=11.0),
        ),
        (
            "torn_checkpoints",
            torn_checkpoints(
                "work__c0", start=1.0, fault_window=3.0,
                crash_after=1.02, downtime=1.5,
            ),
            FuzzHarnessConfig(duration=10.0),
        ),
        (
            "flash_crowd",
            flash_crowd(
                at=1.02, factor=3.0, duration=5.0, hot_keys=("k0", "k1"),
                rescale_region="region", rescale_width=4,
            ),
            FuzzHarnessConfig(duration=10.0),
        ),
    ]


def search(scenario: Scenario, config: FuzzHarnessConfig):
    return fuzz_scenario(
        scenario,
        lambda s, seed: run_fuzz_case(s, config.with_seed(seed)),
        BUDGET,
    )


def run_all():
    results = {}
    for name, scenario, config in preset_searches():
        results[name] = search(scenario, config)

    # the planted weakness: torn commits on an otherwise healthy config
    weak_config = FuzzHarnessConfig(duration=8.0, torn_commits=True)
    weak_scenario = rolling_channel_outage(
        ["work__c0"], start=1.02, downtime=1.0
    )
    weak_report = search(weak_scenario, weak_config)
    worst = weak_report.worst
    shrunk = shrink_scenario(
        worst.scenario,
        lambda s: bool(
            run_fuzz_case(s, weak_config.with_seed(worst.seed)).violations
        ),
    )

    # determinism: the cheapest preset's search, repeated on fresh systems
    name, scenario, config = preset_searches()[1]
    repeat = search(scenario, config)
    return results, weak_report, shrunk, results[name], repeat


def test_fuzz_search(results_dir):
    results, weak_report, shrunk, first, repeat = run_all()

    lines = ["== adversarial search over presets (healthy stack) =="]
    for name, report in results.items():
        lines.extend(report.summary_lines())
        lines.append("")
    lines.append("== planted weakness (checkpoint commits torn) ==")
    lines.extend(weak_report.summary_lines())
    lines.append(
        f"  shrunk: {shrunk.original_steps} -> {shrunk.steps} step(s) "
        f"in {shrunk.runs} run(s); removed: {shrunk.removed}"
    )
    lines.append("")
    lines.append(
        "determinism: repeated search summaries byte-identical: "
        f"{first.summary_lines() == repeat.summary_lines()}"
    )
    emit(results_dir, "fuzz_search", lines)

    # the healthy stack survives every adversarial search
    for name, report in results.items():
        assert not report.found_violation, name
        assert report.worst.report.ok, name
        assert report.runs_executed <= len(BUDGET.seeds) * (
            1 + BUDGET.mutation_rounds
        )
        # mutations actually aimed at instrumented barriers
        assert any(result.barriers_targeted for result in report.results)

    # the planted weakness is found and shrinks to a minimal repro
    assert weak_report.found_violation
    assert shrunk.steps <= 3
    assert {v.oracle for v in weak_report.worst.violations} >= {
        "checkpoint_liveness"
    }

    # byte-determinism of the search pipeline
    assert first.summary_lines() == repeat.summary_lines()
