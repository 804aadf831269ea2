"""Tier-1 smoke test of the benchmark itself.

Runs every workload at 1/100 size through the real command line, checks
that each metric the catalogue names comes back finite and with its
unit, that ``BENCHMARK.json`` and the catalogue agree, and that a run
writes nothing outside the directory it was told to write to.  Sizes
are far too small for the numbers to mean anything; only their presence
is asserted.
"""

from __future__ import annotations

import json
import math
import os
import pathlib

from bench import metrics
from bench.__main__ import main
from bench.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCALE = "0.01"
#: byproducts of running Python and pytest, not of the benchmark
BYPRODUCTS = {"__pycache__", ".pytest_cache", ".hypothesis", ".git"}


def _tree() -> set:
    """Every file of the repository with its size and modification time."""
    found = set()
    for directory, subdirs, files in os.walk(ROOT):
        subdirs[:] = [d for d in subdirs if d not in BYPRODUCTS]
        for name in files:
            stat = os.stat(os.path.join(directory, name))
            found.add((os.path.join(directory, name), stat.st_size, stat.st_mtime_ns))
    return found


def _run(tmp_path: pathlib.Path, workload: str, trace: int, capsys) -> dict:
    out = tmp_path / f"{workload}-{trace}.json"
    argv = [
        "--workload", workload, "--seed", "1", "--seconds", "0", "--scale", SCALE,
        "--trace", str(trace), "--out", str(out),
    ]
    assert main(argv) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = metrics.PER_LAYER_NAMES if trace else metrics.END_TO_END_NAMES
    assert set(line["metrics"]) == set(expected)
    for name, reading in line["metrics"].items():
        assert math.isfinite(reading["value"]), name
        assert reading["unit"] == metrics.BY_NAME[name].unit, name
    return json.loads(out.read_text())


def test_every_workload_reports_every_metric(tmp_path, capsys):
    before = _tree()
    documents = {name: _run(tmp_path, name, 0, capsys) for name in WORKLOADS}
    traced = _run(tmp_path, "region_adapt", 1, capsys)
    assert _tree() == before, "the benchmark wrote outside the directory it was given"

    for name, document in documents.items():
        readings = document["workloads"][name]["metrics"]
        for metric in (*metrics.END_TO_END, *metrics.SCENARIO):
            if not metric.workloads or name in metric.workloads:
                assert metric.name in readings, (name, metric.name)
                assert readings[metric.name]["n"] >= 1
        for metric in metrics.END_TO_END:
            assert readings[metric.name]["value"] > 0, (name, metric.name)
        assert document["fingerprint"]["seed"] == 1
    ledger = traced["workloads"]["region_adapt"]["metrics"]
    # the span ledger accounts for the traced round's wall time
    assert abs(ledger["trace.coverage"]["value"] - 1.0) < 0.05
    assert ledger["trace.overhead"]["value"] > 0
    assert (tmp_path / "region_adapt-1.spans.json").is_file()

    # compare mode reads what the runs wrote
    a = str(tmp_path / "pipe_tick-0.json")
    assert main(["--compare", a, a]) == 0
    assert "unchanged" in capsys.readouterr().out


def test_sim_workloads_repeat_exactly(capsys):
    assert main(["--check-determinism", "--scale", SCALE]) == 0
    assert capsys.readouterr().out.count("identical") == 3


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert listed == [(m.name, m.unit, m.better) for m in metrics.END_TO_END]
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [
        (m.name, m.unit, m.better) for m in (*metrics.SCENARIO, *metrics.PER_LAYER)
    ]
