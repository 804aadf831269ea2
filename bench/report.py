"""Printing, the environment fingerprint, and ``--compare``."""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import sys
from typing import Any, Dict, List, Tuple

from bench.workloads import FLOOD_EVENTS, OPEN_LOOP_RATE, WORKLOADS

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def fingerprint(seed: int, seconds: float, scale: float) -> Dict[str, Any]:
    """Where and on what these numbers were taken."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # a driver checkout is not a git repository
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "sizes": {
            **{w.name: {"tuples": w.tuples, "per_tick": w.per_tick} for w in WORKLOADS.values()},
            "flood_events": FLOOD_EVENTS,
            "open_loop_rate": OPEN_LOOP_RATE,
        },
    }


def write_document(path: str, seed: int, seconds: float, scale: float, results: Dict[str, Any]) -> None:
    """The ``--out`` file: fingerprint plus each workload's full result."""
    document = {"fingerprint": fingerprint(seed, seconds, scale), "workloads": results}
    pathlib.Path(path).write_text(json.dumps(document, indent=1))


def print_result(result: Dict[str, Any]) -> None:
    """One workload's metrics by name: unit, value, quartiles, sample count."""
    print(
        f"== {result['workload']} ({result['executor']}, trace {result['trace']}): "
        f"{result['rounds']} rounds, attempted {result['attempted']}, "
        f"failed {result['failed']}, correct {result['correct']}"
    )
    print(f"   oracle: {result['oracle']}")
    print(f"   {'metric':32s} {'unit':>12s} {'value':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}")
    for name, m in result["metrics"].items():
        print(
            f"   {name:32s} {m['unit']:>12s} {m['value']:14.6g} "
            f"{m['q1']:14.6g} {m['q3']:14.6g} {m['n']:3d}"
        )


def result_line(result: Dict[str, Any], names: Tuple[str, ...]) -> str:
    """The contract's last line: correct, attempted, failed, metrics."""
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {
                name: {
                    "value": result["metrics"][name]["value"],
                    "unit": result["metrics"][name]["unit"],
                }
                for name in names
            },
        }
    )


# -- compare -------------------------------------------------------------------


def _spread(m: Dict[str, Any]) -> float:
    return abs(m["q3"] - m["q1"]) / abs(m["value"]) if m["value"] else 0.0


def verdict(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """improved / unchanged / unresolved / regressed, for baseline a and change b."""
    base, new, bound = a["value"], b["value"], a.get("bound")
    if base == new:
        return "unchanged"
    worse = (new < base) if a["better"] == "higher" else (new > base)
    change = abs(new - base) / abs(base) if base else float("inf")
    if bound is None:
        return "-"  # per-layer: reported, never gated
    if max(_spread(a), _spread(b)) > bound > 0:
        return "unresolved"
    if worse:
        return "regressed" if change > bound else "unchanged"
    return "improved" if change > max(bound, _spread(a)) else "unchanged"


def compare(path_a: str, path_b: str) -> int:
    """Print one row per (metric, workload); 1 if anything regressed."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    for side, doc in (("A", a), ("B", b)):
        print(f"{side}: {doc['fingerprint']}")
    print(
        f"{'workload':14s} {'metric':28s} {'unit':>10s} {'A value [q1, q3]':>36s} "
        f"{'B value [q1, q3]':>36s} {'B/A':>8s}  verdict"
    )
    regressed = 0
    rows: List[Tuple[str, str]] = [
        (w, name)
        for w, result in a["workloads"].items()
        if w in b["workloads"]
        for name in result["metrics"]
        if name in b["workloads"][w]["metrics"]
    ]
    for w, name in rows:
        ma, mb = a["workloads"][w]["metrics"][name], b["workloads"][w]["metrics"][name]
        outcome = verdict(ma, mb)
        regressed += outcome == "regressed"
        ratio = f"{mb['value'] / ma['value']:8.3f}" if ma["value"] else "     n/a"
        cell = lambda m: f"{m['value']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"  # noqa: E731
        print(
            f"{w:14s} {name:28s} {ma['unit']:>10s} {cell(ma):>36s} {cell(mb):>36s} "
            f"{ratio}  {outcome}"
        )
    print(f"ratios are B over A (base: A = {path_a}); {regressed} regressed")
    return 1 if regressed else 0
