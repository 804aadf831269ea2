"""Command line of the benchmark.

Contract form (what ``BENCHMARK.json`` names; one workload, one process)::

    python3 -m bench --workload W --seed N --seconds S --trace 0|1

Full report (every workload, each in its own subprocess)::

    python3 -m bench --seed N [--trace] [--out FILE]

Also ``--compare A.json B.json`` and ``--check-determinism``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"bench: the program under test is missing ({SRC / 'repro'})")
sys.path.insert(0, str(SRC))

from bench import metrics, report, runner  # noqa: E402 - needs src/ on the path
from bench.workloads import WORKLOADS, make_inputs, run_round  # noqa: E402

DEFAULT_SECONDS = 20.0
#: the saturate phase must be bound by the executor, not by the offered load
MIN_CPU_SHARE = 0.90
DETERMINISM_SCALE = 0.25
DETERMINISTIC = (
    "kernel.events_per_tuple", "rescale_ms", "recovery_ms", "metric_react_ms",
    "elastic.drain_polls",
)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0, help="round size multiplier")
    parser.add_argument("--out", help="write the full result (and the spans) here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--check-determinism", action="store_true")
    return parser.parse_args(argv)


def _run_one(args: argparse.Namespace) -> int:
    """The contract form: measure one workload in this process."""
    workload = WORKLOADS[args.workload]
    if args.trace:
        spans = str(pathlib.Path(args.out).with_suffix(".spans.json")) if args.out else None
        result = runner.trace(workload, args.seed, args.seconds, args.scale, spans)
        names = metrics.PER_LAYER_NAMES
    else:
        result = runner.measure(workload, args.seed, args.seconds, args.scale)
        names = metrics.END_TO_END_NAMES
    report.print_result(result)
    share = result["metrics"].get("wallclock.cpu_share")
    if workload.executor == "wallclock" and args.scale >= 1.0 and share["value"] < MIN_CPU_SHARE:
        sys.exit(
            f"bench: saturate phase used {share['value']:.2f} of a CPU (< {MIN_CPU_SHARE}); "
            "the run measured its offered load, not the executor"
        )
    if args.out:
        report.write_document(
            args.out, args.seed, args.seconds, args.scale, {workload.name: result}
        )
    print(report.result_line(result, names))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own subprocess (own heap, own peak RSS)."""
    merged: Dict[str, Any] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            out = pathlib.Path(tmp) / f"{name}.json"
            command = [
                sys.executable, "-m", "bench", "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", str(args.scale), "--out", str(out),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            merged.update(json.loads(out.read_text())["workloads"])
    if args.out:
        report.write_document(args.out, args.seed, args.seconds, args.scale, merged)
    return 0


def _check_determinism(args: argparse.Namespace) -> int:
    """Run each sim workload twice; virtual-time readings and sinks must match."""
    failures = 0
    scale = min(args.scale, DETERMINISM_SCALE)
    for workload in (w for w in WORKLOADS.values() if w.executor == "sim"):
        data = make_inputs(workload, args.seed, scale)
        first, second = (
            run_round(workload, data, scale=scale, want_digest=True) for _ in range(2)
        )
        differing = [
            name for name in DETERMINISTIC
            if first.values.get(name) != second.values.get(name)
        ]
        if first.digest != second.digest:
            differing.append("sink multiset")
        print(f"{workload.name}: {'identical' if not differing else f'DIFFERS in {differing}'}")
        failures += bool(differing)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.compare:
        return report.compare(*args.compare)
    if args.check_determinism:
        return _check_determinism(args)
    if args.workload:
        return _run_one(args)
    return _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
