"""Benchmark harness helpers.

Every benchmark regenerates one figure (or design claim) of the paper:
it runs the full scenario on the simulated System S, prints the same
rows/series the paper reports, writes them under ``benchmarks/results/``
for inspection, and asserts the qualitative *shape* (who wins, where the
crossovers are) — absolute numbers differ from the paper's testbed by
construction.

Run with::

    pytest benchmarks/ --benchmark-only

Artifacts come in two kinds.  *Deterministic* ones (scorecards, sim-ms
tables, timelines) are rewritten by every run and must come out
byte-identical, so a plain tier-1 run leaves ``git status`` clean.
*Timing* ones (:data:`TIMING_ARTIFACTS`) hold wall-clock readings that
differ run to run: they are always printed, but only written under an
explicit ``pytest benchmarks/ --bench-write``.  For performance numbers
use ``python3 -m bench`` (see ``bench/README.md``).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: artifacts made of wall-clock readings; written only with --bench-write
TIMING_ARTIFACTS = frozenset(
    {
        "checkpoint_recovery",
        "obs_overhead",
        "scaling_elastic_state",
        "scaling_event_throughput",
        "scope_vs_sql",
    }
)

_write_timing = False


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--bench-write",
        action="store_true",
        default=False,
        help="also rewrite the wall-clock timing artifacts under benchmarks/results/",
    )


def pytest_configure(config: pytest.Config) -> None:
    global _write_timing
    _write_timing = bool(config.getoption("--bench-write", default=False))


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def best_of(fn, rounds: int = 3) -> float:
    """Best (max) rate over a few rounds — throughput benchmarks take
    the fastest round so scheduler noise only ever hurts, never helps."""
    return max(fn() for _ in range(rounds))


def emit(results_dir: pathlib.Path, name: str, lines: list[str]) -> None:
    """Print a figure's series and persist it under benchmarks/results/.

    Timing artifacts are printed but persisted only with ``--bench-write``.
    """
    text = "\n".join(lines)
    print(f"\n===== {name} =====")
    print(text)
    if name not in TIMING_ARTIFACTS or _write_timing:
        (results_dir / f"{name}.txt").write_text(text + "\n")
