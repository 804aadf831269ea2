"""Benchmark harness helpers.

Every benchmark regenerates one figure (or design claim) of the paper:
it runs the full scenario on the simulated System S, prints the same
rows/series the paper reports, writes them under ``benchmarks/results/``
for inspection, and asserts the qualitative *shape* (who wins, where the
crossovers are) — absolute numbers differ from the paper's testbed by
construction.

Run with::

    pytest benchmarks/

Everything here is a behaviour over *virtual* time: no file in this
package reads the host clock, so every artifact is rewritten
byte-identically by every run and a plain tier-1 run leaves ``git
status`` clean.  Wall time is measured in one place only, ``python3 -m
bench`` (see ``bench/README.md``): throughput is its ``tuples_per_s``,
the batched wire is ``transport.send_ns`` / ``transport.send_batch_ns``,
the obs taxes are ``obs.trace_tax`` / ``obs.health_tax``, the ORCA
queue and matcher are ``orca.dispatch_ns`` / ``orca.match_ns_per_scope``,
checkpointing is ``checkpoint.full_ms`` / ``checkpoint.incr_ms`` and
keyed-state movement is ``state.migrate_ms``.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: pathlib.Path, name: str, lines: list[str]) -> None:
    """Print a figure's series and persist it under benchmarks/results/."""
    text = "\n".join(lines)
    print(f"\n===== {name} =====")
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")
