"""Sec. 5 claim — orchestrator logic sizes.

The paper reports the code size of each use-case orchestrator as evidence
that adaptation policies are small once control logic is separated from
data processing: 114 (sentiment), 196 (failover) and 139 (composition)
lines of C++.  This benchmark reports our Python equivalents and checks
they stay in the same small-policy ballpark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.apps.orchestrators import (
    CompositionOrca,
    FailoverOrca,
    SentimentOrca,
    orca_logic_loc,
)

from benchmarks.conftest import emit

PAPER_LOC = {"sentiment (5.1)": 114, "failover (5.2)": 196, "composition (5.3)": 139}
OUR_CLASSES = {
    "sentiment (5.1)": SentimentOrca,
    "failover (5.2)": FailoverOrca,
    "composition (5.3)": CompositionOrca,
}


@dataclass
class LocResult:
    rows: Dict[str, tuple]


def run_loc_table() -> LocResult:
    rows = {}
    for name, paper in PAPER_LOC.items():
        ours = orca_logic_loc(OUR_CLASSES[name])
        rows[name] = (paper, ours)
    return LocResult(rows=rows)


def test_orca_logic_loc_table(results_dir):
    result = run_loc_table()

    lines = [f"{'use case':<20} {'paper (C++)':>12} {'ours (Python)':>14}"]
    for name, (paper, ours) in result.rows.items():
        lines.append(f"{name:<20} {paper:>12} {ours:>14}")
    emit(results_dir, "loc_table", lines)

    for name, (paper, ours) in result.rows.items():
        # Shape: policies stay small (the paper's point) — same order of
        # magnitude as the C++ originals, never larger than 2x.  Exact
        # ordering between use cases is a language-density artifact and
        # is not asserted.
        assert ours < 2.0 * paper, f"{name}: {ours} lines vs paper {paper}"
        assert ours > 20, f"{name}: suspiciously tiny ({ours} lines)"
