"""Figures 2-3 — composite reuse and PE partitioning (Sec. 2.1).

The paper's compiler places operators of one composite instance into
*different* PEs and fuses operators of *different* composite instances
into one PE (Fig. 3), distributing the three PEs over two hosts.  The
benchmark regenerates the layout, runs the application, and checks that
both composite instances process their streams end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro import SystemS
from repro.apps.figure2 import build_figure2_application, expected_figure3_layout
from repro.spl.compiler import SPLCompiler

from benchmarks.conftest import emit


@dataclass
class Fig2Result:
    layout: Dict[int, List[str]]
    hosts: Dict[int, str]
    sink1_count: int
    sink2_count: int
    paths_seen: set
    inter_pe_edges: int
    intra_pe_edges: int


def run_fig2_scenario(horizon: float = 60.0) -> Fig2Result:
    system = SystemS(hosts=2, seed=42)
    app = build_figure2_application(per_tick=2, period=0.5)
    compiled = SPLCompiler("manual").compile(app)
    job = system.submit_job(compiled)
    system.run_for(horizon)
    sink1 = job.operator_instance("sink1")
    sink2 = job.operator_instance("sink2")
    paths = set()
    for tup in sink1.seen + sink2.seen:
        paths.update(tup.get("path", []))
    return Fig2Result(
        layout={pe.index: list(pe.operators) for pe in compiled.pes},
        hosts={pe.index: pe.host_name for pe in job.pes},
        sink1_count=len(sink1.seen),
        sink2_count=len(sink2.seen),
        paths_seen=paths,
        inter_pe_edges=len(compiled.inter_pe_edges),
        intra_pe_edges=len(compiled.intra_pe_edges),
    )


def test_fig2_partitioning(results_dir):
    result = run_fig2_scenario()

    lines = ["physical layout (Fig. 3):"]
    for index in sorted(result.layout):
        lines.append(
            f"  PE {index} on {result.hosts[index]}: {result.layout[index]}"
        )
    lines.append("")
    lines.append(f"inter-PE streams: {result.inter_pe_edges}, "
                 f"fused streams: {result.intra_pe_edges}")
    lines.append(f"sink1 tuples: {result.sink1_count}, "
                 f"sink2 tuples: {result.sink2_count}")
    emit(results_dir, "fig02_partitioning", lines)

    assert result.layout == expected_figure3_layout()
    # one composite spans two PEs; one PE mixes both instances
    assert any(
        any(n.startswith("c1.") for n in ops)
        and any(n.startswith("c2.") for n in ops)
        for ops in result.layout.values()
    )
    # two hosts used, as in Fig. 3
    assert len(set(result.hosts.values())) == 2
    # both pipelines process data through both split branches
    assert result.sink1_count > 0 and result.sink2_count > 0
    assert result.paths_seen == {"op4", "op5"}
