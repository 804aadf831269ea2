"""The SPL compiler: partitions operators into PEs.

Sec. 2.1 of the paper: "the SPL compiler places operators into processing
elements (PEs) ... based on performance measurements and following
partition constraints informed by the developers", and PEs may fuse
operators from *different* composite instances (Fig. 3).  We implement the
constraint machinery faithfully and offer several fusion strategies in
place of the profile-driven optimizer (COLA):

* ``manual`` — operators sharing a ``partition`` tag are fused; untagged
  operators get singleton PEs.  This is how the paper's Fig. 3 layout is
  expressed exactly.
* ``per_operator`` — one PE per operator.
* ``fuse_all`` — a single PE (when host pools and exlocations allow).
* ``balanced`` — greedy weight-balanced packing into ``target_pe_count``
  PEs, honouring colocation tags as atomic groups, partition exlocation,
  and host-pool compatibility.  Operator weight comes from the ``cost``
  operator param (default 1.0), standing in for profiling data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import CompilationError, ConstraintError
from repro.spl.application import Application
from repro.spl.graph import Edge, OperatorSpec
from repro.spl.parallel import ParallelRegionPlan, expand_parallel_regions


@dataclass
class PESpec:
    """A processing element: a set of fused operators plus placement needs."""

    index: int  #: 1-based index within the application (as in Fig. 3)
    operators: List[str] = field(default_factory=list)  #: operator full names
    host_pool: Optional[str] = None
    host_exlocations: Set[str] = field(default_factory=set)
    host_colocations: Set[str] = field(default_factory=set)
    #: state descriptors: operators whose class declares ``STATEFUL = True``
    #: (the PE runtime snapshots exactly these on graceful stop, and the
    #: elastic migration phase consults them when re-partitioning a region)
    stateful_ops: List[str] = field(default_factory=list)

    def __repr__(self) -> str:
        return f"PESpec(#{self.index}, ops={self.operators})"


@dataclass
class CompiledApplication:
    """Result of compilation: the physical plan for one application."""

    application: Application
    pes: List[PESpec]
    #: operator full name -> PE index
    placement: Dict[str, int]
    #: edges crossing PE boundaries (need transport) vs fused edges
    inter_pe_edges: List[Edge]
    intra_pe_edges: List[Edge]
    #: region name -> plan, for applications with parallel annotations;
    #: ``application`` is then the *expanded* graph
    parallel_regions: Dict[str, ParallelRegionPlan] = field(default_factory=dict)
    #: the pre-expansion application (None when nothing was expanded); SAM
    #: recompiles it per job so live rescales never mutate a shared plan
    source_application: Optional[Application] = None
    #: compiler settings, kept so SAM can recompile per job
    strategy: str = "manual"
    target_pe_count: int = 0

    @property
    def name(self) -> str:
        return self.application.name

    def pe_of(self, operator_full_name: str) -> int:
        try:
            return self.placement[operator_full_name]
        except KeyError:
            raise CompilationError(
                f"operator {operator_full_name!r} not in compiled plan"
            ) from None

    def pe(self, index: int) -> PESpec:
        for pe in self.pes:
            if pe.index == index:
                return pe
        raise CompilationError(f"no PE with index {index}")

    def split_edges(self) -> None:
        """Sort the graph's edges into inter-PE / intra-PE under ``placement``."""
        self.inter_pe_edges, self.intra_pe_edges = [], []
        for edge in self.application.graph.edges:
            src, dst = self.pe_of(edge.src.full_name), self.pe_of(edge.dst.full_name)
            (self.intra_pe_edges if src == dst else self.inter_pe_edges).append(edge)


class SPLCompiler:
    """Partitions an application's operators into PEs."""

    STRATEGIES = ("manual", "per_operator", "fuse_all", "balanced")

    def __init__(self, strategy: str = "manual", target_pe_count: int = 0) -> None:
        if strategy not in self.STRATEGIES:
            raise CompilationError(
                f"unknown strategy {strategy!r}; choose from {self.STRATEGIES}"
            )
        if strategy == "balanced" and target_pe_count <= 0:
            raise CompilationError("balanced strategy requires target_pe_count > 0")
        self.strategy = strategy
        self.target_pe_count = target_pe_count

    # -- public API ----------------------------------------------------------

    def compile(self, application: Application) -> CompiledApplication:
        application.validate()
        source = application
        application, parallel_regions = expand_parallel_regions(application)
        if parallel_regions:
            application.validate()
        groups = self._atomic_groups(application.graph.operators.values())
        if self.strategy == "manual" or self.strategy == "per_operator":
            partitions = groups
        elif self.strategy == "fuse_all":
            partitions = self._fuse_all(groups)
        else:
            partitions = self._balanced(groups)
        self._check_exlocation(partitions)
        pes = self._build_pes(application, partitions)
        compiled = CompiledApplication(
            application=application,
            pes=pes,
            placement={op_name: pe.index for pe in pes for op_name in pe.operators},
            inter_pe_edges=[],
            intra_pe_edges=[],
            parallel_regions=parallel_regions,
            source_application=source if parallel_regions else None,
            strategy=self.strategy,
            target_pe_count=self.target_pe_count,
        )
        compiled.split_edges()
        return compiled

    def extend(
        self, compiled: CompiledApplication, specs: Sequence[OperatorSpec]
    ) -> List[PESpec]:
        """Add PEs for operators that joined a compiled plan (live scale-out).

        Grouped by this compiler's strategy, numbered after the plan's
        highest PE index; placement and the edge split are updated.
        """
        start = max((pe.index for pe in compiled.pes), default=0) + 1
        added = self._build_pes(compiled.application, self._atomic_groups(specs), start)
        compiled.pes.extend(added)
        for pe in added:
            compiled.placement.update(dict.fromkeys(pe.operators, pe.index))
        compiled.split_edges()
        return added

    # -- grouping ---------------------------------------------------------------

    def _atomic_groups(self, specs: Iterable[OperatorSpec]) -> List[List[OperatorSpec]]:
        """Indivisible operator groups: partition-tag groups + singletons.

        In ``per_operator`` mode, tags are ignored and everything is a
        singleton (used to model "no fusion" baselines).
        """
        if self.strategy == "per_operator":
            return [[spec] for spec in specs]
        by_tag: Dict[str, List[OperatorSpec]] = {}
        singletons: List[List[OperatorSpec]] = []
        for spec in specs:
            if spec.partition is not None:
                by_tag.setdefault(spec.partition, []).append(spec)
            else:
                singletons.append([spec])
        groups = list(by_tag.values()) + singletons
        for group in groups:
            self._check_group_compatibility(group)
        return groups

    def _check_group_compatibility(self, group: Sequence[OperatorSpec]) -> None:
        pools = {s.host_pool for s in group if s.host_pool is not None}
        if len(pools) > 1:
            names = [s.full_name for s in group]
            raise ConstraintError(
                f"operators {names} are fused but demand different host pools {sorted(pools)}"
            )
        exloc_counts: Dict[str, int] = {}
        for spec in group:
            if spec.partition_exlocation is not None:
                exloc_counts[spec.partition_exlocation] = (
                    exloc_counts.get(spec.partition_exlocation, 0) + 1
                )
        for tag, count in exloc_counts.items():
            if count > 1:
                raise ConstraintError(
                    f"fused operators share partition exlocation tag {tag!r}"
                )

    def _fuse_all(
        self, groups: List[List[OperatorSpec]]
    ) -> List[List[OperatorSpec]]:
        merged = [spec for group in groups for spec in group]
        self._check_group_compatibility(merged)
        return [merged]

    def _balanced(
        self, groups: List[List[OperatorSpec]]
    ) -> List[List[OperatorSpec]]:
        """Greedy longest-processing-time packing of groups into N bins."""

        def group_weight(group: Sequence[OperatorSpec]) -> float:
            return sum(float(s.params.get("cost", 1.0)) for s in group)

        ordered = sorted(groups, key=group_weight, reverse=True)
        bins: List[List[OperatorSpec]] = [[] for _ in range(self.target_pe_count)]
        weights = [0.0] * self.target_pe_count
        for group in ordered:
            placed = False
            # try lightest-first bins that remain compatible
            for bin_index in sorted(
                range(self.target_pe_count), key=lambda i: weights[i]
            ):
                candidate = bins[bin_index] + list(group)
                try:
                    self._check_group_compatibility(candidate)
                except ConstraintError:
                    continue
                bins[bin_index] = candidate
                weights[bin_index] += group_weight(group)
                placed = True
                break
            if not placed:
                names = [s.full_name for s in group]
                raise ConstraintError(
                    f"could not place group {names} into {self.target_pe_count} PEs "
                    "without violating constraints"
                )
        return [b for b in bins if b]

    # -- constraint checks ---------------------------------------------------------

    def _check_exlocation(self, partitions: List[List[OperatorSpec]]) -> None:
        """Partition exlocation across PEs: tags must not repeat inside a PE.

        (Already enforced per group; this re-checks the final partitioning
        so every strategy goes through the same gate.)
        """
        for group in partitions:
            self._check_group_compatibility(group)

    # -- PE construction -----------------------------------------------------------

    def _build_pes(
        self,
        application: Application,
        partitions: List[List[OperatorSpec]],
        start: int = 1,
    ) -> List[PESpec]:
        # Deterministic PE numbering: order groups by their first operator's
        # position in the graph insertion order.
        order = {name: i for i, name in enumerate(application.graph.operators)}
        partitions = sorted(partitions, key=lambda g: min(order[s.full_name] for s in g))
        pes: List[PESpec] = []
        for index, group in enumerate(partitions, start=start):
            pool = None
            for spec in group:
                if spec.host_pool is not None:
                    pool = spec.host_pool
                    break
            ordered_group = sorted(group, key=lambda s: order[s.full_name])
            pe = PESpec(
                index=index,
                operators=[s.full_name for s in ordered_group],
                host_pool=pool,
                host_exlocations={
                    s.host_exlocation for s in group if s.host_exlocation is not None
                },
                host_colocations={
                    s.host_colocation for s in group if s.host_colocation is not None
                },
                stateful_ops=[
                    s.full_name
                    for s in ordered_group
                    if getattr(s.op_class, "STATEFUL", False)
                ],
            )
            pes.append(pe)
        return pes
