"""Parallel regions: data-parallel fission of annotated operator chains.

An operator (or a linear chain of operators) annotated with
``parallel(width=N, partition_by=...)`` is expanded by the compiler into
N replicated *channels* fronted by a :class:`~repro.spl.library.ParallelSplitter`
and closed by an order-preserving :class:`~repro.spl.library.OrderedMerger`:

::

            +-> work__c0 -+
    feed -> split          -> merge -> sink
            +-> work__c1 -+

Channel copies keep the template's placement constraints *per channel*:
a ``partition`` tag ``t`` becomes ``t__c0``, ``t__c1``... so operators
fused within one channel stay fused, while distinct channels land in
distinct PEs (and, via suffixed host tags, on distinct hosts when host
exlocation was requested).  This mirrors the channel layout of
data-parallel fission in Streams (Röger & Mayer's survey, PAPERS.md) and
keeps the expansion a pure graph-to-graph transform: the runtime only
ever sees ordinary operators, PEs, and streams.

The :class:`ParallelRegionPlan` produced alongside the expansion is the
contract with :mod:`repro.elastic`: it records the region's splitter,
merger, channel membership, and the *template* specs needed to clone new
channels during a live rescale (:func:`resize_region`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ParallelRegionError
from repro.spl.application import Application
from repro.spl.graph import LogicalGraph, OperatorSpec
from repro.spl.library import OrderedMerger, ParallelSplitter


@dataclass
class ParallelAnnotation:
    """Declarative request to run an operator (chain) data-parallel.

    ``congestion_metric`` / ``congestion_threshold`` configure when the
    ORCA service reports a ``channel_congested`` event for this region
    (aggregated per channel over the channel's operators).
    """

    width: int = 2
    partition_by: Optional[str] = None  #: attribute hashed to pick a channel
    name: Optional[str] = None  #: region name; defaults to the head operator
    max_width: int = 8  #: upper bound accepted by set_channel_width()
    ordered: bool = True  #: stamp/reorder tuples across channels
    #: seconds the merger waits on a sequence hole before skipping it
    #: (bounds the stall a crashed channel can cause; 0 disables skipping)
    reorder_grace: float = 30.0
    congestion_metric: str = "queueSize"
    congestion_threshold: float = 10.0
    #: move keyed operator state with its keys when the region is rescaled
    #: (requires ``partition_by``; set False for the paper's restart-empty
    #: semantics even across rescales)
    migrate_state: bool = True
    #: user-defined merge hook for scale-in: ``(state_name, survivor_value,
    #: doomed_value) -> merged`` folds a removed channel's *global* state
    #: into its survivor (``doomed % new_width``) instead of dropping it
    global_merge: Optional[Callable[[str, Any, Any], Any]] = None

    def validate(self) -> None:
        """Reject an annotation the compiler cannot expand.

        Raises:
            ParallelRegionError: ``width`` below 1, ``max_width`` below
                ``width``, or a region name that is empty or dotted.
        """
        if self.width < 1:
            raise ParallelRegionError(f"parallel width must be >= 1, got {self.width}")
        if self.max_width < self.width:
            raise ParallelRegionError(
                f"max_width {self.max_width} < width {self.width}"
            )
        if self.name is not None and ("." in self.name or not self.name):
            raise ParallelRegionError(f"invalid region name {self.name!r}")


def parallel(
    width: int = 2,
    partition_by: Optional[str] = None,
    name: Optional[str] = None,
    max_width: int = 8,
    ordered: bool = True,
    reorder_grace: float = 30.0,
    congestion_metric: str = "queueSize",
    congestion_threshold: float = 10.0,
    migrate_state: bool = True,
    global_merge: Optional[Callable[[str, Any, Any], Any]] = None,
) -> ParallelAnnotation:
    """Sugar for building a :class:`ParallelAnnotation` (SPL's ``@parallel``)."""
    return ParallelAnnotation(
        width=width,
        partition_by=partition_by,
        name=name,
        max_width=max_width,
        ordered=ordered,
        reorder_grace=reorder_grace,
        congestion_metric=congestion_metric,
        congestion_threshold=congestion_threshold,
        migrate_state=migrate_state,
        global_merge=global_merge,
    )


@dataclass
class ParallelRegionPlan:
    """Everything the elastic layer needs to know about one expanded region."""

    name: str
    width: int
    max_width: int
    partition_by: Optional[str]
    ordered: bool
    reorder_grace: float
    congestion_metric: str
    congestion_threshold: float
    splitter: str  #: full name of the splitter operator
    merger: str  #: full name of the merger operator
    chain: List[str]  #: template operator names, upstream to downstream
    #: original (unexpanded) specs, cloned again when channels are added
    templates: List[OperatorSpec] = field(default_factory=list)
    #: per channel, the channel's operator full names in chain order
    channel_ops: List[List[str]] = field(default_factory=list)
    #: keyed state follows its keys across rescales (needs partition_by)
    migrate_state: bool = True
    #: scale-in merge hook for global state (see ParallelAnnotation)
    global_merge: Optional[Callable[[str, Any, Any], Any]] = None

    def all_channel_operators(self) -> List[str]:
        """Full names of every channel's operators, channel by channel."""
        return [name for ops in self.channel_ops for name in ops]

    def channel_of(self, op_full_name: str) -> Optional[int]:
        """The channel whose chain holds ``op_full_name``, or None."""
        for index, ops in enumerate(self.channel_ops):
            if op_full_name in ops:
                return index
        return None


# ---------------------------------------------------------------------------
# Region discovery and validation
# ---------------------------------------------------------------------------


def _suffix(tag: Optional[str], channel: int) -> Optional[str]:
    return None if tag is None else f"{tag}__c{channel}"


def _discover_regions(app: Application) -> Dict[str, List[OperatorSpec]]:
    """Group annotated specs into named regions, chain-ordered and validated."""
    graph = app.graph
    grouped: Dict[str, List[OperatorSpec]] = {}
    for spec in graph.operators.values():
        if spec.parallel is None:
            continue
        annotation: ParallelAnnotation = spec.parallel
        annotation.validate()
        region = annotation.name or spec.full_name
        grouped.setdefault(region, []).append(spec)

    regions: Dict[str, List[OperatorSpec]] = {}
    for region, members in grouped.items():
        widths = {m.parallel.width for m in members}
        if len(widths) > 1:
            raise ParallelRegionError(
                f"region {region!r}: members disagree on width {sorted(widths)}"
            )
        for member in members:
            if member.composite is not None:
                raise ParallelRegionError(
                    f"region {region!r}: operator {member.full_name!r} is inside "
                    "a composite; parallel regions must be top-level"
                )
            if member.n_inputs != 1 or member.n_outputs != 1:
                raise ParallelRegionError(
                    f"region {region!r}: operator {member.full_name!r} must have "
                    "exactly one input and one output port"
                )
        regions[region] = _order_chain(graph, region, members)
    return regions


def _order_chain(
    graph: LogicalGraph, region: str, members: List[OperatorSpec]
) -> List[OperatorSpec]:
    """Order region members head-to-tail; reject anything but a linear chain."""
    member_names = {m.full_name for m in members}
    heads = [
        m
        for m in members
        if not any(
            e.src.full_name in member_names for e in graph.upstream_of(m)
        )
    ]
    if len(heads) != 1:
        raise ParallelRegionError(
            f"region {region!r}: expected exactly one head operator, found "
            f"{[h.full_name for h in heads]}"
        )
    chain = [heads[0]]
    while True:
        current = chain[-1]
        outs = graph.downstream_of(current)
        internal = [e for e in outs if e.dst.full_name in member_names]
        if not internal:
            break  # current is the tail
        if len(internal) != 1 or len(outs) != 1:
            raise ParallelRegionError(
                f"region {region!r}: operator {current.full_name!r} branches; "
                "a parallel region must be a linear chain"
            )
        nxt = internal[0].dst
        if nxt in chain:
            raise ParallelRegionError(f"region {region!r}: cycle in chain")
        ins = graph.upstream_of(nxt)
        if len(ins) != 1:
            raise ParallelRegionError(
                f"region {region!r}: operator {nxt.full_name!r} has side inputs; "
                "only the head may receive external streams"
            )
        chain.append(nxt)
    if len(chain) != len(members):
        missing = member_names - {c.full_name for c in chain}
        raise ParallelRegionError(
            f"region {region!r}: operators {sorted(missing)} are not connected "
            "to the region chain"
        )
    return chain


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------


def _clone_channel(
    graph: LogicalGraph,
    plan: ParallelRegionPlan,
    splitter: OperatorSpec,
    merger: OperatorSpec,
    channel: int,
) -> List[OperatorSpec]:
    """Clone the region's template chain as channel ``channel`` and wire it."""
    clones: List[OperatorSpec] = []
    for template in plan.templates:
        clone = graph._add_operator_in(
            f"{template.name}__c{channel}",
            template.op_class,
            composite=None,
            params=dict(template.params),
            partition=_suffix(template.partition, channel),
            partition_exlocation=_suffix(template.partition_exlocation, channel),
            host_pool=template.host_pool,
            host_exlocation=_suffix(template.host_exlocation, channel),
            host_colocation=_suffix(template.host_colocation, channel),
            output_schema=template.output_schema,
        )
        clone.parallel_region = plan.name
        clone.parallel_channel = channel
        clone.parallel_role = "worker"
        clones.append(clone)
    graph.connect(splitter.oport(channel), clones[0].iport(0))
    for upstream, downstream in zip(clones, clones[1:]):
        graph.connect(upstream.oport(0), downstream.iport(0))
    graph.connect(clones[-1].oport(0), merger.iport(channel))
    return clones


def expand_parallel_regions(
    app: Application,
) -> Tuple[Application, Dict[str, ParallelRegionPlan]]:
    """Expand every annotated region of ``app`` into splitter/channels/merger.

    Returns ``(app, {})`` unchanged when no operator is annotated; otherwise
    a *new* Application whose graph contains the expanded regions, plus the
    per-region plans.  The input application is left untouched so it can be
    re-expanded (each submitted job gets a private expansion it may resize).
    """
    regions = _discover_regions(app)
    if not regions:
        return app, {}

    member_region: Dict[str, str] = {
        spec.full_name: region
        for region, chain in regions.items()
        for spec in chain
    }

    expanded = Application(app.name, app.version)
    expanded.host_pools = app.host_pools
    expanded.parameters = dict(app.parameters)
    g = expanded.graph
    g.composite_instances = dict(app.graph.composite_instances)

    plans: Dict[str, ParallelRegionPlan] = {}
    clone_map: Dict[str, OperatorSpec] = {}  #: original name -> cloned spec

    for spec in app.graph.operators.values():
        region = member_region.get(spec.full_name)
        if region is None:
            clone = g._add_operator_in(
                spec.name,
                spec.op_class,
                composite=spec.composite,
                params=dict(spec.params),
                partition=spec.partition,
                partition_exlocation=spec.partition_exlocation,
                host_pool=spec.host_pool,
                host_exlocation=spec.host_exlocation,
                host_colocation=spec.host_colocation,
                output_schema=spec.output_schema,
            )
            clone_map[spec.full_name] = clone
            continue
        chain = regions[region]
        if spec is not chain[0]:
            continue  # the whole region is emitted when its head is reached
        annotation: ParallelAnnotation = chain[0].parallel
        plan = ParallelRegionPlan(
            name=region,
            width=annotation.width,
            max_width=annotation.max_width,
            partition_by=annotation.partition_by,
            ordered=annotation.ordered,
            reorder_grace=annotation.reorder_grace,
            congestion_metric=annotation.congestion_metric,
            congestion_threshold=annotation.congestion_threshold,
            splitter=f"{region}__split",
            merger=f"{region}__merge",
            chain=[c.full_name for c in chain],
            templates=list(chain),
            migrate_state=annotation.migrate_state,
            global_merge=annotation.global_merge,
        )
        splitter = g.add_operator(
            plan.splitter,
            ParallelSplitter,
            params={
                "width": plan.width,
                "partition_by": plan.partition_by,
                "ordered": plan.ordered,
                "region": region,
            },
        )
        splitter.parallel_region = region
        splitter.parallel_role = "splitter"
        merger = g.add_operator(
            plan.merger,
            OrderedMerger,
            params={
                "width": plan.width,
                "ordered": plan.ordered,
                "reorder_grace": plan.reorder_grace,
                "region": region,
            },
        )
        merger.parallel_region = region
        merger.parallel_role = "merger"
        for channel in range(plan.width):
            clones = _clone_channel(g, plan, splitter, merger, channel)
            plan.channel_ops.append([c.full_name for c in clones])
        plans[region] = plan

    # External edges: anything into a region head targets its splitter;
    # anything out of a region tail originates from its merger.
    for edge in app.graph.edges:
        src_region = member_region.get(edge.src.full_name)
        dst_region = member_region.get(edge.dst.full_name)
        if src_region is not None and src_region == dst_region:
            continue  # internal chain edge, already replicated per channel
        if src_region is not None:
            src_ref = g.operator(plans[src_region].merger).oport(0)
        else:
            src_ref = clone_map[edge.src.full_name].oport(edge.src_port)
        if dst_region is not None:
            dst_ref = g.operator(plans[dst_region].splitter).iport(0)
        else:
            dst_ref = clone_map[edge.dst.full_name].iport(edge.dst_port)
        g.connect(src_ref, dst_ref)

    return expanded, plans


# ---------------------------------------------------------------------------
# Live resize (invoked by repro.elastic while the splitter is quiesced)
# ---------------------------------------------------------------------------


def resize_region(
    graph: LogicalGraph, plan: ParallelRegionPlan, new_width: int
) -> Tuple[List[OperatorSpec], List[str]]:
    """Grow or shrink a region's channel set in an *expanded* graph.

    Returns ``(added_specs, removed_operator_names)``.  The caller is
    responsible for the physical side (PE specs, placement, live operator
    instances) — this function only performs the logical graph surgery.
    """
    if new_width < 1 or new_width > plan.max_width:
        raise ParallelRegionError(
            f"region {plan.name!r}: width {new_width} outside [1, {plan.max_width}]"
        )
    splitter = graph.operator(plan.splitter)
    merger = graph.operator(plan.merger)
    added: List[OperatorSpec] = []
    removed: List[str] = []
    if new_width > plan.width:
        splitter.params["width"] = new_width
        splitter.n_outputs = new_width
        merger.params["width"] = new_width
        merger.n_inputs = new_width
        for channel in range(plan.width, new_width):
            clones = _clone_channel(graph, plan, splitter, merger, channel)
            plan.channel_ops.append([c.full_name for c in clones])
            added.extend(clones)
    elif new_width < plan.width:
        doomed = {
            name
            for ops in plan.channel_ops[new_width:]
            for name in ops
        }
        removed = sorted(doomed)
        graph.edges = [
            e
            for e in graph.edges
            if e.src.full_name not in doomed and e.dst.full_name not in doomed
        ]
        for name in doomed:
            del graph.operators[name]
        plan.channel_ops = plan.channel_ops[:new_width]
        splitter.params["width"] = new_width
        splitter.n_outputs = new_width
        merger.params["width"] = new_width
        merger.n_inputs = new_width
    plan.width = new_width
    return added, removed
