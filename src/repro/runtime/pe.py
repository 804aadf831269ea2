"""PE (processing element) runtime container.

A PE is the runtime container for one or more fused operators and maps to
an operating system process (Sec. 2.1).  The PE instantiates its operators
at start, routes tuples between them (synchronously when fused, through
the transport when crossing PE boundaries), maintains the PE-level
built-in metrics, and models the two lifecycle disruptions the paper's
use cases rely on:

* **crash** — operator instances are discarded *without* shutdown hooks;
  scheduled work is cancelled; in-flight tuples toward the PE are lost.
* **restart** — fresh operator instances with empty state (windows refill
  from scratch, which is what Fig. 9(b) shows).  Optionally,
  ``restart(rehydrate=True)`` reinstalls state from the latest
  *committed* epoch in the
  :class:`~repro.checkpoint.store.CheckpointStore` — a periodic
  checkpoint or the quiesced snapshot a graceful stop commits, whichever
  is newer; torn epochs are never loaded.  A crash never produces a
  snapshot, so a crashed PE that never committed an epoch still restarts
  empty.  Every rehydrating restart leaves a
  :class:`~repro.checkpoint.store.RestoreReport` in ``last_restore`` so
  observers can distinguish a restored PE from an empty one (the
  ``rehydrate_skipped`` ORCA event).

Under exactly-once every PE a unit reaches commits epochs, so a restart
replays at most one retention window: from the restored epoch, or from
the truncation floor without rehydration.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from repro.checkpoint.store import CheckpointStore, RestoreReport
from repro.errors import PEControlError
from repro.sim.kernel import Kernel, OutstandingHandles, ScheduledEvent
from repro.spl.compiler import PESpec
from repro.spl.library import Export, Import
from repro.spl.metrics import Metric, MetricKind, MetricRegistry, PEMetricName, OperatorMetricName
from repro.spl.operators import Operator, OperatorContext, PortMap
from repro.spl.tuples import Punctuation, StreamTuple, TupleBatch
from repro.runtime.job import PEState
from repro.runtime.transport import Flow, Transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.job import Job

Item = Union[StreamTuple, Punctuation]

#: one resolved edge out of a local operator: destination operator name and
#: input port, then the live operator object when the destination is fused
#: into this PE, else the :class:`~repro.runtime.transport.Flow` toward the
#: remote PE the transport must reach
_Hop = Tuple[str, int, Optional[Operator], Optional[Flow]]
#: one call that carries a tuple along an output port's hops or into an input port
_Dispatch = Callable[[StreamTuple], None]
#: read once: on CPython 3.11 a member read through its enum class
#: (``PEState.RUNNING``) costs several plain attribute reads, and the
#: tuple path tests a PE's state per tick and per arrival
_RUNNING = PEState.RUNNING


class PERuntime:
    """Runtime container executing a slice of an application graph."""

    def __init__(
        self,
        pe_id: str,
        spec: PESpec,
        job: "Job",
        kernel: Kernel,
        transport: Transport,
        publish_export: Callable[[str, str, Item], None],
        checkpoints: CheckpointStore,
        host_name: Optional[str] = None,
    ) -> None:
        self.pe_id = pe_id
        self.spec = spec
        self.job = job
        self.kernel = kernel
        self.transport = transport
        #: observability hub when span tracing is on (the transport holds
        #: the system-wide reference; None keeps delivery at one check)
        self.obs = transport.obs
        self.publish_export = publish_export
        self.host_name = host_name
        self.state = PEState.CONSTRUCTED
        self.operators: Dict[str, Operator] = {}
        self.metrics = MetricRegistry()
        #: committed-epoch snapshots, the one rehydration source: a
        #: graceful stop commits its quiesced snapshot here too, so it
        #: and periodic checkpoints share one epoch mechanism
        self.checkpoints = checkpoints
        #: what the last ``restart(rehydrate=True)`` restored (None when
        #: the last restart did not request rehydration)
        self.last_restore: Optional[RestoreReport] = None
        #: the executor's clock: ``clock.now`` is a plain slot on the sim
        self._clock = kernel.clock
        #: operator timers that have neither fired nor been cancelled
        self._timers = OutstandingHandles()
        self._opwork_label = f"{pe_id}-opwork"
        #: bound once: a bound method per ``ctx.schedule`` would be one more
        #: GC-tracked allocation on the tick path
        self._guard = self._run_guarded
        self.last_crash_reason: Optional[str] = None
        self.on_crash: Optional[Callable[["PERuntime", str], None]] = None
        #: exactly-once replay depth: while > 0, operator emissions are
        #: swallowed by every route out of an operator — the tuples
        #: being re-processed already sent their outputs downstream in a
        #: previous incarnation, so only the state effect may recur (an
        #: operator reads it as ``ctx.replaying`` for its other effects)
        self._suppress_emissions = 0
        #: op name -> (operator, port map of deliveries); see rebuild_routes()
        self._inbound: Dict[str, Tuple[Optional[Operator], Optional[PortMap]]] = {}
        self._create_pe_metrics()

    # -- construction helpers -------------------------------------------------

    @property
    def index(self) -> int:
        """The PE's position in its job's compiled plan (``PESpec.index``)."""
        return self.spec.index

    @property
    def is_running(self) -> bool:
        """Whether the PE is up (started or restarted, not stopped or crashed)."""
        return self.state is _RUNNING

    def _create_pe_metrics(self) -> None:
        create = self.metrics.create
        # the three per-tuple counters are bound once: the tuple path
        # increments them without a registry lookup
        self._n_processed = create(PEMetricName.N_TUPLES_PROCESSED, MetricKind.COUNTER)
        self._n_bytes = create(PEMetricName.N_TUPLE_BYTES_PROCESSED, MetricKind.COUNTER)
        self._n_submitted = create(PEMetricName.N_TUPLES_SUBMITTED, MetricKind.COUNTER)
        create(PEMetricName.N_RESTARTS, MetricKind.COUNTER)

    def rebuild_routes(self) -> None:
        """Resolve every edge out of a local operator and compile the tuple path.

        Runs whenever the targets may have changed identity: at
        :meth:`start` and :meth:`restart` (fresh operator instances), and
        from the elastic controller after a parallel region is rewired
        (the splitter's PE gains/loses channel PEs while every operator
        instance keeps running).  Contexts get port maps of compiled hops
        (``ctx.hops``) and punctuation / batch routes over the same hops,
        :meth:`receive` port maps of deliveries; a port compiles on its
        first tuple — no per-tuple name or index lookup.  Each remote hop
        is resolved here into a fresh :class:`~repro.runtime.transport.Flow`,
        so no flow outlives the routes it was made for."""
        compiled = self.job.compiled
        operators = self.operators
        self._inbound = PortMap(self._inbound_of)
        routes: Dict[str, Dict[int, List[_Hop]]] = {name: defaultdict(list) for name in operators}
        for edge in compiled.application.graph.edges:
            ports = routes.get(edge.src.full_name)
            if ports is None:
                continue
            dst_name = edge.dst.full_name
            dst_index = compiled.pe_of(dst_name)
            if dst_index == self.index:
                hop = (dst_name, edge.dst_port, operators[dst_name], None)
            else:
                dst_pe = self.job.pe_by_index(dst_index)
                hop = (dst_name, edge.dst_port, None, Flow(self, dst_pe, dst_name, edge.dst_port))
            ports[edge.src_port].append(hop)
        batching = self.transport.batch_max_size > 1
        for name, ports in routes.items():
            operator = operators[name]
            ctx = operator.ctx
            ctx.hops = PortMap(partial(self._compile_port, operator, ports))
            ctx.punct_fn = partial(self._route_punct, ports)
            if batching:
                # no batch route with batching off: sources then emit
                # tuple by tuple and ``process_batch`` is never entered
                ctx.submit_batch_fn = partial(self._route_batch, ports)

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Instantiate the operators, compile the routes, and run them."""
        if self.state is PEState.RUNNING:
            raise PEControlError(f"PE {self.pe_id} already running")
        self._instantiate_operators()
        self.state = PEState.RUNNING
        for operator in self.operators.values():
            operator.on_initialize()

    def _instantiate_operators(self) -> None:
        """Fresh operator instances, then routes resolved onto them."""
        graph = self.job.compiled.application.graph
        self.operators = {}
        for op_name in self.spec.operators:
            spec = graph.operators[op_name]
            ctx = OperatorContext(
                spec=spec,
                job_id=self.job.job_id,
                app_name=self.job.app_name,
                submission_params=self.job.params,
                # one C-level read of the clock: no Python frame per call
                now_fn=partial(getattr, self._clock, "now"),
                submit_fn=None,  # both rebound by rebuild_routes() below
                punct_fn=None,
                schedule_fn=self._schedule_guarded,
                pe_id=self.pe_id,
                replaying_fn=lambda: self._suppress_emissions > 0,
            )
            ctx.obs = self.obs
            operator = spec.op_class(ctx)
            if isinstance(operator, Export):
                operator.bind_export(
                    lambda item, name=op_name: self.publish_export(
                        self.job.job_id, name, item
                    )
                )
            self.operators[op_name] = operator
        self.rebuild_routes()

    def stop(self, capture_state: bool = True) -> None:
        """Graceful stop: quiesced snapshots captured, shutdown hooks run,
        pending work cancelled.

        ``capture_state=False`` skips the snapshot deep-copy — used when
        the PE is being discarded for good (job cancellation, parallel
        region scale-in) and nothing could ever rehydrate from it.
        """
        if self.state is not PEState.RUNNING:
            return
        if capture_state:
            self.capture_state_snapshots()
        for operator in self.operators.values():
            operator.on_shutdown()
        self._timers.cancel_all()
        self.state = PEState.STOPPED

    def capture_state_snapshots(self) -> None:
        """Commit a full snapshot of every stateful operator as one epoch.

        An operator is snapshotted when the compiler declared it stateful
        (``PESpec.stateful_ops``), its state store is in use (a Custom
        operator may hold state without a STATEFUL class marker) or it
        returns an ``on_snapshot()`` extra — the periodic checkpoint's
        rule.  The PE is stopping, so nothing can tear the capture.
        """
        declared = set(self.spec.stateful_ops)
        captured: Dict[str, dict] = {}
        for op_name, operator in self.operators.items():
            if op_name in declared or operator.state.in_use or operator.on_snapshot() is not None:
                captured[op_name] = operator.snapshot()
        if captured:
            n_keys = sum(
                self.operators[name].state.n_keys() for name in captured
            )
            self.checkpoints.write_epoch(
                self, captured, full=True, keys_dirty=n_keys, keys_total=n_keys
            )

    def crash(self, reason: str = "crash") -> None:
        """Abrupt process death: no shutdown hooks, state is lost.

        The store keeps whatever epochs were committed *before* — the
        in-memory state at crash time is gone.
        """
        if self.state is not PEState.RUNNING:
            return
        self._timers.cancel_all()
        self.operators = {}
        self._inbound = PortMap(self._inbound_of)  # every operator: (None, None)
        self.state = PEState.CRASHED
        self.last_crash_reason = reason
        # Items in flight toward this PE die with the process: they are
        # counted (dropped_in_flight) instead of being delivered to the
        # next incarnation after a restart.
        self.transport.drop_in_flight(self.pe_id)
        if self.on_crash is not None:
            self.on_crash(self, reason)

    def restart(self, rehydrate: bool = False) -> None:
        """Bring a stopped/crashed PE back.

        ``rehydrate=False`` (the paper's semantics, and the default):
        fresh operator instances with empty state.  ``rehydrate=True``:
        operators are restored from the latest *committed* epoch (a
        periodic checkpoint or a graceful stop's quiesced snapshot), else
        they start empty — with the outcome recorded in ``last_restore``
        either way.
        """
        if self.state is PEState.RUNNING:
            raise PEControlError(f"PE {self.pe_id} is running; stop it first")
        self.metrics.get(PEMetricName.N_RESTARTS).increment()
        self._instantiate_operators()
        self.last_restore = None
        restored_watermarks: Optional[Dict[str, int]] = None
        if rehydrate:
            entry = self.checkpoints.latest_committed(self.job.job_id, self.pe_id)
            payloads: Dict[str, dict] = entry.payloads if entry is not None else {}
            restored = []
            for op_name, payload in payloads.items():
                operator = self.operators.get(op_name)
                if operator is not None:
                    operator.restore(payload)
                    restored.append(op_name)
            wm_payload = payloads.get("__transport__")
            if wm_payload is not None:
                restored_watermarks = dict(wm_payload.get("watermarks", {}))
            self.last_restore = RestoreReport(
                source="checkpoint" if restored else "none",
                epoch=entry.epoch if restored else None,
                restored_ops=tuple(restored),
                time=self.kernel.now,
            )
        self.state = PEState.RUNNING
        for operator in self.operators.values():
            operator.on_initialize()
        # reliable delivery: rewind the receiver to the restored epoch's
        # watermarks and replay retained units toward the new incarnation
        # (a no-op in best-effort mode)
        self.transport.on_pe_restarted(self, restored_watermarks)

    def _schedule_guarded(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule operator work that silently no-ops if the PE is down.

        O(1) amortised however many timers are live or have fired (see
        :class:`~repro.sim.kernel.OutstandingHandles`); ``stop`` and
        ``crash`` cancel whatever is still outstanding.  Scheduled at an
        absolute time read off the clock, as ``Kernel.schedule`` would.
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        handle = self.kernel.schedule_at(
            self._clock.now + delay, self._guard, callback, label=self._opwork_label
        )
        self._timers.add(handle)
        return handle

    def _run_guarded(self, callback: Callable[[], None]) -> None:
        if self.state is _RUNNING:
            callback()

    # -- tuple routing ---------------------------------------------------------

    def _compile(
        self, operator: Operator, port: int, emitter: Optional[Metric] = None
    ) -> _Dispatch:
        """The one per-tuple delivery body (PE counters, traced span, then —
        unless finalized — ``operator``'s input ``port`` counter and
        ``on_tuple``), bound to that port.  Two closures of the same body:
        an arrival, and — given the emitting operator's output port counter
        as ``emitter`` — the whole hop of a port whose one target is this
        fused operator (counted in ``emitter``, then swallowed while the PE
        is down or replaying, else counted in ``nTuplesSubmitted``)."""
        pe, running = self, _RUNNING
        n_submitted, n_processed, n_bytes = self._n_submitted, self._n_processed, self._n_bytes
        processed, on_tuple = operator._processed_by_port[port], operator.on_tuple
        obs, kernel = self.obs, self.kernel
        full_name, pe_id, job_id = operator.ctx.full_name, self.pe_id, self.job.job_id

        if emitter is None:

            def deliver(tup: StreamTuple) -> None:
                n_processed.value += 1
                n_bytes.value += tup.size_bytes
                if obs is not None and tup.traced:
                    obs.record_process(full_name, pe_id, job_id, tup.created_at, kernel.now)
                if operator._finalized:
                    return
                processed.value += 1
                on_tuple(tup, port)

            return deliver

        def emit(tup: StreamTuple) -> None:
            emitter.value += 1
            if pe.state is not running or pe._suppress_emissions:
                return
            n_submitted.value += 1
            n_processed.value += 1
            n_bytes.value += tup.size_bytes
            if obs is not None and tup.traced:
                obs.record_process(full_name, pe_id, job_id, tup.created_at, kernel.now)
            if operator._finalized:
                return
            processed.value += 1
            on_tuple(tup, port)

        return emit

    def _inbound_of(self, op_full_name: str) -> Tuple[Optional[Operator], Optional[PortMap]]:
        """A local operator and its port map of deliveries (Nones if not local)."""
        operator = self.operators.get(op_full_name)
        return operator, operator and PortMap(partial(self._compile, operator))

    def _compile_port(
        self, source: Operator, ports: Dict[int, List[_Hop]], port: int
    ) -> _Dispatch:
        """``source``'s output ``port`` dispatch, compiled on the port's first tuple.

        Compiling checks the port's range (:meth:`Operator.output_counter`
        raises ``GraphError``), once per port, and binds the port's
        ``nTuplesSubmitted``, which the dispatch bumps first — also for an
        emission it swallows.  A lone fused target's emission closure is
        the whole hop.  A lone remote target is one call too: the emission
        half (swallowed while the PE is down or replaying, else counted in
        the PE's ``nTuplesSubmitted``), then :meth:`Transport.send_on` with
        the hop's flow, resolved by :meth:`rebuild_routes`.  Any other port
        runs the same emission half, then each hop in edge order."""
        submitted = source.output_counter(port)
        hops = ports[port]
        pe, running, n_submitted = self, _RUNNING, self._n_submitted
        send = self.transport.send_on
        if len(hops) == 1:
            _, dst_port, operator, flow = hops[0]
            if operator is not None:
                return self._compile(operator, dst_port, submitted)

            def hop(tup: StreamTuple) -> None:
                submitted.value += 1
                if pe.state is not running or pe._suppress_emissions:
                    return
                n_submitted.value += 1
                send(flow, tup)

            return hop
        targets = [
            self._compile(operator, dst_port) if operator is not None else partial(send, flow)
            for _, dst_port, operator, flow in hops
        ]

        def fan_out(tup: StreamTuple) -> None:
            submitted.value += 1
            if pe.state is not running or pe._suppress_emissions:
                return
            n_submitted.value += 1
            for target in targets:
                target(tup)

        return fan_out

    def _route_punct(self, ports: Dict[int, List[_Hop]], port: int, punct: Punctuation) -> None:
        """Carry one punctuation along an output port's resolved hops."""
        if self.state is not _RUNNING or self._suppress_emissions:
            return
        for _, dst_port, operator, flow in ports[port]:
            if operator is not None:
                operator._process(punct, dst_port)
            else:
                self.transport.send_on(flow, punct)

    def _route_batch(self, ports: Dict[int, List[_Hop]], port: int, run: TupleBatch) -> None:
        """Batched twin of the compiled hops: one ``process_batch`` per fused
        target, one :meth:`Transport.send_batch_on` per remote one."""
        if self.state is not _RUNNING or self._suppress_emissions or not run:
            return
        self._n_submitted.value += len(run)
        for _, dst_port, operator, flow in ports[port]:
            if operator is not None:
                self._deliver_local_batch(operator, dst_port, run)
            else:
                self.transport.send_batch_on(flow, run)

    def receive(
        self,
        op_full_name: str,
        port: int,
        item: Item,
        suppress_emissions: bool = False,
    ) -> None:
        """Entry point for a unit that is not a lone fresh tuple.

        The transport hands a single tuple straight to the compiled
        delivery of its port (``_inbound[op][1][port]``, built by
        :meth:`rebuild_routes`), and everything else here: a run, a
        punctuation, a replay.  A caller outside the transport (the
        micro benchmarks) reaches the same deliveries through it.
        ``suppress_emissions=True`` marks an exactly-once replay of a
        unit this PE already processed in a dead incarnation: it is
        re-processed so operator state rebuilds, but anything the
        processing tries to emit is swallowed — its outputs already left
        the PE before the crash and must not propagate twice.
        """
        if self.state is not _RUNNING:
            return
        operator, deliveries = self._inbound[op_full_name]
        if operator is None:
            return
        if suppress_emissions:
            self._suppress_emissions += 1
        try:
            if isinstance(item, StreamTuple):
                deliveries[port](item)
            elif isinstance(item, TupleBatch):
                self._deliver_local_batch(operator, port, item)
            else:
                operator._process(item, port)
        finally:
            if suppress_emissions:
                self._suppress_emissions -= 1

    def _deliver_local_batch(self, operator: Operator, port: int, run: TupleBatch) -> None:
        """Batched twin of the compiled delivery (:meth:`_compile`).

        PE counters move once per batch, by the run's carried aggregates
        (``size_bytes``, and ``traced``: False means no member is, so the
        span scan is skipped); traced members still record per-tuple
        process spans (the end-to-end latency histogram keeps its
        meaning), and the operator gets one ``_process_batch`` call.
        """
        if not run:
            return
        self._n_processed.value += len(run)
        self._n_bytes.value += run.size_bytes
        if run.traced and self.obs is not None:
            now = self.kernel.now
            op_full_name = operator.ctx.full_name
            for tup in run:
                if tup.traced:
                    self.obs.record_process(
                        op_full_name,
                        self.pe_id,
                        self.job.job_id,
                        tup.created_at,
                        now,
                    )
        operator._process_batch(run, port)

    def deliver_import(self, op_full_name: str, item: Item) -> None:
        """Deliver an item from the import/export registry to an Import op."""
        if self.state is not _RUNNING:
            return
        operator = self.operators.get(op_full_name)
        if isinstance(operator, Import):
            if isinstance(item, StreamTuple):
                self._n_processed.value += 1
                self._n_bytes.value += item.size_bytes
            operator.deliver(item)

    # -- metrics ------------------------------------------------------------------

    def update_queue_metrics(self) -> None:
        """Refresh queueSize and state-size gauges at collection time.

        Called by the host controller just before a metric snapshot so the
        gauges reflect the backlog (and the operator state footprint) at
        collection time; the samples flow to SRM with everything else, so
        ORCA routines can aggregate ``stateBytes`` per region channel.
        """
        for op_name, operator in self.operators.items():
            total = 0
            for port in range(operator.n_inputs):
                backlog = self.transport.queue_size(self.pe_id, op_name, port)
                total += backlog
                gauge = operator.metrics.get_or_create(
                    OperatorMetricName.QUEUE_SIZE, MetricKind.GAUGE, port=port
                )
                gauge.set(backlog)
            operator.metrics.get_or_create(
                OperatorMetricName.QUEUE_SIZE, MetricKind.GAUGE
            ).set(total)
            if operator.state.in_use:
                operator.metrics.get_or_create(
                    "stateBytes", MetricKind.GAUGE
                ).set(operator.state.size_bytes())
                operator.metrics.get_or_create(
                    "nStateKeys", MetricKind.GAUGE
                ).set(operator.state.n_keys())
        latest = self.checkpoints.latest_committed(self.job.job_id, self.pe_id)
        if latest is not None:
            # staleness of the newest committed epoch: the gauge SRM
            # serves to ORCA routines that react to lagging checkpoints
            self.metrics.get_or_create(
                "checkpointLag", MetricKind.GAUGE
            ).set(self.kernel.now - latest.time)

    def send_control(self, op_full_name: str, command: str, payload: dict) -> None:
        """Route a control command to one operator instance (Sec. 3)."""
        operator = self.operators.get(op_full_name)
        if operator is None:
            raise PEControlError(
                f"PE {self.pe_id}: operator {op_full_name!r} not running here"
            )
        operator.on_control(command, payload)

    def __repr__(self) -> str:
        return (
            f"PERuntime({self.pe_id}, job={self.job.job_id}, #{self.index}, "
            f"{self.state.value}, host={self.host_name})"
        )
