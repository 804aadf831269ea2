"""Operator runtime base class.

Logical graphs are assembled from :class:`~repro.spl.graph.OperatorSpec`
entries; at job submission each spec is *instantiated* inside its PE as an
:class:`Operator` subclass object.  This split is what lets one application
be submitted several times (e.g. the three replicas of Sec. 5.2) with fully
independent operator state, and what makes a PE restart start from empty
state (the window-refill behaviour of Fig. 9).

Subclasses override the ``on_*`` hooks; the framework entry points
(prefixed ``_``) maintain built-in metrics and final-punctuation bookkeeping
before delegating to the hooks.  A hop counts once, per port: the hop an
emission takes (``ctx.hops[port]``) bumps the emitting operator's
per-port ``nTuplesSubmitted``, the delivery the per-port
``nTuplesProcessed``, and the operator totals are their sums.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Dict, Mapping, Optional, Tuple, Union

from repro.errors import GraphError
from repro.spl.metrics import MetricKind, MetricRegistry, Metric, OperatorMetricName
from repro.spl.state import StateStore
from repro.spl.tuples import Punctuation, StreamTuple, TupleBatch, make_run

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.spl.graph import OperatorSpec

_REQUIRED = object()

#: What an operator may pass to :meth:`Operator.submit`.
Submittable = Union[StreamTuple, Mapping[str, Any]]


class PortMap(dict):
    """``port -> callable`` (or any key), each made by ``make(key)`` on its
    first lookup: a context's ``hops``, a PE's inbound deliveries."""

    __slots__ = ("_make",)

    def __init__(self, make: Callable[[Any], Any]) -> None:  # dict.__new__ made it empty
        self._make = make

    def __missing__(self, key: Any) -> Any:
        made = self[key] = self._make(key)
        return made


class OperatorContext:
    """Everything an operator instance needs from its surrounding PE.

    The PE injects callbacks rather than itself to keep operators testable
    in isolation: unit tests drive operators with a hand-built context.
    """

    #: ``hops[port](tup)`` emits a tuple on ``port`` and counts it in the
    #: operator's port counter: the operator binds hops over ``submit_fn``
    #: at construction, the PE compiles its own at every ``rebuild_routes()``
    hops: PortMap

    def __init__(
        self,
        spec: "OperatorSpec",
        job_id: str,
        app_name: str,
        submission_params: Mapping[str, str],
        now_fn: Callable[[], float],
        submit_fn: Optional[Callable[[int, StreamTuple], None]],
        punct_fn: Optional[Callable[[int, Punctuation], None]],
        schedule_fn: Callable[[float, Callable[[], None]], Any],
        pe_id: Optional[str] = None,
        replaying_fn: Callable[[], bool] = lambda: False,
    ) -> None:
        self.spec = spec
        self.job_id = job_id
        self.app_name = app_name
        self.submission_params = dict(submission_params)
        self.pe_id = pe_id
        #: ``replaying_fn()`` is :attr:`replaying` in one call, for a
        #: per-tuple reader
        self.replaying_fn = replaying_fn
        #: the operator instance's partitioned state (see repro.spl.state)
        self.state = StateStore()
        #: observability hub when span tracing is on (set by the PE after
        #: construction; None keeps Operator.submit at one check)
        self.obs = None
        #: ``now()`` is the current time in seconds: the PE binds one
        #: C-level read of its executor's clock, a hand-built context any
        #: callable
        self.now = now_fn
        #: ``submit_fn(port, tup)``: where a hand-built context's hops lead
        self.submit_fn = submit_fn
        #: ``punct_fn(port, punct)`` emits a punctuation; the PE rebinds it
        #: with the hops at every ``rebuild_routes()``
        self.punct_fn = punct_fn
        #: ``schedule(delay, callback)`` runs operator-local work later,
        #: cancelled automatically on PE stop: the PE's callback itself,
        #: bound here so a timer costs no extra frame
        self.schedule = schedule_fn
        #: batched submission callback, set by the PE after construction
        #: (like ``obs``) when the transport batches — a source reads it
        #: to decide whether a tick leaves as one run; with batching off,
        #: and in hand-built test contexts, it stays None and
        #: :meth:`submit_batch` falls back to a per-tuple loop
        self.submit_batch_fn: Optional[
            Callable[[int, TupleBatch], None]
        ] = None

    @property
    def full_name(self) -> str:
        """The operator's full name in the application graph."""
        return self.spec.full_name

    @property
    def params(self) -> Dict[str, Any]:
        """The operator's parameters from the logical graph."""
        return self.spec.params

    @property
    def replaying(self) -> bool:
        """True while the PE re-processes an exactly-once replay.

        The unit being processed already had its effects in a dead
        incarnation: state may be rebuilt from it, but an effect outside
        the operator (an emission, a consumer call) must not recur.
        """
        return self.replaying_fn()

    def get_submission_time_value(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Submission-time parameter of the job (SPL's getSubmissionTimeValue)."""
        return self.submission_params.get(name, default)

    def submit_batch(self, port: int, tuples: TupleBatch) -> None:
        """Emit a run of tuples on one port as a single unit of work.

        Without a batch route the run goes tuple by tuple through the
        port's hop, which counts each emission; :meth:`Operator.submit_batch`
        counts the run itself only when ``submit_batch_fn`` is set.
        """
        if self.submit_batch_fn is not None:
            self.submit_batch_fn(port, tuples)
            return
        hop = self.hops[port]
        for tup in tuples:
            hop(tup)


class Operator:
    """Base class of all runtime operators.

    Class attributes declare the default port counts; parameters
    ``n_inputs`` / ``n_outputs`` override them for variadic operators such
    as Split and Merge.
    """

    #: Operator kind name as it appears in the ADL and in scope filters.
    KIND: ClassVar[Optional[str]] = None
    N_INPUTS: ClassVar[int] = 1
    N_OUTPUTS: ClassVar[int] = 1
    #: Declares that instances hold meaningful state in ``self.state``.
    #: The compiler records stateful operators in each PESpec (state
    #: descriptors), the PE runtime snapshots them on graceful stop, and
    #: the elastic migration phase considers them when a partitioned
    #: region changes width.
    STATEFUL: ClassVar[bool] = False
    #: Whether a FINAL punctuation received on every input port is
    #: automatically forwarded to all output ports after
    #: :meth:`on_all_ports_final` runs.
    FORWARD_FINAL: ClassVar[bool] = True

    def __init__(self, ctx: OperatorContext) -> None:
        self.ctx = ctx
        self.metrics = MetricRegistry()
        self._final_ports: set[int] = set()
        self._finalized = False
        self.n_inputs, self.n_outputs = self.port_counts(ctx.params)
        self._create_builtin_metrics()
        ctx.hops = PortMap(self._direct_hop)

    # -- class-level descriptors ---------------------------------------------

    @classmethod
    def kind(cls) -> str:
        """The kind name: ``KIND``, else the class name."""
        return cls.KIND or cls.__name__

    @classmethod
    def port_counts(cls, params: Mapping[str, Any]) -> Tuple[int, int]:
        """(n_inputs, n_outputs) for an instance with the given params."""
        n_in = int(params.get("n_inputs", cls.N_INPUTS))
        n_out = int(params.get("n_outputs", cls.N_OUTPUTS))
        if n_in < 0 or n_out < 0:
            raise GraphError(f"negative port count for {cls.kind()}")
        return n_in, n_out

    # -- parameter access ------------------------------------------------------

    @property
    def state(self) -> StateStore:
        """The instance's partitioned state store (``state.keyed(name)`` /
        ``state.global_(name)``)."""
        return self.ctx.state

    def param(self, name: str, default: Any = _REQUIRED) -> Any:
        """Operator parameter from the logical graph; raises if required & missing."""
        value = self.ctx.params.get(name, default)
        if value is _REQUIRED:
            raise GraphError(
                f"operator {self.ctx.full_name} ({self.kind()}) requires parameter {name!r}"
            )
        return value

    def now(self) -> float:
        """The current time in seconds (the executor's clock)."""
        return self.ctx.now()

    # -- metrics ---------------------------------------------------------------

    def _create_builtin_metrics(self) -> None:
        create = self.metrics.create
        # the tuple totals are sums of the per-port counters bound below:
        # the tuple path bumps one port counter per hop, never a total
        self.metrics.create_sum(OperatorMetricName.N_TUPLES_PROCESSED)
        self.metrics.create_sum(OperatorMetricName.N_TUPLES_SUBMITTED)
        self._n_puncts = create(OperatorMetricName.N_PUNCTS_PROCESSED, MetricKind.COUNTER)
        self._n_final_puncts = create(
            OperatorMetricName.N_FINAL_PUNCTS_PROCESSED, MetricKind.COUNTER
        )
        create(OperatorMetricName.QUEUE_SIZE, MetricKind.GAUGE)
        self._bind_port_metrics()

    def _bind_port_metrics(self) -> None:
        """(Re)bind the per-port counters to the current port counts.

        Creates whatever a port still lacks and indexes the counters by
        port number.  Operators whose port count changes at runtime (the
        parallel-region splitter and merger) call this again after
        updating ``n_inputs`` / ``n_outputs``: a port that comes back
        after a scale-in finds its old counter — the very object a hop
        compiled before the rebind still bumps — and every port counter
        ever made stays a part of the total.
        """
        metric = self.metrics.get_or_create
        self._processed_by_port = []
        for port in range(self.n_inputs):
            self._processed_by_port.append(
                metric(OperatorMetricName.N_TUPLES_PROCESSED, MetricKind.COUNTER, port=port)
            )
            metric(OperatorMetricName.QUEUE_SIZE, MetricKind.GAUGE, port=port)
        self._submitted_by_port = [
            metric(OperatorMetricName.N_TUPLES_SUBMITTED, MetricKind.COUNTER, port=port)
            for port in range(self.n_outputs)
        ]

    def create_custom_metric(
        self, name: str, kind: MetricKind = MetricKind.COUNTER, description: str = ""
    ) -> Metric:
        """Create a custom metric (Sec. 2.1: 'at any point during execution')."""
        return self.metrics.create(name, kind, description)

    def metric(self, name: str, port: Optional[int] = None) -> Metric:
        """The metric ``name`` at operator scope, or at ``port``'s scope."""
        return self.metrics.get(name, port=port)

    # -- submission --------------------------------------------------------------

    def output_counter(self, port: int) -> Metric:
        """Output ``port``'s ``nTuplesSubmitted`` counter, for a hop to bind.

        Whoever compiles a port's hop calls this once per port, so the
        port's range is checked there: a port outside
        ``0 <= port < n_outputs`` raises :class:`GraphError`.
        """
        self._check_output_port(port)
        return self._submitted_by_port[port]

    def _check_output_port(self, port: int) -> None:
        if not 0 <= port < self.n_outputs:
            raise GraphError(
                f"{self.ctx.full_name}: invalid output port {port} "
                f"(operator has {self.n_outputs})"
            )

    def _direct_hop(self, port: int) -> Callable[[StreamTuple], None]:
        """A hand-built context's hop: count the emission, then ``submit_fn``."""
        counter, submit_fn = self.output_counter(port), self.ctx.submit_fn

        def hop(tup: StreamTuple) -> None:
            counter.value += 1
            submit_fn(port, tup)

        return hop

    def submit(self, values: Submittable, port: int = 0) -> None:
        """Emit a tuple on an output port.

        A :class:`StreamTuple` goes straight to the port's hop
        (``ctx.hops[port]``), which counts it in the port's
        ``nTuplesSubmitted`` — also while the PE is down or replaying and
        the emission goes no further — and whose compilation checked the
        port's range.  A dict first becomes a tuple stamped with the
        current time, and trace sampling is decided for it.
        """
        if type(values) is not StreamTuple:
            values = StreamTuple(values, created_at=self.ctx.now())
            obs = self.ctx.obs
            if obs is not None and obs.sample_tuple():
                # sampling is decided once, here, at tuple creation; the
                # flag rides the tuple (and its derived copies) so every
                # downstream hop records a span without re-deciding
                values.traced = True
                obs.record_emit(
                    self.ctx.full_name,
                    self.ctx.pe_id,
                    self.ctx.job_id,
                    values.created_at,
                )
        self.ctx.hops[port](values)

    def submit_batch(self, items: "Union[TupleBatch, list[Submittable]]", port: int = 0) -> None:
        """Emit a run of tuples on an output port as one unit of work.

        The batched twin of :meth:`submit`.  A :class:`TupleBatch` is a
        run already made (a run kernel's, or one the operator received)
        and goes as it is, its aggregates with it; a list becomes one
        through :func:`~repro.spl.tuples.make_run`, which makes each dict
        a tuple stamped with the current time — trace sampling decided
        member by member, in order, as :meth:`submit` decides it — and
        keeps each tuple.  The run counts once in the port's
        ``nTuplesSubmitted`` on its way through one routing/transport
        call.  Sources call it once per tick and ``process_batch``
        overrides once per run; the run only travels as a unit when
        batching is enabled in the transport — otherwise the PE wires no
        batch route and it is emitted tuple by tuple through the port's
        hop, which counts each tuple instead.
        """
        if not items:
            return
        self._check_output_port(port)
        if type(items) is not TupleBatch:
            now = self.now()
            ctx = self.ctx
            obs = ctx.obs
            sample = None
            if obs is not None:

                def sample() -> bool:
                    if obs.sample_tuple():
                        obs.record_emit(ctx.full_name, ctx.pe_id, ctx.job_id, now)
                        return True
                    return False

            items = make_run(items, now, sample)
        if self.ctx.submit_batch_fn is not None:
            self._submitted_by_port[port].value += len(items)
        self.ctx.submit_batch(port, items)

    def submit_punct(self, punct: Punctuation, port: int = 0) -> None:
        """Emit a punctuation on an output port (out of range: GraphError)."""
        self._check_output_port(port)
        self.ctx.punct_fn(port, punct)

    def submit_final(self) -> None:
        """Send FINAL punctuation on every output port."""
        for port in range(self.n_outputs):
            self.ctx.punct_fn(port, Punctuation.FINAL)

    # -- hooks for subclasses ------------------------------------------------------

    def on_initialize(self) -> None:
        """Called once when the PE instantiates the operator."""

    def on_tuple(self, tup: StreamTuple, port: int) -> None:
        """Called for every arriving tuple."""

    def process_batch(self, tuples: "list[StreamTuple]", port: int) -> None:
        """Called with a whole tuple batch when transport batching is on.

        The default preserves exact per-tuple semantics by looping over
        :meth:`on_tuple`; operators override it with one pass over the
        run that has the same effect on state, metrics and output as
        that loop (and re-emit via :meth:`submit_batch` so the batch
        survives the hop).  ``tuples`` is the delivered
        :class:`TupleBatch`: a list, which a body reads and never
        mutates; re-emitting it as it is keeps its aggregates.  Never
        called when batching is disabled, so overrides cannot change
        size-1 behaviour.
        """
        on_tuple = self.on_tuple
        for tup in tuples:
            on_tuple(tup, port)

    def on_punct(self, punct: Punctuation, port: int) -> None:
        """Called for every arriving punctuation (before final bookkeeping)."""

    def on_all_ports_final(self) -> None:
        """Called once when FINAL punctuation has arrived on every input port."""

    def on_control(self, command: str, payload: Mapping[str, Any]) -> None:
        """Called when a control command is sent to this operator instance.

        The paper distinguishes orchestrator-level adaptation from local,
        operator-level adaptation (e.g. a dynamic filter changing its
        condition); control commands are the hook for the latter, and the
        ORCA actuation API can target them.
        """

    def on_shutdown(self) -> None:
        """Called when the PE stops or is cancelled."""

    def on_snapshot(self) -> Any:
        """Hook: extra instance state not held in ``self.state``.

        Returned value rides along in :meth:`snapshot` payloads and is
        handed back to :meth:`on_restore`.  Must be deep-copyable.
        """
        return None

    def on_restore(self, extra: Any) -> None:
        """Hook: reinstall whatever :meth:`on_snapshot` returned."""

    def pending_items(self) -> int:
        """Tuples held in operator-internal buffers awaiting emission.

        Buffering operators (Throttle, the parallel-region merger, ...)
        override this; the elastic re-parallelization protocol polls it to
        decide when a parallel region is fully drained (no tuple may be in
        an internal buffer when channels are rewired, or it would be lost).
        """
        return 0

    def pending_tuples(self) -> int:
        """Data tuples (punctuations excluded) in internal buffers.

        Defaults to :meth:`pending_items`; operators whose buffers also
        hold punctuations (the region splitter's quiesce buffer) override
        this so crash-loss accounting (``buffered_at_crash`` in
        :mod:`repro.chaos`) counts only items whose loss would show up as
        missing data tuples.
        """
        return self.pending_items()

    # -- state snapshot / restore (framework entry points) ------------------------

    def snapshot(self, store: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Capture this instance's state as a plain, detached payload.

        Only meaningful when the operator is quiesced or drained (the
        callers — PE graceful stop, the checkpoint service with its
        incremental ``store`` — ensure that); a crash never produces one.
        ``extra`` (:meth:`on_snapshot`) is deep-copied, never aliased; the
        ports FINAL closed ride along, as a FINAL is not replayed.
        """
        return {
            "store": self.state.snapshot() if store is None else store,
            "extra": copy.deepcopy(self.on_snapshot()),
            "final": sorted(self._final_ports),
        }

    def restore(self, payload: Mapping[str, Any]) -> None:
        """Reinstall a :meth:`snapshot` payload into this (fresh) instance.

        Both halves are detached before installation: the payload may be
        a retained checkpoint epoch, and an operator adopting ``extra``
        as a live buffer must not mutate the committed snapshot in place.
        """
        self.state.restore(payload.get("store", {}))
        self._final_ports = set(payload.get("final", ()))
        self._finalized = len(self._final_ports) >= self.n_inputs > 0
        self.on_restore(copy.deepcopy(payload.get("extra")))

    # -- framework entry points (called by the PE) --------------------------------

    def _process(self, item: Union[StreamTuple, Punctuation], port: int) -> None:
        """One item; the PE's compiled delivery inlines the tuple half."""
        if self._finalized:
            return
        if isinstance(item, StreamTuple):
            self._processed_by_port[port].value += 1
            self.on_tuple(item, port)
            return
        self._n_puncts.value += 1
        if item is Punctuation.FINAL:
            self._n_final_puncts.value += 1
        self.on_punct(item, port)
        if item is Punctuation.FINAL:
            self._final_ports.add(port)
            if len(self._final_ports) >= self.n_inputs and not self._finalized:
                self._finalized = True
                self.on_all_ports_final()
                if self.FORWARD_FINAL:
                    self.submit_final()

    def _process_batch(self, tuples: "list[StreamTuple]", port: int) -> None:
        """Framework entry for one delivered batch (tuples only): the
        PE hands over the :class:`TupleBatch` itself, a list to the hook.

        Punctuation never rides in batches, so this is the tuple half of
        :meth:`_process` with the metric increments amortized over the
        whole run before :meth:`process_batch` dispatches once.
        """
        if self._finalized or not tuples:
            return
        self._processed_by_port[port].value += len(tuples)
        self.process_batch(tuples, port)

    @property
    def is_finalized(self) -> bool:
        """True once FINAL punctuation was seen on all input ports."""
        return self._finalized

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.ctx.full_name})"
