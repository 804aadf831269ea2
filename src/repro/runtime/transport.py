"""Inter-PE stream transport.

Tuples crossing a PE boundary travel through the transport with a small
configurable latency, modelling the TCP hop between operating system
processes.  The number of items in flight toward each destination input
port backs the ``queueSize`` built-in metric (the metric Fig. 5 of the
paper subscribes to for Split/Merge operators).

Intra-PE connections do not use the transport at all: fused operators call
each other synchronously, which is exactly why fusion removes queueing —
and why the orchestrator may care about partitioning (Sec. 4.3).

Two fault surfaces extend the plain hop model for chaos experiments
(:mod:`repro.chaos`):

* **Link faults** — :class:`LinkFault` modifiers installed per link
  (selected by source/destination PE or host) add latency, drop a seeded
  fraction of items, or *partition* the link: partitioned items arrive
  one hop after the fault heals, modelling TCP retransmission rather
  than silent loss.  Every fault's lifetime is fixed when it is
  installed, so a unit's arrival time is known the moment it goes onto
  the wire.  Delivery stays FIFO per (source PE, destination PE) pair
  even when a fault expires mid-stream, exactly like a TCP connection.
* **Crash accounting** — when a PE crashes, everything in flight toward
  it is condemned: each such item is counted in ``dropped_in_flight``
  instead of being silently delivered to the next incarnation of the
  process (a crash-restart within one transport latency must not leak
  pre-crash items into the restarted PE).

Both behaviours describe the default ``delivery="best_effort"`` mode.
The ``at_least_once`` and ``exactly_once`` modes route sends through a
:class:`~repro.runtime.delivery.DeliveryPlane` that layers per-link acks,
sim-time retry/backoff timers, duplicate-suppression watermarks, and
epoch-aligned crash replay on top — see :mod:`repro.runtime.delivery`
for the full contract per mode.

In every mode, and whether or not tuples are batched, one thing travels:
a *wire unit of N members* (see :class:`Transport`).  Modes differ in
their drop policy and in when a unit's ``link_seq`` range is claimed;
batching differs only in N.  What a link does to a unit
(:meth:`Transport._put_on_wire`) and what happens when it arrives
(:meth:`Transport._deliver`) is written once.  Every one of those
routines is handed one :class:`Flow` — the (source PE, destination PE,
operator, input port) a unit travels on, with its keys and kernel label
resolved once when a PE compiles its routes, so no routine re-derives
them per unit.

One rule retires a link's record (:meth:`Transport.forget_pe`): it goes
with its destination, or once its source is gone and the destination's
committed epoch covers all it carried — the one bound on replay history.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.runtime.delivery import DeliveryPlane, Link, LinkRecord
from repro.runtime.job import PEState
from repro.sim.kernel import Kernel, ScheduledEvent
from repro.spl.tuples import Punctuation, StreamTuple, TupleBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.hub import ObsHub
    from repro.runtime.pe import PERuntime
    from repro.runtime.system import SystemConfig

Item = Union[StreamTuple, Punctuation]
#: a wire unit's payload: one item (a unit of N = 1 members) or a
#: coalesced batch (N = its length)
Payload = Union[StreamTuple, Punctuation, TupleBatch]
#: read once, as in :mod:`repro.runtime.pe`: on CPython 3.11 a member
#: read through its enum class costs several plain attribute reads
_RUNNING = PEState.RUNNING

#: seconds one unimpeded hop between two PEs takes (the TCP hop between
#: operating system processes)
LINK_LATENCY = 0.001


@dataclass(frozen=True)
class DeliveryRecord:
    """One successful transport delivery, as seen by delivery taps.

    ``link_seq`` is the item's per-link send index (links key on
    ``(source PE id or "", destination PE id)``): the transport assigns
    it when the item is committed to the wire — at send time for single
    items, at flush time for batch members (one contiguous range per
    batch) — and always before any partition hold, so a tap observing
    deliveries whose ``link_seq`` ever decreases on one link has caught
    a genuine per-connection FIFO violation, exactly what the chaos
    fuzzer's :class:`~repro.chaos.fuzz.oracles.FifoProbe` checks.

    Attributes:
        src_key: Sending PE id ("" for registry-less senders).
        dst_pe_id: Receiving PE id.
        op_full_name: Destination operator full name.
        port: Destination input port.
        link_seq: Per-link send index (1-based, monotone per link).
        time: Sim time of the delivery.
        redelivery: True for a post-restart replay of a unit the dead
            incarnation had already processed (exactly-once mode): its
            ``link_seq`` legitimately rewinds below the link's high-water
            mark, and FIFO taps must treat that as a fresh baseline
            rather than a per-connection ordering violation.
    """

    src_key: str
    dst_pe_id: str
    op_full_name: str
    port: int
    link_seq: int
    time: float
    redelivery: bool = False


@dataclass
class LinkFault:
    """One installed per-link perturbation.

    A fault applies to a send when every selector that is set matches
    (selectors left as None match anything): ``src_pe``/``dst_pe`` match
    PE ids, ``src_host``/``dst_host`` match host names.  Effects compose
    across matching faults (latencies add; any matching partition holds;
    drop probabilities apply independently).

    Attributes:
        fault_id: Registry key, allocated by :meth:`Transport.install_link_fault`.
        until: Absolute sim time the fault expires.
        extra_latency: Seconds added to the base transport latency.
        drop_probability: Chance (seeded, deterministic) the item is lost.
        partition: When True, items are held until the fault heals and
            then delivered in order (TCP-retransmit semantics, no loss).
    """

    fault_id: int
    until: float
    extra_latency: float = 0.0
    drop_probability: float = 0.0
    partition: bool = False
    src_pe: Optional[str] = None
    dst_pe: Optional[str] = None
    src_host: Optional[str] = None
    dst_host: Optional[str] = None

    def matches(
        self,
        src_pe_id: Optional[str],
        src_host: Optional[str],
        dst_pe_id: str,
        dst_host: Optional[str],
    ) -> bool:
        """Whether this fault applies to one (source, destination) link."""
        if self.src_pe is not None and self.src_pe != src_pe_id:
            return False
        if self.dst_pe is not None and self.dst_pe != dst_pe_id:
            return False
        if self.src_host is not None and self.src_host != src_host:
            return False
        if self.dst_host is not None and self.dst_host != dst_host:
            return False
        return True


class Flow:
    """One flow: a (source PE, destination PE, operator, input port), resolved once.

    A flow is the finest unit on which ordering matters.  Everything the
    wire needs to know about it that holds as long as the routes stand
    is computed here, once: the keys of its in-flight count, of its link
    and of its open batch, and the kernel label of its arrivals.
    :meth:`PERuntime.rebuild_routes` makes one per remote hop; the public
    :meth:`Transport.send` / :meth:`Transport.send_batch` make one per
    call.  From then on the flow is the one argument every wire routine
    passes — sending, buffering, committing, the scheduled arrival, the
    hand-over, open units, the reliable plane's pending and replay
    records.

    A flow holds facts, not state: no link record (a link enters the
    table at its first commit and may retire before the flow is dropped)
    and no delivery (the destination's compiled delivery is looked up at
    hand-over, so a restart or a rewire of the destination is seen at
    once).  A PE's next ``rebuild_routes`` makes new flows.

    Attributes:
        src_pe: Sending PE (None for registry-less senders).
        dst_pe: Receiving PE.
        op_full_name: Destination operator full name.
        port: Destination input port.
        src_key: ``src_pe``'s id, "" when there is none.
        key: ``(src_key, dst PE id, operator, port)``: the open-batch key.
        in_flight_key: ``(dst PE id, operator, port)``: the in-flight key.
        link_key: ``(src_key, dst PE id)``: the link-table key.
        label: Kernel label of the flow's arrivals.
    """

    __slots__ = (
        "src_pe", "dst_pe", "op_full_name", "port", "src_key", "key",
        "in_flight_key", "link_key", "label",
    )

    def __init__(
        self,
        src_pe: Optional["PERuntime"],
        dst_pe: "PERuntime",
        op_full_name: str,
        port: int,
    ) -> None:
        self.src_pe = src_pe
        self.dst_pe = dst_pe
        self.op_full_name = op_full_name
        self.port = port
        src_key = self.src_key = src_pe.pe_id if src_pe is not None else ""
        dst_id = dst_pe.pe_id
        self.key = (src_key, dst_id, op_full_name, port)
        self.in_flight_key = (dst_id, op_full_name, port)
        self.link_key = (src_key, dst_id)
        self.label = f"transport->{op_full_name}[{port}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dst = f"{self.dst_pe.pe_id} {self.op_full_name}[{self.port}]"
        return f"Flow({self.src_key or '-'} -> {dst})"


class _OpenBatch:
    """One flow's not-yet-flushed tuple run (batching enabled only).

    The flow rides along so the flush can re-match link faults exactly
    like an ordinary send would have.
    """

    __slots__ = ("flow", "tuples", "flush_event", "opened_at")

    def __init__(self, flow: Flow, opened_at: float = 0.0) -> None:
        self.flow = flow
        self.tuples: List[StreamTuple] = []
        self.flush_event: Optional[ScheduledEvent] = None
        #: sim-time the first tuple was buffered — the health plane's
        #: open-batch residency signal measures from here
        self.opened_at = opened_at


class Transport:
    """Delivers wire units between PEs with latency and in-flight accounting.

    The only thing that goes onto or comes off a link is a **wire unit of
    N members**: one tuple or punctuation (N = 1) or one
    :class:`~repro.spl.tuples.TupleBatch` (N = its length).  A unit takes
    the contiguous ``link_seq`` range ``[first_seq, first_seq + N - 1]``
    and one kernel event; every counter moves by N.  There is one way
    onto a link (:meth:`_put_on_wire`: fault composition, per-link FIFO,
    the scheduled arrival) and one way off it (:meth:`_deliver`, ending
    in :meth:`_hand_over`: taps, then the destination PE), in all three
    delivery modes.

    Every routine on the way is handed the unit's :class:`Flow`, whose
    keys and label were resolved when the sending PE compiled its
    routes.  A compiled remote hop calls :meth:`send_on` with its flow;
    :meth:`send` and :meth:`send_batch` resolve a flow per call and
    reach the same body.  What a unit still carries per hop is only what
    varies per unit: its payload, the destination incarnation and the
    first ``link_seq`` stamped at commit, and whether it is a replay.
    An arrival hands a single tuple straight to the destination's
    compiled delivery; runs, punctuation and replays go through
    ``PERuntime.receive``.

    ``batch_max_size`` only decides how many members a unit has.  With
    ``batch_max_size > 1`` same-flow tuples append to a per-flow open
    batch that is committed when it reaches ``batch_max_size``, when the
    ``batch_linger`` expires (linger 0.0 = the end of the current kernel
    instant), when punctuation follows on the same flow, or when
    :meth:`flush_open_batches` forces it (drain barriers, crashes).
    With ``batch_max_size <= 1`` (the default) nothing is buffered and
    every send commits at once — the same commit, at N = 1.
    """

    def __init__(
        self,
        kernel: Kernel,
        config: "SystemConfig",
        rng: random.Random,
        ack_rng: random.Random,
    ) -> None:
        if config.delivery not in ("best_effort", "at_least_once", "exactly_once"):
            raise ValueError(f"unknown delivery mode {config.delivery!r}")
        self.kernel = kernel
        # read per wire unit: bound here once, so the send path keeps its
        # one attribute hop (the sim clock's ``now`` is a plain slot)
        self.latency = LINK_LATENCY
        self._clock = kernel.clock
        #: the scheduled arrival's callback, bound once
        self._arrive = self._deliver
        #: the delivery-guarantee mode this transport runs under
        self.delivery = config.delivery
        #: batch size that forces a flush; <= 1 disables batching
        self.batch_max_size = config.batch_max_size
        #: sim-time linger before a partially filled batch flushes
        self.batch_linger = config.batch_linger
        #: flow key (:attr:`Flow.key`) -> open (unflushed) batch; only
        #: populated when batching is enabled
        self._open_batches: Dict[Tuple[str, str, str, int], _OpenBatch] = {}
        #: observer invoked with the member count of every flushed batch
        #: (the obs hub points this at its batch-size histogram); None
        #: keeps the flush path at one check
        self.batch_observer: Optional[Callable[[int], None]] = None
        #: seeded stream for probabilistic link-fault drops (deterministic)
        self.rng = rng
        #: dedicated seeded stream for reverse-link ack drop rolls — a
        #: separate stream so making acks lossy never perturbs the
        #: forward-path roll sequence (committed artifacts without
        #: reverse-link faults stay byte-identical)
        self.ack_rng = ack_rng
        #: (pe_id, operator full name, port) -> items scheduled but not
        #: delivered; a send adds with one ``+=`` (a missing port reads 0),
        #: :meth:`_dec_in_flight` removes a port whose count reaches 0
        self._in_flight: Dict[Tuple[str, str, int], int] = defaultdict(int)
        self.total_sent = 0
        self.total_delivered = 0
        #: items that arrived at a non-running PE and were discarded
        self.total_dropped = 0
        #: items condemned because their destination PE crashed while they
        #: were in flight (they never reach the restarted incarnation);
        #: under a reliable mode only a *removed-for-good* destination
        #: condemns, and only units no drop fault already claimed
        #: (first-cause-wins attribution)
        self.dropped_in_flight = 0
        #: items lost to a lossy link fault (drop_probability); under a
        #: reliable mode: items whose wire copy was lost at least once —
        #: counted on the first casualty only, and recovered by
        #: retransmission unless the destination is removed for good
        self.dropped_by_fault = 0
        #: reliable modes: wire units re-sent after an ack timeout
        self.retransmissions = 0
        #: reliable modes: acknowledgements processed (one per wire unit)
        self.acks = 0
        #: exactly-once: items whose copy arrived at or below the link's
        #: delivered watermark and was suppressed by the in-order receiver
        self.duplicates_suppressed = 0
        #: exactly-once: items re-sent to a restarted PE with emission
        #: suppression because the dead incarnation already processed them
        self.replayed = 0
        #: reliable modes: acknowledgements lost to a reverse-link fault
        #: (the sender retransmits; the receiver re-acks the duplicate)
        self.acks_dropped = 0
        #: destination PE id -> incarnation number; bumped on every crash
        #: so in-flight items addressed to the dead incarnation are dropped
        self._incarnations: Dict[str, int] = {}
        #: installed link faults by id
        self._link_faults: Dict[int, LinkFault] = {}
        self._next_fault_id = 1
        #: the link table: (src pe id or "", dst pe id) -> everything
        #: remembered about that connection, in every delivery mode;
        #: records enter in :meth:`_open_link`, leave in :meth:`_retire`
        self.links: Dict[Link, LinkRecord] = {}
        #: the table by destination (dst -> src -> record) and by source
        #: (src -> dst -> record): a PE's links are a lookup, not a scan;
        #: a forgotten PE has no entry in ``_from``
        self._toward: Dict[str, Dict[str, LinkRecord]] = {}
        self._from: Dict[str, Dict[str, LinkRecord]] = {}
        #: callbacks invoked with a :class:`DeliveryRecord` after every
        #: successful delivery — the chaos fuzzer's FIFO oracle registers
        #: here; the hot path skips record construction while empty
        self.delivery_taps: List[Callable[[DeliveryRecord], None]] = []
        #: the observability hub, set by ObsHub.attach() only when span
        #: tracing is enabled — None keeps the send path at one check
        self.obs: Optional["ObsHub"] = None
        #: reliability event callback ``(kind, count, op, attempt, time)``
        #: with kind in {"retransmit", "ack", "duplicate_suppressed",
        #: "replay", "ack_dropped"} — the obs hub
        #: registers here (lazily created series keep best-effort
        #: expositions byte-identical)
        self.reliability_observer: Optional[
            Callable[[str, int, str, int, float], None]
        ] = None
        #: health-plane pressure tap ``(kind, value, operator, dst PE id,
        #: port)`` — the reliable delivery plane reports each unit's ack
        #: round trip here ("ack_rtt"); None keeps the ack path at one check
        self.pressure_observer: Optional[
            Callable[[str, float, str, str, int], None]
        ] = None
        #: the reliable-delivery plane; None in best-effort mode keeps
        #: every hot path at a single check
        self.reliability: Optional[DeliveryPlane] = None
        if config.delivery != "best_effort":
            self.reliability = DeliveryPlane(self, config)

    # -- link faults --------------------------------------------------------

    def install_link_fault(
        self,
        extra_latency: float = 0.0,
        drop_probability: float = 0.0,
        partition: bool = False,
        src_pe: Optional[str] = None,
        dst_pe: Optional[str] = None,
        src_host: Optional[str] = None,
        dst_host: Optional[str] = None,
        duration: Optional[float] = None,
    ) -> LinkFault:
        """Install a per-link perturbation for ``duration`` seconds.

        A fault's lifetime is fixed here, so ``duration`` is required:
        nothing heals a fault earlier.

        Args:
            extra_latency: Seconds added to every matching delivery.
            drop_probability: Seeded drop chance in [0, 1] per item.
            partition: Hold matching items until the fault heals.
            src_pe: Only sends from this PE id (None: any).
            dst_pe: Only sends toward this PE id (None: any).
            src_host: Only sends from PEs on this host (None: any).
            dst_host: Only sends toward PEs on this host (None: any).
            duration: Seconds until the fault expires; finite and > 0.

        Returns:
            The installed :class:`LinkFault`.

        Raises:
            ValueError: ``duration`` is not a finite number > 0.
        """
        if duration is None or not 0.0 < duration < math.inf:
            raise ValueError(
                f"a link fault needs a finite duration > 0, got {duration!r}"
            )
        fault = LinkFault(
            fault_id=self._next_fault_id,
            extra_latency=extra_latency,
            drop_probability=drop_probability,
            partition=partition,
            src_pe=src_pe,
            dst_pe=dst_pe,
            src_host=src_host,
            dst_host=dst_host,
            until=self.kernel.now + duration,
        )
        self._next_fault_id += 1
        self._link_faults[fault.fault_id] = fault
        return fault

    def active_link_faults(self) -> List[LinkFault]:
        """Snapshot of the faults currently in force (expired ones pruned)."""
        self._prune_faults()
        return list(self._link_faults.values())

    def _prune_faults(self) -> None:
        now = self.kernel.now
        expired = [
            fault_id
            for fault_id, fault in self._link_faults.items()
            if fault.until <= now
        ]
        for fault_id in expired:
            del self._link_faults[fault_id]

    def _matching_faults(
        self, src_pe: Optional["PERuntime"], dst_pe: "PERuntime"
    ) -> List[LinkFault]:
        if not self._link_faults:
            return []
        self._prune_faults()
        src_pe_id = src_pe.pe_id if src_pe is not None else None
        src_host = src_pe.host_name if src_pe is not None else None
        return [
            fault
            for fault in self._link_faults.values()
            if fault.matches(src_pe_id, src_host, dst_pe.pe_id, dst_pe.host_name)
        ]

    # -- crash accounting ----------------------------------------------------

    def drop_in_flight(self, pe_id: str) -> None:
        """Condemn everything currently in flight toward a crashed PE.

        Called by :meth:`PERuntime.crash`: the items stay scheduled (their
        kernel events cannot be retracted cheaply) but are recognized at
        delivery time by incarnation mismatch, counted in
        ``dropped_in_flight``, and never handed to the restarted process.

        Args:
            pe_id: The crashed PE.
        """
        if self._open_batches:
            # tuples still buffered toward the crashed PE are committed
            # to the wire *before* the incarnation bump, so they are
            # condemned at delivery time exactly like items that were
            # already in flight — no buffered tuple ever leaks into the
            # restarted incarnation, and none goes unaccounted
            self.flush_open_batches(dst_pe_id=pe_id)
        self._incarnations[pe_id] = self._incarnations.get(pe_id, 0) + 1
        # copies parked for reordering died with the process; their units
        # are still pending on the senders and will be retransmitted to
        # the new incarnation, so nothing is condemned here
        for link in self.links_toward(pe_id):
            link.reorder.clear()

    # -- putting units on the wire --------------------------------------------

    def send(
        self,
        dst_pe: "PERuntime",
        op_full_name: str,
        port: int,
        item: Item,
        src_pe: Optional["PERuntime"] = None,
    ) -> None:
        """Send ``item`` toward an input port of a remote PE.

        Resolves the flow for this one call and goes on as
        :meth:`send_on` — the body every compiled remote hop calls.

        Args:
            dst_pe: Destination PE runtime.
            op_full_name: Destination operator full name.
            port: Destination input port.
            item: Tuple or punctuation to deliver.
            src_pe: Sending PE, when known — enables per-link fault
                matching and per-connection FIFO (None for registry-less
                senders such as tests).
        """
        self.send_on(Flow(src_pe, dst_pe, op_full_name, port), item)

    def send_batch(
        self,
        dst_pe: "PERuntime",
        op_full_name: str,
        port: int,
        tuples: Sequence[StreamTuple],
        src_pe: Optional["PERuntime"] = None,
    ) -> None:
        """Send a run of tuples toward one input port in a single call.

        Resolves the flow for this one call and goes on as
        :meth:`send_batch_on`.

        Args:
            dst_pe: Destination PE runtime.
            op_full_name: Destination operator full name.
            port: Destination input port.
            tuples: Tuples to deliver, in order.
            src_pe: Sending PE, when known (see :meth:`send`).
        """
        self.send_batch_on(Flow(src_pe, dst_pe, op_full_name, port), tuples)

    def send_on(self, flow: Flow, item: Item) -> None:
        """Send one item along a resolved flow.

        With batching on, a tuple joins its flow's open batch (a run of
        one, see :meth:`send_batch_on`); otherwise — and for punctuation
        always — the item is committed at once as a unit of one member.
        """
        if self.batch_max_size > 1:
            if isinstance(item, StreamTuple):
                self._buffer(flow, (item,))
                return
            # punctuation never rides in a batch: flush the flow's open
            # batch first so the marker cannot overtake tuples buffered
            # ahead of it, then commit the marker on its own
            if flow.key in self._open_batches:
                self._flush_flow(flow.key)
        self.total_sent += 1
        self._in_flight[flow.in_flight_key] += 1
        if self.reliability is not None:
            self.reliability.send(flow, item)
        else:
            self._commit(flow, item)

    def send_batch_on(self, flow: Flow, tuples: Sequence[StreamTuple]) -> None:
        """Send a run of tuples along a resolved flow.

        With batching disabled every tuple is its own unit (a loop over
        :meth:`send_on`, one kernel event per tuple); with batching
        enabled the whole run lands on the flow's open batch in one
        append and flushes by the usual size/linger rules.  A bulk append
        larger than ``batch_max_size`` flushes as one oversized batch:
        size is a flush trigger, not a hard cap.
        """
        if self.batch_max_size <= 1:
            for tup in tuples:
                self.send_on(flow, tup)
        elif tuples:
            self._buffer(flow, tuples)

    def _buffer(self, flow: Flow, tuples: Sequence[StreamTuple]) -> None:
        """Append a non-empty run to its flow's open batch, flushing at size.

        The one body behind :meth:`send_on` (a run of one) and
        :meth:`send_batch_on` when batching is on; kept off the public
        names so that neither entry point is reached through the other.
        Buffered tuples count as sent and in flight from this moment, so
        ``queue_size`` (and through it the elastic drain barrier's
        backlog probe) sees open-batch occupants.

        The linger clock starts at a flow's first buffered tuple.  A
        linger of 0.0 arms a ``call_soon`` flush instead: it fires at the
        end of the current kernel instant, which still coalesces a burst
        emitted within one upstream activation while never delaying
        delivery in sim time — crash instants between kernel ticks
        therefore observe no open batches, exactly like an unbatched
        transport.
        """
        n = len(tuples)
        self.total_sent += n
        self._in_flight[flow.in_flight_key] += n
        batch = self._open_batches.get(flow.key)
        if batch is None:
            batch = _OpenBatch(flow, opened_at=self._clock.now)
            self._open_batches[flow.key] = batch
            if self.batch_linger > 0.0:
                batch.flush_event = self.kernel.schedule(
                    self.batch_linger,
                    self._flush_flow,
                    flow.key,
                    label="transport-batch-linger",
                )
            else:
                batch.flush_event = self.kernel.call_soon(
                    self._flush_flow,
                    flow.key,
                    label="transport-batch-flush",
                )
        batch.tuples.extend(tuples)
        if len(batch.tuples) >= self.batch_max_size:
            self._flush_flow(flow.key)

    def _flush_flow(self, key: Tuple[str, str, str, int]) -> None:
        """Commit one flow's open batch as a single wire unit (idempotent)."""
        open_batch = self._open_batches.pop(key, None)
        if open_batch is None:
            return
        if open_batch.flush_event is not None:
            open_batch.flush_event.cancel()
        if self.reliability is not None:
            self.reliability.send_flushed_batch(open_batch)
        else:
            self._commit(open_batch.flow, None, open_batch.tuples)

    def flush_open_batches(self, dst_pe_id: Optional[str] = None) -> None:
        """Force every open batch (optionally: toward one PE) onto the wire.

        Called at drain/quiesce barriers (the elastic controller must not
        declare a region drained while tuples sit in open batches) and by
        :meth:`drop_in_flight` so crash condemnation covers buffered
        tuples.  A no-op when batching is off or nothing is buffered.

        Args:
            dst_pe_id: Only flush flows toward this PE (None: all flows).
        """
        if not self._open_batches:
            return
        flows = [
            flow
            for flow in self._open_batches
            if dst_pe_id is None or flow[1] == dst_pe_id
        ]
        for flow in flows:
            self._flush_flow(flow)

    def _commit(
        self,
        flow: Flow,
        item: Optional[Item],
        members: Optional[List[StreamTuple]] = None,
    ) -> None:
        """Commit one best-effort unit: drop rolls, then its seq range, then the wire.

        The unit is ``item`` (N = 1) or an open batch's ``members`` (N =
        their count; ``item`` is None); both are already counted sent and
        in flight.  The drop policy is per member: every lossy fault
        matching the link draws one seeded roll per *surviving* member,
        and casualties leave the unit and the in-flight count.  The
        survivors then claim one contiguous ``link_seq`` range — after
        the rolls, so best-effort sequences have no gaps — in commit
        order, which is also per-link delivery order, so FIFO taps
        observe strictly increasing sequences.  A single send is nothing
        but the N = 1 case: same roll order, same claim point.
        """
        n = 1 if members is None else len(members)
        faults: Sequence[LinkFault] = ()
        if self._link_faults:
            faults = self._matching_faults(flow.src_pe, flow.dst_pe)
            kept = [item] if members is None else members
            for fault in faults:
                p = fault.drop_probability
                if p > 0.0 and kept:
                    roll = self.rng.random
                    kept = [member for member in kept if roll() >= p]
            lost = n - len(kept)
            if lost:
                self.dropped_by_fault += lost
                self._dec_in_flight(flow.in_flight_key, lost)
                if not kept:
                    return
                members, n = kept, len(kept)
        if members is not None:
            if self.batch_observer is not None:
                self.batch_observer(n)
            item = TupleBatch(members)
        link = self.links.get(flow.link_key) or self._open_link(flow.link_key)
        base = link.send_seq
        link.send_seq = base + n
        self._put_on_wire(
            faults, link, flow, item,
            self._incarnations.get(flow.dst_pe.pe_id, 0), base + 1,
        )

    def _open_link(self, key: Link) -> LinkRecord:
        """Make the record of a link that carries its first unit."""
        src, dst = key
        link = self.links[key] = LinkRecord(key)
        self._toward.setdefault(dst, {})[src] = link
        self._from.setdefault(src, {})[dst] = link
        return link

    def links_toward(self, pe_id: str) -> List[LinkRecord]:
        """The records of the links into one PE, oldest first."""
        return list(self._toward.get(pe_id, {}).values())

    def _compose(self, faults: Sequence[LinkFault]) -> float:
        """Fold one link's matching faults into an arrival time.

        Latencies add to the base hop; partitions hold until the latest
        ``until`` and then pay the base hop again (the retransmit after
        the heal).
        """
        latency = self.latency
        hold_until: Optional[float] = None
        for fault in faults:
            latency += fault.extra_latency
            if fault.partition:
                hold_until = max(hold_until or 0.0, fault.until)
        arrive_at = self.kernel.now + latency
        if hold_until is not None:
            arrive_at = max(arrive_at, hold_until + self.latency)
        return arrive_at

    def _put_on_wire(
        self,
        faults: Sequence[LinkFault],
        link: LinkRecord,
        flow: Flow,
        payload: Payload,
        incarnation: int,
        first_seq: int,
        redelivery: bool = False,
    ) -> float:
        """Put one wire unit on its link: the only way onto the wire.

        Every copy of every unit passes here — a best-effort commit, a
        reliable (re)transmission or replay — already past its caller's
        drop policy and carrying its stamped ``first_seq`` and
        destination ``incarnation``.  ``faults`` are the link's matching
        faults (empty on a clean link).  The unit's arrival is scheduled
        at the composed time, clamped so a link never reorders (a fault
        expiring mid-stream cannot let a later unit overtake).  The
        arrival event carries ``(flow, payload, incarnation, first_seq,
        redelivery)`` under the flow's label.

        Returns:
            The scheduled (post-FIFO-clamp) arrival time — the reliable
            plane records it so barrier expediting can tell a copy still
            on the wire from a lost one.
        """
        if faults:
            arrive_at = self._compose(faults)
        else:
            arrive_at = self._clock.now + self.latency
        if arrive_at < link.horizon:
            arrive_at = link.horizon
        else:
            link.horizon = arrive_at
        if self.obs is not None and getattr(payload, "traced", False):
            # one span per scheduled hop: covers fresh sends and
            # retransmissions alike; arrive_at is post-FIFO-clamp, so
            # the span end is the true arrival time.  A traced batch
            # records ONE span for the whole hop — tracing overhead
            # shrinks alongside dispatch overhead
            dst_pe = flow.dst_pe
            self.obs.record_transport(
                flow.op_full_name,
                flow.src_key,
                dst_pe.pe_id,
                dst_pe.job.job_id,
                self._clock.now,
                arrive_at,
            )
        self.kernel.schedule_at(
            arrive_at,
            self._arrive,
            flow,
            payload,
            incarnation,
            first_seq,
            redelivery,
            label=flow.label,
        )
        return arrive_at

    # -- taking units off the wire --------------------------------------------

    def _deliver(
        self,
        flow: Flow,
        payload: Payload,
        incarnation: int,
        first_seq: int,
        redelivery: bool,
    ) -> None:
        """One wire unit arrives: the only way off the wire.

        Under a reliable mode the plane owns receiver semantics
        (in-flight accounting tied to a unit's *first* delivery, stale
        copies ignored without condemnation, duplicates suppressed or
        passed through per mode).  Best-effort accounts by member count:
        an incarnation mismatch condemns the whole unit (it was committed
        before the crash bump), a stopped destination loses it whole.
        """
        if self.reliability is not None:
            self.reliability.on_arrival(
                flow, payload, incarnation, first_seq, redelivery
            )
            return
        count = len(payload.tuples) if type(payload) is TupleBatch else 1
        self._dec_in_flight(flow.in_flight_key, count)
        dst_pe = flow.dst_pe
        if incarnation != self._incarnations.get(dst_pe.pe_id, 0):
            # The destination crashed after this unit was sent: it died
            # with the process and must not leak into the restarted
            # incarnation.
            self.dropped_in_flight += count
        elif dst_pe.state is not _RUNNING:
            # Receiving process is down: the unit is lost (the paper's
            # Sec. 5.2: crashes of stateless PEs "may lead to tuple loss").
            self.total_dropped += count
        else:
            self._hand_over(flow, payload, first_seq, count)

    def _hand_over(
        self,
        flow: Flow,
        payload: Payload,
        first_seq: int,
        count: int,
        redelivery: bool = False,
    ) -> None:
        """Count the delivery, fire taps, and hand the unit to the PE.

        Taps observe one :class:`DeliveryRecord` per member, with the
        unit's contiguous seq range unrolled, so FIFO oracles need no
        batch awareness.  The one place a unit enters a PE: a single
        tuple goes straight to the destination operator's compiled
        delivery (its caller already found the PE running); a run, a
        punctuation or a replay goes through ``PERuntime.receive``.
        ``redelivery=True`` (exactly-once replay) re-processes with
        downstream emissions suppressed: the unit's outputs already left
        the PE in a previous incarnation, so only the state effect must
        be rebuilt.
        """
        self.total_delivered += count
        dst_pe = flow.dst_pe
        if self.delivery_taps:
            now = self._clock.now
            taps = list(self.delivery_taps)
            for link_seq in range(first_seq, first_seq + count):
                record = DeliveryRecord(
                    flow.src_key, dst_pe.pe_id, flow.op_full_name, flow.port,
                    link_seq, now, redelivery,
                )
                for tap in taps:
                    tap(record)
        if redelivery or type(payload) is not StreamTuple:
            dst_pe.receive(flow.op_full_name, flow.port, payload, redelivery)
            return
        operator, deliveries = dst_pe._inbound[flow.op_full_name]
        if operator is not None:
            deliveries[flow.port](payload)

    def queue_size(self, pe_id: str, op_full_name: str, port: int) -> int:
        """Items currently in flight toward one input port."""
        return self._in_flight.get((pe_id, op_full_name, port), 0)

    def port_pressure(self, now: float) -> Dict[Tuple[str, str, int], List]:
        """Pressure on every input port with anything toward it.

        Returns:
            ``(pe_id, op_full_name, port) -> [depth, open_age, retries]``:
            items in flight or buffered toward the port, the age of its
            oldest open batch at ``now`` (batching only), and the
            retransmission attempts of its unacknowledged units (reliable
            modes only).
        """
        pressure = {key: [depth, 0.0, 0] for key, depth in self._in_flight.items()}
        for (_src, pe_id, op, port), batch in self._open_batches.items():
            reading = pressure.setdefault((pe_id, op, port), [0, 0.0, 0])
            reading[1] = max(reading[1], now - batch.opened_at)
        if self.reliability is not None:
            for key, attempts in self.reliability.retry_pressure().items():
                pressure.setdefault(key, [0, 0.0, 0])[2] += attempts
        return pressure

    def knows_pe(self, pe_id: str) -> bool:
        """Whether any link toward ``pe_id`` is still in the table."""
        return pe_id in self._toward

    def _dec_in_flight(self, key: Tuple[str, str, int], n: int = 1) -> None:
        """Drop one port's in-flight count by ``n`` (never below zero)."""
        count = self._in_flight.get(key, 0)
        if count <= n:
            self._in_flight.pop(key, None)
        else:
            self._in_flight[key] = count - n

    # -- reliable-delivery surface (no-ops in best-effort mode) --------------

    def checkpoint_watermarks(self, pe_id: str) -> Optional[dict]:
        """The ``"__transport__"`` epoch payload for one PE, or None.

        Exactly-once mode persists each link's delivered watermark into
        every checkpoint epoch — at capture time they cover exactly the
        units whose effects are in the captured operator snapshots — so
        crash recovery replays precisely what the restored state lacks
        (None also for a PE nothing has reached yet).
        """
        links = self.links_toward(pe_id)
        if self.delivery != "exactly_once" or not links:
            return None
        return {"watermarks": {link.key[0]: link.delivered_wm for link in links}}

    def on_epoch_committed(self, pe_id: str, floor: Dict[str, int]) -> None:
        """An exactly-once epoch committed: truncate the replay buffers
        toward the PE, then apply the retention rule (:meth:`forget_pe`).

        Args:
            pe_id: The checkpointed PE.
            floor: Per-source-key watermarks of the *oldest* retained
                committed epoch (see
                :meth:`~repro.checkpoint.store.CheckpointStore.committed_watermark_floor`):
                any retained epoch can still be chosen for rehydration
                (the torn-commit fallback), so replay must be able to
                start from the oldest one.
        """
        if self.reliability is None or not self.reliability.exactly_once:
            return
        for link in self.links_toward(pe_id):
            wm = floor.get(link.key[0], 0)
            if wm > link.truncated_to and link.replay:
                link.truncated_to = wm
                for seq in [s for s, e in link.replay.items() if s + e.count - 1 <= wm]:
                    link.replay_bytes -= link.replay.pop(seq).size_bytes
        self._retire([link for link in self.links_toward(pe_id) if self._spent(link)])

    def on_pe_restarted(
        self, pe: "PERuntime", restored: Optional[Dict[str, int]] = None
    ) -> None:
        """A PE came back: rewind receiver state and replay toward it.

        Args:
            pe: The restarted PE runtime.
            restored: The watermark map of the epoch it rehydrated from
                (None: restarted empty or best-effort mode).
        """
        if self.reliability is not None:
            self.reliability.on_pe_restarted(pe, restored)

    def expedite_pending(self, dst_pe_id: Optional[str] = None) -> None:
        """Retransmit unacknowledged units now, bypassing retry backoff.

        Drain/quiesce barriers call this next to
        :meth:`flush_open_batches`: a barrier waits on the in-flight
        backlog, and pending retries are part of it — quiescence must not
        sit out a multi-second backoff timer.

        Args:
            dst_pe_id: Only expedite units toward this PE (None: all).
        """
        if self.reliability is not None:
            self.reliability.expedite_pending(dst_pe_id)

    def forget_pe(self, pe_id: str) -> None:
        """Forget a PE removed for good (scale-in, job cancellation).

        One retention rule for every link: it goes with its destination
        (PE ids are fresh), or once its source is gone and it is
        :meth:`_spent` — its replay is what a restart of the destination
        replays.  Open batches at either end are committed first.
        """
        for flow in [flow for flow in self._open_batches if pe_id in flow[:2]]:
            self._flush_flow(flow)
        toward = list(self._toward.pop(pe_id, {}).values())
        sent = list(self._from.pop(pe_id, {}).values())
        self._retire(toward + [link for link in sent if self._spent(link)])
        self._incarnations.pop(pe_id, None)

    def _spent(self, link: LinkRecord) -> bool:
        """Its source is gone and, under exactly-once, every seq it
        claimed is at or below its destination's committed floor."""
        src, _dst = link.key
        exactly_once = self.reliability is not None and self.reliability.exactly_once
        return src not in self._from and (
            not exactly_once or link.truncated_to >= link.send_seq
        )

    def _retire(self, links: List[LinkRecord]) -> None:
        """The one way out of the link table; the reliable plane condemns
        the units of every retired link."""
        if not links:
            return
        for link in links:
            src, dst = link.key
            del self.links[link.key]
            self._toward.get(dst, {}).pop(src, None)
            self._from.get(src, {}).pop(dst, None)
        if self.reliability is not None:
            self.reliability.condemn(links)
