"""Reliable delivery plane: acks, retries, and epoch-aligned replay.

:class:`~repro.runtime.transport.Transport` is best-effort by default:
a lossy link fault permanently loses tuples and a crash condemns
everything in flight.  This module implements the two reliable modes of
the ``delivery`` config axis on
:class:`~repro.runtime.system.SystemConfig`:

* ``at_least_once`` — every wire unit (a single item, or one flushed
  :class:`~repro.spl.tuples.TupleBatch`) registers a pending entry keyed
  by ``(link, first link_seq)``.  The receiver acknowledges a unit when
  it is first delivered; acks travel the *reverse* link and are subject
  to the same seeded link faults as data (a ``LinkLoss`` covering the
  reverse direction drops acks on the transport's dedicated ack rng
  stream; a partition delays them until it heals).  A lost ack leaves
  the unit pending, so the retry timer retransmits it and the receiver
  re-acks the duplicate — delivery converges without a lossless side
  channel.
  Until the ack lands, a sim-time retry timer retransmits the unit with
  exponential backoff, so a lossy link delays tuples instead of losing
  them.  The receiver stays naive: every copy that arrives is
  delivered, so duplicates are possible (a partition-delayed original
  and a retransmit can both arrive at heal, and an ack loss forces a
  duplicate delivery by design) and per-connection FIFO is no longer
  promised after a loss-retransmit race.
* ``exactly_once`` — the same sender-side machinery plus an in-order
  receiver: each link delivers strictly by ``link_seq`` (out-of-order
  arrivals wait in a reorder buffer; already-delivered sequences are
  suppressed and counted in ``duplicates_suppressed``), and the per-link
  delivered watermark is persisted into checkpoint epochs under the
  reserved ``"__transport__"`` payload key.  Crash recovery restores the
  victim to a committed epoch and the plane replays every retained unit
  above the restored watermark: units the dead incarnation had already
  processed are re-processed with downstream emissions suppressed (state
  rebuilds without duplicate propagation, because their outputs already
  left the PE before the crash), and condemned in-flight units are
  re-sent instead of being counted in ``dropped_in_flight``.

Replay history is bounded by the epoch alone: every PE on an
exactly-once path commits one in each checkpoint round (its operators'
state, or only its ``"__transport__"`` watermarks), and each commit
truncates the links toward it to the oldest retained epoch's floor.  A
replay copy is registered for retry like any other unit — it stays
pending until the new incarnation acknowledges it — so a lossy fault at
the restart instant delays the replay instead of stalling the link.

Loss attribution is **first-cause-wins**: a unit that loses a wire copy
to a seeded drop fault counts in ``dropped_by_fault`` exactly once, on
its first casualty, and a later condemnation (destination PE removed for
good) must not recount it in ``dropped_in_flight`` — and vice versa.

Everything here is sim-time scheduled and the only randomness is the
transport's seeded drop-roll and ack-roll streams, so runs replay
byte-identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.spl.tuples import TupleBatch, from_wire_form, to_wire_form

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.pe import PERuntime
    from repro.runtime.system import SystemConfig
    from repro.runtime.transport import Flow, Payload, Transport

#: a link's key: (source PE id or "", destination PE id)
Link = Tuple[str, str]


class LinkRecord:
    """Everything the runtime remembers about one connection.

    Made by :meth:`Transport._open_link` when the link first carries a
    unit, dropped only by :meth:`Transport._retire`.  ``send_seq`` and
    ``horizon`` are used in every delivery mode; the rest is exactly-once
    state and stays empty otherwise.
    """

    __slots__ = (
        "key", "send_seq", "horizon", "delivered_wm", "reorder", "replay",
        "truncated_to", "replay_bytes",
    )

    def __init__(self, key: Link) -> None:
        self.key = key
        #: send index of the last member *sent* — claimed before any
        #: hold/flush, stamped onto deliveries for FIFO taps and used to
        #: keep flushed partition queues merged in send order
        self.send_seq = 0
        #: latest scheduled arrival, so a fault expiring mid-stream
        #: cannot reorder the connection's units
        self.horizon = 0.0
        #: receiver: highest contiguously delivered seq
        self.delivered_wm = 0
        #: receiver: first_seq -> parked early arrival
        self.reorder: Dict[int, tuple] = {}
        #: sender: first_seq -> acked unit, its payload in wire form (see
        #: :func:`~repro.spl.tuples.to_wire_form`), retained until its seq
        #: range drops below every restorable epoch; ``replay_bytes`` is
        #: its payload size, ``truncated_to`` the watermark it was last
        #: cut to (the oldest retained committed epoch can replay from there)
        self.replay: Dict[int, "PendingEntry"] = {}
        self.replay_bytes = 0
        self.truncated_to = 0


class PendingEntry:
    """One wire unit awaiting acknowledgement (or retained for replay).

    A unit is a single item or a whole flushed batch: it occupies the
    contiguous ``link_seq`` range ``[first_seq, first_seq + count - 1]``
    on its link, is retransmitted atomically, and is acknowledged by one
    ack — "one ack per flushed TupleBatch".  Its
    :class:`~repro.runtime.transport.Flow` names both ends, the operator
    and the port.
    """

    __slots__ = (
        "flow",
        "payload",
        "link",
        "first_seq",
        "count",
        "delivered",
        "acked",
        "condemned",
        "attempts",
        "loss_attributed",
        "ack_lost",
        "retry_event",
        "next_arrival",
        "sent_at",
        "size_bytes",
    )

    def __init__(
        self,
        flow: "Flow",
        payload: "Payload",
        link: LinkRecord,
        first_seq: int,
        count: int,
    ) -> None:
        self.flow = flow
        self.payload = payload
        self.link = link
        self.first_seq = first_seq
        self.count = count
        #: the unit reached the application at least once (its outputs
        #: exist downstream; a replay must suppress re-emission)
        self.delivered = False
        #: the sender saw the ack; the unit is off the pending registry
        self.acked = False
        #: the unit's link was forgotten with a PE; never retry again
        self.condemned = False
        #: completed retransmission attempts (drives the backoff)
        self.attempts = 0
        #: the unit has been counted in a loss counter (first-cause-wins)
        self.loss_attributed = False
        #: the most recent ack attempt was lost to a reverse-link fault,
        #: or the unit is a replay no ack of the restarted incarnation
        #: has answered yet: the retry timer must retransmit (provoking
        #: an ack) instead of waiting for one that will never land
        self.ack_lost = False
        self.retry_event = None
        #: scheduled arrival time of the newest live wire copy (None:
        #: the last copy was dropped)
        self.next_arrival: Optional[float] = None
        #: sim-time the unit first hit the wire — the health plane's ack
        #: round-trip signal measures from here (set at registration)
        self.sent_at = 0.0
        #: payload bytes, taken when the acked unit is retained for
        #: replay (its payload is then in wire form and has no size)
        self.size_bytes = 0


class DeliveryPlane:
    """Sender/receiver bookkeeping for the reliable delivery modes.

    Owned by (and mutating the counters of) one
    :class:`~repro.runtime.transport.Transport`; ``None`` on the
    transport means best-effort and keeps every hot path at one check.
    """

    def __init__(
        self,
        transport: "Transport",
        config: "SystemConfig",
    ) -> None:
        self.transport = transport
        self.kernel = transport.kernel
        # read per wire unit: bound here once
        self.exactly_once = config.delivery == "exactly_once"
        self.ack_timeout = config.ack_timeout
        self.retry_backoff = config.retry_backoff
        self.max_retry_interval = config.max_retry_interval
        #: (link key, first_seq) -> unacknowledged unit, in admission
        #: order: :meth:`expedite_pending` walks it, and that order is
        #: the order seeded drop rolls are drawn
        self.pending: Dict[Tuple[Link, int], PendingEntry] = {}

    @property
    def replay_bytes(self) -> Dict[Link, int]:
        """Link key -> payload bytes retained for replay (a derived view)."""
        return {key: link.replay_bytes for key, link in self.transport.links.items()}

    # -- send path ----------------------------------------------------------

    def retry_pressure(self) -> Dict[Tuple[str, str, int], int]:
        """Retransmission attempts of the unacknowledged units, summed per
        destination ``(pe_id, op_full_name, port)``."""
        retries: Dict[Tuple[str, str, int], int] = {}
        for entry in self.pending.values():
            if entry.acked or entry.condemned or entry.attempts == 0:
                continue
            key = entry.flow.in_flight_key
            retries[key] = retries.get(key, 0) + entry.attempts
        return retries

    def send(self, flow: "Flow", item: "Payload") -> None:
        """Admit one single-item unit (already counted sent and in flight).

        Unlike the best-effort commit, the link sequence is allocated and
        the pending entry registered *before* any drop roll: a dropped
        copy keeps its seq and retries, so the in-order receiver stalls
        the link until the retransmit fills the gap (FIFO preserved).
        """
        self._admit(flow, item, 1)

    def send_flushed_batch(self, open_batch) -> None:
        """Admit one open batch as a single reliable unit.

        The whole batch takes one contiguous seq range, one pending
        entry, one ack, and retransmits atomically — so batching changes
        granularity, never semantics.  Drop rolls apply to the wire copy
        as a whole (a lost packet loses the whole batch), not per member
        as in the best-effort commit.
        """
        items = open_batch.tuples
        if not items:
            return
        if self.transport.batch_observer is not None:
            self.transport.batch_observer(len(items))
        self._admit(open_batch.flow, TupleBatch(items), len(items))

    def _admit(self, flow: "Flow", payload: "Payload", count: int) -> None:
        """Allocate the unit's seq range, register it, and transmit.

        The single commit point of the reliable send path: the unit
        already counts as sent and in flight, and its link sequences are
        claimed here, before any drop roll.
        """
        t = self.transport
        link = t.links.get(flow.link_key) or t._open_link(flow.link_key)
        base = link.send_seq
        link.send_seq = base + count
        entry = PendingEntry(flow, payload, link, base + 1, count)
        entry.sent_at = self.kernel.now
        self.pending[(link.key, base + 1)] = entry
        self._transmit(entry)
        self._arm_retry(entry)

    def _transmit(self, entry: PendingEntry) -> None:
        """Put one wire copy of a unit on its link, unless a fault eats it.

        The drop policy is per unit: every lossy fault matching the link
        draws one seeded roll for the whole copy, and a casualty leaves
        the unit pending for retransmission (``dropped_by_fault`` moves
        only on the unit's first casualty).  A surviving copy goes
        through :meth:`Transport._put_on_wire` like any other unit,
        carrying the seq range :meth:`_admit` claimed.  A copy of a unit
        the destination already processed is a *redelivery*: its tuples
        are rebuilt from the retained wire form, and the receiver
        suppresses downstream emissions when it lands.
        """
        t = self.transport
        flow = entry.flow
        faults = t._matching_faults(flow.src_pe, flow.dst_pe)
        for fault in faults:
            if fault.drop_probability > 0.0 and (
                t.rng.random() < fault.drop_probability
            ):
                if not entry.loss_attributed:
                    entry.loss_attributed = True
                    t.dropped_by_fault += entry.count
                entry.next_arrival = None
                return
        redelivery = entry.delivered
        entry.next_arrival = t._put_on_wire(
            faults,
            entry.link,
            flow,
            from_wire_form(entry.payload) if redelivery else entry.payload,
            t._incarnations.get(flow.dst_pe.pe_id, 0),
            entry.first_seq,
            redelivery,
        )

    # -- retry timers -------------------------------------------------------

    def _arm_retry(self, entry: PendingEntry) -> None:
        delay = min(
            self.ack_timeout * (self.retry_backoff ** entry.attempts),
            self.max_retry_interval,
        )
        entry.retry_event = self.kernel.schedule(
            delay, self._on_retry, entry, label="transport-retry"
        )

    def _on_retry(self, entry: PendingEntry) -> None:
        """Ack timeout expired: retransmit (the sender cannot tell a lost
        copy from a delayed one, so a copy stuck behind a partition gets a
        sibling — the receiver's dedup absorbs whichever lands second)."""
        entry.retry_event = None
        if entry.acked or entry.condemned:
            return
        if entry.delivered and not entry.ack_lost:
            # an ack copy survived the reverse-link fault pipeline and
            # is on its way; it will land
            return
        if entry.flow.dst_pe.is_running:
            self._retransmit(entry)
        else:
            # destination down: hold fire, keep the timer as a fallback
            # (a restart expedites pending units immediately)
            entry.attempts += 1
            self._arm_retry(entry)

    def _retransmit(self, entry: PendingEntry) -> None:
        """Send one more copy of an unacknowledged unit and restart its timer."""
        entry.attempts += 1
        self.transport.retransmissions += 1
        self._observe("retransmit", entry.count, entry.flow.op_full_name, entry.attempts)
        if entry.retry_event is not None:
            entry.retry_event.cancel()
        self._transmit(entry)
        self._arm_retry(entry)

    def expedite_pending(self, dst_pe_id: Optional[str] = None) -> None:
        """Retransmit undelivered units now, bypassing their backoff.

        Called at drain/quiesce barriers (polled) and on PE restart, so a
        barrier never sits out a multi-second backoff.  Units with a live
        copy still on the wire, held behind an active partition, or
        headed to a stopped PE are left alone — the poll must not pile up
        copies.
        """
        now = self.kernel.now
        t = self.transport
        for entry in list(self.pending.values()):
            flow = entry.flow
            if dst_pe_id is not None and flow.dst_pe.pe_id != dst_pe_id:
                continue
            if entry.delivered or entry.acked or entry.condemned:
                continue
            if not flow.dst_pe.is_running:
                continue
            if entry.next_arrival is not None and now < entry.next_arrival:
                continue
            if any(
                fault.partition
                for fault in t._matching_faults(flow.src_pe, flow.dst_pe)
            ):
                continue
            self._retransmit(entry)

    # -- receiver -----------------------------------------------------------

    def on_arrival(
        self,
        flow: "Flow",
        payload: "Payload",
        incarnation: int,
        first_seq: int,
        redelivery: bool,
    ) -> None:
        """Handle one wire copy reaching the destination process.

        Copies addressed to a dead incarnation or a stopped process are
        ignored without accounting — the unit is still pending on the
        sender and will be retransmitted, which is exactly the difference
        from the best-effort transport (there, these copies are the loss).
        A copy on a forgotten link is ignored too: its unit was condemned
        when :meth:`Transport.forget_pe` dropped the link.
        """
        t = self.transport
        dst_pe = flow.dst_pe
        if incarnation != t._incarnations.get(dst_pe.pe_id, 0):
            return
        if not dst_pe.is_running:
            return
        link = t.links.get(flow.link_key)
        if link is None:
            return
        count = len(payload.tuples) if isinstance(payload, TupleBatch) else 1
        if self.exactly_once:
            self._arrive_exactly_once(
                link, flow, payload, first_seq, count, redelivery
            )
        else:
            # naive receiver: deliver every copy that arrives, dup or not
            self._accept(link, flow, payload, first_seq, count, False)

    def _arrive_exactly_once(
        self, link, flow, payload, first_seq, count, redelivery
    ) -> None:
        """In-order receiver: strict per-link seq delivery with dedup."""
        wm = link.delivered_wm
        if first_seq + count - 1 <= wm:
            self.transport.duplicates_suppressed += count
            self._observe("duplicate_suppressed", count, flow.op_full_name)
            # re-ack a duplicate whose original ack was lost: every copy
            # is suppressed here, so only a fresh ack stops the retransmits
            entry = self.pending.get((link.key, first_seq))
            if entry is not None and entry.delivered and entry.ack_lost:
                self._schedule_ack(entry)
            return
        buf = link.reorder
        if first_seq != wm + 1:
            if first_seq in buf:
                self.transport.duplicates_suppressed += count
                self._observe("duplicate_suppressed", count, flow.op_full_name)
            else:
                buf[first_seq] = (flow, payload, first_seq, count, redelivery)
            return
        self._accept(link, flow, payload, first_seq, count, redelivery)
        while buf:
            parked = buf.pop(link.delivered_wm + 1, None)
            if parked is None:
                break
            self._accept(link, *parked)

    def _accept(
        self, link, flow, payload, first_seq, count, redelivery
    ) -> None:
        """Hand one arrived copy to the application, acking as needed.

        The unit leaves the in-flight count and is acknowledged on its
        *first* delivery; a later copy is re-acked only when the earlier
        ack was lost (it is the retransmit that loss provoked).  The
        exactly-once receiver calls this strictly in seq order, so the
        link's delivered watermark advances here.
        """
        if self.exactly_once:
            link.delivered_wm = first_seq + count - 1
        entry = self.pending.get((link.key, first_seq))
        if entry is not None:
            if not entry.delivered:
                entry.delivered = True
                self.transport._dec_in_flight(flow.in_flight_key, count)
                self._schedule_ack(entry)
            elif entry.ack_lost:
                self._schedule_ack(entry)
        self.transport._hand_over(flow, payload, first_seq, count, redelivery)

    # -- acks ---------------------------------------------------------------

    def _schedule_ack(self, entry: PendingEntry) -> None:
        """Put one ack on the reverse link, through its fault pipeline.

        Acks are data on the wire, not a lossless side channel: faults
        matching the *reverse* direction (receiver back to sender) apply.
        Drop rolls draw from the transport's dedicated ``ack_rng`` stream
        so forward-path rolls — and therefore every committed sim
        artifact without reverse-link faults — are untouched.  A
        partition delays the ack like a data unit
        (:meth:`Transport._compose`).  A dropped ack marks the entry
        ``ack_lost``, which re-arms the sender's retransmit path; the
        receiver re-acks the resulting duplicate, so delivery converges.
        """
        t = self.transport
        flow = entry.flow
        entry.ack_lost = False
        arrive_at = self.kernel.now + t.latency
        if t._link_faults and flow.src_pe is not None:
            faults = t._matching_faults(flow.dst_pe, flow.src_pe)
            for fault in faults:
                p = fault.drop_probability
                if p > 0.0 and t.ack_rng.random() < p:
                    entry.ack_lost = True
                    t.acks_dropped += 1
                    self._observe("ack_dropped", 1, flow.op_full_name)
                    return
            arrive_at = t._compose(faults)
        self.kernel.schedule_at(
            arrive_at, self._on_ack, entry, label="transport-ack"
        )

    def _on_ack(self, entry: PendingEntry) -> None:
        if entry.acked or entry.condemned:
            return
        entry.acked = True
        t = self.transport
        t.acks += 1
        flow = entry.flow
        self._observe("ack", entry.count, flow.op_full_name)
        if t.pressure_observer is not None:
            t.pressure_observer(
                "ack_rtt", self.kernel.now - entry.sent_at,
                flow.op_full_name, flow.dst_pe.pe_id, flow.port,
            )
        if entry.retry_event is not None:
            entry.retry_event.cancel()
            entry.retry_event = None
        link = entry.link
        self.pending.pop((link.key, entry.first_seq), None)
        if self.exactly_once and link.replay.get(entry.first_seq) is not entry:
            # retained history is data: the unit's tuple objects go, the
            # fields a replay rebuilds them from stay (a replayed unit is
            # retained already)
            entry.size_bytes = getattr(entry.payload, "size_bytes", 0)
            entry.payload = to_wire_form(entry.payload)
            link.replay[entry.first_seq] = entry
            link.replay_bytes += entry.size_bytes

    # -- crash / restart / epochs -------------------------------------------

    def on_pe_restarted(
        self, pe: "PERuntime", restored: Optional[Dict[str, int]]
    ) -> None:
        """Reset receiver state and replay toward a restarted PE.

        ``restored`` is the per-link watermark map of the epoch the PE
        rehydrated from (None: restarted empty).  Each link rewinds to
        ``max(restored watermark, truncation floor)`` and every retained
        unit above it is re-sent in seq order: already-processed units
        replay with emissions suppressed (``redelivery``), undelivered
        units retransmit normally — so condemned in-flight tuples reach
        the new incarnation instead of being counted as lost.  A replayed
        unit is pending again, with a fresh backoff, until the new
        incarnation acks it: a lossy fault at the restart instant delays
        the replay, it cannot stall the link.  The retained entry keeps
        its wire form; each copy sent rebuilds the tuples.
        """
        pe_id = pe.pe_id
        t = self.transport
        if not self.exactly_once:
            self.expedite_pending(dst_pe_id=pe_id)
            return
        restored = restored or {}
        for link in sorted(t.links_toward(pe_id), key=lambda link: link.key):
            base = max(restored.get(link.key[0], 0), link.truncated_to)
            link.delivered_wm = base
            link.reorder.clear()
            # a restart is a fresh connection: do not inherit the dead
            # incarnation's FIFO horizon (stale copies no-op on arrival)
            link.horizon = 0.0
            # a unit replayed by an earlier restart and not yet re-acked
            # is both retained and pending: key by seq so it goes once
            units = {seq: entry for seq, entry in link.replay.items() if seq > base}
            units.update(
                (entry.first_seq, entry)
                for entry in self.pending.values()
                if entry.link is link
            )
            for _seq, entry in sorted(units.items()):
                if entry.delivered and entry.first_seq + entry.count - 1 <= base:
                    continue  # covered by the restored state; ack will clear
                if not entry.delivered:
                    self._retransmit(entry)
                    continue
                if entry.retry_event is not None:
                    entry.retry_event.cancel()
                t.replayed += entry.count
                self._observe("replay", entry.count, entry.flow.op_full_name)
                entry.acked = False
                entry.ack_lost = True  # no ack from this incarnation yet
                entry.attempts = 0
                entry.sent_at = self.kernel.now
                self.pending[(link.key, entry.first_seq)] = entry
                self._transmit(entry)
                self._arm_retry(entry)

    def condemn(self, links: List[LinkRecord]) -> None:
        """Condemn every unit on links :meth:`Transport._retire` dropped.

        Undelivered units count in ``dropped_in_flight`` — unless a drop
        fault already claimed them (first-cause-wins); delivered units
        were counted on delivery and are simply discarded.
        """
        t = self.transport
        for key in [k for k, e in self.pending.items() if e.link in links]:
            entry = self.pending.pop(key)
            entry.condemned = True
            if entry.retry_event is not None:
                entry.retry_event.cancel()
                entry.retry_event = None
            if not entry.delivered:
                t._dec_in_flight(entry.flow.in_flight_key, entry.count)
                if not entry.loss_attributed:
                    entry.loss_attributed = True
                    t.dropped_in_flight += entry.count

    # -- observability ------------------------------------------------------

    def _observe(
        self, kind: str, count: int, op_full_name: str, attempt: int = 0
    ) -> None:
        observer = self.transport.reliability_observer
        if observer is not None:
            observer(kind, count, op_full_name, attempt, self.kernel.now)
