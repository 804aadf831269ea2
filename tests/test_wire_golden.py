"""The wire, pinned: one seeded fault script, six configurations, one golden.

``tests/golden/wire.txt`` was first recorded before the transport's send
and arrival paths were unified, and re-recorded once when every link
fault became timed (a partition's units are scheduled at send time for
one hop after the heal, and a partitioned ack is delayed, not
swallowed).  It must stay byte-identical: it holds, for every
``delivery`` mode at
``batch_max_size`` 1 and 8, the full :class:`DeliveryRecord` sequence the
taps observed, every transport counter, the kernel's event count, the
sink's arrival order and a hash of both seeded RNG streams' final state
(so a refactor that draws one roll more, less, or in another order
fails even when no counter moves).

The script covers every branch of the link-fault pipeline: a lossy
link, a latency spike, a partition, two overlapping partitions healing
newest first and oldest first (with sends between the installs and
after each heal), a destination crash and restart in the middle of a
partition, a crash on open links — both under the lossy fault, so
exactly-once replay copies are dropped and retried — lossy / delayed /
partitioned *reverse* links under the acks, and punctuation between
tuples on two links into one input port.

Re-record (only when a change *means* to alter wire behaviour) with
``PYTHONPATH=src python -m tests.test_wire_golden``.
"""

from __future__ import annotations

import hashlib
import pathlib

import pytest

from repro import SystemConfig, SystemS
from repro.spl.application import Application
from repro.spl.library import Custom, Sink
from repro.spl.tuples import StreamTuple, WindowMarker

GOLDEN = pathlib.Path(__file__).parent / "golden" / "wire.txt"
DELIVERIES = ("best_effort", "at_least_once", "exactly_once")
BATCH_SIZES = (1, 8)
COUNTERS = (
    "total_sent",
    "total_delivered",
    "total_dropped",
    "dropped_in_flight",
    "dropped_by_fault",
    "retransmissions",
    "acks",
    "duplicates_suppressed",
    "replayed",
    "acks_dropped",
)


def fan_in_app() -> Application:
    """Two inert sources on their own PEs feeding one sink on a third."""
    app = Application("WireGolden")
    g = app.graph
    sink = g.add_operator("sink", Sink, partition="b")
    for name, partition in (("left", "a"), ("right", "c")):
        src = g.add_operator(
            name, Custom, params={"n_inputs": 0, "n_outputs": 1}, partition=partition
        )
        g.connect(src.oport(0), sink.iport(0))
    return app


def _rng_hash(rng) -> str:
    return hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()[:16]


def run_script(delivery: str, batch_max_size: int) -> str:
    """Drive the fault script on a fresh system; return its transcript."""
    system = SystemS(
        hosts=4,
        seed=42,
        config=SystemConfig(
            delivery=delivery, batch_max_size=batch_max_size, batch_linger=0.005
        ),
    )
    job = system.submit_job(fan_in_app())
    system.run_for(0.5)
    transport = system.transport
    left, right = job.pe_of_operator("left"), job.pe_of_operator("right")
    sink_pe = job.pe_of_operator("sink")
    records = []
    transport.delivery_taps.append(records.append)
    sent = [0]

    def burst(src_pe, n):
        for _ in range(n):
            transport.send(
                sink_pe, "sink", 0, StreamTuple({"iter": sent[0]}), src_pe=src_pe
            )
            sent[0] += 1

    def punct(src_pe):
        transport.send(sink_pe, "sink", 0, WindowMarker, src_pe=src_pe)

    fault = transport.install_link_fault
    # a lossy link that stays up for the whole script
    fault(drop_probability=0.3, dst_pe=sink_pe.pe_id, duration=30.0)
    burst(left, 5)
    burst(right, 3)
    punct(left)
    burst(left, 4)
    system.run_for(0.05)

    # latency spike on one link, then a timed partition over both
    fault(extra_latency=0.03, src_pe=left.pe_id, duration=0.2)
    burst(left, 6)
    burst(right, 6)
    system.run_for(0.02)
    fault(partition=True, dst_pe=sink_pe.pe_id, duration=0.15)
    burst(left, 9)
    punct(left)
    burst(right, 2)
    system.run_for(0.4)

    # two overlapping partitions, the newer one healing first
    fault(partition=True, dst_pe=sink_pe.pe_id, duration=0.35)
    burst(left, 4)
    burst(right, 3)
    fault(partition=True, src_pe=left.pe_id, duration=0.3)
    burst(left, 9)
    punct(right)
    burst(right, 5)
    system.run_for(0.3)
    burst(left, 3)
    system.run_for(0.05)
    burst(right, 2)
    system.run_for(0.4)

    # overlapping partitions again, the older one healing first, with the
    # destination crashing and restarting while both are up — and the
    # lossy fault still up: replay copies retry like any unit
    fault(partition=True, src_host=left.host_name, duration=0.25)
    burst(left, 7)
    fault(partition=True, dst_pe=sink_pe.pe_id, duration=0.3)
    burst(left, 5)
    punct(left)
    burst(right, 9)
    system.run_for(0.1)
    sink_pe.crash("wire-golden")
    system.run_for(0.05)
    burst(left, 2)
    burst(right, 2)
    sink_pe.restart()
    burst(right, 3)
    system.run_for(0.1)
    burst(left, 4)
    system.run_for(0.05)
    burst(left, 3)
    burst(right, 3)
    system.run_for(0.5)

    # a crash on open links: copies in flight are condemned, copies sent
    # to the dead process arrive at a stopped PE
    burst(left, 6)
    burst(right, 4)
    sink_pe.crash("wire-golden-2")
    burst(left, 3)
    system.run_for(0.01)
    sink_pe.restart()
    system.run_for(0.5)

    # the reverse link: acks toward ``right`` are held by a partition
    # longer than the ack timeout (the sender retransmits meanwhile),
    # acks in both directions are rolled, then delayed and held by
    # shorter faults
    fault(partition=True, src_pe=sink_pe.pe_id, dst_pe=right.pe_id, duration=0.6)
    fault(drop_probability=0.4, src_pe=sink_pe.pe_id, duration=1.3)
    burst(left, 6)
    burst(right, 6)
    system.run_for(0.6)
    fault(extra_latency=0.02, src_pe=sink_pe.pe_id, dst_pe=left.pe_id, duration=0.3)
    fault(partition=True, src_pe=sink_pe.pe_id, duration=0.2)
    burst(left, 4)
    burst(right, 4)
    system.run_for(0.7)
    system.run_for(1.0)

    fault(drop_probability=0.3, dst_pe=sink_pe.pe_id, duration=0.3)
    burst(left, 10)
    punct(right)
    burst(right, 10)
    system.run_for(0.3)
    burst(left, 2)
    system.run_for(20.0)

    sink = sink_pe.operators["sink"]
    lines = [f"== delivery={delivery} batch_max_size={batch_max_size}"]
    lines += [
        f"{r.src_key} {r.dst_pe_id} {r.op_full_name} {r.port} "
        f"{r.link_seq} {r.time!r} {int(r.redelivery)}"
        for r in records
    ]
    lines += [f"{name}={getattr(transport, name)}" for name in COUNTERS]
    lines.append(f"in_flight={sorted(transport._in_flight.items())}")
    lines.append(f"kernel_events={system.kernel.events_processed}")
    lines.append(f"sink_seen={[t['iter'] for t in sink.seen]}")
    lines.append(f"rng={_rng_hash(transport.rng)} ack_rng={_rng_hash(transport.ack_rng)}")
    return "\n".join(lines) + "\n"


def record_all() -> str:
    return "".join(run_script(d, b) for d in DELIVERIES for b in BATCH_SIZES)


def golden_sections() -> dict:
    sections = {}
    for block in GOLDEN.read_text().split("== ")[1:]:
        header = block.split("\n", 1)[0]
        sections[header] = "== " + block
    return sections


@pytest.mark.parametrize("batch_max_size", BATCH_SIZES)
@pytest.mark.parametrize("delivery", DELIVERIES)
def test_wire_transcript_matches_parent_recorded_golden(delivery, batch_max_size):
    expected = golden_sections()[f"delivery={delivery} batch_max_size={batch_max_size}"]
    assert run_script(delivery, batch_max_size) == expected


def test_script_reaches_every_branch_it_claims():
    """The golden is only a pin if the script actually exercises the wire."""
    sections = golden_sections()

    def counter(section: str, name: str) -> int:
        line = next(l for l in section.splitlines() if l.startswith(name + "="))
        return int(line.split("=", 1)[1])

    for batch in BATCH_SIZES:
        be = sections[f"delivery=best_effort batch_max_size={batch}"]
        assert counter(be, "dropped_by_fault") > 0
        assert counter(be, "dropped_in_flight") > 0
        assert counter(be, "total_dropped") > 0
        eo = sections[f"delivery=exactly_once batch_max_size={batch}"]
        assert counter(eo, "retransmissions") > 0
        assert counter(eo, "duplicates_suppressed") > 0
        assert counter(eo, "replayed") > 0
        assert counter(eo, "acks_dropped") > 0
        assert any(line.endswith(" 1") for line in eo.splitlines()[1:] if " sink " in line)
        alo = sections[f"delivery=at_least_once batch_max_size={batch}"]
        assert counter(alo, "retransmissions") > 0
        assert counter(alo, "total_delivered") >= counter(alo, "total_sent")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(record_all())
    print(f"wrote {GOLDEN} ({len(GOLDEN.read_text().splitlines())} lines)")
