"""Elastic regions, pinned: one seeded script, every state-moving path.

``tests/golden/elastic.txt`` was recorded at the commit *before*
``elastic/controller.py`` was split into protocol / migration / reroute
(PR 16) and must stay byte-identical.  For ``best_effort`` and
``exactly_once`` delivery it holds every :class:`BarrierEvent`,
:class:`RescaleOperation` with its whole :class:`StateMigration` and
:class:`ChannelReroute` the controller produced, and — after every step — the per-channel keyed dicts and
global values and the compiled plan's ``pes`` / ``placement`` /
inter-intra edge split.  Keyed dicts are printed in *stored* order
(re-recorded at PR 22, when ``KeyedState``'s dirty set became
insertion-ordered): the same under every ``PYTHONHASHSEED``.

The script runs a partitioned, checkpointed, two-operator-per-channel
region through: scale-out 2 -> 4; a channel crash (masked: its keys park
at the splitter); a rescale while that channel is masked (its state is
skipped, the keys it owns at the new width are ``keys_lost``); a second
crash, then rehydrating restarts one at a time (unmask releases each
lane); scale-in 4 -> 2 folding global state through a
``global_merge`` hook; a scale-out whose new PEs cannot be placed
(rollback + reinstall at the source); a drain that times out behind a
partitioned link; a scale-in whose new owner died mid-drain and is not
masked yet (``keys_lost``); and the same with a hook that raises after
the install (uninstall, un-lose, reinstall at the surviving sources).

Re-recorded when detour seeding and unmask reclaim were deleted: from
"crash c1" on, keyed state no longer appears on a masked channel's
survivors, the rescale while c1 is masked skips c1 and counts its keys
lost instead of detouring them, the reroute records lost their three key
counters, the ``reclaim`` lines are gone, and every later epoch is lower
by the reclaims that no longer draw one.

Re-record (only when a change *means* to alter elastic behaviour) with
``PYTHONPATH=src python -m tests.test_elastic_golden``.
"""

from __future__ import annotations

import dataclasses
import pathlib

import pytest

from repro import SystemConfig, SystemS
from repro.runtime.host import Host
from repro.spl.application import Application
from repro.spl.library import CallbackSource, KeyedCounter, Sink
from repro.spl.operators import Operator
from repro.spl.parallel import parallel

GOLDEN = pathlib.Path(__file__).parent / "golden" / "elastic.txt"
DELIVERIES = ("best_effort", "exactly_once")
N_KEYS = 24
REGION = "region"


class Tally(Operator):
    """Second chain position: a keyed last-seq map plus a global per-key tally."""

    STATEFUL = True

    def __init__(self, ctx):
        super().__init__(ctx)
        self._last = self.state.keyed("last")
        self._tally = self.state.global_("tally", default=dict)

    def on_tuple(self, tup, port):
        self._last.put(tup["key"], tup["seq"])
        tally = self._tally.value
        tally[tup["key"]] = tally.get(tup["key"], 0) + 1
        self.submit(tup)

    def on_punct(self, punct, port):
        return


def _generate(now, count):
    # a skewed but fully deterministic key sequence over N_KEYS keys
    return [{"key": f"k{(count * count + 3 * count) % N_KEYS}", "seq": count}]


class MergeHook:
    """``global_merge`` hook: sums per-key tallies; can be armed to raise once."""

    def __init__(self):
        self.fail_next = False

    def __call__(self, name, survivor, doomed):
        if self.fail_next:
            self.fail_next = False
            raise RuntimeError("golden: merge hook refused")
        merged = dict(survivor or {})
        for key, n in (doomed or {}).items():
            merged[key] = merged.get(key, 0) + n
        return merged


def region_app(hook: MergeHook) -> Application:
    app = Application("ElasticGolden")
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": _generate, "period": 0.01},
        partition="feed",
    )
    annotation = dict(
        width=2,
        name=REGION,
        partition_by="key",
        max_width=8,
        reorder_grace=0.4,
        global_merge=hook,
    )
    count = g.add_operator(
        "count",
        KeyedCounter,
        params={"key": "key"},
        partition="w",
        parallel=parallel(**annotation),
    )
    tally = g.add_operator(
        "tally", Tally, partition="w", parallel=parallel(**annotation)
    )
    sink = g.add_operator("sink", Sink, params={"record": False}, partition="out")
    g.connect(src.oport(0), count.iport(0))
    g.connect(count.oport(0), tally.iport(0))
    g.connect(tally.oport(0), sink.iport(0))
    return app


def _snapshot(label: str, system: SystemS, job) -> list:
    """Per-channel state and the compiled plan, as lines."""
    plan = job.compiled.parallel_regions[REGION]
    compiled = job.compiled
    lines = [f"-- {label} t={system.now!r} width={plan.width}"]
    for channel, ops in enumerate(plan.channel_ops):
        for position, name in enumerate(ops):
            operator = job.operator_instance(name)
            if operator is None:
                lines.append(f"c{channel}/{position} {name} DOWN")
                continue
            for state_name, keyed in sorted(operator.state.keyed_states().items()):
                lines.append(
                    f"c{channel}/{position} {name} keyed {state_name} {list(keyed.items())}"
                )
            for state_name, gs in sorted(operator.state.global_states().items()):
                lines.append(
                    f"c{channel}/{position} {name} global {state_name} {sorted(gs.value.items())}"
                )
    for pe in compiled.pes:
        lines.append(
            f"pe #{pe.index} ops={pe.operators} pool={pe.host_pool} "
            f"exloc={sorted(pe.host_exlocations)} coloc={sorted(pe.host_colocations)} "
            f"stateful={pe.stateful_ops}"
        )
    lines.append(f"placement={sorted(compiled.placement.items())}")
    lines.append(f"inter={[str(e) for e in compiled.inter_pe_edges]}")
    lines.append(f"intra={[str(e) for e in compiled.intra_pe_edges]}")
    splitter = job.operator_instance(plan.splitter)
    if splitter is not None:
        lines.append(
            f"splitter width={splitter.width} masked={sorted(splitter.masked_channels)}"
        )
    return lines


def _operation_line(op) -> str:
    fields = dataclasses.asdict(op)
    fields["state"] = op.state.value
    migration = fields.pop("migration")
    if migration is not None:
        migration["moves"] = sorted(migration["moves"].items())
    return f"op {fields} migration={migration}"


def run_script(delivery: str) -> str:
    """Drive the script on a fresh system; return its transcript."""
    hook = MergeHook()
    system = SystemS(
        # exactly nine PE slots: the region fits at width 4 (8 PEs), not at 6
        hosts=[Host(f"h{i}", capacity=1) for i in range(9)],
        seed=7,
        config=SystemConfig(delivery=delivery, checkpoint_interval=0.5),
    )
    job = system.sam.submit_job(system.compile(region_app(hook)))
    elastic = system.elastic
    barriers = []
    system.events.subscribe(barrier=barriers.append)
    lines = [f"== delivery={delivery}"]

    def step(label: str, seconds: float) -> None:
        system.run_for(seconds)
        lines.extend(_snapshot(label, system, job))

    def rescale(label: str, width: int, seconds: float = 3.0) -> None:
        elastic.set_channel_width(job, REGION, width)
        step(label, seconds)

    def channel_pe(channel: int):
        return job.pe_of_operator(f"count__c{channel}")

    step("boot", 2.0)
    rescale("scale-out 2->4", 4)

    # channel crash: c1 is masked, its keys park at the splitter
    channel_pe(1).crash("golden")
    step("crash c1", 0.6)
    # rescale while c1 is masked: c1 is skipped, keys it owns at width 3 lost
    rescale("scale-in 4->3 while c1 masked", 3)
    # second channel down, then restarts one at a time, each unmask
    # releasing only its own lane
    channel_pe(0).crash("golden")
    step("crash c0", 0.6)
    system.sam.restart_pe(job.job_id, channel_pe(1).pe_id, rehydrate=True)
    step("restart c1", 2.0)
    system.sam.restart_pe(job.job_id, channel_pe(0).pe_id, rehydrate=True)
    step("restart c0", 2.0)

    rescale("scale-out 3->4", 4)
    rescale("scale-in 4->2 with global_merge", 2)

    # 2 -> 6 needs four more PE slots; three are free: add_pes fails
    rescale("scale-out 2->6 cannot be placed", 6)

    # a partitioned link into c0 holds tuples in flight: the drain times out
    system.config.elastic_drain_timeout = 0.5
    system.transport.install_link_fault(
        partition=True, dst_pe=channel_pe(0).pe_id, duration=1.6
    )
    system.run_for(0.1)
    rescale("scale-out 2->3 drain timeout", 3, seconds=1.5)
    system.config.elastic_drain_timeout = 60.0
    step("healed", 1.5)

    rescale("scale-out 2->4 again", 4)
    # c2 dies mid-drain, before its failure is notified: down but not yet
    # masked at install time, so the keys it would own are lost with it
    elastic.set_channel_width(job, REGION, 3)
    channel_pe(2).crash("golden")
    step("scale-in 4->3 with c2 down unmasked", 3.0)
    system.sam.restart_pe(job.job_id, channel_pe(2).pe_id, rehydrate=True)
    step("restart c2", 2.0)

    rescale("scale-out 3->4 once more", 4)
    # the same again, but the hook raises after the install: installed
    # partitions are pulled back out, lost ones are un-lost, and everything
    # whose source channel survived is reinstalled there
    hook.fail_next = True
    elastic.set_channel_width(job, REGION, 3)
    channel_pe(2).crash("golden")
    step("scale-in 4->3 hook raises", 2.0)

    lines += [f"barrier {dataclasses.asdict(e)}" for e in barriers]
    lines += [_operation_line(op) for op in elastic.history]
    lines += [f"reroute {dataclasses.asdict(r)}" for r in elastic.reroutes]
    return "\n".join(lines) + "\n"


def record_all() -> str:
    return "".join(run_script(delivery) for delivery in DELIVERIES)


def golden_sections() -> dict:
    sections = {}
    for block in GOLDEN.read_text().split("== ")[1:]:
        sections[block.split("\n", 1)[0]] = "== " + block
    return sections


@pytest.mark.parametrize("delivery", DELIVERIES)
def test_elastic_transcript_matches_parent_recorded_golden(delivery):
    assert run_script(delivery) == golden_sections()[f"delivery={delivery}"]


def test_script_reaches_every_path_it_claims():
    """The golden is only a pin if the script actually moves state every way."""
    for delivery in DELIVERIES:
        section = golden_sections()[f"delivery={delivery}"]
        ops = [line for line in section.splitlines() if line.startswith("op ")]
        reroutes = [line for line in section.splitlines() if line.startswith("reroute ")]

        def some(lines, *needles):
            return any(all(needle in line for needle in needles) for line in lines)

        # owner down and masked: the dead channel is skipped, its keys lost
        assert some(ops, "'state': 'completed'", "'skipped_channels': [1]", "'keys_lost': 2")
        assert some(ops, "'state': 'completed'", "'keys_lost': 4")  # owner down, unmasked
        assert some(ops, "'state': 'completed'", "'global_states_merged': 2")
        assert some(ops, "cannot place additional PEs", "'rolled_back': True")
        assert some(ops, "drain did not complete", "migration=None")
        assert some(ops, "merge hook refused", "'rolled_back': True", "'keys_lost': 0")
        assert [line.split("'masked': ")[1][:4] for line in reroutes[:4]] == [
            "True", "True", "Fals", "Fals"  # two down at once, then one at a time
        ]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(record_all())
    print(f"wrote {GOLDEN} ({len(GOLDEN.read_text().splitlines())} lines)")
