"""Chaos campaigns: the elastic + checkpoint + failover stacks under
combined fault, network, and load disturbances (the repro.chaos layer).

Five seeded campaigns, each executed **twice** on fresh systems to prove
determinism (the rendered scorecards must be byte-identical):

* ``rolling_channel_outage`` — sequential crash-and-restart of region
  channel PEs; each channel's keyed tuples park at the splitter while
  it is down and its checkpoint rehydrates it, which must keep zero
  tuple loss and >= 99% keyed-state recovery;
* ``gray_network`` — latency waves and short hold-and-flush partitions;
  delays only, so the drained run must account for every tuple;
* ``flash_crowd`` — a 3x input surge with 80% of traffic on two hot
  keys, answered by a live 2 -> 4 rescale mid-surge, loss-free;
* ``torn_checkpoints`` — a commit-fault window racing a channel crash:
  recovery falls back to the last epoch committed before the window and
  still clears the 99% bar;
* ``rolling_host_outage`` — the replica-failover stack (paper Sec. 5.2
  semantics, no checkpoints): the promoted replica's output is
  loss-free across the outage while the crashed replica's restart-empty
  state recovery is honestly < 100% — the contrast the checkpoint
  subsystem exists to close.

Crash instants are placed *between* source ticks (tick grid 0.05 s,
injections at x.x2) so the crash-to-mask window holds no in-flight
tuples — the same discipline as the PR-3 recovery benchmark.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import (
    ManagedApplication,
    Orchestrator,
    OrcaDescriptor,
    SystemConfig,
    SystemS,
)
from repro.apps.orchestrators import FailoverOrca
from repro.apps.workloads import ChaosFeed
from repro.chaos import (
    ResilienceScorecard,
    collect_scorecard,
    flash_crowd,
    gray_network,
    live_keyed_state,
    rolling_channel_outage,
    rolling_host_outage,
    torn_checkpoints,
)
from repro.chaos.fuzz import FifoProbe
from repro.orca.scopes import ChaosScope, CheckpointScope, ParallelRegionScope
from repro.spl.application import Application
from repro.spl.library import CallbackSource, KeyedCounter, Sink
from repro.spl.parallel import parallel

from benchmarks.conftest import emit

SEED = 42
WARMUP = 3.0
N_KEYS = 12


def build_region_app(feed, width=2, name="ChaosBench"):
    app = Application(name)
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": feed.generator(), "period": 0.05},
        partition="feed",
    )
    work = g.add_operator(
        "work",
        KeyedCounter,
        params={"key": "key"},
        parallel=parallel(
            width=width,
            name="region",
            partition_by="key",
            max_width=8,
            reorder_grace=1.0,
        ),
    )
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


class _CampaignOrca(Orchestrator):
    """Chaos-aware orchestrator for the checkpointed campaigns: submits
    the app and subscribes to chaos + region + checkpoint events."""

    def __init__(self):
        super().__init__()
        self.chaos_events: List[Tuple[str, str]] = []
        self.job = None

    def handleOrcaStart(self, context):
        self.orca.registerEventScope(ChaosScope("chaos"))
        self.orca.registerEventScope(ParallelRegionScope("region-events"))
        self.orca.registerEventScope(CheckpointScope("ckpt-events"))
        self.job = self.orca.submit_application("ChaosBench")

    def handleChaosInjectedEvent(self, context, scopes):
        self.chaos_events.append((context.kind, context.target))


# ---------------------------------------------------------------------------
# harness: one checkpointed campaign run
# ---------------------------------------------------------------------------


def run_checkpointed_campaign(
    scenario_builder,
    run_for: float,
    drain: float = 4.0,
    seed: int = SEED,
    batch_max_size: int = 1,
    batch_linger: float = 0.0,
    delivery: str = "best_effort",
) -> Tuple[ResilienceScorecard, Dict]:
    """Build the elastic+checkpoint stack, execute one scenario, score it.

    ``scenario_builder(job)`` receives the running job so presets can
    name live operators/hosts.  The feed is stopped (rate factor 0) and
    the pipeline drained before accounting, so in-flight tuples cannot
    masquerade as losses.  ``batch_max_size > 1`` runs the whole
    campaign over the batched transport hot path; a FIFO probe rides
    along either way and reports into the extras.  ``delivery`` selects
    the transport guarantee (the reliable modes ack, retransmit, and —
    for ``exactly_once`` — replay from committed epochs).
    """
    system = SystemS(
        hosts=10,
        seed=seed,
        config=SystemConfig(
            checkpoint_interval=0.25,
            failure_notification_delay=0.001,
            batch_max_size=batch_max_size,
            batch_linger=batch_linger,
            delivery=delivery,
        ),
    )
    fifo = FifoProbe(system.transport)
    feed = ChaosFeed(n_keys=N_KEYS, base_rate=2, seed=5)
    app = build_region_app(feed)
    logic = _CampaignOrca()
    service = system.submit_orchestrator(
        OrcaDescriptor(
            name="ChaosOrca",
            logic=lambda: logic,
            applications=[ManagedApplication(name=app.name, application=app)],
        )
    )
    system.run_for(WARMUP)
    job = logic.job
    scenario = scenario_builder(job)
    run = system.chaos.run_scenario(scenario, job=job, feed=feed)
    system.run_for(run_for)
    feed.set_rate_factor(0.0)
    system.run_for(drain)
    sink_op = job.operator_instance("sink")
    seqs = [t["seq"] for t in sink_op.seen]
    plan = job.compiled.parallel_regions["region"]
    final_state = live_keyed_state(
        job, [op for ops in plan.channel_ops for op in ops]
    )
    scorecard = collect_scorecard(
        system, run, seed, seqs, feed.emitted, final_state=final_state,
        orca=service,
    )
    fifo.detach()
    extras = {
        "width": plan.width,
        "chaos_events_seen": len(logic.chaos_events),
        "reroutes": len(system.elastic.reroutes),
        "parked": int(job.operator_instance("region__split").metric("nParkedTuples").value),
        "rescales": len(system.elastic.history),
        "fifo_violations": len(fifo.violations),
        # reliable-transport extras (0 on best_effort): link faults hit
        # the ack path too, so a lossy campaign drops acks and the
        # sender must retransmit-and-dedup its way back to exactly-once
        "acks_dropped": system.transport.acks_dropped,
    }
    return scorecard, extras


# ---------------------------------------------------------------------------
# the four checkpoint-enabled campaigns
# ---------------------------------------------------------------------------


def campaign_rolling_channel_outage(seed=SEED, batch_max_size=1,
                                    delivery="best_effort"):
    return run_checkpointed_campaign(
        lambda job: rolling_channel_outage(
            ["work__c0", "work__c1"], start=1.02, stagger=5.0, downtime=1.0
        ),
        run_for=13.0,
        seed=seed,
        batch_max_size=batch_max_size,
        delivery=delivery,
    )


def campaign_gray_network(seed=SEED, batch_max_size=1, delivery="best_effort",
                          loss_probability=0.0):
    """``loss_probability > 0`` adds a seeded drop window to each wave —
    the configuration the reliable-delivery modes exist to survive."""
    return run_checkpointed_campaign(
        lambda job: gray_network(
            start=1.02,
            waves=3,
            every=4.0,
            extra_latency=0.05,
            spike_length=1.5,
            partition_length=0.6,
            loss_probability=loss_probability,
        ),
        run_for=14.0,
        seed=seed,
        batch_max_size=batch_max_size,
        delivery=delivery,
    )


def campaign_flash_crowd(seed=SEED, batch_max_size=1, delivery="best_effort"):
    return run_checkpointed_campaign(
        lambda job: flash_crowd(
            at=1.02,
            factor=3.0,
            duration=6.0,
            hot_fraction=0.8,
            hot_keys=("k0", "k1"),
            rescale_region="region",
            rescale_width=4,
        ),
        run_for=12.0,
        seed=seed,
        batch_max_size=batch_max_size,
        delivery=delivery,
    )


def campaign_torn_checkpoints(seed=SEED, batch_max_size=1,
                              delivery="best_effort"):
    return run_checkpointed_campaign(
        lambda job: torn_checkpoints(
            "work__c0",
            start=1.0,
            fault_window=3.0,
            crash_after=1.02,
            downtime=1.5,
        ),
        run_for=13.0,
        seed=seed,
        batch_max_size=batch_max_size,
        delivery=delivery,
    )


# ---------------------------------------------------------------------------
# the replica-failover campaign (paper semantics: no checkpoints)
# ---------------------------------------------------------------------------

FAILOVER_LIMIT = 720  # tuples per replica feed (18 s at 40 tuples/s)


def build_failover_app(name="ChaosFailover"):
    app = Application(name)
    app.declare_parameter("replica", "0")  # FailoverOrca tags each job
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={
            # per-instance feeds: each replica gets its own identically
            # seeded workload (and a restarted source restarts its own)
            "generator_factory": lambda: ChaosFeed(
                n_keys=N_KEYS, base_rate=2, seed=5
            ).generator(),
            "period": 0.05,
            "limit": FAILOVER_LIMIT,
        },
        partition="feed",
    )
    work = g.add_operator("work", KeyedCounter, params={"key": "key"})
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


def campaign_rolling_host_outage(seed=SEED, batch_max_size=1,
                                 delivery="best_effort"):
    """Host outage under the replica-failover orchestrator.

    The active replica's host dies; FailoverOrca promotes the oldest
    healthy backup and restarts the failed PEs (restart-empty, the
    paper's semantics).  Scored on the *promoted* replica — its output
    must be loss-free across the outage — while the crashed replica's
    restart-empty state recovery is reported as the honest contrast.
    """
    system = SystemS(
        hosts=12,
        seed=seed,
        config=SystemConfig(batch_max_size=batch_max_size, delivery=delivery),
    )
    fifo = FifoProbe(system.transport)
    app = build_failover_app()
    logic = FailoverOrca(app_name=app.name, n_replicas=3)
    service = system.submit_orchestrator(
        OrcaDescriptor(
            name="Failover",
            logic=lambda: logic,
            applications=[ManagedApplication(name=app.name, application=app)],
        )
    )
    system.run_for(WARMUP)
    active_id = logic.active_job_id()
    active_job = service.job(active_id)
    victim_host = active_job.pe_of_operator("work").host_name
    scenario = rolling_host_outage(
        [victim_host], start=1.02, downtime=6.0, rehydrate=False
    )
    run = system.chaos.run_scenario(scenario, job=active_job)
    # Probe the crashed replica's state right after its restart-empty
    # recovery completes: scoring at end-of-run would let the replayed
    # feed *recount* the lost state and mask the loss.
    post_restart_state: Dict = {}
    system.kernel.schedule_at(
        run.step_times[0] + 5.5,
        lambda: post_restart_state.update(live_keyed_state(active_job, ["work"])),
    )
    system.run_for(32.0)  # outage, detection, failover, feeds finish, drain

    promoted_id = logic.failovers[0][2] if logic.failovers else active_id
    promoted_job = service.job(promoted_id)
    sink_op = promoted_job.operator_instance("sink")
    seqs = [t["seq"] for t in sink_op.seen]
    final_state = post_restart_state
    scorecard = collect_scorecard(
        system,
        run,
        seed,
        seqs,
        FAILOVER_LIMIT,
        final_state=final_state,
        orca=service,
    )
    fifo.detach()
    extras = {
        "failovers": len(logic.failovers),
        "promoted": promoted_id,
        "crashed": active_id,
        "fifo_violations": len(fifo.violations),
    }
    return scorecard, extras


# ---------------------------------------------------------------------------
# the benchmark
# ---------------------------------------------------------------------------

CAMPAIGNS = [
    ("rolling_channel_outage", campaign_rolling_channel_outage, True),
    ("gray_network", campaign_gray_network, True),
    ("flash_crowd", campaign_flash_crowd, True),
    ("torn_checkpoints", campaign_torn_checkpoints, True),
    ("rolling_host_outage", campaign_rolling_host_outage, False),
]


def run_all():
    results = {}
    for name, runner, checkpointed in CAMPAIGNS:
        first_card, extras = runner()
        second_card, _ = runner()  # fresh system, same seed
        results[name] = {
            "card": first_card,
            "repeat": second_card,
            "extras": extras,
            "checkpointed": checkpointed,
        }
    return results


def test_chaos_campaigns(results_dir):
    results = run_all()

    lines = []
    for name, result in results.items():
        card = result["card"]
        lines.append(f"===== campaign: {name} =====")
        lines.extend(card.lines())
        lines.append(f"extras: {result['extras']}")
        lines.append(
            "determinism: scorecards byte-identical across repeat runs: "
            f"{card.render() == result['repeat'].render()}"
        )
        lines.append("")
    emit(results_dir, "chaos_campaigns", lines)

    for name, result in results.items():
        card = result["card"]
        # determinism: two fresh runs on the same seed, identical text
        assert card.render() == result["repeat"].render(), name
        assert card.injections > 0, name
        assert card.step_errors == 0, name
        assert card.orca_handler_errors == 0, name
        if result["checkpointed"]:
            # the acceptance bar: zero tuple loss and >= 99% keyed-state
            # recovery for every checkpoint-enabled configuration
            assert card.tuples_lost == 0, name
            assert card.duplicates == 0, name
            assert card.state_recovery >= 0.99, name
            assert card.unrecovered_faults == 0, name

    # campaign-specific shape assertions
    outage = results["rolling_channel_outage"]
    assert outage["extras"]["reroutes"] == 4  # both flaps masked, then unmasked
    assert outage["extras"]["parked"] > 0  # the dead channels' keys waited
    assert outage["card"].recovery_times  # crash-to-recovered measured
    crowd = results["flash_crowd"]
    assert crowd["extras"]["width"] == 4  # the mid-surge rescale landed
    assert crowd["extras"]["rescales"] == 1
    torn = results["torn_checkpoints"]
    assert torn["card"].injections_by_kind.get("checkpoint_fault") == 1
    failover = results["rolling_host_outage"]
    assert failover["extras"]["failovers"] >= 1
    # the promoted replica lost nothing across the outage
    assert failover["card"].tuples_lost == 0
    # restart-empty semantics: the crashed replica's state did NOT fully
    # recover — the contrast the checkpoint subsystem closes
    assert failover["card"].state_recovery < 0.99


def test_chaos_campaigns_batched(results_dir):
    """All five presets stay green over the batched transport hot path.

    ``batch_max_size=8`` (linger 0: flush at the end of each kernel
    instant, so crash instants placed between source ticks observe no
    open batches) with the FIFO probe attached end to end.  The
    checkpointed presets must keep the exact-loss and state-conservation
    bars; every preset must deliver strictly FIFO per connection.
    """
    lines = []
    for name, runner, checkpointed in CAMPAIGNS:
        card, extras = runner(batch_max_size=8)
        lines.append(f"===== campaign: {name} (batch_max_size=8) =====")
        lines.extend(card.lines())
        lines.append(f"extras: {extras}")
        lines.append("")
        assert card.injections > 0, name
        assert card.step_errors == 0, name
        assert card.orca_handler_errors == 0, name
        assert extras["fifo_violations"] == 0, name
        if checkpointed:
            assert card.tuples_lost == 0, name
            assert card.duplicates == 0, name
            assert card.state_recovery >= 0.99, name
            assert card.unrecovered_faults == 0, name
        else:
            # failover preset: the promoted replica is still loss-free
            assert card.tuples_lost == 0, name
    emit(results_dir, "chaos_campaigns_batched", lines)


def test_chaos_smoke_determinism(results_dir):
    """The CI chaos-smoke check: one fast preset, two runs, identical
    scorecards (byte-for-byte)."""
    first_card, extras = campaign_rolling_channel_outage()
    second_card, _ = campaign_rolling_channel_outage()
    assert first_card.render() == second_card.render()
    assert first_card.tuples_lost == 0
    assert first_card.state_recovery >= 0.99
    emit(results_dir, "chaos_smoke", first_card.lines())


# ---------------------------------------------------------------------------
# delivery guarantees: exactly-once presets + the delivery matrix
# ---------------------------------------------------------------------------

EO_CAMPAIGNS = [
    (
        "rolling_channel_outage",
        lambda: campaign_rolling_channel_outage(
            batch_max_size=8, delivery="exactly_once"
        ),
        True,
    ),
    (
        # the gray network turns actively lossy for the reliable run: a
        # seeded drop window rides each wave, and the wire must recover
        # every casualty
        "gray_network",
        lambda: campaign_gray_network(
            batch_max_size=8, delivery="exactly_once", loss_probability=0.25
        ),
        True,
    ),
    (
        "flash_crowd",
        lambda: campaign_flash_crowd(batch_max_size=8, delivery="exactly_once"),
        True,
    ),
    (
        "torn_checkpoints",
        lambda: campaign_torn_checkpoints(
            batch_max_size=8, delivery="exactly_once"
        ),
        True,
    ),
    (
        "rolling_host_outage",
        lambda: campaign_rolling_host_outage(
            batch_max_size=8, delivery="exactly_once"
        ),
        False,
    ),
]


def test_chaos_campaigns_exactly_once(results_dir):
    """All five presets under ``delivery="exactly_once"`` (batched, size
    8), each run twice on fresh systems: byte-identical scorecards, zero
    tuple loss, zero duplicates — with no loss-forgiveness path (the
    scorecard's state-recovery fraction is judged against the at-crash
    snapshots and must hold the full 1.0 bar for the checkpointed
    presets).  Each preset's scorecard is committed as a
    ``<name>.eo.scorecard.txt`` artifact."""
    for name, runner, checkpointed in EO_CAMPAIGNS:
        card, extras = runner()
        repeat, _ = runner()
        assert card.render() == repeat.render(), name
        assert card.delivery == "exactly_once", name
        assert card.injections > 0, name
        assert card.step_errors == 0, name
        assert card.orca_handler_errors == 0, name
        assert extras["fifo_violations"] == 0, name
        # the tightened bar: nothing lost, nothing duplicated — at-crash
        # conservation with no forgiveness, not the best-effort
        # "condemned losses are accounted" escape hatch
        assert card.tuples_lost == 0, name
        assert card.duplicates == 0, name
        if checkpointed:
            assert card.state_recovery == 1.0, name
            assert card.unrecovered_faults == 0, name
        emit(results_dir, f"{name}.eo.scorecard", card.lines())


def test_delivery_matrix(results_dir):
    """The CI delivery-matrix check: one fixed-seed lossy gray-network
    campaign under all three delivery modes — plus a lossy-ack variant
    that doubles the drop probability — each run twice: byte-identical
    scorecards per mode, and the guarantees gate exactly what each mode
    promises (best-effort loses for real, at-least-once recovers the
    losses, exactly-once recovers them without a single duplicate).

    Link faults apply to *both* directions of a link, so every lossy
    row also loses acknowledgements: the reliable rows must retransmit
    through lost acks, and the exactly-once rows must dedup the
    resulting redundant copies without dropping or double-delivering a
    single tuple."""
    lines = []
    cards = {}
    extras_by_mode = {}
    matrix = [
        ("best_effort", 0.25),
        ("at_least_once", 0.25),
        ("exactly_once", 0.25),
        # the lossy-ack variant: at p=0.5 per wave, ack losses (and the
        # retransmit storms they cause) dominate the recovery path
        ("exactly_once@heavy_loss", 0.5),
    ]
    for label, loss in matrix:
        delivery = label.split("@")[0]
        run = lambda: campaign_gray_network(  # noqa: E731
            batch_max_size=8, delivery=delivery, loss_probability=loss
        )
        card, extras = run()
        repeat, _ = run()
        assert card.render() == repeat.render(), label
        assert card.step_errors == 0, label
        cards[label] = card
        extras_by_mode[label] = extras
        lines.append(f"===== delivery: {label} =====")
        lines.extend(card.lines())
        lines.append(f"extras: {extras}")
        lines.append("")

    assert cards["best_effort"].tuples_lost > 0  # the drops are real
    assert cards["best_effort"].retransmissions == 0
    assert cards["at_least_once"].tuples_lost == 0
    assert cards["at_least_once"].retransmissions > 0
    assert cards["exactly_once"].tuples_lost == 0  # the zero-loss gate
    assert cards["exactly_once"].duplicates == 0
    assert cards["exactly_once"].retransmissions > 0
    # the lossy-ack oracles: acks really were lost, and exactly-once
    # still converged to zero loss and zero duplicates
    for label in ("exactly_once", "exactly_once@heavy_loss"):
        assert extras_by_mode[label]["acks_dropped"] > 0, label
        assert cards[label].tuples_lost == 0, label
        assert cards[label].duplicates == 0, label
    emit(results_dir, "delivery_matrix", lines)
