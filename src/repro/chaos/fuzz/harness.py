"""The standard stack one fuzz case executes on.

Every fuzz case builds a *fresh* simulated system (so cases are
independent and byte-deterministic per seed), runs one scenario against
the canonical elastic + checkpoint pipeline — a seeded
:class:`~repro.apps.workloads.ChaosFeed` into a partitioned
``KeyedCounter`` parallel region into a probe sink — drains it, scores
it, and judges it against the invariant-oracle suite.

The harness is also where a *deliberately weakened* configuration is
planted for self-tests of the fuzzer: ``torn_commits=True`` arms the
checkpoint service's existing ``commit_fault`` hook permanently, so the
stack claims checkpointed semantics while never committing an epoch —
any crash-with-rehydrate then restarts empty and the state-conservation
oracle must fire.  The CI ``chaos-fuzz`` job proves the search finds
and shrinks exactly that.

Barrier timestamps for the adversarial search come from the runtime
bus — the elastic controller's
:class:`~repro.elastic.controller.BarrierEvent` timeline, checkpoint
commit/torn records, and splitter mask/unmask reroutes — subscribed
live rather than by reaching into three subsystems after the run.

Every case also runs with span tracing enabled by default
(``trace=True``): the outcome carries the run's flight-recorder
timeline (reason ``oracle_violation:<oracles>`` when the oracle suite
fired, so every minimized corpus repro ships with its evidence trail)
and the byte-stable Prometheus export of the run's metrics.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.fuzz.oracles import (
    FifoProbe,
    OracleProfile,
    OracleReport,
    evaluate_oracles,
)
from repro.chaos.scenario import Scenario
from repro.chaos.scorecard import (
    ResilienceScorecard,
    collect_scorecard,
    live_keyed_state,
)

#: labels with this many barrier timestamps at most flow into one
#: outcome (mutation targets); keeps reports compact and deterministic
MAX_BARRIERS = 48


@dataclass(frozen=True)
class FuzzHarnessConfig:
    """One fuzz case's stack configuration.

    Attributes:
        seed: Root seed of the system's random streams.
        hosts: Cluster size.
        width: Initial parallel-region channel width.
        max_width: Region growth ceiling (rescale perturbations).
        n_keys: Feed key-universe size.
        base_rate: Feed tuples per 0.05 s tick.
        feed_seed: Feed's private stream seed.
        warmup: Sim-seconds of steady state before the scenario starts.
        duration: Sim-seconds the scenario window runs; stretched to
            ``scenario.horizon() + recovery_settle`` when a (possibly
            mutated) step lands near the end, so late faults still get
            their recovery inside the run.
        recovery_settle: Seconds past the scenario horizon the feed
            keeps running (covers downtime + restart delay of a
            last-instant flap).
        drain: Sim-seconds after the feed stops (in-flight tuples must
            not masquerade as losses).
        checkpoint_interval: Background checkpoint cadence (0 disables —
            the paper's restart-empty default).
        torn_commits: Plant the weakness: every checkpoint commit torn
            via the service's ``commit_fault`` hook.
        trace: Run with span tracing enabled, so the outcome carries a
            flight-recorder timeline and a Prometheus export.
        batch_max_size: Transport batch size trigger (1 = one-at-a-time
            delivery, the byte-stable corpus default; >1 runs the whole
            case over the batched transport hot path).
        batch_linger: Sim-time linger before a partial batch flushes.
        delivery: Transport delivery guarantee
            (``SystemConfig.delivery``); the derived oracle profile
            tightens or relaxes with it.
        profile: Oracle profile override (None: derived from the
            configuration and scenario by
            :meth:`OracleProfile.for_config`).
    """

    seed: int = 42
    hosts: int = 10
    width: int = 2
    max_width: int = 8
    n_keys: int = 12
    base_rate: int = 2
    feed_seed: int = 5
    warmup: float = 3.0
    duration: float = 10.0
    recovery_settle: float = 4.0
    drain: float = 4.0
    checkpoint_interval: float = 0.25
    torn_commits: bool = False
    trace: bool = True
    batch_max_size: int = 1
    batch_linger: float = 0.0
    delivery: str = "best_effort"
    #: cadence of the live keyed-state probes the oracle suite judges
    #: crash snapshots against right after each recovery
    probe_interval: float = 0.25
    profile: Optional[OracleProfile] = None

    def with_seed(self, seed: int) -> "FuzzHarnessConfig":
        """A copy of this config under a different root seed."""
        return replace(self, seed=seed)

    @classmethod
    def from_overrides(cls, overrides: Dict[str, Any]) -> "FuzzHarnessConfig":
        """Build a config from a corpus entry's ``harness`` mapping.

        Args:
            overrides: Field name -> value (unknown names rejected).

        Returns:
            The configured harness.

        Raises:
            TypeError: An override names no config field.
        """
        return cls(**overrides)


@dataclass
class FuzzOutcome:
    """Everything one executed fuzz case produced.

    Attributes:
        scenario: The scenario that ran (possibly a mutation).
        seed: The case's root seed.
        scorecard: The run's resilience scorecard.
        report: The oracle suite's verdict.
        barriers: ``(label, offset)`` mutation targets mined from the
            run — runtime-barrier instants relative to the scenario
            start, sorted and deduplicated.
        objective: The search's score for this case (higher = worse for
            the stack = more interesting).
        timeline: The run's rendered flight-recorder dump ("" when the
            case ran with ``trace=False``); the dump reason records
            whether the oracle suite fired.
        prometheus: The run's metrics in Prometheus text format ("" when
            untraced) — byte-stable for a fixed (scenario, config).
    """

    scenario: Scenario
    seed: int
    scorecard: ResilienceScorecard
    report: OracleReport
    barriers: Tuple[Tuple[str, float], ...] = ()
    objective: float = 0.0
    timeline: str = ""
    prometheus: str = ""

    @property
    def violations(self):
        """The run's oracle violations (shorthand)."""
        return self.report.violations


def objective_score(
    scorecard: ResilienceScorecard, report: OracleReport
) -> float:
    """The adversarial search's figure of demerit for one run.

    Oracle violations dominate by construction (one violation outweighs
    any latency), then exact losses/duplicates, then state-recovery
    shortfall, unrecovered faults, and finally recovery latency as the
    tie-breaker the search climbs while hunting a real violation.

    Args:
        scorecard: The run's scorecard.
        report: The run's oracle report.

    Returns:
        The (deterministic) objective; higher is worse for the stack.
    """
    return (
        1000.0 * len(report.violations)
        + 10.0 * scorecard.tuples_lost
        + 10.0 * scorecard.duplicates
        + 100.0 * (1.0 - scorecard.state_recovery)
        + 5.0 * scorecard.unrecovered_faults
        + scorecard.max_recovery
        + scorecard.orca_latency_max
    )


def _build_app(feed, width: int, max_width: int):
    """src -> partitioned KeyedCounter region -> sink (the fuzz pipeline)."""
    from repro.spl.application import Application
    from repro.spl.library import CallbackSource, KeyedCounter, Sink
    from repro.spl.parallel import parallel

    app = Application("FuzzBench")
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
            max_width=max_width,
            reorder_grace=1.0,
        ),
    )
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


def _mine_barriers(system) -> Tuple[List[Tuple[str, float]], Any]:
    """Subscribe live to the runtime-barrier events of one fresh system.

    Sources: the elastic controller's rescale phases, checkpoint
    commit/torn attempts, and splitter mask/unmask reroutes.

    Returns:
        ``(mined, detach)``: the list ``(label, absolute time)`` tuples
        accumulate into while the run executes, and the handle that
        unsubscribes afterwards.
    """
    mined: List[Tuple[str, float]] = []
    detach = system.events.subscribe(
        barrier=lambda e: mined.append((f"rescale:{e.phase}", e.time)),
        checkpoint=lambda r: mined.append(
            ("checkpoint:commit" if r.committed else "checkpoint:torn", r.time)
        ),
        reroute=lambda r: mined.append(
            ("reroute:mask" if r.masked else "reroute:unmask", r.time)
        ),
    )
    return mined, detach


def _collect_barriers(
    mined: List[Tuple[str, float]], start: float
) -> Tuple[Tuple[str, float], ...]:
    """Reduce mined barrier instants to the outcome's mutation targets.

    Offsets are relative to the scenario start; pre-start instants are
    dropped, but barriers observed after the last step (recovery and
    drain-phase commits) are kept — faults aimed there are
    interleavings worth exploring, and the harness stretches the run
    window to fit them.
    """
    barriers = sorted(
        {
            (label, round(time - start, 6))
            for label, time in mined
            if time - start >= 0.0
        },
        key=lambda entry: (entry[1], entry[0]),
    )
    return tuple(barriers[:MAX_BARRIERS])


def run_fuzz_case(
    scenario: Scenario, config: FuzzHarnessConfig
) -> FuzzOutcome:
    """Execute one scenario on a fresh stack and judge it.

    Args:
        scenario: The scenario to run (validated by the engine).
        config: The stack configuration.

    Returns:
        The :class:`FuzzOutcome` — byte-deterministic for a fixed
        ``(scenario, config)`` pair: running it twice yields identical
        rendered scorecards and oracle reports.
    """
    from repro import SystemConfig, SystemS
    from repro.apps.workloads import ChaosFeed
    from repro.chaos.perturbations import LinkLoss

    system = SystemS(
        hosts=config.hosts,
        seed=config.seed,
        config=SystemConfig(
            checkpoint_interval=config.checkpoint_interval,
            failure_notification_delay=0.001,
            trace_enabled=config.trace,
            batch_max_size=config.batch_max_size,
            batch_linger=config.batch_linger,
            delivery=config.delivery,
        ),
    )
    if config.torn_commits:
        system.checkpoints.commit_fault = lambda pe: True
    feed = ChaosFeed(
        n_keys=config.n_keys, base_rate=config.base_rate, seed=config.feed_seed
    )
    app = _build_app(feed, config.width, config.max_width)
    job = system.submit_job(app)
    probe = FifoProbe(system.transport)
    mined, detach_barriers = _mine_barriers(system)

    # Periodic live keyed-state probes: the state-conservation oracle
    # judges each crash snapshot at the first probe after its recovery,
    # before reset counters can recount their way past the loss.
    duration = max(
        config.duration, scenario.horizon() + config.recovery_settle
    )
    state_probes: List[Tuple[float, Dict[str, Dict[Any, Any]]]] = []
    probe_end = config.warmup + duration + config.drain

    def take_state_probe() -> None:
        plan_now = job.compiled.parallel_regions["region"]
        live = live_keyed_state(
            job, [op for ops in plan_now.channel_ops for op in ops]
        )
        state_probes.append((system.now, copy.deepcopy(live)))
        if system.now < probe_end:
            system.kernel.schedule(
                config.probe_interval, take_state_probe, label="fuzz-probe"
            )

    system.kernel.schedule(
        config.warmup, take_state_probe, label="fuzz-probe"
    )
    system.run_for(config.warmup)
    run = system.chaos.run_scenario(scenario, job=job, feed=feed)
    system.run_for(duration)
    feed.set_rate_factor(0.0)
    system.run_for(config.drain)

    sink_op = job.operator_instance("sink")
    seqs = [t["seq"] for t in sink_op.seen]
    sink_counts = [(t["key"], t["count"]) for t in sink_op.seen]
    plan = job.compiled.parallel_regions["region"]
    final_state = live_keyed_state(
        job, [op for ops in plan.channel_ops for op in ops]
    )
    scorecard = collect_scorecard(
        system, run, config.seed, seqs, feed.emitted, final_state=final_state
    )
    profile = config.profile
    if profile is None:
        lossless = not any(
            isinstance(s.perturbation, LinkLoss) for s in scenario.steps
        )
        profile = OracleProfile.for_config(
            checkpointed=config.checkpoint_interval > 0.0,
            lossless_network=lossless,
            delivery=config.delivery,
        )
    report = evaluate_oracles(
        system,
        run,
        scorecard,
        profile,
        fifo_probe=probe,
        state_probes=state_probes,
        sink_counts=sink_counts,
    )
    probe.detach()
    detach_barriers()
    timeline = ""
    prometheus = ""
    if config.trace:
        # every traced case ships its evidence trail; an oracle violation
        # names the tripped oracles in the dump reason (the auto-dump the
        # corpus entries reference)
        reason = "fuzz_case_complete"
        if not report.ok:
            tripped = ",".join(sorted({v.oracle for v in report.violations}))
            reason = f"oracle_violation:{tripped}"
        dump = system.obs.flight.dump(reason, system.now, job_id=job.job_id)
        timeline = dump.render()
        prometheus = system.obs.render_prometheus()
    return FuzzOutcome(
        scenario=scenario,
        seed=config.seed,
        scorecard=scorecard,
        report=report,
        barriers=_collect_barriers(mined, run.started_at),
        objective=objective_score(scorecard, report),
        timeline=timeline,
        prometheus=prometheus,
    )
