"""Resilience scorecards: what one chaos run did to the application.

A :class:`ResilienceScorecard` condenses a scenario run into the numbers
the roadmap asks every robustness claim to stand on:

* **tuple accounting** — expected vs received, exact losses and
  duplicates, judged on the globally contiguous ``seq`` stamped by
  :class:`~repro.apps.workloads.ChaosFeed`;
* **state recovery** — the fraction of keyed state captured at each
  crash that is present in the live operators afterwards (1.0 means
  every key continued from at least its at-crash value);
* **recovery latency** — per-fault crash-to-recovered times, stamped by
  the engine's restart observer;
* **control-plane health** — ORCA events delivered and their queue
  latency (sim time, so deterministic), handler errors;
* **transport accounting** — in-flight drops on crashes and fault drops.

Every field derives from *simulated* time and seeded streams only —
never wall clock — so the rendered scorecard of a seeded run is
byte-identical across repeat executions, which is exactly what the CI
``chaos-smoke`` determinism check diffs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.engine import ScenarioRun
    from repro.obs.health import HealthMonitor
    from repro.orca.service import OrcaService
    from repro.runtime.job import Job
    from repro.runtime.system import SystemS


def tuple_accounting(
    received_seqs: Sequence[int], expected: int
) -> Tuple[int, int, int]:
    """Exact loss/duplicate accounting over contiguous sequence numbers.

    Args:
        received_seqs: Every ``seq`` the sink saw, in arrival order.
        expected: Number of tuples generated (``feed.emitted``).

    Returns:
        ``(distinct_received, lost, duplicates)``.
    """
    distinct = set(received_seqs)
    lost = expected - len(distinct)
    duplicates = len(received_seqs) - len(distinct)
    return len(distinct), lost, duplicates


def _recovery_components(
    at_crash: Dict[Any, Any], final: Dict[Any, Any]
) -> Tuple[float, float]:
    """``(recovered, total)`` weight of one keyed map vs its snapshot."""
    total = 0.0
    recovered = 0.0
    for key, value in at_crash.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            total += 1.0
            recovered += 1.0 if key in final else 0.0
        else:
            total += float(value)
            other = final.get(key, 0)
            if isinstance(other, bool) or not isinstance(other, (int, float)):
                other = float(value)  # type changed: count as present
            recovered += min(float(other), float(value))
    return recovered, total


def state_recovery_fraction(
    at_crash: Dict[Any, Any], final: Dict[Any, Any]
) -> float:
    """How much of a crash-time keyed snapshot survives in live state.

    Numeric values compare by magnitude (``min(final, at_crash)`` counts
    as recovered — monotone counters that kept growing score 1.0);
    non-numeric values count by key presence.

    Args:
        at_crash: ``key -> value`` captured at the instant of the crash.
        final: ``key -> value`` merged from live operators afterwards.

    Returns:
        Recovered fraction in [0, 1]; 1.0 for an empty snapshot.
    """
    recovered, total = _recovery_components(at_crash, final)
    return recovered / total if total else 1.0


def live_keyed_state(
    job: "Job", operator_names: Iterable[str], state_name: Optional[str] = None
) -> Dict[str, Dict[Any, Any]]:
    """Merge the live keyed state of a set of operators, per state name.

    Values are merged *within* each keyed-state name (never across
    states — a ``count`` of 3 and a ``sum`` of 500 under the same key
    are unrelated quantities).  Keys owned by exactly one channel merge
    trivially; if a key appears on several operators (a stale copy left
    on a channel restored after a rescale moved the key),
    numeric values keep the maximum (counters are monotone) and other
    values keep the last seen.

    Args:
        job: The job owning the operators.
        operator_names: Operator full names to scan (e.g. every channel
            instance of a region).
        state_name: Restrict to one keyed state (None: all).

    Returns:
        ``state_name -> {key: value}`` — the same shape crash snapshots
        use, ready for :func:`collect_scorecard`'s ``final_state``.
    """
    merged: Dict[str, Dict[Any, Any]] = {}
    for op_name in operator_names:
        instance = job.operator_instance(op_name)
        if instance is None or not instance.state.in_use:
            continue
        for name, keyed in instance.state.keyed_states().items():
            if state_name is not None and name != state_name:
                continue
            bucket = merged.setdefault(name, {})
            for key, value in keyed.items():
                current = bucket.get(key)
                if (
                    isinstance(current, (int, float))
                    and not isinstance(current, bool)
                    and isinstance(value, (int, float))
                    and not isinstance(value, bool)
                ):
                    bucket[key] = max(current, value)
                else:
                    bucket[key] = value
    return merged


@dataclass
class ResilienceScorecard:
    """The measured outcome of one chaos scenario run.

    All times are simulated seconds; every field is deterministic for a
    fixed seed (see the module docstring).
    """

    scenario: str
    seed: int
    duration: float
    injections: int
    injections_by_kind: Dict[str, int] = field(default_factory=dict)
    noop_injections: int = 0
    step_errors: int = 0
    tuples_expected: int = 0
    tuples_received: int = 0
    tuples_lost: int = 0
    duplicates: int = 0
    state_recovery: float = 1.0
    crash_snapshots: int = 0
    recovery_times: Tuple[float, ...] = ()
    unrecovered_faults: int = 0
    orca_events: int = 0
    orca_latency_mean: float = 0.0
    orca_latency_max: float = 0.0
    orca_handler_errors: int = 0
    dropped_in_flight: int = 0
    dropped_by_fault: int = 0
    #: items discarded because their destination PE was down (per-run delta)
    dropped_at_down_pe: int = 0
    #: items sitting in victim operator buffers at crash instants (those
    #: died with the process — restart-empty semantics, not a bug)
    buffered_at_crash: int = 0
    #: transport delivery guarantee the run executed under; reliable
    #: modes add a "delivery:" line to the render (best_effort keeps the
    #: historical 7-line format byte-identical)
    delivery: str = "best_effort"
    #: reliable modes: wire units re-sent after an ack timeout (per-run delta)
    retransmissions: int = 0
    #: reliable modes: ack events received by senders (per-run delta)
    acks: int = 0
    #: exactly-once: arrivals suppressed by the receiver watermark (per-run
    #: delta)
    duplicates_suppressed: int = 0
    #: exactly-once: units replayed from the buffer after a restart
    #: (per-run delta)
    replayed: int = 0
    #: health plane: SLO alerts fired during the run (None: the caller
    #: did not wire a monitor — the historical render stays byte-identical)
    health_alerts: Optional[int] = None
    #: health plane: alerts that escalated to page severity
    health_pages: int = 0
    #: health plane: worst per-link lag watermark seen at any tick
    peak_link_lag: float = 0.0
    #: health plane: worst per-link in-flight depth seen at any tick
    peak_queue_depth: int = 0
    #: health plane: final bottleneck attribution ("" when calm)
    bottleneck: str = ""

    @property
    def accounted_losses(self) -> int:
        """Ceiling on explainable tuple loss (crash/fault accounting).

        Every lost tuple must be covered by an in-flight condemnation, a
        lossy link fault, a down-PE discard, or a crash-time operator
        buffer — ``tuples_lost`` exceeding this sum means the system lost
        data *without* any crash to blame, which is the fuzzer's
        unaccounted-loss invariant violation.
        """
        return (
            self.dropped_in_flight
            + self.dropped_by_fault
            + self.dropped_at_down_pe
            + self.buffered_at_crash
        )

    @property
    def mean_recovery(self) -> float:
        """Mean crash-to-recovered latency (0.0 with no recoveries)."""
        if not self.recovery_times:
            return 0.0
        return sum(self.recovery_times) / len(self.recovery_times)

    @property
    def max_recovery(self) -> float:
        """Worst crash-to-recovered latency (0.0 with no recoveries)."""
        return max(self.recovery_times, default=0.0)

    def lines(self) -> List[str]:
        """Render the scorecard as deterministic, diff-stable text."""
        by_kind = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(self.injections_by_kind.items())
        )
        recoveries = ", ".join(f"{t:.3f}" for t in self.recovery_times)
        out = [
            f"scenario: {self.scenario} (seed {self.seed}, "
            f"{self.duration:.2f} sim-s)",
            f"injections: {self.injections} [{by_kind}] "
            f"noops={self.noop_injections} errors={self.step_errors}",
            f"tuples: expected={self.tuples_expected} "
            f"received={self.tuples_received} lost={self.tuples_lost} "
            f"duplicates={self.duplicates}",
            f"state recovery: {self.state_recovery * 100:.2f}% "
            f"over {self.crash_snapshots} crash snapshot(s)",
            f"recovery times (s): [{recoveries}] "
            f"mean={self.mean_recovery:.3f} max={self.max_recovery:.3f} "
            f"unrecovered={self.unrecovered_faults}",
            f"orca: events={self.orca_events} "
            f"queue latency mean={self.orca_latency_mean:.4f}s "
            f"max={self.orca_latency_max:.4f}s "
            f"handler errors={self.orca_handler_errors}",
            f"transport: dropped_in_flight={self.dropped_in_flight} "
            f"dropped_by_fault={self.dropped_by_fault} "
            f"dropped_at_down_pe={self.dropped_at_down_pe} "
            f"buffered_at_crash={self.buffered_at_crash}",
        ]
        if self.delivery != "best_effort":
            out.append(
                f"delivery: {self.delivery} "
                f"retransmissions={self.retransmissions} "
                f"acks={self.acks} "
                f"duplicates_suppressed={self.duplicates_suppressed} "
                f"replayed={self.replayed}"
            )
        if self.health_alerts is not None:
            out.append(
                f"health: alerts={self.health_alerts} "
                f"pages={self.health_pages} "
                f"peak_lag={self.peak_link_lag:.6f} "
                f"peak_queue={self.peak_queue_depth} "
                f"bottleneck={self.bottleneck or '-'}"
            )
        return out

    def render(self) -> str:
        """The full scorecard text (newline-terminated)."""
        return "\n".join(self.lines()) + "\n"

    def gauges(self) -> Dict[str, float]:
        """The scorecard as exported gauge values (``repro_chaos_*`` names)."""
        return {
            "repro_chaos_tuples_expected": float(self.tuples_expected),
            "repro_chaos_tuples_lost": float(self.tuples_lost),
            "repro_chaos_duplicates": float(self.duplicates),
            "repro_chaos_state_recovery": self.state_recovery,
            "repro_chaos_mean_recovery": self.mean_recovery,
            "repro_chaos_max_recovery_seconds": self.max_recovery,
            "repro_chaos_orca_latency_max_seconds": self.orca_latency_max,
        }


def collect_scorecard(
    system: "SystemS",
    run: "ScenarioRun",
    seed: int,
    received_seqs: Sequence[int],
    expected: int,
    final_state: Optional[Dict[str, Dict[Any, Any]]] = None,
    orca: Optional["OrcaService"] = None,
    health: Optional["HealthMonitor"] = None,
) -> ResilienceScorecard:
    """Assemble a scorecard from a finished scenario run.

    Args:
        system: The system the run executed on.
        run: The finished :class:`~repro.chaos.engine.ScenarioRun`.
        seed: The run's root seed (recorded for the header).
        received_seqs: Every ``seq`` the probe sink received.
        expected: Tuples generated by the feed (``feed.emitted``).
        final_state: Live keyed state to judge crash snapshots against,
            shaped ``state_name -> {key: value}`` (what
            :func:`live_keyed_state` returns).  None scores every
            captured snapshot as unrecovered.
        orca: Orchestrator whose event-queue statistics to include.
            These are *service-lifetime* numbers (the queue does not
            track per-run baselines); transport and no-op counters, by
            contrast, are reported as per-run deltas.
        health: Health monitor (``system.obs.health``) whose alert and
            peak-pressure summary to include.  None omits the
            ``health:`` line entirely, keeping historical scorecards
            byte-identical.

    Returns:
        The populated :class:`ResilienceScorecard`.
    """
    from repro.chaos.engine import RECOVERABLE_KINDS  # late: import order

    received, lost, duplicates = tuple_accounting(received_seqs, expected)
    by_kind: Dict[str, int] = {}
    recovery_times: List[float] = []
    unrecovered = 0
    fractions: List[float] = []
    buffered_at_crash = 0
    for injection in run.injections:
        by_kind[injection.kind] = by_kind.get(injection.kind, 0) + 1
        buffered_at_crash += injection.detail.get("buffered_at_crash", 0)
        if injection.recovery_time is not None:
            recovery_times.append(injection.recovery_time)
        elif injection.kind in RECOVERABLE_KINDS:
            unrecovered += 1
        snapshot = injection.detail.get("_state_at_crash")
        if snapshot:
            # compare per keyed-state name: identical keys in different
            # states (a count of 3, a sum of 500) are unrelated values
            recovered = total = 0.0
            for state_name, entries in snapshot.items():
                r, t = _recovery_components(
                    entries, (final_state or {}).get(state_name, {})
                )
                recovered += r
                total += t
            fractions.append(recovered / total if total else 1.0)
    # per-run deltas over the run-start baselines: several runs may share
    # one system, and lifetime totals would double-count earlier runs
    base = run.baselines
    scorecard = ResilienceScorecard(
        scenario=run.scenario.name,
        seed=seed,
        duration=system.now - run.started_at,
        injections=len(run.injections),
        injections_by_kind=by_kind,
        noop_injections=len(system.chaos.noops) - base.get("noops", 0),
        step_errors=len(run.errors),
        tuples_expected=expected,
        tuples_received=received,
        tuples_lost=lost,
        duplicates=duplicates,
        state_recovery=(
            sum(fractions) / len(fractions) if fractions else 1.0
        ),
        crash_snapshots=len(fractions),
        recovery_times=tuple(recovery_times),
        unrecovered_faults=unrecovered,
        orca_events=(orca.queue.delivered_count if orca is not None else 0),
        orca_latency_mean=(
            orca.queue_latency_stats().mean if orca is not None else 0.0
        ),
        orca_latency_max=(
            orca.queue_latency_stats().maximum if orca is not None else 0.0
        ),
        orca_handler_errors=(
            len(orca.handler_errors) if orca is not None else 0
        ),
        dropped_in_flight=(
            system.transport.dropped_in_flight
            - base.get("dropped_in_flight", 0)
        ),
        dropped_by_fault=(
            system.transport.dropped_by_fault
            - base.get("dropped_by_fault", 0)
        ),
        dropped_at_down_pe=(
            system.transport.total_dropped - base.get("total_dropped", 0)
        ),
        buffered_at_crash=buffered_at_crash,
        delivery=system.transport.delivery,
        retransmissions=(
            system.transport.retransmissions - base.get("retransmissions", 0)
        ),
        acks=system.transport.acks - base.get("acks", 0),
        duplicates_suppressed=(
            system.transport.duplicates_suppressed
            - base.get("duplicates_suppressed", 0)
        ),
        replayed=system.transport.replayed - base.get("replayed", 0),
        health_alerts=(health.alerts_fired if health is not None else None),
        health_pages=(health.pages_fired if health is not None else 0),
        peak_link_lag=(health.peak_link_lag if health is not None else 0.0),
        peak_queue_depth=(
            health.peak_queue_depth if health is not None else 0
        ),
        bottleneck=(health.peak_bottleneck if health is not None else ""),
    )
    system.chaos.publish_scorecard_gauges(run.scenario.name, scorecard.gauges())
    return scorecard
