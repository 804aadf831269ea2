"""System-wide invariant oracles for chaos runs.

An oracle is a predicate over a finished
:class:`~repro.chaos.engine.ScenarioRun` (plus its scorecard and the
system it ran on) that must hold for a *correct* stack no matter what
the scenario did.  The suite turns the campaign engine into a property
fuzzer: instead of per-campaign assertions, every run — searched,
mutated, shrunk, or replayed from the corpus — is judged against the
same invariants:

* **no unaccounted loss** — a lost tuple must be explained by crash or
  fault accounting (in-flight condemnation, lossy link, down-PE
  discard, crash-time operator buffer) on *every* stack; unexplained
  loss is a bug regardless of configuration;
* **zero tuple loss** — when nothing was condemned, every tuple arrives
  (promised only by checkpointed stacks on lossless networks);
* **no duplicates** — no ``seq`` is delivered twice;
* **keyed-state conservation** — each crash victim's *committed*
  checkpoint (its restore floor) is live right after its recovery,
  through rehydration and replay (checkpointed stacks only);
* **exact keyed counts** — every key's ``count`` sequence at the sink
  is 1, 2, ..., n: no count emitted from state that missed a tuple or
  saw one twice (checkpointed exactly-once stacks only);
* **checkpoint liveness** — a stack configured to checkpoint actually
  commits epochs during the run;
* **recovery completeness** — every flap-style fault whose victims still
  exist finished recovering;
* **epoch-clock monotonicity** — checkpoint chains are strictly
  increasing per PE and rescale epochs are globally unique;
* **per-connection FIFO** — a :class:`FifoProbe` tapped into the
  transport saw no link deliver items out of send order;
* **no phantom reroutes** — splitter masks and unmasks alternate per
  channel (an unmask without a mask is the PR-2 phantom-reroute bug);
* **no stuck rescale** — no splitter is left quiesced and no rescale is
  still in flight after the run drained;
* **no step errors** — every scenario step applied cleanly.

Whether an invariant *applies* is the :class:`OracleProfile`'s call: a
restart-empty failover stack legitimately loses keyed state, so its
profile simply does not promise conservation — conditioning oracles on
the configuration under test is what keeps the fuzzer's violations
real instead of a pile of false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.scorecard import _recovery_components
from repro.runtime.transport import DeliveryRecord, Transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.engine import ScenarioRun
    from repro.chaos.scorecard import ResilienceScorecard
    from repro.runtime.system import SystemS

#: injection kinds that schedule their own recovery — only these are
#: held to the recovery-completeness oracle (a bare crash_pe/fail_host
#: never promises to come back)
_FLAP_KINDS = frozenset({"pe_flap", "host_flap"})


@dataclass(frozen=True)
class OracleProfile:
    """Which invariants the configuration under test actually promises.

    Attributes:
        name: Profile label (appears in rendered reports).
        zero_tuple_loss: The stack promises no tuple is ever lost.
        zero_duplicates: The stack promises no tuple arrives twice.
        state_recovery_bar: Minimum fraction of each victim's *committed*
            checkpoint (the restore floor captured at crash time) that
            must be live right after its recovery completes, or None when
            the stack makes no state promise (restart-empty semantics,
            the paper's default).  Judging the committed floor — not live
            at-crash state — is deliberate: checkpoint *lag* loses the
            un-committed tail of every crash legitimately, so an at-crash
            bar would hand the fuzzer false positives at adversarial
            times; the committed floor is what the stack actually
            guarantees.  Judging *right after recovery* is equally
            deliberate: monotone counters recount their way past clobbered
            state by end of run.
        recovery_required: Flap-style faults must finish recovering.
        checkpoint_liveness: Commits must actually land during the run
            (a stack configured to checkpoint but never committing an
            epoch is broken even if nothing crashed).
        loss_forgiveness: How the zero-loss oracle treats accounted
            losses.  ``"condemned"`` (the historical best-effort rule)
            skips the check whenever *any* crash/fault accounting is
            nonzero — condemnation is restart-empty semantics, not a
            bug.  ``"buffered"`` forgives only crash-time operator
            buffers (an at-least-once transport recovers every wire
            casualty, but tuples parked inside a dying operator are
            beyond its reach).  ``"none"`` forgives nothing: an
            exactly-once stack replays condemned traffic, so *any*
            missing tuple is a violation no matter what the accounting
            says.
        at_crash_conservation: Judge each victim's *live at-crash*
            keyed snapshot instead of its committed restore floor.
            Only an exactly-once stack can promise this — epoch-aligned
            replay re-processes everything past the restored epoch, so
            checkpoint lag no longer excuses the un-committed tail.
        fifo_order: The transport promises per-connection FIFO.  An
            at-least-once receiver delivers retransmitted copies as
            they arrive, so its profile waives the FIFO probe.
        keyed_counts_exact: Every key's ``count`` sequence at the sink
            is 1..n.  Only a checkpointed exactly-once stack promises
            this: each count is computed from state that saw every
            earlier tuple of its key exactly once, through any crash.
    """

    name: str = "checkpointed"
    zero_tuple_loss: bool = True
    zero_duplicates: bool = True
    state_recovery_bar: Optional[float] = 0.90
    recovery_required: bool = True
    checkpoint_liveness: bool = True
    loss_forgiveness: str = "condemned"
    at_crash_conservation: bool = False
    fifo_order: bool = True
    keyed_counts_exact: bool = False

    @classmethod
    def for_config(
        cls,
        checkpointed: bool,
        lossless_network: bool = True,
        delivery: str = "best_effort",
    ) -> "OracleProfile":
        """Derive the promises from the stack configuration.

        Args:
            checkpointed: The stack runs periodic checkpointing (the
                zero-loss / state-conservation acceptance bar applies).
            lossless_network: The scenario injects no ``LinkLoss``
                faults (losses there are by design, not bugs — ignored
                by the reliable-delivery profiles, which recover them).
            delivery: The transport's delivery guarantee
                (``SystemConfig.delivery``).

        Returns:
            The matching profile: a restart-empty stack promises neither
            zero loss nor state conservation — exactly why the PR 4
            failover campaign must not raise false positives — while a
            checkpointed exactly-once stack promises everything,
            including zero loss on lossy networks and at-crash state
            conservation with no forgiveness path.
        """
        if delivery == "exactly_once":
            if checkpointed:
                return cls(
                    name="exactly_once",
                    zero_tuple_loss=True,
                    zero_duplicates=True,
                    state_recovery_bar=1.0,
                    loss_forgiveness="none",
                    at_crash_conservation=True,
                    keyed_counts_exact=True,
                )
            return cls(
                name="exactly_once_restart_empty",
                zero_tuple_loss=False,
                zero_duplicates=True,
                state_recovery_bar=None,
                checkpoint_liveness=False,
                loss_forgiveness="buffered",
            )
        if delivery == "at_least_once":
            if checkpointed:
                return cls(
                    name="at_least_once",
                    zero_tuple_loss=False,
                    zero_duplicates=False,
                    fifo_order=False,
                    loss_forgiveness="buffered",
                )
            return cls(
                name="at_least_once_restart_empty",
                zero_tuple_loss=False,
                zero_duplicates=False,
                state_recovery_bar=None,
                checkpoint_liveness=False,
                fifo_order=False,
                loss_forgiveness="buffered",
            )
        if not checkpointed:
            return cls(
                name="restart_empty",
                zero_tuple_loss=False,
                zero_duplicates=lossless_network,
                state_recovery_bar=None,
                checkpoint_liveness=False,
            )
        if not lossless_network:
            return cls(
                name="checkpointed_lossy_net",
                zero_tuple_loss=False,
                zero_duplicates=False,
            )
        return cls()

    def override(self, **changes) -> "OracleProfile":
        """A copy with the given fields replaced (corpus-entry overrides)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class OracleViolation:
    """One invariant broken by one run."""

    oracle: str
    detail: str


@dataclass
class OracleReport:
    """The oracle suite's verdict over one finished run.

    Attributes:
        profile: The profile the run was judged under.
        violations: Every broken invariant (empty for a clean run).
        checked: Names of the oracles that applied.
        skipped: Oracle name -> why the profile exempted it.
    """

    profile: OracleProfile
    violations: List[OracleViolation] = field(default_factory=list)
    checked: List[str] = field(default_factory=list)
    skipped: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every applicable invariant held."""
        return not self.violations

    def lines(self) -> List[str]:
        """Render the report as deterministic, diff-stable text."""
        out = [
            f"oracle profile: {self.profile.name} "
            f"(checked={len(self.checked)} skipped={len(self.skipped)})",
        ]
        for name, why in sorted(self.skipped.items()):
            out.append(f"  skipped {name}: {why}")
        if not self.violations:
            out.append("  verdict: all invariants held")
        for violation in self.violations:
            out.append(f"  VIOLATION {violation.oracle}: {violation.detail}")
        return out


class FifoProbe:
    """Transport tap asserting per-connection FIFO delivery.

    Attach before the run starts; the transport stamps every delivery
    with its per-link send index, and any link whose indices ever go
    backwards is a FIFO violation (a fault expiring or flushing
    mid-stream reordered a connection).

    Attributes:
        violations: ``(link, previous_seq, seq)`` for every reordered
            delivery observed.
    """

    def __init__(self, transport: Transport) -> None:
        """Attach to a transport's delivery taps.

        Args:
            transport: The transport to observe.
        """
        self._transport = transport
        self._last: Dict[Tuple[str, str], int] = {}
        self.deliveries = 0
        self.violations: List[Tuple[Tuple[str, str], int, int]] = []
        transport.delivery_taps.append(self._on_delivery)

    def _on_delivery(self, record: DeliveryRecord) -> None:
        link = (record.src_key, record.dst_pe_id)
        self.deliveries += 1
        if record.redelivery:
            # exactly-once crash replay legitimately rewinds a link to
            # its restored watermark and re-walks it in order: re-anchor
            # the monotonicity check instead of flagging the rewind
            self._last[link] = record.link_seq
            return
        last = self._last.get(link, 0)
        if record.link_seq <= last:
            self.violations.append((link, last, record.link_seq))
        else:
            self._last[link] = record.link_seq

    def detach(self) -> None:
        """Stop observing (idempotent)."""
        try:
            self._transport.delivery_taps.remove(self._on_delivery)
        except ValueError:
            pass


#: one timestamped live-keyed-state observation: (sim time, state map)
StateProbe = Tuple[float, Dict[str, Dict[Any, Any]]]


def _post_recovery_fraction(
    snapshot: Dict[str, Dict[Any, Any]],
    recovered_at: float,
    state_probes: Sequence[StateProbe],
) -> Optional[float]:
    """A crash-time snapshot's live fraction at the first probe after
    recovery completed.

    Judging at recovery time (instead of end of run) is what catches
    restored-then-clobbered state on monotone counters: given enough
    runway a reset counter *recounts* past the reference value and
    end-of-run scoring masks the loss — the same trap the PR 4 failover
    benchmark dodges by probing right after the restart.  The snapshot
    judged here is the victim's *committed* restore floor, so ordinary
    checkpoint lag never trips the bar.  A probe in the restart's own
    instant is not "after": the exactly-once replay the restart put on
    the wire has not landed yet.

    Returns None when no probe lands after the recovery.
    """
    for time, live in state_probes:
        if time <= recovered_at:
            continue
        recovered = total = 0.0
        for state_name, entries in snapshot.items():
            part_recovered, part_total = _recovery_components(
                entries, live.get(state_name, {})
            )
            recovered += part_recovered
            total += part_total
        return recovered / total if total else 1.0
    return None


def evaluate_oracles(
    system: "SystemS",
    run: "ScenarioRun",
    scorecard: "ResilienceScorecard",
    profile: OracleProfile,
    fifo_probe: Optional[FifoProbe] = None,
    state_probes: Sequence[StateProbe] = (),
    sink_counts: Sequence[Tuple[Any, int]] = (),
) -> OracleReport:
    """Judge one finished run against every applicable invariant.

    Args:
        system: The system the run executed on (drained: call after the
            feed stopped and the pipeline emptied).
        run: The finished scenario run.
        scorecard: The run's collected scorecard.
        profile: Which invariants this configuration promises.
        fifo_probe: Probe attached before the run, when FIFO order
            should be judged (skipped otherwise).
        state_probes: Periodic live keyed-state observations; when
            given, each crash snapshot is additionally judged at the
            first probe after its recovery completed (see
            :func:`_post_recovery_fraction`).
        sink_counts: ``(key, count)`` of every sink tuple in arrival
            order, judged by the exact-keyed-counts oracle.

    Returns:
        The populated :class:`OracleReport`, violations in oracle order.
    """
    report = OracleReport(profile=profile)

    def check(name: str) -> None:
        report.checked.append(name)

    def skip(name: str, why: str) -> None:
        report.skipped[name] = why

    def violate(name: str, detail: str) -> None:
        report.violations.append(OracleViolation(oracle=name, detail=detail))

    # -- tuple accounting ---------------------------------------------------
    # Unaccounted loss is a bug on EVERY stack: a lost tuple must be
    # explained by crash/fault accounting (in-flight condemnation, lossy
    # link, down-PE discard, or a crash-time operator buffer).
    check("no_unaccounted_loss")
    if scorecard.tuples_lost > scorecard.accounted_losses:
        violate(
            "no_unaccounted_loss",
            f"{scorecard.tuples_lost} tuples lost but only "
            f"{scorecard.accounted_losses} accounted for "
            f"(in_flight={scorecard.dropped_in_flight} "
            f"fault={scorecard.dropped_by_fault} "
            f"down_pe={scorecard.dropped_at_down_pe} "
            f"buffered={scorecard.buffered_at_crash})",
        )
    if not profile.zero_tuple_loss:
        skip("zero_tuple_loss", "profile makes no loss promise")
    elif (
        profile.loss_forgiveness == "condemned"
        and scorecard.accounted_losses > 0
    ):
        # crash-time condemnations are restart-empty semantics, not a
        # bug — the strict zero bar only applies to runs where no crash
        # caught data mid-hop (the campaign timing discipline)
        skip(
            "zero_tuple_loss",
            f"{scorecard.accounted_losses} item(s) condemned by "
            "crash/fault accounting",
        )
    elif (
        profile.loss_forgiveness == "buffered"
        and scorecard.buffered_at_crash > 0
    ):
        skip(
            "zero_tuple_loss",
            f"{scorecard.buffered_at_crash} item(s) died in crash-time "
            "operator buffers",
        )
    else:
        # loss_forgiveness == "none" lands here with any accounting: an
        # exactly-once transport replays condemned traffic, so nothing
        # excuses a missing tuple
        check("zero_tuple_loss")
        if scorecard.tuples_lost != 0:
            violate(
                "zero_tuple_loss",
                f"{scorecard.tuples_lost} of {scorecard.tuples_expected} "
                "tuples lost with nothing condemned",
            )
    if profile.zero_duplicates:
        check("no_duplicates")
        if scorecard.duplicates != 0:
            violate("no_duplicates", f"{scorecard.duplicates} duplicate seqs")
    else:
        skip("no_duplicates", "profile makes no duplicate promise")

    # -- keyed-state conservation -------------------------------------------
    if profile.state_recovery_bar is not None:
        check("state_conservation")
        # Judge each victim's *committed* checkpoint (the restore floor
        # captured at crash time) at the first probe after its recovery:
        # end-of-run scoring lets reset monotone counters recount past
        # the loss, and judging live at-crash state instead would flag
        # ordinary checkpoint lag as a violation.  An exactly-once
        # profile (at_crash_conservation) raises the reference to the
        # live at-crash snapshot — epoch-aligned replay re-processes
        # everything past the restored epoch, so lag is no excuse.
        floor_key = (
            "_state_at_crash"
            if profile.at_crash_conservation
            else "_committed_at_crash"
        )
        reference = (
            "at-crash state"
            if profile.at_crash_conservation
            else "committed checkpoint"
        )
        for injection in run.injections:
            floor = injection.detail.get(floor_key)
            if not floor or injection.recovered_at is None:
                continue
            if injection.detail.get("rehydrate") is False:
                continue  # the scenario asked for a restart-empty flap
            fraction = _post_recovery_fraction(
                floor, injection.recovered_at, state_probes
            )
            if fraction is not None and fraction < profile.state_recovery_bar:
                violate(
                    "state_conservation",
                    f"step {injection.step_index} ({injection.kind} -> "
                    f"{injection.target}): only {fraction:.4f} of the "
                    f"{reference} was live right after recovery "
                    f"(bar {profile.state_recovery_bar:.2f})",
                )
    else:
        skip("state_conservation", "restart-empty semantics (no promise)")

    # -- exact keyed counts -------------------------------------------------
    # A rescale that met a crashed channel drops that channel's keys (the
    # dead channel's crash semantics): their counts restart by design.
    dropped = [
        op.migration
        for op in system.elastic.history
        if op.migration is not None
        and (op.migration.skipped_channels or op.migration.keys_lost)
    ]
    if not profile.keyed_counts_exact:
        skip("keyed_counts_exact", "profile makes no exact-count promise")
    elif dropped:
        skip(
            "keyed_counts_exact",
            f"{len(dropped)} rescale(s) dropped a crashed channel's keyed state",
        )
    else:
        check("keyed_counts_exact")
        last: Dict[Any, int] = {}
        breaks: Dict[Any, Tuple[int, int]] = {}
        for key, count in sink_counts:
            expected = last.get(key, 0) + 1
            if count != expected and key not in breaks:
                breaks[key] = (expected, count)
            last[key] = count
        if breaks:
            key, (expected, count) = next(iter(breaks.items()))  # the first to break
            violate(
                "keyed_counts_exact",
                f"{len(breaks)} key(s) broke their count sequence; key "
                f"{key!r} emitted count {count} where {expected} was due",
            )

    # -- checkpoint liveness ------------------------------------------------
    if profile.checkpoint_liveness:
        check("checkpoint_liveness")
        service = system.checkpoints
        commits = [r for r in service.records if r.committed]
        fault_windows_end = max(
            (
                injection.time + injection.detail.get("duration", 0.0)
                for injection in run.injections
                if injection.kind == "checkpoint_fault"
            ),
            default=run.started_at,
        )
        commit_floor = max(run.started_at, fault_windows_end)
        interval = system.config.checkpoint_interval
        if commit_floor > system.now - 2.0 * max(interval, 0.001):
            skip_reason = "commit-fault window covered the run tail"
            report.checked.remove("checkpoint_liveness")
            skip("checkpoint_liveness", skip_reason)
        elif not any(r.time >= commit_floor for r in commits):
            violate(
                "checkpoint_liveness",
                "checkpointing is configured but no epoch committed "
                f"after t={commit_floor:.2f} "
                f"({len(commits)} commit(s) overall)",
            )
    else:
        skip("checkpoint_liveness", "checkpointing disabled by design")

    # -- recovery completeness ----------------------------------------------
    if profile.recovery_required:
        check("recovery_completeness")
        for injection in run.injections:
            if injection.kind not in _FLAP_KINDS:
                continue
            if injection.recovered_at is not None:
                continue
            # a rescale may remove a crashed channel's PE before its flap
            # restart fires: a victim that no longer exists can never be
            # restarted (the reconfiguration absorbed the crash)
            pe_ids = injection.detail.get("pe_ids", ())
            if pe_ids and all(system.chaos.find_pe(p) is None for p in pe_ids):
                continue
            earliest_recovery = (
                injection.time
                + injection.detail.get("downtime", 0.0)
                + system.config.pe_restart_delay
            )
            if earliest_recovery >= system.now:
                continue  # the recovery could not have completed in-window
            violate(
                "recovery_completeness",
                f"step {injection.step_index} ({injection.kind} -> "
                f"{injection.target}) never finished recovering",
            )
    else:
        skip("recovery_completeness", "profile waives recovery")

    # -- epoch-clock monotonicity -------------------------------------------
    check("epoch_monotonicity")
    store = system.checkpoint_store
    for (job_id, pe_id), chain in sorted(store.all_chains().items()):
        epochs = [entry.epoch for entry in chain]
        if any(b <= a for a, b in zip(epochs, epochs[1:])):
            violate(
                "epoch_monotonicity",
                f"checkpoint chain of ({job_id}, {pe_id}) not strictly "
                f"increasing: {epochs}",
            )
    seen_epochs: Dict[int, str] = {}
    labeled = [
        (op.epoch, f"rescale {op.region}->{op.new_width}")
        for op in system.elastic.history
        if op.epoch > 0
    ]
    for epoch, label in labeled:
        if epoch in seen_epochs:
            violate(
                "epoch_monotonicity",
                f"epoch {epoch} issued twice: {seen_epochs[epoch]} and {label}",
            )
        seen_epochs[epoch] = label
        if epoch > store.epochs.current:
            violate(
                "epoch_monotonicity",
                f"{label} carries epoch {epoch} beyond the clock "
                f"({store.epochs.current})",
            )

    # -- per-connection FIFO ------------------------------------------------
    if not profile.fifo_order:
        skip("fifo_per_connection", "profile makes no FIFO promise")
    elif fifo_probe is not None:
        check("fifo_per_connection")
        for link, last, seq in fifo_probe.violations:
            violate(
                "fifo_per_connection",
                f"link {link[0] or '<ext>'}->{link[1]} delivered send #{seq} "
                f"after #{last}",
            )
    else:
        skip("fifo_per_connection", "no probe attached")

    # -- no phantom reroutes ------------------------------------------------
    check("no_phantom_reroutes")
    masked: Dict[Tuple[str, str, int], bool] = {}
    for reroute in system.elastic.reroutes:
        key = (reroute.job_id, reroute.region, reroute.channel)
        if reroute.masked:
            if masked.get(key):
                violate(
                    "no_phantom_reroutes",
                    f"channel {key} masked twice without an unmask",
                )
            masked[key] = True
        else:
            if not masked.get(key):
                violate(
                    "no_phantom_reroutes",
                    f"channel {key} unmasked without a prior mask",
                )
            masked[key] = False

    # -- no stuck rescale / quiesced splitter -------------------------------
    check("no_stuck_rescale")
    for operation in system.elastic.active_operations():
        violate(
            "no_stuck_rescale",
            f"rescale of {operation.region!r} ({operation.job_id}) still "
            "in flight after drain",
        )
    for job in system.sam.running_jobs():
        for plan in job.compiled.parallel_regions.values():
            splitter = job.operator_instance(plan.splitter)
            if splitter is not None and splitter.is_quiesced:
                violate(
                    "no_stuck_rescale",
                    f"splitter of {plan.name!r} ({job.job_id}) left quiesced",
                )

    # -- no step errors -----------------------------------------------------
    check("no_step_errors")
    for index, error in run.errors:
        violate("no_step_errors", f"step {index} raised: {error}")

    return report
