"""Invariant-oracle suite tests: profile conditioning (no false
positives on restart-empty stacks — the PR 4 failover semantics), the
FIFO probe and its transport regression, the new barrier/attempt
instrumentation taps, and the all-channels-down race the fuzzer's
state-conservation oracle flushed out."""

from __future__ import annotations

import pytest

from repro import SystemConfig, SystemS
from repro.apps.workloads import ChaosFeed
from repro.chaos import LinkLoss, PEFlap, Scenario
from repro.chaos.fuzz import (
    FifoProbe,
    FuzzHarnessConfig,
    OracleProfile,
    run_fuzz_case,
)
from repro.elastic.controller import ChannelReroute
from repro.runtime.transport import DeliveryRecord
from repro.spl.application import Application
from repro.spl.library import CallbackSource, KeyedCounter, Sink
from repro.spl.parallel import parallel


def build_region_app(feed, width=2):
    app = Application("OracleApp")
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


# ---------------------------------------------------------------------------
# profile conditioning
# ---------------------------------------------------------------------------


class TestProfileConditioning:
    def test_for_config_derivations(self):
        full = OracleProfile.for_config(checkpointed=True)
        assert full.zero_tuple_loss and full.state_recovery_bar is not None
        assert full.checkpoint_liveness

        empty = OracleProfile.for_config(checkpointed=False)
        assert empty.name == "restart_empty"
        assert not empty.zero_tuple_loss
        assert empty.state_recovery_bar is None
        assert not empty.checkpoint_liveness
        assert empty.recovery_required  # flaps must still come back

        lossy = OracleProfile.for_config(checkpointed=True, lossless_network=False)
        assert not lossy.zero_tuple_loss and not lossy.zero_duplicates
        assert lossy.state_recovery_bar is not None

    def test_restart_empty_stack_raises_no_false_positives(self):
        """The PR 4 failover semantics: no checkpoints, flaps restart
        empty and genuinely lose keyed state — the oracle suite, keyed
        off the configuration, must stay green."""
        scenario = Scenario("failover_like").add(
            1.02, PEFlap(operator="work__c0", downtime=1.0, rehydrate=False)
        )
        # the feed stops right after the restart-empty recovery, so the
        # reset counters cannot recount their way past the loss
        outcome = run_fuzz_case(
            scenario,
            FuzzHarnessConfig(checkpoint_interval=0.0, duration=3.2),
        )
        assert outcome.report.profile.name == "restart_empty"
        assert outcome.report.ok, [v.detail for v in outcome.violations]
        # the loss is real (restart-empty recovers nothing) ...
        assert outcome.scorecard.state_recovery < 0.99
        # ... and the exempting oracles say why they did not fire
        assert "state_conservation" in outcome.report.skipped
        assert "checkpoint_liveness" in outcome.report.skipped

    def test_same_run_fails_under_the_checkpointed_profile(self):
        """Forcing the checkpointed profile onto the restart-empty stack
        must violate — proving the conditioning (not luck) is what keeps
        the failover stack green."""
        scenario = Scenario("failover_like").add(
            1.02, PEFlap(operator="work__c0", downtime=1.0, rehydrate=False)
        )
        outcome = run_fuzz_case(
            scenario,
            FuzzHarnessConfig(
                checkpoint_interval=0.0,
                duration=8.0,
                profile=OracleProfile(),
            ),
        )
        assert not outcome.report.ok
        assert "checkpoint_liveness" in {v.oracle for v in outcome.violations}

    def test_clean_checkpointed_run_checks_everything(self):
        scenario = Scenario("clean").add(
            1.02, PEFlap(operator="work__c0", downtime=1.0)
        )
        outcome = run_fuzz_case(scenario, FuzzHarnessConfig(duration=8.0))
        assert outcome.report.ok
        checked = set(outcome.report.checked)
        assert {
            "zero_tuple_loss",
            "no_unaccounted_loss",
            "no_duplicates",
            "state_conservation",
            "checkpoint_liveness",
            "recovery_completeness",
            "epoch_monotonicity",
            "fifo_per_connection",
            "no_phantom_reroutes",
            "no_stuck_rescale",
            "no_step_errors",
        } <= checked
        # report text is deterministic and diff-stable
        assert outcome.report.lines()[0].startswith("oracle profile:")


# ---------------------------------------------------------------------------
# delivery-guarantee profiles: both directions under seeded link loss
# ---------------------------------------------------------------------------


def lossy_scenario():
    """A seeded 30% drop window over every link, healing mid-run."""
    return Scenario("lossy").add(
        1.02, LinkLoss(drop_probability=0.3, duration=2.0)
    )


class TestDeliveryProfiles:
    def test_for_config_delivery_derivations(self):
        eo = OracleProfile.for_config(checkpointed=True, delivery="exactly_once")
        assert eo.name == "exactly_once"
        assert eo.zero_tuple_loss and eo.zero_duplicates
        assert eo.state_recovery_bar == 1.0
        assert eo.loss_forgiveness == "none"
        assert eo.at_crash_conservation
        assert eo.fifo_order
        # the exactly-once promises hold on lossy networks too
        lossy_eo = OracleProfile.for_config(
            checkpointed=True, lossless_network=False, delivery="exactly_once"
        )
        assert lossy_eo.zero_tuple_loss and lossy_eo.loss_forgiveness == "none"

        eo_empty = OracleProfile.for_config(
            checkpointed=False, delivery="exactly_once"
        )
        assert eo_empty.name == "exactly_once_restart_empty"
        assert not eo_empty.zero_tuple_loss  # restart-empty still loses state
        assert eo_empty.zero_duplicates  # but the wire never duplicates

        alo = OracleProfile.for_config(
            checkpointed=True, delivery="at_least_once"
        )
        assert alo.name == "at_least_once"
        assert not alo.zero_duplicates  # duplicates are the mode's contract
        assert not alo.fifo_order  # loss-retransmit races break link FIFO
        assert alo.loss_forgiveness == "buffered"

        alo_empty = OracleProfile.for_config(
            checkpointed=False, delivery="at_least_once"
        )
        assert alo_empty.name == "at_least_once_restart_empty"
        assert not alo_empty.checkpoint_liveness

    def test_exactly_once_asserts_zero_loss_under_link_loss(self):
        """Forward direction: under seeded drops the exactly-once stack
        must genuinely deliver everything — the oracle checks zero loss
        (no lossy-network forgiveness) and would violate on any gap."""
        outcome = run_fuzz_case(
            lossy_scenario(),
            FuzzHarnessConfig(duration=8.0, delivery="exactly_once"),
        )
        assert outcome.report.profile.name == "exactly_once"
        assert outcome.report.ok, [v.detail for v in outcome.violations]
        assert "zero_tuple_loss" in outcome.report.checked
        assert "zero_tuple_loss" not in outcome.report.skipped
        assert outcome.scorecard.tuples_lost == 0
        assert outcome.scorecard.duplicates == 0
        # the drops were real: the sender had to retransmit through them
        assert outcome.scorecard.retransmissions > 0

    def test_at_least_once_recovers_loss_but_tolerates_duplicates(self):
        outcome = run_fuzz_case(
            lossy_scenario(),
            FuzzHarnessConfig(duration=8.0, delivery="at_least_once"),
        )
        assert outcome.report.profile.name == "at_least_once"
        assert outcome.report.ok, [v.detail for v in outcome.violations]
        assert outcome.scorecard.tuples_lost == 0
        assert "no_duplicates" in outcome.report.skipped
        assert "fifo_per_connection" in outcome.report.skipped

    def test_best_effort_link_loss_raises_no_false_positives(self):
        """Reverse direction: the same seeded drops on the best-effort
        stack lose tuples for real — and the lossy-net profile, keyed off
        the configuration, must not flag the by-design loss."""
        outcome = run_fuzz_case(
            lossy_scenario(),
            FuzzHarnessConfig(duration=8.0),
        )
        assert outcome.report.profile.name == "checkpointed_lossy_net"
        assert outcome.report.ok, [v.detail for v in outcome.violations]
        assert outcome.scorecard.tuples_lost > 0  # the loss is real
        assert outcome.scorecard.retransmissions == 0

    def test_exactly_once_crash_judged_at_crash_conservation(self):
        """A crash mid-loss-window: the exactly-once profile judges state
        conservation against the at-crash floor (no restore-epoch
        forgiveness) and still must hold the 1.0 bar."""
        scenario = (
            Scenario("lossy_flap")
            .add(1.02, LinkLoss(drop_probability=0.3, duration=2.0))
            .add(2.02, PEFlap(operator="work__c0", downtime=1.0))
        )
        outcome = run_fuzz_case(
            scenario,
            FuzzHarnessConfig(duration=11.0, delivery="exactly_once"),
        )
        assert outcome.report.ok, [v.detail for v in outcome.violations]
        assert "state_conservation" in outcome.report.checked
        assert "state_conservation" not in outcome.report.skipped
        assert outcome.scorecard.tuples_lost == 0
        assert outcome.scorecard.duplicates == 0


# ---------------------------------------------------------------------------
# per-connection FIFO: probe + transport regression
# ---------------------------------------------------------------------------


class TestFifo:
    def test_probe_flags_reordered_deliveries(self):
        system = SystemS(hosts=2)
        probe = FifoProbe(system.transport)
        record = lambda seq: DeliveryRecord(  # noqa: E731
            src_key="pe_1",
            dst_pe_id="pe_2",
            op_full_name="work",
            port=0,
            link_seq=seq,
            time=0.0,
        )
        probe._on_delivery(record(1))
        probe._on_delivery(record(2))
        probe._on_delivery(record(4))  # gap: fine (drops create gaps)
        assert probe.violations == []
        probe._on_delivery(record(3))  # went backwards: violation
        assert probe.violations == [(("pe_1", "pe_2"), 4, 3)]
        probe.detach()
        assert probe._on_delivery not in system.transport.delivery_taps
        probe.detach()  # idempotent

    def test_probe_reanchors_on_replay_redeliveries(self):
        """An exactly-once restart rewinds a link and re-sends retained
        units: those deliveries go backwards *by design*, so the probe
        re-anchors on them instead of flagging — and keeps checking
        forward from the replayed position."""
        system = SystemS(hosts=2)
        probe = FifoProbe(system.transport)
        record = lambda seq, redelivery=False: DeliveryRecord(  # noqa: E731
            src_key="pe_1",
            dst_pe_id="pe_2",
            op_full_name="work",
            port=0,
            link_seq=seq,
            time=0.0,
            redelivery=redelivery,
        )
        probe._on_delivery(record(5))
        probe._on_delivery(record(2, redelivery=True))  # rewound replay
        assert probe.violations == []
        probe._on_delivery(record(3))  # forward from the new anchor: fine
        probe._on_delivery(record(2))  # backwards again, not a replay
        assert probe.violations == [(("pe_1", "pe_2"), 3, 2)]
        probe.detach()

    @staticmethod
    def _overlapping_partitions_run(older_heals_first: bool):
        """Two overlapping timed partitions on one link with staggered
        heals, in either order; returns (probe, sink seqs, feed)."""
        system = SystemS(hosts=4, seed=42)
        feed = ChaosFeed(seed=3, base_rate=2, n_keys=6)
        app = Application("FifoApp")
        g = app.graph
        src = g.add_operator(
            "src",
            CallbackSource,
            params={"generator": feed.generator(), "period": 0.05},
            partition="feed",
        )
        work = g.add_operator("work", KeyedCounter, params={"key": "key"})
        sink = g.add_operator("sink", Sink, partition="out")
        g.connect(src.oport(0), work.iport(0))
        g.connect(work.oport(0), sink.iport(0))
        job = system.submit_job(app)
        probe = FifoProbe(system.transport)
        system.run_for(1.0)
        work_pe = job.pe_of_operator("work")
        # the first heal lands at t = 2.0, the second at t = 2.2
        older_until, newer_until = (2.0, 2.2) if older_heals_first else (2.2, 2.0)
        system.transport.install_link_fault(
            partition=True, dst_pe=work_pe.pe_id, duration=older_until - 1.0
        )
        system.run_for(0.5)  # items pile up behind the older partition
        system.transport.install_link_fault(
            partition=True, dst_pe=work_pe.pe_id, duration=newer_until - 1.5
        )
        system.run_for(0.7)  # both heal; items sent in between wait for both
        feed.set_rate_factor(0.0)
        system.run_for(2.0)
        sink_op = job.operator_instance("sink")
        return probe, [t["seq"] for t in sink_op.seen], feed

    @pytest.mark.parametrize("older_heals_first", [True, False])
    def test_overlapping_partitions_preserve_link_fifo(
        self, older_heals_first
    ):
        """Regression for the reorder the FIFO oracle exposed: with two
        overlapping partitions, *either* may heal first — an item sent
        under both arrives after the later heal, and the link's FIFO
        clamp keeps every later send behind it, or a link delivers later
        sends ahead of earlier ones."""
        probe, seqs, feed = self._overlapping_partitions_run(older_heals_first)
        assert probe.violations == []
        assert seqs == sorted(seqs)  # the keyed stream arrived in order
        assert len(set(seqs)) == feed.emitted  # and nothing was lost


# ---------------------------------------------------------------------------
# instrumentation taps
# ---------------------------------------------------------------------------


class TestBarrierTaps:
    def test_rescale_emits_phase_timeline(self):
        system = SystemS(
            hosts=10, seed=42, config=SystemConfig(checkpoint_interval=0.25)
        )
        feed = ChaosFeed(seed=3, base_rate=2)
        job = system.submit_job(build_region_app(feed))
        seen = []
        system.events.subscribe(barrier=seen.append)
        system.run_for(2.0)
        system.elastic.set_channel_width(job, "region", 4)
        system.run_for(3.0)
        phases = [e.phase for e in seen if e.region == "region"]
        assert phases == ["quiesce", "drain_clean", "migrate", "rewire", "resume"]
        resume = seen[-1]
        assert resume.epoch > 0 and resume.job_id == job.job_id
        times = [e.time for e in seen]
        assert times == sorted(times)

    def test_checkpoint_subscribers_see_torn_records(self):
        system = SystemS(
            hosts=4, seed=42, config=SystemConfig(checkpoint_interval=0.2)
        )
        feed = ChaosFeed(seed=3, base_rate=2)
        system.submit_job(build_region_app(feed))
        attempts = []
        system.events.subscribe(checkpoint=attempts.append)
        system.run_for(1.0)
        assert attempts and all(r.committed for r in attempts)
        system.checkpoints.commit_fault = lambda pe: True
        before = len(attempts)
        system.run_for(1.0)
        system.checkpoints.commit_fault = None
        torn = [r for r in attempts[before:] if not r.committed]
        assert torn  # torn attempts are published too (record.committed False)


# ---------------------------------------------------------------------------
# every channel down at once (found by the state-conservation oracle)
# ---------------------------------------------------------------------------


class TestAllChannelsDown:
    RACE = (
        Scenario("race")
        .add(1.02, PEFlap(operator="work__c0", downtime=1.0))
        .add(1.99, PEFlap(operator="work__c1", downtime=1.0))
    )

    def test_all_channels_down_race_conserves_committed_state(self):
        """Both channels of a width-2 region down at once: each lane parks
        its own keys and each rejoin releases only its own, onto the state
        its checkpoint restored.  (Detour seeding once lost this race: the
        unmask reclaim overwrote rehydrated state with base-less detour
        accruals, counts collapsing 12 -> 1.)"""
        outcome = run_fuzz_case(self.RACE, FuzzHarnessConfig(duration=11.0))
        assert outcome.report.ok, [v.detail for v in outcome.violations]
        # every tuple lost in the all-masked window is crash-accounted
        assert outcome.scorecard.tuples_lost <= outcome.scorecard.accounted_losses

    def test_all_channels_down_race_is_exact_under_exactly_once(self):
        outcome = run_fuzz_case(
            self.RACE, FuzzHarnessConfig(duration=11.0, delivery="exactly_once")
        )
        assert "keyed_counts_exact" in outcome.report.checked
        assert outcome.report.ok, [v.detail for v in outcome.violations]
        assert outcome.scorecard.tuples_lost == outcome.scorecard.duplicates == 0


# ---------------------------------------------------------------------------
# phantom-reroute detection
# ---------------------------------------------------------------------------


class TestPhantomRerouteOracle:
    def test_unmatched_unmask_is_flagged(self):
        scenario = Scenario("clean").add(
            1.02, PEFlap(operator="work__c0", downtime=1.0)
        )
        config = FuzzHarnessConfig(duration=6.0)
        outcome = run_fuzz_case(scenario, config)
        assert outcome.report.ok

        # replay on a live system and plant a phantom unmask in the journal
        from repro.chaos.fuzz.oracles import evaluate_oracles

        system = SystemS(
            hosts=10,
            seed=42,
            config=SystemConfig(
                checkpoint_interval=0.25, failure_notification_delay=0.001
            ),
        )
        feed = ChaosFeed(n_keys=12, base_rate=2, seed=5)
        job = system.submit_job(build_region_app(feed))
        system.run_for(3.0)
        run = system.chaos.run_scenario(
            Scenario("p").add(
                1.02, PEFlap(operator="work__c0", downtime=1.0)
            ),
            job=job,
            feed=feed,
        )
        system.run_for(6.0)
        system.elastic.reroutes.append(
            ChannelReroute(
                job_id=job.job_id,
                region="region",
                channel=1,
                masked=False,  # unmask that no mask preceded
                reason="phantom",
                width=2,
                pe_id="pe_x",
                time=system.now,
            )
        )
        report = evaluate_oracles(
            system, run, outcome.scorecard, OracleProfile()
        )
        assert any(
            v.oracle == "no_phantom_reroutes" for v in report.violations
        )
