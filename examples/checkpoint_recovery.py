#!/usr/bin/env python
"""Periodic checkpointing & crash recovery walkthrough.

A keyed counter runs inside a partitioned parallel region, with
exactly-once delivery, while the background checkpoint service snapshots
its state every half second of simulated time (incremental: only dirty
keys re-serialize).  Mid-stream we crash the PE of one channel and watch
the full recovery cycle:

1. the splitter masks the dead channel (``channel_rerouted`` event): a
   key has one owner channel, so the dead channel's keyed tuples *park*
   at the splitter while the other channel's keys flow on;
2. ``restart_pe(rehydrate=True)`` rehydrates the PE from the latest
   committed epoch (a crash on the seed semantics would restart empty)
   and replays what it had processed since, so its state is the state at
   the crash;
3. at unmask (``channel_rerouted`` again) the parked tuples follow the
   replay, in arrival order: every key's count continues exactly.

An orchestrator subscribed to a ``CheckpointScope`` and a
``ParallelRegionScope`` narrates the events as they happen.

See docs/state-and-recovery.md for the machinery.

Run:  python examples/checkpoint_recovery.py
"""

from repro import ManagedApplication, Orchestrator, OrcaDescriptor, SystemS
from repro.orca.scopes import CheckpointScope, ParallelRegionScope
from repro.runtime.system import SystemConfig
from repro.spl.application import Application
from repro.spl.library import CallbackSource, KeyedCounter, Sink
from repro.spl.parallel import parallel

N_KEYS = 8


def build_application() -> Application:
    app = Application("CheckpointDemo")
    g = app.graph

    def generate(now, count):
        return [{"key": f"k{count % N_KEYS}", "seq": count}]

    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": generate, "period": 0.05},
        partition="feed",
    )
    work = g.add_operator(
        "work",
        KeyedCounter,
        params={"key": "key"},
        parallel=parallel(width=2, name="region", partition_by="key"),
    )
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


class CheckpointNarrator(Orchestrator):
    """Logs every checkpoint/recovery event of the managed job."""

    def __init__(self):
        super().__init__()
        self.job_id = None
        self.commits = 0

    def handleOrcaStart(self, context):
        self.orca.register_event_scope(CheckpointScope("state"))
        self.orca.register_event_scope(ParallelRegionScope("region"))
        self.job_id = self.orca.submit_application("CheckpointDemo").job_id

    def handleCheckpointCommittedEvent(self, context, scopes):
        self.commits += 1
        if self.commits <= 3 or self.commits % 10 == 0:
            print(
                f"  t={context.time:6.2f}  checkpoint_committed epoch "
                f"{context.epoch} pe={context.pe_id} "
                f"(dirty {context.keys_dirty}/{context.keys_total} keys, "
                f"{context.bytes_written} B)"
            )

    def handleChannelReroutedEvent(self, context, scopes):
        state = "masked" if context.masked else "unmasked"
        print(
            f"  t={context.time:6.2f}  channel_rerouted: channel "
            f"{context.channel} {state} ({context.reason})"
        )

    def handleRehydrateSkippedEvent(self, context, scopes):
        print(
            f"  t={context.time:6.2f}  rehydrate_skipped: {context.pe_id} "
            "restarted EMPTY (nothing restorable)"
        )


def counts_of(job, op_name):
    instance = job.operator_instance(op_name)
    if instance is None:
        return {}
    return dict(instance.state.keyed("counts").items())


def main() -> None:
    system = SystemS(
        hosts=10,
        seed=42,
        config=SystemConfig(checkpoint_interval=0.5, delivery="exactly_once"),
    )
    service = system.submit_orchestrator(
        OrcaDescriptor(
            name="Narrator",
            logic=CheckpointNarrator,
            applications=[
                ManagedApplication(
                    name="CheckpointDemo", application=build_application()
                )
            ],
        )
    )

    print("running 5 s with checkpointing every 0.5 s ...")
    system.run_for(5.0)
    job = service.jobs[service.logic.job_id]
    before = counts_of(job, "work__c1")
    print(f"\nchannel 1 keyed counts before the crash: {before}")

    pe = job.pe_of_operator("work__c1")
    print(f"\ncrashing {pe.pe_id} (channel 1) mid-stream ...")
    pe.crash("demo")
    system.run_for(1.0)  # channel 1's keys wait at the splitter
    splitter = job.operator_instance("region__split")
    print(
        f"while masked, {splitter.pending_tuples()} of channel 1's tuples are "
        "parked at the splitter; channel 0 holds none of its keys: "
        f"{not set(counts_of(job, 'work__c0')) & set(before)}"
    )

    print("\nrestarting with rehydrate=True ...")
    service.restart_pe(pe.pe_id, rehydrate=True)
    system.run_for(2.0)
    report = pe.last_restore
    print(
        f"restore report: source={report.source!r} epoch={report.epoch} "
        f"ops={list(report.restored_ops)}"
    )
    after = counts_of(job, "work__c1")
    print(f"channel 1 keyed counts after recovery:  {after}")
    regressed = [k for k, v in before.items() if after.get(k, 0) < v]
    print(f"keys that lost progress: {regressed or 'none'}")
    counts = {}
    for t in job.operator_instance("sink").seen:
        counts.setdefault(t["key"], []).append(t["count"])
    broken = [k for k, seq in counts.items() if seq != list(range(1, len(seq) + 1))]
    print(f"keys whose emitted counts are not 1, 2, 3, ...: {broken or 'none'}")

    status = service.checkpoint_status(service.logic.job_id)
    print("\ncheckpoint status (newest committed epoch per PE):")
    for pe_id, info in sorted(status.items()):
        print(
            f"  {pe_id}: epoch {info['epoch']} committed at "
            f"t={info['committed_at']:.2f} (age {info['age']:.2f} s)"
        )


if __name__ == "__main__":
    main()
