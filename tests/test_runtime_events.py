"""Tests for the runtime event bus (:mod:`repro.runtime.events`): the
publish/subscribe semantics every control-plane notification relies on,
the structural guarantee that no subsystem keeps a callback list of its
own, and the delivery of PE and host failures to orchestrators over it."""

import pytest

from repro import ManagedApplication, Orchestrator, OrcaDescriptor, SystemConfig, SystemS
from repro.chaos import FailHost
from repro.orca.scopes import HostFailureScope, PEFailureScope
from repro.runtime.events import TOPICS, RuntimeEvents
from repro.runtime.pe import PEState
from tests.conftest import make_linear_app
from tests.test_elastic import build_region_app
from tests.test_orca_parallel import RecordingRegionOrca, submit_orca


class TestPublishSubscribe:
    def test_subscribers_run_in_subscription_order(self):
        events = RuntimeEvents()
        calls = []
        events.subscribe(barrier=lambda e: calls.append(("a", e)))
        events.subscribe(barrier=lambda e: calls.append(("b", e)))
        events.subscribe(barrier=lambda e: calls.append(("c", e)))
        events.publish("barrier", 1)
        assert calls == [("a", 1), ("b", 1), ("c", 1)]

    def test_payload_is_passed_positionally(self):
        events = RuntimeEvents()
        seen = []
        events.subscribe(pe_failure=lambda pe, reason: seen.append((pe, reason)))
        events.publish("pe_failure", "pe7", "crash")
        assert seen == [("pe7", "crash")]

    @pytest.mark.parametrize("victim", ["self", "next"])
    def test_detach_during_publish_skips_no_later_subscriber(self, victim):
        events = RuntimeEvents()
        calls = []
        handles = {}

        def first(_):
            calls.append("first")
            handles["first" if victim == "self" else "second"]()

        handles["first"] = events.subscribe(rescale=first)
        handles["second"] = events.subscribe(rescale=lambda _: calls.append("second"))
        events.subscribe(rescale=lambda _: calls.append("third"))
        events.publish("rescale", None)
        # the publish in flight iterates a snapshot: nobody is skipped
        assert calls == ["first", "second", "third"]
        calls.clear()
        events.publish("rescale", None)
        assert calls == (
            ["second", "third"] if victim == "self" else ["first", "third"]
        )

    def test_subscriber_added_during_publish_waits_for_the_next_one(self):
        events = RuntimeEvents()
        calls = []

        def late(_):
            calls.append("late")

        def first(_):
            calls.append("first")
            if len(calls) == 1:
                events.subscribe(injection=late)

        events.subscribe(injection=first)
        events.publish("injection", None)
        assert calls == ["first"]
        events.publish("injection", None)
        assert calls == ["first", "first", "late"]

    def test_detach_twice_is_a_noop(self):
        events = RuntimeEvents()
        keep = events.subscribe(pe_failure=lambda pe, reason: None)
        detach = events.subscribe(pe_failure=print, rescale=print)
        detach()
        detach()
        assert len(events.subscribers["pe_failure"]) == 1
        assert events.subscribers["rescale"] == []
        keep()
        assert events.subscribers["pe_failure"] == []

    def test_unknown_topic_raises_and_registers_nothing(self):
        events = RuntimeEvents()
        with pytest.raises(KeyError, match="checkpoint_commit"):
            events.subscribe(barrier=print, checkpoint_commit=print)
        assert all(events.subscribers[topic] == [] for topic in TOPICS)
        with pytest.raises(KeyError):
            events.publish("no_such_topic")


class TestSystemWiring:
    def test_self_detaching_restart_subscriber_hides_no_one(self, system):
        """A one-shot ``pe_restart`` subscriber (the pattern a recovery
        probe uses) must not make the next subscriber miss the restart."""
        job = system.submit_job(make_linear_app())
        system.run_for(1.0)
        seen = []
        handles = []

        def one_shot(pe):
            seen.append(("one_shot", pe.pe_id))
            handles[0]()

        handles.append(system.events.subscribe(pe_restart=one_shot))
        system.events.subscribe(pe_restart=lambda pe: seen.append(("after", pe.pe_id)))
        pe = job.pes[0]
        pe.crash()
        system.run_for(0.5)
        system.sam.restart_pe(job.job_id, pe.pe_id)
        system.run_for(2.0)
        assert seen == [("one_shot", pe.pe_id), ("after", pe.pe_id)]

    def test_subscribe_and_detach_are_symmetric_across_subsystems(self, system):
        before = {topic: list(subs) for topic, subs in system.events.subscribers.items()}
        detach = system.events.subscribe(
            barrier=print, checkpoint=print, pe_failure=print, injection=print
        )
        grown = sum(len(subs) for subs in system.events.subscribers.values())
        assert grown == sum(len(subs) for subs in before.values()) + 4
        detach()
        assert system.events.subscribers == before


class TestOneMechanism:
    @staticmethod
    def _holds_callbacks(attr, value):
        """A callback list by name, or a dict / list holding a callable."""
        if attr.endswith(("_listeners", "_observers")):
            return True
        if not isinstance(value, (dict, list)):
            return False
        members = value.values() if isinstance(value, dict) else value
        return any(callable(m) and not isinstance(m, type) for m in members)

    def test_no_subsystem_keeps_a_callback_list(self):
        system = SystemS(hosts=12, seed=42)
        submit_orca(system, RecordingRegionOrca(), build_region_app(width=1))
        system.run_for(1.0)
        publishers = {
            "system": system,
            "sam": system.sam,
            "elastic": system.elastic,
            "checkpoints": system.checkpoints,
            "chaos": system.chaos,
            "obs.health": system.obs.health,
        }
        lists = [
            f"{name}.{attr}"
            for name, publisher in publishers.items()
            for attr, value in vars(publisher).items()
            if self._holds_callbacks(attr, value)
        ]
        # the one survivor is the name the frozen benchmark appends to
        assert lists == ["sam.pe_restart_observers"]
        assert system.sam.pe_restart_observers is system.events.subscribers["pe_restart"]

    def test_cancel_orchestrator_restores_every_subscriber_list(self):
        system = SystemS(hosts=12, seed=42)
        before = {topic: list(subs) for topic, subs in system.events.subscribers.items()}
        service = submit_orca(system, RecordingRegionOrca(), build_region_app(width=1))
        system.run_for(1.0)
        assert system.events.subscribers != before
        system.cancel_orchestrator(service.orca_id)
        assert system.events.subscribers == before


class FailureRecorder(Orchestrator):
    """Submits one ``Linear`` job; records each failure delivery and when."""

    def __init__(self):
        super().__init__()
        self.job = None
        self.pe_failures = []
        self.host_failures = []

    def handleOrcaStart(self, context):
        self.orca.register_event_scope(PEFailureScope("pe"))
        self.orca.register_event_scope(HostFailureScope("host"))
        self.job = self.orca.submit_application("Linear")

    def handlePEFailureEvent(self, context, scopes):
        self.pe_failures.append((self.orca.now, context))

    def handleHostFailureEvent(self, context, scopes):
        self.host_failures.append((self.orca.now, context))


def submit_recorder(system, name):
    logic = FailureRecorder()
    app = make_linear_app()
    service = system.submit_orchestrator(
        OrcaDescriptor(
            name=name,
            logic=lambda: logic,
            applications=[ManagedApplication(name=app.name, application=app)],
        )
    )
    return service, logic


class TestFailureDelivery:
    """A failure reaches the orchestrators that should hear it, once, with
    the detection time, epoch and delay of the paper's owner-routed push
    (Sec. 3): the notification delay, then one RPC to the owner."""

    def test_a_pe_crash_reaches_only_its_owner(self):
        system = SystemS(hosts=4, seed=42)
        (_, a), (_, b) = submit_recorder(system, "A"), submit_recorder(system, "B")
        system.run_for(2.0)
        victim = b.job.pes[0]
        victim.crash("test")
        system.run_for(1.0)
        assert a.pe_failures == []
        [(delivered_at, context)] = b.pe_failures
        assert (context.pe_id, context.job_id, context.reason) == (
            victim.pe_id, b.job.job_id, "test"
        )
        assert (context.detection_ts, context.epoch) == (2.0, 1)
        config = system.config
        assert delivered_at == pytest.approx(
            2.0 + config.failure_notification_delay + config.orca_rpc_latency
        )
        # the other owner's crash is its own first epoch; b hears nothing
        a.job.pes[1].crash("test")
        system.run_for(1.0)
        [(_, context)] = a.pe_failures
        assert (context.job_id, context.detection_ts, context.epoch) == (
            a.job.job_id, 3.0, 1
        )
        assert len(b.pe_failures) == 1

    def test_a_host_failure_reaches_each_live_orchestrator_once(self):
        system = SystemS(hosts=4, seed=42)
        (_, a), (_, b) = submit_recorder(system, "A"), submit_recorder(system, "B")
        system.run_for(2.0)
        host = b.job.pes[0].host_name
        system.chaos.inject(FailHost(host=host))
        system.run_for(10.0)
        for logic in (a, b):
            [(_, context)] = logic.host_failures
            assert context.host == host
            # the host's PE failures reach their owners only, sharing its epoch
            assert all(c.job_id == logic.job.job_id for _, c in logic.pe_failures)
            assert {c.epoch for _, c in logic.pe_failures} <= {context.epoch}
        assert b.pe_failures

    def test_nothing_reaches_a_cancelled_orchestrator(self):
        system = SystemS(hosts=4, seed=42)
        (service, a), (_, b) = submit_recorder(system, "A"), submit_recorder(system, "B")
        system.run_for(2.0)
        system.cancel_orchestrator(service.orca_id)
        a.job.pes[0].crash("after cancel")
        system.chaos.inject(FailHost(host=b.job.pes[0].host_name))
        system.run_for(10.0)
        assert a.pe_failures == a.host_failures == []
        assert len(b.host_failures) == 1

    @pytest.mark.parametrize("cancelled", [False, True])
    def test_sam_restarts_a_pe_no_live_orchestrator_owns(self, cancelled):
        system = SystemS(hosts=4, seed=42, config=SystemConfig(auto_restart_pes=True))
        service, logic = submit_recorder(system, "A")
        system.run_for(2.0)
        if cancelled:
            system.cancel_orchestrator(service.orca_id)
        victim = logic.job.pes[0]
        victim.crash("test")
        system.run_for(3.0)
        # a live owner decides (this one does nothing); without one, SAM restarts
        assert (victim.state is PEState.RUNNING) is cancelled
        assert system.sam.restarts_issued == int(cancelled)
        assert len(logic.pe_failures) == int(not cancelled)
