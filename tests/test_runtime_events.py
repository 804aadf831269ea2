"""Tests for the runtime event bus (:mod:`repro.runtime.events`): the
publish/subscribe semantics every control-plane notification relies on,
and the structural guarantee that no subsystem keeps a callback list of
its own."""

import pytest

from repro import SystemS
from repro.runtime.events import TOPICS, RuntimeEvents
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
    def test_no_subsystem_keeps_a_callback_list(self):
        system = SystemS(hosts=12, seed=42)
        submit_orca(system, RecordingRegionOrca(), build_region_app(width=1))
        system.run_for(1.0)
        publishers = {
            "sam": system.sam,
            "elastic": system.elastic,
            "checkpoints": system.checkpoints,
            "chaos": system.chaos,
            "obs.health": system.obs.health,
        }
        lists = [
            f"{name}.{attr}"
            for name, publisher in publishers.items()
            for attr in vars(publisher)
            if attr.endswith(("_listeners", "_observers"))
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
