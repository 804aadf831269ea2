"""The runtime's one control-plane notification mechanism.

:class:`~repro.runtime.system.SystemS` builds one :class:`RuntimeEvents`
first and hands it to every subsystem that announces a state change;
the ORCA service, the obs hub, the chaos engine and the fuzz harness
subscribe to it.  Frequency decides what is published here: control-plane
events (a handful per simulated second) are, per-tuple and per-wire-unit
taps stay None/empty-checked slots on their hot path.  The topic table
(payload, publisher, boot-time subscribers) is in ``docs/architecture.md``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

TOPICS = (
    "barrier", "reroute", "rescale", "checkpoint",
    "pe_failure", "host_failure", "pe_restart", "injection", "health_alert",
)


class RuntimeEvents:
    """Topic -> subscribers, called in subscription order."""

    def __init__(self) -> None:
        self.subscribers: Dict[str, List[Callable[..., None]]] = {
            topic: [] for topic in TOPICS
        }

    def publish(self, topic: str, *payload: Any) -> None:
        """Call every subscriber of ``topic`` with ``payload``.

        Iterates a snapshot: a subscriber that detaches (itself or
        another) mid-publish never makes a later one be skipped, and one
        added mid-publish is first called on the next publish.
        """
        for callback in tuple(self.subscribers[topic]):
            callback(*payload)

    def subscribe(self, **callbacks: Callable[..., None]) -> Callable[[], None]:
        """Register ``topic=callback`` pairs; return their detach handle.

        The handle removes exactly these registrations and is a no-op
        when called again.  An unknown topic raises ``KeyError`` before
        anything is registered.
        """
        for topic in callbacks:
            if topic not in self.subscribers:
                raise KeyError(f"unknown runtime topic {topic!r}; expected one of {TOPICS}")
        for topic, callback in callbacks.items():
            self.subscribers[topic].append(callback)

        def detach() -> None:
            for topic, callback in callbacks.items():
                if callback in self.subscribers[topic]:
                    self.subscribers[topic].remove(callback)
            callbacks.clear()

        return detach
