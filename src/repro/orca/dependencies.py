"""Application sets and dependencies (Sec. 4.4 of the paper).

Multiple applications managed by one orchestrator can be tied together by
explicit, unidirectional dependency relations.  The ORCA service then

* **automatically submits** applications required by other applications —
  dependency-free apps first, then the app whose *uptime requirements*
  (seconds its dependencies must have been running) are satisfied soonest;
* **automatically cancels** applications no longer in use — except when an
  application is not garbage-collectable, is still feeding another running
  application, or was explicitly submitted by the ORCA logic; garbage
  collection honours per-application timeouts, and an application enqueued
  for cancellation is rescued if a new submission needs it again;
* **rejects** dependency registrations that would create a cycle, and
  cancellation requests that would starve a running dependent.

All of this runs as deterministic state machines over the simulation
kernel (the paper's "application submission thread" and "cancellation
thread").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.errors import (
    DependencyCycleError,
    DependencyError,
    StarvationError,
)
from repro.sim.kernel import ScheduledEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.orca.service import OrcaService


@dataclass
class AppConfig:
    """Application configuration (the five items of Sec. 4.4)."""

    config_id: str
    app_name: str
    params: Dict[str, str] = field(default_factory=dict)
    garbage_collectable: bool = False
    gc_timeout: float = 0.0


@dataclass
class _SubmissionRecord:
    """Bookkeeping for a submitted configuration."""

    job_id: str
    submit_time: float
    explicit: bool


class DependencyManager:
    """Dependency graph + automatic submission / garbage collection."""

    def __init__(self, service: "OrcaService") -> None:
        self._service = service
        self._configs: Dict[str, AppConfig] = {}
        #: dependent -> {dependency: uptime requirement seconds}
        self._edges: Dict[str, Dict[str, float]] = {}
        #: dependency -> set of dependents
        self._redges: Dict[str, Set[str]] = {}
        self._records: Dict[str, _SubmissionRecord] = {}
        self._gc_pending: Dict[str, ScheduledEvent] = {}
        #: insertion order for deterministic tie-breaking
        self._order: Dict[str, int] = {}

    # -- configuration ---------------------------------------------------------

    def create_app_config(
        self,
        config_id: str,
        app_name: str,
        params: Optional[Dict[str, str]] = None,
        garbage_collectable: bool = False,
        gc_timeout: float = 0.0,
    ) -> AppConfig:
        if config_id in self._configs:
            raise DependencyError(f"app config {config_id!r} already exists")
        if not self._service.descriptor.manages(app_name):
            raise DependencyError(
                f"application {app_name!r} is not managed by this orchestrator"
            )
        if gc_timeout < 0:
            raise DependencyError("gc_timeout must be >= 0")
        config = AppConfig(
            config_id=config_id,
            app_name=app_name,
            params=dict(params or {}),
            garbage_collectable=garbage_collectable,
            gc_timeout=gc_timeout,
        )
        self._configs[config_id] = config
        self._order[config_id] = len(self._order)
        return config

    def config(self, config_id: str) -> AppConfig:
        try:
            return self._configs[config_id]
        except KeyError:
            raise DependencyError(f"unknown app config {config_id!r}") from None

    def register_dependency(
        self, dependent_id: str, dependency_id: str, uptime_requirement: float = 0.0
    ) -> None:
        """Declare that ``dependent`` needs ``dependency`` running first.

        ``uptime_requirement`` delays the dependent's submission by this
        many seconds after the dependency was submitted.  Raises
        :class:`DependencyCycleError` if the edge would create a cycle.
        """
        self.config(dependent_id)
        self.config(dependency_id)
        if dependent_id == dependency_id:
            raise DependencyCycleError(f"{dependent_id!r} cannot depend on itself")
        if uptime_requirement < 0:
            raise DependencyError("uptime requirement must be >= 0")
        if self._reaches(dependency_id, dependent_id):
            raise DependencyCycleError(
                f"dependency {dependent_id!r} -> {dependency_id!r} creates a cycle"
            )
        self._edges.setdefault(dependent_id, {})[dependency_id] = uptime_requirement
        self._redges.setdefault(dependency_id, set()).add(dependent_id)

    def _reaches(self, start: str, goal: str) -> bool:
        """DFS along dependency edges: can ``start`` reach ``goal``?"""
        stack = [start]
        seen: Set[str] = set()
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._edges.get(node, {}))
        return False

    # -- queries ---------------------------------------------------------------------

    def dependencies_of(self, config_id: str) -> Dict[str, float]:
        return dict(self._edges.get(config_id, {}))

    def dependents_of(self, config_id: str) -> Set[str]:
        return set(self._redges.get(config_id, set()))

    def transitive_dependencies(self, config_id: str) -> Set[str]:
        """All configs the given one depends on, directly or indirectly."""
        result: Set[str] = set()
        stack = list(self._edges.get(config_id, {}))
        while stack:
            node = stack.pop()
            if node in result:
                continue
            result.add(node)
            stack.extend(self._edges.get(node, {}))
        return result

    def is_running(self, config_id: str) -> bool:
        record = self._records.get(config_id)
        if record is None:
            return False
        return self._service.job_is_running(record.job_id)

    def job_id_of(self, config_id: str) -> Optional[str]:
        record = self._records.get(config_id)
        return record.job_id if record else None

    def submit_time_of(self, config_id: str) -> Optional[float]:
        record = self._records.get(config_id)
        return record.submit_time if record else None

    def gc_queue(self) -> List[str]:
        """Configs currently enqueued for garbage collection (tests)."""
        return sorted(self._gc_pending)

    # -- start -------------------------------------------------------------------------

    def start(self, config_id: str) -> None:
        """Request an application (and its dependency closure) to start.

        Mirrors the submission-thread algorithm of Sec. 4.4: snapshot the
        graph, prune everything not connected to the target, submit
        dependency-free applications, then repeatedly pick the satisfied
        application with the lowest remaining sleep time.
        """
        target = self.config(config_id)
        self._rescue_from_gc(config_id)
        if self.is_running(config_id):
            # Already running: just upgrade to explicit.
            self._records[config_id].explicit = True
            return
        # Snapshot: target + all its transitive dependencies.
        nodes = {config_id} | self.transitive_dependencies(config_id)
        for node in nodes:
            self._rescue_from_gc(node)
        thread = _SubmissionThread(self, nodes=nodes, explicit_target=config_id)
        thread.step()

    def _rescue_from_gc(self, config_id: str) -> None:
        """Remove a config from the cancellation queue (Sec. 4.4)."""
        pending = self._gc_pending.pop(config_id, None)
        if pending is not None:
            pending.cancel()

    def _submit_now(self, config_id: str, explicit: bool) -> None:
        config = self._configs[config_id]
        job = self._service._submit_managed(
            config.app_name, params=config.params, config_id=config_id, explicit=explicit
        )
        self._records[config_id] = _SubmissionRecord(
            job_id=job.job_id,
            submit_time=self._service.now,
            explicit=explicit,
        )

    # -- cancel ------------------------------------------------------------------------

    def cancel(self, config_id: str) -> None:
        """Request cancellation; garbage-collect now-unused dependencies.

        Raises :class:`StarvationError` if the application is feeding
        another *running* application (Sec. 4.4's consistency guard); the
        error names the first such dependent registered.
        """
        self.config(config_id)
        record = self._records.get(config_id)
        if record is None or not self._service.job_is_running(record.job_id):
            raise DependencyError(f"app config {config_id!r} is not running")
        for dependent in sorted(
            self.dependents_of(config_id), key=lambda c: self._order[c]
        ):
            if self.is_running(dependent):
                raise StarvationError(
                    f"cannot cancel {config_id!r}: running application "
                    f"{dependent!r} depends on it"
                )
        self._service._cancel_managed(
            record.job_id, config_id=config_id, garbage_collected=False
        )
        del self._records[config_id]
        # Cancellation thread: consider the apps that fed the cancelled one.
        self._schedule_gc_checks(self.dependencies_of(config_id))

    def _schedule_gc_checks(self, candidate_ids) -> None:
        for candidate_id in sorted(candidate_ids, key=lambda c: self._order[c]):
            if candidate_id in self._gc_pending:
                continue
            config = self._configs[candidate_id]
            if not self._gc_eligible(candidate_id):
                continue
            handle = self._service.kernel.schedule(
                config.gc_timeout,
                self._gc_fire,
                candidate_id,
                label=f"gc-{candidate_id}",
            )
            self._gc_pending[candidate_id] = handle

    def _gc_eligible(self, config_id: str) -> bool:
        """The three keep-alive rules of Sec. 4.4."""
        config = self._configs[config_id]
        record = self._records.get(config_id)
        if record is None or not self._service.job_is_running(record.job_id):
            return False  # nothing to collect
        if not config.garbage_collectable:
            return False  # rule (i)
        for dependent in self.dependents_of(config_id):
            if self.is_running(dependent):
                return False  # rule (ii): still in use
        if record.explicit:
            return False  # rule (iii): explicitly submitted
        return True

    def _gc_fire(self, config_id: str) -> None:
        self._gc_pending.pop(config_id, None)
        if not self._gc_eligible(config_id):
            return
        record = self._records.pop(config_id)
        self._service._cancel_managed(
            record.job_id, config_id=config_id, garbage_collected=True
        )
        # Cascade: the collected app's own dependencies may now be unused.
        self._schedule_gc_checks(self.dependencies_of(config_id))


class _SubmissionThread:
    """The paper's "application submission thread" as a DES state machine."""

    def __init__(
        self, manager: DependencyManager, nodes: Set[str], explicit_target: str
    ) -> None:
        self.manager = manager
        self.nodes = nodes
        self.explicit_target = explicit_target

    def step(self) -> None:
        manager = self.manager
        service = manager._service
        now = service.now
        # Submit every dependency-free, not-yet-running node right away,
        # then look for the next target among satisfied nodes.
        progressed = True
        while progressed:
            progressed = False
            for node in self._ordered_pending():
                deps = manager.dependencies_of(node)
                if deps:
                    continue
                manager._submit_now(node, explicit=(node == self.explicit_target))
                progressed = True
        pending = self._ordered_pending()
        if not pending:
            return  # everything (including the target) is submitted
        best_node: Optional[str] = None
        best_wait = float("inf")
        for node in pending:
            deps = manager.dependencies_of(node)
            if not all(self._dep_satisfied(dep) for dep in deps):
                continue
            wait = 0.0
            for dep, uptime in deps.items():
                dep_submit = manager.submit_time_of(dep)
                assert dep_submit is not None
                wait = max(wait, dep_submit + uptime - now)
            wait = max(wait, 0.0)
            if wait < best_wait:
                best_wait = wait
                best_node = node
        if best_node is None:
            # Nothing satisfiable: a dependency must still be sleeping in a
            # concurrent thread.  Re-check shortly.
            service.kernel.schedule(0.5, self.step, label="submission-thread-poll")
            return
        if best_wait <= 0:
            manager._submit_now(
                best_node, explicit=(best_node == self.explicit_target)
            )
            self.step()
            return
        service.kernel.schedule(
            best_wait, self._wake, best_node, label=f"submit-{best_node}"
        )

    def _wake(self, node: str) -> None:
        if node in self._ordered_pending():
            deps = self.manager.dependencies_of(node)
            if all(self._dep_satisfied(dep) for dep in deps):
                now = self.manager._service.now
                ready = all(
                    (self.manager.submit_time_of(dep) or 0.0) + uptime <= now + 1e-9
                    for dep, uptime in deps.items()
                )
                if ready:
                    self.manager._submit_now(
                        node, explicit=(node == self.explicit_target)
                    )
        self.step()

    def _ordered_pending(self) -> List[str]:
        return sorted(
            (
                node
                for node in self.nodes
                if not self.manager.is_running(node)
            ),
            key=lambda node: self.manager._order[node],
        )

    def _dep_satisfied(self, dep: str) -> bool:
        return self.manager.is_running(dep)
