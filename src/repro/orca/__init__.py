"""ORCA — the orchestrator framework (the paper's contribution).

An orchestrator has two halves (Sec. 3):

* the **ORCA logic** — user code subclassing :class:`Orchestrator`,
  registering event scopes and specializing event handlers;
* the **ORCA service** — the runtime daemon (:class:`OrcaService`) that
  matches events to scopes, maintains the in-memory stream graph, delivers
  events one at a time with context + epoch, and exposes actuation and
  dependency-management APIs.
"""

from repro.orca.contexts import (
    ChannelCongestedContext,
    ChannelReroutedContext,
    ChaosInjectedContext,
    CheckpointCommittedContext,
    HealthAlertContext,
    HostFailureContext,
    JobCancellationContext,
    JobSubmissionContext,
    OperatorMetricContext,
    OperatorPortMetricContext,
    OrcaStartContext,
    PEFailureContext,
    PEMetricContext,
    RegionRescaledContext,
    RegionStateMigratedContext,
    RehydrateSkippedContext,
    TimerContext,
    UserEventContext,
)
from repro.orca.dependencies import AppConfig
from repro.orca.descriptor import ManagedApplication, OrcaDescriptor
from repro.orca.orchestrator import Orchestrator
from repro.orca.scopes import (
    ChaosScope,
    CheckpointScope,
    HealthScope,
    HostFailureScope,
    JobCancellationScope,
    JobSubmissionScope,
    OperatorMetricScope,
    OperatorPortMetricScope,
    ParallelRegionScope,
    PEFailureScope,
    PEMetricScope,
    TimerScope,
    UserEventScope,
    to_string,
)
from repro.orca.rules import Rule, RuleOrchestrator, when
from repro.orca.service import OrcaService

__all__ = [
    "Rule",
    "RuleOrchestrator",
    "when",
    "AppConfig",
    "ChannelCongestedContext",
    "ChannelReroutedContext",
    "ChaosInjectedContext",
    "ChaosScope",
    "CheckpointCommittedContext",
    "CheckpointScope",
    "HealthAlertContext",
    "HealthScope",
    "HostFailureContext",
    "HostFailureScope",
    "JobCancellationContext",
    "JobCancellationScope",
    "JobSubmissionContext",
    "JobSubmissionScope",
    "ManagedApplication",
    "OperatorMetricContext",
    "OperatorMetricScope",
    "OperatorPortMetricContext",
    "OperatorPortMetricScope",
    "Orchestrator",
    "OrcaDescriptor",
    "OrcaService",
    "OrcaStartContext",
    "ParallelRegionScope",
    "PEFailureContext",
    "PEFailureScope",
    "PEMetricContext",
    "PEMetricScope",
    "RegionRescaledContext",
    "RegionStateMigratedContext",
    "RehydrateSkippedContext",
    "TimerContext",
    "TimerScope",
    "UserEventContext",
    "UserEventScope",
    "to_string",
]
