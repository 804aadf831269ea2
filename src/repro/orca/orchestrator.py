"""Orchestrator — the base class of the ORCA logic.

Sec. 3 of the paper: "Developers write the ORCA logic ... by inheriting an
Orchestrator class.  The Orchestrator class contains the signature of all
event handling methods that can be specialized.  The ORCA logic can invoke
routines from the ORCA service by using a reference received during
construction."

Handler names match the paper's listings (Figs. 5-6) exactly.  Every
handler except :meth:`handleOrcaStart` receives the matched subscope keys
alongside the event context.  The only event that is always in scope is
the start notification (Sec. 4.1); all other events are delivered only if
they match a registered subscope.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

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

if TYPE_CHECKING:  # pragma: no cover
    from repro.orca.service import OrcaService


class Orchestrator:
    """Base class for user-written adaptation logic."""

    def __init__(self) -> None:
        #: Reference to the ORCA service, set before handleOrcaStart runs.
        self._orca: "OrcaService" = None  # type: ignore[assignment]

    @property
    def orca(self) -> "OrcaService":
        """The ORCA service this logic actuates and inspects through."""
        return self._orca

    def emitTraceMarker(self, name: str, **attrs) -> None:  # noqa: N802
        """Annotate the observability timeline from adaptation logic.

        Records a ``user:<name>`` control event (stamped with this
        orchestrator's id) through the system's :class:`repro.obs.hub.ObsHub`,
        so user-defined adaptation decisions appear in flight-recorder
        dumps alongside the runtime's own spans.  A no-op before the
        service is bound.

        Args:
            name: Marker name (rendered as ``user:<name>``).
            **attrs: Extra attributes for the span.
        """
        if self._orca is None:
            return
        self._orca.system.obs.record_control_event(
            f"user:{name}", self._orca.now, orca=self._orca.orca_id, **attrs
        )

    # -- lifecycle ---------------------------------------------------------------

    def handleOrcaStart(self, context: OrcaStartContext) -> None:  # noqa: N802
        """Always delivered once the ORCA service has loaded this logic."""

    # -- metric events --------------------------------------------------------------

    def handleOperatorMetricEvent(  # noqa: N802
        self, context: OperatorMetricContext, scopes: List[str]
    ) -> None:
        """An operator metric matched at least one registered subscope."""

    def handleOperatorPortMetricEvent(  # noqa: N802
        self, context: OperatorPortMetricContext, scopes: List[str]
    ) -> None:
        """An operator port metric matched at least one registered subscope."""

    def handlePEMetricEvent(  # noqa: N802
        self, context: PEMetricContext, scopes: List[str]
    ) -> None:
        """A PE metric matched at least one registered subscope."""

    # -- failure events -----------------------------------------------------------------

    def handlePEFailureEvent(  # noqa: N802
        self, context: PEFailureContext, scopes: List[str]
    ) -> None:
        """A PE of a managed job crashed."""

    def handleHostFailureEvent(  # noqa: N802
        self, context: HostFailureContext, scopes: List[str]
    ) -> None:
        """A host went down (detected via missed heartbeats)."""

    # -- job dynamics ----------------------------------------------------------------------

    def handleJobSubmissionEvent(  # noqa: N802
        self, context: JobSubmissionContext, scopes: List[str]
    ) -> None:
        """A managed application was submitted (Sec. 4.4)."""

    def handleJobCancellationEvent(  # noqa: N802
        self, context: JobCancellationContext, scopes: List[str]
    ) -> None:
        """A managed application was cancelled or garbage-collected."""

    # -- parallel regions (elastic subsystem) ------------------------------------------------

    def handleChannelCongestedEvent(  # noqa: N802
        self, context: ChannelCongestedContext, scopes: List[str]
    ) -> None:
        """A parallel-region channel exceeded its congestion threshold."""

    def handleRegionRescaledEvent(  # noqa: N802
        self, context: RegionRescaledContext, scopes: List[str]
    ) -> None:
        """A parallel region completed a live channel-width change."""

    def handleRegionStateMigratedEvent(  # noqa: N802
        self, context: RegionStateMigratedContext, scopes: List[str]
    ) -> None:
        """A rescale's migration phase moved keyed state between channels."""

    def handleChannelReroutedEvent(  # noqa: N802
        self, context: ChannelReroutedContext, scopes: List[str]
    ) -> None:
        """A channel was masked from (or restored to) its region's splitter
        because its PE crashed / finished restarting."""

    # -- checkpointing and recovery (state subsystem) ------------------------------------------

    def handleCheckpointCommittedEvent(  # noqa: N802
        self, context: CheckpointCommittedContext, scopes: List[str]
    ) -> None:
        """A managed PE's state store was checkpointed (epoch committed)."""

    def handleRehydrateSkippedEvent(  # noqa: N802
        self, context: RehydrateSkippedContext, scopes: List[str]
    ) -> None:
        """A rehydrating PE restart found nothing to restore (started empty)."""

    # -- chaos campaigns (the chaos subsystem) -------------------------------------------------

    def handleChaosInjectedEvent(  # noqa: N802
        self, context: ChaosInjectedContext, scopes: List[str]
    ) -> None:
        """A chaos-campaign perturbation was injected (ChaosScope only)."""

    # -- health plane (repro.obs.health) -------------------------------------------------------

    def handleHealthAlertEvent(  # noqa: N802
        self, context: HealthAlertContext, scopes: List[str]
    ) -> None:
        """An SLO burn-rate alert raised or escalated (HealthScope only)."""

    # -- timers and user events ----------------------------------------------------------------

    def handleTimerEvent(  # noqa: N802
        self, context: TimerContext, scopes: List[str]
    ) -> None:
        """A timer created through the ORCA service expired."""

    def handleUserEvent(  # noqa: N802
        self, context: UserEventContext, scopes: List[str]
    ) -> None:
        """A user event was injected via the command tool."""
