"""Declarative SLOs with multi-window burn-rate evaluation.

An :class:`Slo` names an objective over one health-plane signal:

* ``latency_p95`` — p95 of the reliable-delivery ack round trip over
  the window (seconds); empty under best-effort delivery.
* ``loss`` — windowed mean of the per-tick tuple-loss fraction
  (dropped / sent between evaluation ticks).
* ``lag`` — windowed mean of the lag watermark (the whole system's
  max, or one region's when ``region`` is set).

The **burn rate** of a window is ``observed / objective`` — how many
times faster than budget the objective is being consumed.  Evaluation
uses the standard multi-window AND: an alert raises only when *both*
the short window (it is still happening) and the long window (it is
sustained, not a blip) burn above the threshold; ``warn_burn`` and
``page_burn`` pick the severity.  An active alert clears once the
short-window burn falls back under ``warn_burn``.

All thresholds are plain floats compared against deterministic window
statistics, so alert sequences are byte-stable under fixed seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: signals an SLO may target (see module docstring)
VALID_SIGNALS = ("latency_p95", "loss", "lag")

#: sim-seconds of the confirmation window ("is it still happening?") —
#: an SLO's default and the horizon of the health plane's own signals
SHORT_WINDOW = 5.0
#: sim-seconds of an SLO's default sustain window ("a blip or a trend?")
LONG_WINDOW = 30.0

#: alert severity ordering: escalations fire, de-escalations do not
SEVERITY_RANK = {"warn": 1, "page": 2}


@dataclass(frozen=True)
class Slo:
    """One service-level objective over a health-plane signal."""

    #: unique name; alert contexts and scope filters carry it
    name: str
    #: one of :data:`VALID_SIGNALS`
    signal: str
    #: budget for the signal (seconds for latency/lag, fraction for loss)
    objective: float
    #: confirmation window, sim-seconds (is it still happening?)
    short_window: float = SHORT_WINDOW
    #: sustain window, sim-seconds (is it a blip or a trend?)
    long_window: float = LONG_WINDOW
    #: burn rate at which a ``warn`` raises (both windows)
    warn_burn: float = 1.0
    #: burn rate at which the alert escalates to ``page``
    page_burn: float = 2.0
    #: restrict the ``lag`` signal to one parallel region (None: global)
    region: Optional[str] = None

    def __post_init__(self) -> None:
        if self.signal not in VALID_SIGNALS:
            raise ValueError(
                f"unknown SLO signal {self.signal!r};"
                f" expected one of {VALID_SIGNALS}"
            )
        if self.objective <= 0:
            raise ValueError(f"SLO objective must be > 0, got {self.objective}")
        if self.short_window <= 0 or self.long_window < self.short_window:
            raise ValueError(
                "SLO windows must satisfy 0 < short_window <= long_window"
            )
        if self.warn_burn <= 0 or self.page_burn < self.warn_burn:
            raise ValueError(
                "SLO burns must satisfy 0 < warn_burn <= page_burn"
            )


def classify(burn_short: float, burn_long: float, slo: Slo) -> Optional[str]:
    """Multi-window severity: both windows must burn above a threshold."""
    if burn_short >= slo.page_burn and burn_long >= slo.page_burn:
        return "page"
    if burn_short >= slo.warn_burn and burn_long >= slo.warn_burn:
        return "warn"
    return None


@dataclass(frozen=True)
class HealthAlert:
    """One raised (or escalated) SLO alert, as published on the runtime bus."""

    #: the violated objective's name
    slo: str
    #: the objective's signal (``latency_p95`` / ``loss`` / ``lag``)
    signal: str
    #: ``warn`` or ``page``
    severity: str
    #: short-window burn rate at raise time
    burn_short: float
    #: long-window burn rate at raise time
    burn_long: float
    #: short-window observed signal value
    observed: float
    #: the objective's budget
    objective: float
    #: region restriction of the objective (None: global)
    region: Optional[str]
    #: current bottleneck attribution target ("" if none)
    bottleneck: str
    #: the bottleneck detector's why-string ("" if none)
    why: str
    #: sim-time the alert raised
    time: float
