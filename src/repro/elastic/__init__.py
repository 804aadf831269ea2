"""Elastic parallel regions: consistent live re-parallelization.

This package is the runtime-adaptation counterpart of
:mod:`repro.spl.parallel`: where the spl layer *compiles* an annotated
operator chain into N data-parallel channels, this layer *changes* N while
the job keeps running — the single most common adaptation routine in
practice (Röger & Mayer's elasticity survey, PAPERS.md), and the one the
paper's ORCA orchestrators could observe but never actuate.

* :class:`~repro.elastic.controller.ElasticController` — the protocol:
  quiesce the region's splitter on an epoch barrier (Fries-style, on the
  epoch clock of :mod:`repro.checkpoint.store`), drain every in-flight and
  buffered tuple into the merger, rewire channels (logical graph +
  compiled plan + live PEs), and resume.  Nothing is dropped, only held.
* :mod:`~repro.elastic.migration` — the one mover of keyed state between
  channels, and the state phase of a rescale built on it.
* :mod:`~repro.elastic.reroute` — masking crashed channels on their
  splitter (their keyed tuples park there) and unmasking them on restart.
* :mod:`~repro.elastic.policy` — pluggable :class:`ScalingPolicy`
  implementations (queue-size watermarks, state-aware and health-aware
  sizing) that ORCA logic can consult to decide target widths.
"""

from repro.elastic.controller import (
    ChannelReroute,
    ElasticController,
    RescaleOperation,
    RescaleState,
    StateMigration,
)
from repro.elastic.policy import (
    HealthAwareScalingPolicy,
    QueueSizeScalingPolicy,
    RegionObservation,
    ScalingPolicy,
    StateAwareScalingPolicy,
)

__all__ = [
    "ChannelReroute",
    "ElasticController",
    "HealthAwareScalingPolicy",
    "QueueSizeScalingPolicy",
    "RegionObservation",
    "RescaleOperation",
    "RescaleState",
    "ScalingPolicy",
    "StateAwareScalingPolicy",
    "StateMigration",
]
