"""Periodic checkpointing and crash recovery for partitioned operator state.

The paper's failure semantics are *no-checkpoint*: a crashed PE restarts
with empty operators, and only a graceful stop produces a (quiesced)
snapshot.  That keeps user-defined failover policies honest about what
they can restore — nothing — which is exactly the gap this subsystem
closes while keeping the paper's behaviour as the default
(``SystemConfig.checkpoint_interval = 0`` disables the periodic
capture; only graceful stops record epochs then).

Two pieces:

* :class:`~repro.checkpoint.store.CheckpointStore` — epoch-numbered,
  committed-or-torn snapshots per (job, PE).  The store owns the
  **shared epoch clock** (:class:`~repro.checkpoint.store.EpochClock`)
  that the elastic controller's reconfiguration protocol draws from too,
  so checkpoints and rescales order on one monotone logical
  clock (the Fries-style consolidation: fault tolerance and
  reconfiguration share one transactional state-epoch mechanism).
* :class:`~repro.checkpoint.service.CheckpointService` — the background
  daemon: every ``interval`` sim-seconds it captures each stateful PE's
  :class:`~repro.spl.state.StateStore` *incrementally* (per-key dirty
  tracking — hot loops never re-serialize cold partitions), records the
  epoch, and commits it.  A crash between record and commit leaves a
  *torn* epoch that rehydration must never load; restore always falls
  back to the latest committed epoch.

Consumers:

* ``PERuntime.restart(rehydrate=True)`` rehydrates from the latest
  committed epoch — after a crash too, not just after a graceful stop.
* The ORCA service turns commits into ``checkpoint_committed`` events
  and surfaces staleness through the ``checkpointLag`` PE gauge in SRM.
"""

from repro.checkpoint.store import (
    CheckpointEpoch,
    CheckpointStore,
    EpochClock,
    RestoreReport,
)
from repro.checkpoint.service import CheckpointRecord, CheckpointService

__all__ = [
    "CheckpointEpoch",
    "CheckpointRecord",
    "CheckpointService",
    "CheckpointStore",
    "EpochClock",
    "RestoreReport",
]
