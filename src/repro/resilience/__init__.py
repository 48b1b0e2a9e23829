"""Fault-tolerant execution of long measurement campaigns.

The paper's characterization sweeps are hours-long grids of
independent simulation points. This package makes those grids survive
the failures long campaigns actually hit:

* **worker crashes and hangs** — :class:`SupervisedPool` replaces the
  bare ``multiprocessing.Pool`` fan-out with per-worker task queues,
  start-of-point heartbeats, and a per-point deadline derived from the
  wall times of already-completed points (:func:`derive_deadline`);
* **transient failures** — failed or timed-out points are retried
  with exponential backoff (:func:`backoff_schedule`) under a bounded
  attempt budget, and degrade to one final in-process serial attempt
  so a single poisoned point slows the grid down instead of killing
  it;
* **operator interrupts** — every completed
  :class:`~repro.system.SimOutcome` is journaled to a CRC-checked
  checkpoint (:class:`PointJournal` over a :class:`ResultCache`; one
  atomic temp-file+rename entry per point), so SIGINT/SIGTERM
  (:func:`resumable_signals`) checkpoints, tears the pool down
  cleanly, and exits with :data:`EXIT_RESUMABLE`; ``repro run <exp>
  --resume`` then skips the already-simulated points.

The layer is zero-cost when idle: with no supervision configured the
serial path in :mod:`repro.experiments.parallel` is untouched, and
supervision never changes results — the simulator is a pure function
of its request, so a retried point is bit-identical to a first-try
point, and measurements always replay serially in grid order.
"""

from repro.resilience.policy import (
    RetryPolicy,
    backoff_schedule,
    derive_deadline,
)
from repro.resilience.pool import PointFailure, SupervisedPool, Supervision
from repro.resilience.signals import (
    EXIT_RESUMABLE,
    GridInterrupted,
    resumable_signals,
)
from repro.resilience.store import (
    CacheEntry,
    JournalStatus,
    PointJournal,
    ResultCache,
    journal_status,
    request_digest,
)

__all__ = [
    "CacheEntry",
    "EXIT_RESUMABLE",
    "GridInterrupted",
    "JournalStatus",
    "PointFailure",
    "PointJournal",
    "ResultCache",
    "RetryPolicy",
    "SupervisedPool",
    "Supervision",
    "backoff_schedule",
    "derive_deadline",
    "journal_status",
    "request_digest",
    "resumable_signals",
]
