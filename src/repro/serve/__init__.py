"""Simulation-as-a-service: the ``repro serve`` daemon and its cache.

The content-addressed result store itself is
:mod:`repro.resilience.store`, shared with ``repro run --resume``.
The package splits along the daemon's concerns:

* :mod:`repro.serve.jobs`   — job manifests and live telemetry-event
  capture for ``GET /v1/jobs/<id>``;
* :mod:`repro.serve.http`   — the minimal stdlib HTTP/1.1 layer;
* :mod:`repro.serve.daemon` — routing, admission control (queue
  bound, rate limiting, drain mode), tier-aware cache arbitration,
  in-flight request coalescing, and startup recovery;
* :mod:`repro.serve.workers` — the process-isolated execution tier
  (supervised worker processes with heartbeats/deadlines/retries);
* :mod:`repro.serve.journal` — the durable job journal recovery
  replays after a crash;
* :mod:`repro.serve.ratelimit` — per-client token buckets behind
  the 429 contract;
* :mod:`repro.serve.status` — the status document shared with
  ``repro status --json``.
"""

from repro.serve.daemon import SimulationService
from repro.serve.jobs import Job, JobRegistry
from repro.serve.journal import (
    DEFAULT_JOBS_DIR,
    JobJournal,
    JobRecord,
)
from repro.serve.ratelimit import RateLimiter, TokenBucket
from repro.serve.status import STATUS_SCHEMA_VERSION, status_document
from repro.serve.workers import WorkerTier

__all__ = [
    "DEFAULT_JOBS_DIR",
    "Job",
    "JobJournal",
    "JobRecord",
    "JobRegistry",
    "RateLimiter",
    "STATUS_SCHEMA_VERSION",
    "SimulationService",
    "TokenBucket",
    "WorkerTier",
    "status_document",
]
