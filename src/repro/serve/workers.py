"""The daemon's process-isolated execution tier.

``repro serve`` used to run simulations on an in-process thread pool:
one segfaulting point (a native-extension bug, an OOM kill) took the
whole daemon with it, and a hung point wedged a worker thread
forever. This module replaces that with supervised worker
*processes*: each admitted job gets a supervisor thread that drives a
single-task :class:`~repro.resilience.SupervisedPool` in isolation
mode — the simulation runs in a forked child with start-of-point
heartbeats, a per-job deadline, and bounded exponential-backoff
retries. A crashed or hung worker is detected, its job retried, and
the failure reported as counters on the job manifest
(``worker_crashes`` / ``timeouts`` / ``retries``); the daemon never
shares an address space with the work it supervises. The in-process
fallback the experiment pool uses as a last resort is disabled here:
a job that exhausts its budget fails with a 500, it does not get one
free shot at crashing the daemon.

Workers are non-daemonic so a served sweep can fan out its own inner
pool (``jobs > 1``), and live tracer events are forwarded across the
process boundary so ``GET /v1/jobs/<id>?stream=1``
streams telemetry out of the isolated child exactly as it did from a
thread.

The task function :func:`_service_task_main` is module-level (it must
pickle) and rebuilds everything it needs — tracer, point journal,
profiles — from the plain-dict task, because nothing rich survives
the process boundary.
"""

from __future__ import annotations

import concurrent.futures
import json
import time
from typing import Callable

from repro.obs import Tracer
from repro.resilience.policy import RetryPolicy
from repro.resilience.pool import SupervisedPool
from repro.serve.jobs import Job


def _service_task_main(task: dict, emit: Callable[[dict], None]):
    """Worker-process body: run one service job, return its document.

    Returns ``(body_bytes, counters, meta)`` — the exact triple the
    thread-tier executors returned, so everything downstream (CAS
    put, job counters, response assembly) is unchanged.
    """
    from repro.check.faults import trigger_serve_task_delay
    from repro.experiments import RunContext, get_spec
    from repro.silicon.variation import PERSONAS
    from repro.sweepspec import (
        SweepSpec,
        run_sweepspec,
        sweep_document,
    )

    trigger_serve_task_delay()
    tracer = Tracer()
    tracer.subscribe(emit)
    if task["kind"] == "run":
        params = task["params"]
        ctx = RunContext(
            quick=params["quick"],
            jobs=params["jobs"],
            persona=(
                PERSONAS[params["persona"]]
                if params["persona"]
                else None
            ),
            tracer=tracer,
            out_format="json",
            checks=params["checks"],
            batch=params["batch"],
            tier=params["tier"],
            fidelity=params["fidelity"],
            profile_dir=task.get("profile_dir"),
        )
        result = get_spec(params["experiment"]).resolve()(ctx)
        body = (result.to_json() + "\n").encode("utf-8")
        return body, dict(tracer.resilience), dict(tracer.meta)

    spec = SweepSpec.from_dict(task["spec"])
    tier = task["tier"]
    fidelity = task["fidelity"]
    ctx = RunContext(
        quick=spec.quick,
        jobs=task["jobs"],
        tracer=tracer,
        out_format="json",
        tier=tier,
        fidelity=fidelity,
        profile_dir=task.get("profile_dir"),
    )
    from repro.resilience import PointJournal, ResultCache, Supervision

    supervision = Supervision(
        policy=RetryPolicy(retries=2),
        journal=PointJournal(
            ResultCache(task["cas_dir"]), manifest=False, tracer=tracer
        ),
        tracer=tracer,
        experiment_id=spec.experiment_id,
    )
    start = time.perf_counter()
    result = run_sweepspec(spec, ctx, supervision=supervision)
    # Every grid point is looked up in the store exactly once, so its
    # hits are the resumed points and its misses are all the others.
    hits = tracer.resilience.get("points_resumed", 0)
    if hits:
        tracer.count("cas_hits", hits)
    if spec.n_points > hits:
        tracer.count("cas_misses", spec.n_points - hits)
    doc = sweep_document(
        spec,
        result,
        tier=tier,
        fidelity=fidelity,
        wall_s=time.perf_counter() - start,
        counters=dict(tracer.resilience),
        meta=dict(tracer.meta),
    )
    body = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    return body, dict(tracer.resilience), dict(tracer.meta)


class WorkerTier:
    """Supervisor threads driving isolated worker processes.

    ``workers`` bounds concurrent *supervisors* (and therefore
    concurrent worker processes); jobs beyond that wait in the
    executor's queue, which is what the daemon's admission control
    measures saturation against.
    """

    def __init__(
        self,
        workers: int = 2,
        retries: int = 2,
        deadline_s: float | None = None,
    ):
        self.workers = max(1, workers)
        self.retries = retries
        self.deadline_s = deadline_s
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-serve-supervise",
        )

    def submit(
        self, task: dict, job: Job
    ) -> concurrent.futures.Future:
        return self._executor.submit(self._supervise, task, job)

    def _supervise(self, task: dict, job: Job):
        """Supervisor-thread body: one job, one isolated worker."""
        supervisor = Tracer()
        pool = SupervisedPool(
            _service_task_main,
            jobs=1,
            policy=RetryPolicy(
                retries=self.retries,
                deadline_s=self.deadline_s,
                # Adaptive deadlines need completed points to learn
                # from; a single-task pool has none, so without a
                # pinned deadline hangs are bounded by the pinned
                # floor never engaging — callers that care pass
                # deadline_s explicitly.
            ),
            tracer=supervisor,
            isolate=True,
        )
        results = pool.map(
            [task],
            on_event=lambda _index, event: job.record_event(event),
        )
        body, counters, meta = results[0]
        # Fold supervisor-side facts (crashes, timeouts, retries the
        # worker could not know about — it was dead) into the job's
        # counters alongside the worker-side ones.
        merged = dict(counters)
        for name, value in supervisor.resilience.items():
            if name == "points_simulated":
                continue  # a tier implementation detail, not a result
            merged[name] = merged.get(name, 0) + value
        return body, merged, meta

    def shutdown(self, wait: bool = False) -> None:
        self._executor.shutdown(wait=wait, cancel_futures=True)
