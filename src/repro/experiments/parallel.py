"""Fan independent simulation points across a supervised worker pool.

The experiments in this package are grids of independent measurement
points (VDD values, core counts, thread counts, instruction classes).
Each point's *simulation* is a pure function of a
:class:`~repro.system.SimRequest` — the simulator has no randomness —
while each point's *measurement* consumes the bench's monitor-noise RNG
stream and mutates thermal state, so measurement order is
load-bearing.

The split this module implements therefore guarantees bit-identical
results to a serial run by construction:

1. build every point's ``SimRequest`` in the experiment's original
   iteration order;
2. fan the requests out with :func:`parallel_simulate` (results come
   back in submission order, whatever order workers finish in);
3. replay the measurements serially, in the parent process, in the
   original order, via :meth:`PitonSystem.measure_outcome`.

With ``jobs <= 1`` everything runs in-process; with ``jobs > 1`` the
simulations run, through :func:`repro.batch.batched_simulate` (the one
grid executor), on a :class:`~repro.resilience.SupervisedPool`, which
detects crashed and hung workers, retries their points with backoff,
and keeps one poisoned point from killing the grid. Passing a
:class:`~repro.resilience.Supervision` adds checkpoint journaling: each
completed outcome is appended to a CRC-checked journal the moment it
exists, and a resumed run loads journaled points instead of
re-simulating them — the measurement replay still walks the full grid
in order, so resumed results are bit-identical to uninterrupted ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.batch import batched_simulate, plan_batches
from repro.batch.execute import _simulate_stripped
from repro.obs.trace import Tracer
from repro.resilience import Supervision
from repro.system import SimOutcome, SimRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.surrogate.dispatch import FidelityPolicy


def parallel_simulate(
    requests: Iterable[SimRequest],
    jobs: int = 1,
    tracer: Tracer | None = None,
    supervision: Supervision | None = None,
    batch: bool = False,
    fidelity: "FidelityPolicy | None" = None,
) -> Iterator[SimOutcome]:
    """Run every request, yielding outcomes in request order.

    With ``jobs <= 1`` this is fully lazy: each request is built (when
    ``requests`` is a generator) and simulated only when its outcome is
    consumed, so a serial experiment interleaves simulation with its
    measurement replay and never holds the whole grid in memory — the
    exact behavior of the pre-parallel code. With ``jobs > 1`` the
    requests are materialized and fanned across a
    :class:`~repro.resilience.SupervisedPool` (results are collected
    in submission order, whatever order workers finish in).

    ``supervision`` configures failure handling: its
    :class:`~repro.resilience.RetryPolicy` bounds retries and
    deadlines, its journal (if any) checkpoints each completed outcome
    and serves journaled points back on resume, and its tracer records
    the retry/timeout/resume counters. With ``supervision=None`` the
    pool runs under the default policy and nothing is journaled; the
    serial path is then byte-for-byte the historical one (zero cost
    when idle).

    Engines are stripped on both paths: grid experiments read only
    ledgers and counters.

    An enabled ``tracer`` receives each point's build/simulate wall
    times (stamped on the outcome by :func:`~repro.system.run_simulation`,
    so they survive the pickle back from pool workers) as outcomes are
    consumed, in submission order. Telemetry reads finished outcomes
    only — it cannot perturb simulation results.

    ``batch=True`` coalesces grid points that share a timing class
    (see :mod:`repro.batch`) into one simulation each: the
    representative request runs once and its outcome is replicated to
    every member, bit-identically — the simulator is a pure function
    of the request, and the batch key covers everything it reads.
    Batching materializes the request stream up front (the plan needs
    the whole grid); when nothing coalesces, execution falls straight
    through to the unbatched paths at zero extra cost beyond the
    planning pass.

    ``fidelity`` routes points through the two-tier dispatcher
    (:mod:`repro.surrogate`): points a calibrated profile can serve
    within tolerance come back as ``tier="fast"`` outcomes without a
    simulation; everything else — novel workloads, out-of-envelope
    clocks, checked runs — falls back to the simulator, with
    ``surrogate_hits``/``surrogate_fallbacks`` counted on the policy's
    tracer. ``fidelity=None`` (the default, and all of ``--tier sim``)
    is byte-for-byte the historical cycle-level behavior, except that
    journaled *surrogate* points from an earlier ``auto``/``fast`` run
    are re-simulated rather than silently reused.
    """
    journal = supervision.journal if supervision is not None else None
    groups: list[tuple[int, ...]] | None = None
    if batch:
        requests = list(requests)
        plan = plan_batches(requests)
        stats_tracer = tracer
        if stats_tracer is None and supervision is not None:
            stats_tracer = supervision.tracer
        if stats_tracer is not None and stats_tracer.enabled:
            stats_tracer.note("batch", plan.summary())
            stats_tracer.count("batch_groups", plan.n_groups)
            stats_tracer.count(
                "batch_points_coalesced", plan.points_coalesced
            )
            if plan.debatch_events:
                stats_tracer.count(
                    "batch_debatch_events", plan.debatch_events
                )
        if plan.points_coalesced > 0:
            groups = [group.indices for group in plan.groups]
    if groups is None and (jobs > 1 or journal is not None):
        requests = list(requests)
        if len(requests) > 1 or journal is not None:
            groups = [(index,) for index in range(len(requests))]
    if groups is not None:
        outcomes: Iterator[SimOutcome] = batched_simulate(
            requests,
            groups,
            jobs=jobs,
            supervision=supervision,
            fidelity=fidelity,
        )
    elif fidelity is not None:
        outcomes = map(
            lambda request: fidelity.predict(request)
            or _simulate_stripped(request),
            requests,
        )
    else:
        # The historical zero-cost serial path: fully lazy, nothing
        # supervised (an in-process failure is deterministic — a
        # retry would fail identically).
        outcomes = map(_simulate_stripped, requests)
    if tracer is None or not tracer.enabled:
        return outcomes
    return _record_points(outcomes, tracer)


def _record_points(
    outcomes: Iterable[SimOutcome], tracer: Tracer
) -> Iterator[SimOutcome]:
    """Fold per-point wall times into the parent tracer on the fly."""
    for outcome in outcomes:
        tracer.add_span("build", outcome.build_wall_s)
        tracer.add_span("simulate", outcome.sim_wall_s)
        tracer.point(outcome.sim_wall_s)
        yield outcome
