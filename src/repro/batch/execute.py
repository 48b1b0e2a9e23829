"""The grid executor: one simulation per group, N outcomes out.

:func:`batched_simulate` runs every materialized grid, batched or not
(an unbatched grid is a grid of singleton groups): it simulates one
representative per group of grid indices (in-process, or across the
:class:`~repro.resilience.SupervisedPool` for ``jobs > 1``) and
replicates each outcome to the group's members through a
:class:`~repro.batch.accumulate.LedgerMatrix`, yielding outcomes in
the original grid order.

The point journal composes transparently: every *member* point is
journaled under its own request digest the moment its group
completes, so a campaign interrupted mid-batch resumes identically
whether the resuming run batches or not — the journal never learns
about batching.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.batch.accumulate import LedgerMatrix
from repro.batch.plan import plan_batches

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience import Supervision
    from repro.surrogate.dispatch import FidelityPolicy
    from repro.system import SimOutcome, SimRequest


def _simulate_stripped(request: "SimRequest") -> "SimOutcome":
    """Pool/worker entry point: simulate, drop the engine."""
    from repro.system import run_simulation

    outcome = run_simulation(request)
    outcome.engine = None
    return outcome


def replicate_outcome(
    outcome: "SimOutcome", n: int
) -> "list[SimOutcome]":
    """Fan one group outcome out to ``n`` independent member outcomes.

    Member 0 keeps the representative's ledger object and wall-time
    stamps; members 1..n-1 get their lane's ledger materialized from
    the :class:`LedgerMatrix` and zeroed wall times (their simulation
    cost was amortized into the representative's — telemetry reports
    wall-clock actually spent, not wall-clock saved). Every member
    owns its ledger, result, and checker counters outright: downstream
    measurement, checking, and journaling treat each point as if it
    had been simulated alone.
    """
    if n == 1:
        return [outcome]
    matrix = LedgerMatrix(outcome.ledger, n)
    members = [outcome]
    for lane in range(1, n):
        members.append(
            replace(
                outcome,
                ledger=matrix.lane_ledger(lane),
                result=replace(outcome.result),
                engine=None,
                build_wall_s=0.0,
                sim_wall_s=0.0,
                check_counts=(
                    dict(outcome.check_counts)
                    if outcome.check_counts is not None
                    else None
                ),
            )
        )
    return members


def batched_simulate(
    requests: "Sequence[SimRequest]",
    groups: Sequence[Sequence[int]] | None = None,
    jobs: int = 1,
    supervision: "Supervision | None" = None,
    fidelity: "FidelityPolicy | None" = None,
) -> "Iterator[SimOutcome]":
    """Simulate a grid group-wise, yielding outcomes in grid order.

    ``groups`` partitions the grid indices; each group's first member
    is simulated for all of them. ``None`` means
    :func:`~repro.batch.plan.plan_batches`' timing classes; singleton
    groups run every point on its own.

    Results come back in submission order, journaled points (on
    resume) are never re-simulated, every completed point is appended
    to the journal as it exists, the journal is retired only once the
    final outcome was delivered, and per-point retry/deadline
    supervision applies to the representative simulations.

    ``fidelity`` (the ``--tier auto``/``fast`` policy) slots in at the
    same per-member seam the journal uses: the journal only serves an
    outcome the policy's tier accepts (no silent surrogate reuse under
    ``--tier sim``), and members the surrogate can serve within
    tolerance never reach the pool — they are predicted, journaled,
    and yielded like any other completed point.
    """
    from repro.resilience import (
        Supervision,
        SupervisedPool,
        request_digest,
    )

    if groups is None:
        groups = [group.indices for group in plan_batches(requests).groups]
    supervision = (
        supervision if supervision is not None else Supervision()
    )
    journal = supervision.journal
    count = supervision.tracer.count
    digests = [request_digest(request) for request in requests]

    outcomes: dict[int, "SimOutcome"] = {}
    #: Missing-member index lists, one per group still needing its
    #: representative simulated (resume may have filled some or all
    #: members of a group from the journal, and the surrogate may
    #: have served others).
    todo: list[list[int]] = []
    #: Surrogate-served indices, journaled once every lookup is done:
    #: a grid resumes from what the store held when it started, never
    #: from its own points.
    predicted_indices: list[int] = []
    for group in groups:
        missing: list[int] = []
        for index in group:
            cached = (
                journal.get(digests[index], fidelity)
                if journal is not None
                else None
            )
            if cached is not None:
                outcomes[index] = cached
                count("points_resumed")
                continue
            predicted = (
                fidelity.predict(requests[index])
                if fidelity is not None
                else None
            )
            if predicted is not None:
                outcomes[index] = predicted
                predicted_indices.append(index)
                continue
            missing.append(index)
        if missing:
            todo.append(missing)
    if journal is not None:
        for index in predicted_indices:
            journal.append(digests[index], outcomes[index])
        journal.write_meta(
            experiment_id=supervision.experiment_id,
            points_expected=len(requests),
        )

    def on_result(todo_index: int, outcome: "SimOutcome") -> None:
        members = todo[todo_index]
        replicas = replicate_outcome(outcome, len(members))
        if len(members) > 1:
            count("batch_points_replicated", len(members) - 1)
        for index, replica in zip(members, replicas):
            outcomes[index] = replica
            if journal is not None:
                journal.append(digests[index], replica)

    pool = SupervisedPool(
        _simulate_stripped,
        jobs=jobs,
        policy=supervision.policy,
        tracer=supervision.tracer,
    )
    pool.map(
        [requests[missing[0]] for missing in todo],
        on_result=on_result,
    )

    def emit() -> "Iterator[SimOutcome]":
        index = -1
        try:
            for index in range(len(requests)):
                # pop: each member's outcome is handed over exactly
                # once, freeing the grid as the consumer walks it.
                yield outcomes.pop(index)
        finally:
            # Runs on exhaustion *and* when the consumer drops the
            # iterator; the journal is done only if the final point
            # was delivered.
            if journal is not None and index == len(requests) - 1:
                journal.complete()

    return emit()
