"""Shared plumbing for the closed-loop ``ctl_*`` experiments.

Each ctl experiment is a small set of :class:`ScenarioSpec` arms run
through one entry point, :func:`run_specs`, which provides the three
guarantees the acceptance tests pin:

* **jobs-identity** — arms fan across a
  :class:`~repro.resilience.SupervisedPool` (specs are frozen values,
  ``run_scenario`` is module-level, telemetry is seeded per spec), so
  ``--jobs 2`` reproduces serial traces bit for bit, and a crashed or
  hung worker is retried under the context's ``--retries`` and
  ``--deadline`` like any grid point;
* **checks-identity** — ``--checks`` audits the finished traces in the
  parent with :meth:`~repro.check.CheckSuite.check_governor`; a
  checked run either matches an unchecked one exactly or dies loudly;
* **counters** — every trace's ``gov_samples`` / ``gov_actuations`` /
  ``gov_cap_violations`` land on the context tracer and ride the run
  manifest's resilience block.
"""

from __future__ import annotations

from repro.experiments.context import RunContext
from repro.governor.controller import GovernedTrace
from repro.governor.scenarios import ScenarioSpec, run_scenario
from repro.resilience import RetryPolicy, SupervisedPool
from repro.silicon.variation import PERSONAS


def persona_name(ctx: RunContext, default_name: str) -> str:
    """Resolve ``--persona`` to a scenario persona name."""
    if ctx.persona is None:
        return default_name
    for name, persona in PERSONAS.items():
        if persona == ctx.persona:
            return name
    raise ValueError(
        "ctl experiments accept only the named personas "
        f"({sorted(PERSONAS)}), not ad-hoc dies"
    )


def run_specs(
    ctx: RunContext, specs: list[ScenarioSpec]
) -> list[GovernedTrace]:
    """Run every arm, audit if asked, and count governor telemetry."""
    traces = SupervisedPool(
        run_scenario,
        jobs=ctx.jobs,
        policy=RetryPolicy(retries=ctx.retries, deadline_s=ctx.deadline_s),
        tracer=ctx.trace,
    ).map(specs)
    if ctx.checks:
        from repro.check import CheckSuite

        suite = CheckSuite()
        for trace in traces:
            suite.check_governor(trace)
    tracer = ctx.trace
    for trace in traces:
        tracer.count("gov_samples", trace.gov_samples)
        tracer.count("gov_actuations", trace.gov_actuations)
        tracer.count("gov_cap_violations", trace.cap_violations())
    return traces


def decimate(values: list[float], every: int = 17) -> list[float]:
    """Thin a per-tick series for result documents (default 1 Hz)."""
    return list(values[::every])
