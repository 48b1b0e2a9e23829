"""Property-based tests for the repro.governor control loop.

Three promises the subsystem makes, each stated over randomized
scenarios rather than the four curated experiment configurations:

* **Cap soundness** — whatever the workload phases, sensor seed, and
  budget (within the regime where the bottom rung fits), a capping
  policy never lets applied power exceed the cap outside the declared
  settle windows, and ``check_governor`` agrees.
* **No chatter** — the hysteretic thermal policy never places two
  actuations closer than its dwell floor (one die thermal time
  constant in the scenarios), however trip/clear/activity are drawn.
* **Determinism** — a scenario is a pure function of its spec: re-runs
  are bit-identical, and fanning arms across worker processes
  (``--jobs 2``) reproduces the serial traces exactly.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import CheckSuite
from repro.experiments.context import RunContext
from repro.experiments.ctl_common import run_specs
from repro.governor import ScenarioSpec, run_scenario

personas = st.sampled_from(["chip1", "chip2", "chip3"])
#: Budgets that keep the bottom rung (0.80 V, lightest clock) feasible
#: for the activity range below — outside that regime no ladder
#: governor can honour the cap and the checker rightly refuses.
caps_w = st.floats(3.0, 6.0)
activities_w = st.floats(0.3, 2.5)
seeds = st.integers(0, 2**16)


# ---------------------------------------------------------- cap soundness
@given(
    policy=st.sampled_from(["reactive_cap", "pi_cap"]),
    persona=personas,
    cap_w=caps_w,
    light_w=activities_w,
    heavy_w=activities_w,
    jump_s=st.floats(8.0, 20.0),
    seed=seeds,
)
@settings(max_examples=30)
def test_cap_never_exceeded_after_settle(
    policy, persona, cap_w, light_w, heavy_w, jump_s, seed
):
    spec = ScenarioSpec(
        name="prop",
        policy=policy,
        persona=persona,
        duration_s=30.0,
        phases=((0.0, light_w), (jump_s, heavy_w)),
        cap_w=cap_w,
        sensor_seed=seed,
        settle_s=4.0,
    )
    trace = run_scenario(spec)
    assert trace.cap_w == cap_w
    assert trace.cap_violations() == 0
    suite = CheckSuite()
    suite.check_governor(trace)  # must not raise
    assert suite.counts["governor"] == 1


# ------------------------------------------------------------- no chatter
@given(
    trip_c=st.floats(60.0, 95.0),
    drop_c=st.floats(5.0, 15.0),
    activity_w=st.floats(1.0, 2.8),
    persona=personas,
)
@settings(max_examples=30)
def test_trip_clear_never_chatters(trip_c, drop_c, activity_w, persona):
    """Consecutive actuations stay at least one dwell apart — the
    scenario default pins the dwell to the die stage's thermal time
    constant, so the loop cannot toggle faster than the physics it
    reacts to."""
    spec = ScenarioSpec(
        name="prop",
        policy="thermal_trip",
        persona=persona,
        duration_s=40.0,
        phases=((0.0, activity_w),),
        trip_c=trip_c,
        clear_c=trip_c - drop_c,
        warm_start=True,  # start hot at the top rung: maximal stress
    )
    trace = run_scenario(spec)
    assert trace.min_dwell_s > 0.0
    times = trace.actuation_times()
    for earlier, later in zip(times, times[1:]):
        assert later - earlier >= trace.min_dwell_s - 1e-9
    CheckSuite().check_governor(trace)  # gov_dwell must agree


# ----------------------------------------------------------- determinism
@given(
    policy=st.sampled_from(["static", "reactive_cap", "thermal_trip"]),
    persona=personas,
    activity_w=activities_w,
    seed=seeds,
)
@settings(max_examples=15)
def test_rerun_is_bit_identical(policy, persona, activity_w, seed):
    spec = ScenarioSpec(
        name="prop",
        policy=policy,
        persona=persona,
        duration_s=15.0,
        phases=((0.0, activity_w),),
        cap_w=4.0 if policy == "reactive_cap" else None,
        trip_c=80.0 if policy == "thermal_trip" else 88.0,
        clear_c=70.0 if policy == "thermal_trip" else 82.0,
        sensor_seed=seed,
    )
    first = run_scenario(spec).to_dict()
    second = run_scenario(spec).to_dict()
    assert first == second


def test_serial_vs_two_workers_bit_identical():
    """The ctl experiments fan their arms across processes; the traces
    coming back must match a serial run bit for bit (seeded telemetry,
    division-derived timestamps, pure-function caches only)."""
    specs = [
        ScenarioSpec(
            name=name,
            policy=policy,
            persona="chip2",
            duration_s=20.0,
            phases=((0.0, 0.9), (10.0, 2.2)),
            cap_w=3.5,
            sensor_seed=2018,
            settle_s=4.0,
        )
        for name, policy in (
            ("reactive", "reactive_cap"),
            ("pi", "pi_cap"),
        )
    ]
    serial = [run_scenario(s).to_dict() for s in specs]
    fanned = [
        t.to_dict() for t in run_specs(RunContext(jobs=2), specs)
    ]
    assert serial == fanned
