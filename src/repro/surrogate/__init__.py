"""Two-tier fidelity: a calibrated analytical fast path for sweeps.

The cycle-level simulator is exact but pays seconds per grid point;
dense operating-point grids (Figure 9/11/13-style sweeps, the ROADMAP's
thousand-point explorers) spend almost all of that re-discovering the
same per-workload event rates at clock after clock. This package
replaces that rediscovery with a lumos-style closed-form model:

* :mod:`~repro.surrogate.profile` — per-workload anchor ledgers plus
  validation-fitted error bars, the persisted calibration state;
* :mod:`~repro.surrogate.store` — sha256-keyed atomic JSON store;
* :mod:`~repro.surrogate.model` — interpolates anchors into synthetic
  :class:`~repro.system.SimOutcome`\\ s priced by the exact
  :mod:`repro.power` equations at the requested (V, f, persona) point;
* :mod:`~repro.surrogate.calibrate` — the ``repro calibrate`` step;
* :mod:`~repro.surrogate.dispatch` — the per-point policy behind
  ``--tier {auto,sim,fast}``, including tier-aware checkpoint reuse.

Cycle-level fidelity stays the default everywhere: without an explicit
``--tier auto``/``fast`` opt-in no surrogate code runs, and paper
figures remain bit-identical to their goldens.
"""

from repro.surrogate.calibrate import (
    CalibrationReport,
    calibrate_named,
    calibrate_request,
    default_anchor_freqs,
    outcome_metrics,
)
from repro.surrogate.dispatch import TIERS, FidelityPolicy
from repro.surrogate.model import SurrogateModel, profile_key
from repro.surrogate.profile import (
    GATE_METRICS,
    PROFILE_METRICS,
    PROFILE_SCHEMA_VERSION,
    AnchorRun,
    WorkloadProfile,
)
from repro.surrogate.store import DEFAULT_PROFILE_DIR, ProfileStore
from repro.surrogate.workloads import CALIBRATION_WORKLOADS, NamedWorkload

__all__ = [
    "AnchorRun",
    "CALIBRATION_WORKLOADS",
    "CalibrationReport",
    "DEFAULT_PROFILE_DIR",
    "FidelityPolicy",
    "GATE_METRICS",
    "NamedWorkload",
    "PROFILE_METRICS",
    "PROFILE_SCHEMA_VERSION",
    "ProfileStore",
    "SurrogateModel",
    "TIERS",
    "WorkloadProfile",
    "calibrate_named",
    "calibrate_request",
    "default_anchor_freqs",
    "outcome_metrics",
    "profile_key",
]
