"""Two-tier fidelity end to end: calibrate → dispatch → resume → CLI.

The contract under test:

* ``--tier sim`` (``fidelity=None``) stays byte-for-byte the historical
  cycle-level path, and an ``auto`` run with nothing calibrated
  degrades to exactly the same thing;
* an ``auto`` run over a calibrated workload serves every in-tolerance
  point from the surrogate and lands within the persisted error bars
  of the sim-tier run;
* checkpoint journals are tier-aware in both directions — a sim resume
  of an ``auto`` journal re-simulates the surrogate points, an ``auto``
  resume of a sim journal reuses everything;
* the ``repro calibrate`` / ``repro sweep`` CLI round-trips, including
  the ``--report`` and ``--json`` artifacts.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.parallel import parallel_simulate
from repro.experiments.sweep import SweepPoint, sweep
from repro.obs.trace import Tracer
from repro.resilience import PointJournal, RetryPolicy, Supervision
from repro.silicon.variation import CHIP2
from repro.surrogate import (
    FidelityPolicy,
    ProfileStore,
    calibrate_named,
    profile_key,
)
from repro.surrogate.workloads import CALIBRATION_WORKLOADS

REPO_ROOT = Path(__file__).resolve().parents[2]

FREQS = [250e6, 450e6, 650e6, 850e6]
ANCHORS = [200e6, 500e6, 900e6]


@pytest.fixture(scope="module")
def calibrated_store(tmp_path_factory):
    """int + mem_l2 calibrated quick into one shared store."""
    store = ProfileStore(tmp_path_factory.mktemp("profiles"))
    reports = {
        name: calibrate_named(
            name, quick=True, anchor_freqs=ANCHORS, store=store
        )
        for name in ("int", "mem_l2")
    }
    return store, reports


def mem_requests(freqs=FREQS):
    base = CALIBRATION_WORKLOADS["mem_l2"].base_request(quick=True)
    return [replace(base, freq_hz=f) for f in freqs]


def sweep_grid():
    return [
        SweepPoint(persona=CHIP2, vdd=v, freq_hz=f)
        for v in (0.9, 1.1)
        for f in FREQS
    ]


def run_sweep(fidelity, tracer=None):
    workload, warmup, window = CALIBRATION_WORKLOADS["mem_l2"].build(
        True
    )
    return sweep(
        sweep_grid(),
        lambda tile: workload[tile],
        tiles=list(workload),
        warmup_cycles=warmup,
        window_cycles=window,
        tracer=tracer,
        fidelity=fidelity,
    )


class TestTierSim:
    def test_auto_with_empty_store_matches_sim_exactly(self, tmp_path):
        """Uncalibrated auto degrades to the cycle-level path bit-for-
        bit: every point falls back, and the measurement replay (bench
        RNG, thermal state) is untouched."""
        tracer = Tracer()
        empty = FidelityPolicy(
            store=ProfileStore(tmp_path / "none"), tracer=tracer
        )
        baseline = run_sweep(fidelity=None)
        degraded = run_sweep(fidelity=empty)
        assert degraded.records == baseline.records
        assert tracer.resilience["surrogate_fallbacks"] == len(
            sweep_grid()
        )
        assert "surrogate_hits" not in tracer.resilience


class TestTierAuto:
    def test_serves_all_points_within_bound(self, calibrated_store):
        store, reports = calibrated_store
        bound = reports["mem_l2"].error_bound
        assert 0 < bound < 0.25  # quick windows: loose but finite
        tracer = Tracer()
        policy = FidelityPolicy(
            store=store, tolerance=bound + 0.01, tracer=tracer
        )
        fast = run_sweep(fidelity=policy)
        slow = run_sweep(fidelity=None)
        assert tracer.resilience["surrogate_hits"] == len(sweep_grid())
        assert "surrogate_fallbacks" not in tracer.resilience
        assert tracer.meta["surrogate_max_err"] <= policy.tolerance
        for got, want in zip(fast.records, slow.records):
            assert got.persona == want.persona
            assert got.vdd == want.vdd
            assert got.freq_mhz == want.freq_mhz
            # Idle has no event component: identical in both tiers.
            assert got.idle_core_mw == want.idle_core_mw
            # Active power/EPI carry the interpolation error plus the
            # bench noise delta; both are bounded by the profile bars
            # (noise scales with the reading, so 2x bound is generous).
            assert got.active_core_mw == pytest.approx(
                want.active_core_mw, rel=2 * bound + 0.01
            )
            assert got.energy_per_instr_pj == pytest.approx(
                want.energy_per_instr_pj, rel=2 * bound + 0.01
            )

    def test_tight_tolerance_falls_back_everywhere(
        self, calibrated_store
    ):
        store, reports = calibrated_store
        tracer = Tracer()
        policy = FidelityPolicy(
            store=store, tolerance=1e-9, tracer=tracer
        )
        strict = run_sweep(fidelity=policy)
        assert strict.records == run_sweep(fidelity=None).records
        assert "surrogate_hits" not in tracer.resilience


class TestCrossTierResume:
    def run_journaled(self, ckpt_dir, fidelity, resume, tracer):
        requests = mem_requests()
        supervision = Supervision(
            policy=RetryPolicy(retries=0),
            journal=PointJournal.campaign(
                ckpt_dir, resume=resume, tracer=tracer
            ),
            tracer=tracer,
            experiment_id="surrtest",
        )
        outcomes = parallel_simulate(
            requests,
            jobs=1,
            supervision=supervision,
            fidelity=fidelity,
        )
        # Consume all but the final point so the journal survives for
        # the resume leg (delivery of the last point retires it).
        collected = []
        for _ in range(len(requests) - 1):
            collected.append(next(outcomes))
        outcomes.close()
        return collected

    def test_sim_resume_rejects_surrogate_points(
        self, calibrated_store, tmp_path
    ):
        store, reports = calibrated_store
        ckpt = tmp_path / "ckpt-auto"
        policy = FidelityPolicy(
            store=store, tolerance=reports["mem_l2"].error_bound + 0.01
        )
        first = Tracer()
        fast_run = self.run_journaled(
            ckpt, fidelity=policy, resume=False, tracer=first
        )
        assert all(o.tier == "fast" for o in fast_run)

        second = Tracer()
        resumed = self.run_journaled(
            ckpt, fidelity=None, resume=True, tracer=second
        )
        # Cycle-level fidelity requested: every journaled surrogate
        # point is re-simulated, none silently reused.
        assert second.resilience["points_tier_rejected"] == len(FREQS)
        assert "points_resumed" not in second.resilience
        assert all(o.tier == "sim" for o in resumed)
        reference = [
            o
            for o in map(
                lambda r: parallel_simulate([r]).__next__(),
                mem_requests()[: len(resumed)],
            )
        ]
        for got, want in zip(resumed, reference):
            assert got.result == want.result
            assert dict(got.ledger.counts) == dict(want.ledger.counts)

    def test_sim_resume_unpickles_no_rejected_point(
        self, calibrated_store, tmp_path, monkeypatch
    ):
        store, reports = calibrated_store
        ckpt = tmp_path / "ckpt-auto"
        policy = FidelityPolicy(
            store=store, tolerance=reports["mem_l2"].error_bound + 0.01
        )
        self.run_journaled(
            ckpt, fidelity=policy, resume=False, tracer=Tracer()
        )
        loads = []
        real_loads = pickle.loads
        monkeypatch.setattr(
            pickle, "loads", lambda b: loads.append(b) or real_loads(b)
        )
        tracer = Tracer()
        self.run_journaled(ckpt, fidelity=None, resume=True, tracer=tracer)
        # Every stored point was surrogate-served, so the frame header
        # alone rejected each one: not a single payload was unpickled.
        assert tracer.resilience["points_tier_rejected"] == len(FREQS)
        assert loads == []

    def test_auto_resume_reuses_sim_points(
        self, calibrated_store, tmp_path
    ):
        store, reports = calibrated_store
        ckpt = tmp_path / "ckpt-sim"
        first = Tracer()
        sim_run = self.run_journaled(
            ckpt, fidelity=None, resume=False, tracer=first
        )
        assert all(o.tier == "sim" for o in sim_run)

        second = Tracer()
        policy = FidelityPolicy(
            store=store,
            tolerance=reports["mem_l2"].error_bound + 0.01,
            tracer=second,
        )
        resumed = self.run_journaled(
            ckpt, fidelity=policy, resume=True, tracer=second
        )
        # Sim points satisfy every tier: all reused, surrogate idle.
        assert second.resilience["points_resumed"] == len(FREQS)
        assert "points_tier_rejected" not in second.resilience
        assert "surrogate_hits" not in second.resilience
        for got, want in zip(resumed, sim_run):
            assert got.result == want.result
            assert dict(got.ledger.counts) == dict(want.ledger.counts)


# ---------------------------------------------------------------- CLI
def _repro(args, cwd, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestCli:
    def test_calibrate_then_sweep_auto(self, tmp_path):
        profiles = tmp_path / "profiles"
        report_path = tmp_path / "report.json"
        result = _repro(
            [
                "calibrate",
                "int",
                "--quick",
                "--profile-dir",
                str(profiles),
                "--report",
                str(report_path),
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert "freq-independent (exact)" in result.stdout

        report = json.loads(report_path.read_text())
        assert report["schema_version"] == 1
        (entry,) = report["profiles"]
        assert entry["workload"] == "int"
        assert entry["error_bound"] == 0.0
        assert (profiles / f"{entry['key']}.json").is_file()

        out_path = tmp_path / "sweep.json"
        result = _repro(
            [
                "sweep",
                "int",
                "--quick",
                "--tier",
                "auto",
                "--profile-dir",
                str(profiles),
                "--vdd-points",
                "2",
                "--freq-points",
                "2",
                "--json",
                "--out",
                str(out_path),
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        doc = json.loads(out_path.read_text())
        assert doc["tier"] == "auto"
        assert doc["points"] == 4
        # Frequency-independent profile: exact, so auto serves all 4.
        assert doc["surrogate"]["hits"] == 4
        assert doc["surrogate"]["fallbacks"] == 0
        assert doc["surrogate"]["max_err"] == 0.0
        assert len(doc["records"]) == 4
        assert "tier=auto: 4 surrogate point(s)" in result.stderr

    def test_sweep_unknown_workload_rejected(self, tmp_path):
        result = _repro(["sweep", "nonesuch"], cwd=tmp_path)
        assert result.returncode == 2
        assert "invalid choice" in result.stderr

    def test_calibrate_unknown_workload_rejected(self, tmp_path):
        result = _repro(["calibrate", "nonesuch"], cwd=tmp_path)
        assert result.returncode == 2
        assert "unknown workload" in result.stderr


def test_profile_key_is_stable_across_processes(calibrated_store):
    """The store key must match what a fresh process would compute —
    the CLI calibrates in one process and sweeps in another."""
    store, reports = calibrated_store
    request = CALIBRATION_WORKLOADS["mem_l2"].base_request(quick=True)
    assert profile_key(request) == reports["mem_l2"].key
    assert reports["mem_l2"].key in store.keys()
