"""Unit tests for the surrogate package: profiles, store, model,
dispatch, and the RunContext tier plumbing — no cycle-level simulation
except one cheap frequency-independent request build."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import RunContext
from repro.obs import Tracer
from repro.resilience import PointJournal, ResultCache, request_digest
from repro.surrogate import (
    GATE_METRICS,
    PROFILE_SCHEMA_VERSION,
    AnchorRun,
    FidelityPolicy,
    ProfileStore,
    SurrogateModel,
    WorkloadProfile,
    profile_key,
)
from repro.surrogate.workloads import CALIBRATION_WORKLOADS
from repro.system import SimOutcome


def make_anchor(freq_hz: float, cycles: int = 1000, **over) -> AnchorRun:
    fields = dict(
        freq_hz=freq_hz,
        cycles=cycles,
        instructions=cycles // 2,
        completed=True,
        counts={"alu": float(cycles), "mem": freq_hz / 1e6},
        weights={"alu": 0.5},
        sim_wall_s=0.1,
    )
    fields.update(over)
    return AnchorRun(**fields)


def make_profile(**over) -> WorkloadProfile:
    fields = dict(
        key="a" * 64,
        workload="demo",
        freq_independent=False,
        anchors=[make_anchor(200e6), make_anchor(800e6, cycles=4000)],
        error_bounds={"total_w": 0.02, "epi_pj": 0.03, "cycles": 0.4},
    )
    fields.update(over)
    return WorkloadProfile(**fields)


class TestWorkloadProfile:
    def test_json_round_trip(self):
        profile = make_profile(
            validation=[{"freq_hz": 500e6, "total_w": 0.01}]
        )
        restored = WorkloadProfile.from_json(profile.to_json())
        assert restored.key == profile.key
        assert restored.freq_independent is False
        assert [a.freq_hz for a in restored.anchors] == [200e6, 800e6]
        assert restored.anchors[0].counts == profile.anchors[0].counts
        assert restored.error_bounds == profile.error_bounds
        assert restored.validation == profile.validation

    def test_rejects_unknown_schema_version(self):
        doc = make_profile().to_dict()
        doc["schema_version"] = PROFILE_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="repro calibrate"):
            WorkloadProfile.from_dict(doc)

    def test_requires_anchors(self):
        with pytest.raises(ValueError, match="at least one anchor"):
            make_profile(anchors=[])

    def test_rejects_duplicate_anchor_clocks(self):
        with pytest.raises(ValueError, match="distinct"):
            make_profile(
                anchors=[make_anchor(200e6), make_anchor(200e6)]
            )

    def test_anchors_sorted_by_clock(self):
        profile = make_profile(
            anchors=[make_anchor(800e6), make_anchor(200e6)]
        )
        assert profile.freq_min_hz == 200e6
        assert profile.freq_max_hz == 800e6

    def test_error_bound_gates_on_reported_figures_only(self):
        # The huge 'cycles' bar (integer granularity on short windows)
        # must not block dispatch; only the power/EPI figures gate.
        profile = make_profile()
        assert "cycles" not in GATE_METRICS
        assert profile.error_bound == pytest.approx(0.03)

    def test_empty_bounds_mean_exact(self):
        assert make_profile(error_bounds={}).error_bound == 0.0


class TestProfileStore:
    def test_save_then_get_round_trips(self, tmp_path):
        store = ProfileStore(tmp_path)
        profile = make_profile()
        path = store.save(profile)
        assert path.is_file()
        fresh = ProfileStore(tmp_path)  # no warm cache
        got = fresh.get(profile.key)
        assert got is not None
        assert got.to_dict() == profile.to_dict()

    def test_missing_key_is_none(self, tmp_path):
        assert ProfileStore(tmp_path).get("b" * 64) is None

    def test_damaged_file_reads_as_none(self, tmp_path):
        store = ProfileStore(tmp_path)
        profile = make_profile()
        store.save(profile)
        store.path_for(profile.key).write_text("{truncated")
        assert ProfileStore(tmp_path).get(profile.key) is None

    def test_foreign_key_file_reads_as_none(self, tmp_path):
        # A profile copied under another digest's name must not be
        # served for that digest.
        store = ProfileStore(tmp_path)
        profile = make_profile()
        store.save(profile)
        wrong = "c" * 64
        store.path_for(wrong).write_text(
            store.path_for(profile.key).read_text()
        )
        assert ProfileStore(tmp_path).get(wrong) is None

    def test_lookups_are_cached(self, tmp_path):
        store = ProfileStore(tmp_path)
        profile = make_profile()
        store.save(profile)
        assert store.get(profile.key) is not None
        store.path_for(profile.key).unlink()
        assert store.get(profile.key) is not None  # served from cache

    def test_keys_lists_saved_profiles(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.save(make_profile())
        assert store.keys() == ["a" * 64]
        assert ("a" * 64) in store


class TestSurrogateModel:
    def request(self, freq_hz: float):
        """A real request reshaped onto the synthetic profile's key."""
        req = CALIBRATION_WORKLOADS["int"].base_request(quick=True)
        return replace(req, freq_hz=freq_hz)

    def model(self, **over) -> SurrogateModel:
        return SurrogateModel(make_profile(**over))

    def test_envelope(self):
        model = self.model()
        assert model.in_envelope(self.request(200e6))
        assert model.in_envelope(self.request(500e6))
        assert model.in_envelope(self.request(800e6))
        assert not model.in_envelope(self.request(100e6))
        assert not model.in_envelope(self.request(900e6))

    def test_freq_independent_envelope_is_unbounded(self):
        model = self.model(
            freq_independent=True, anchors=[make_anchor(500e6)]
        )
        assert model.in_envelope(self.request(50e6))
        outcome = model.predict(self.request(50e6))
        assert outcome.tier == "fast"
        assert outcome.tier_err == 0.0
        assert outcome.result.cycles == 1000

    def test_predict_at_anchor_is_exact(self):
        outcome = self.model().predict(self.request(800e6))
        assert outcome.tier == "fast"
        assert outcome.tier_err == 0.0  # anchor replay, no interpolation
        assert outcome.result.cycles == 4000
        assert outcome.ledger.counts["alu"] == 4000.0

    def test_predict_interpolates_between_anchors(self):
        outcome = self.model().predict(self.request(500e6))
        assert outcome.result.cycles == 2500  # midpoint of 1000/4000
        assert outcome.ledger.counts["alu"] == pytest.approx(2500.0)
        assert outcome.ledger.counts["mem"] == pytest.approx(500.0)
        assert outcome.ledger.weights["alu"] == pytest.approx(0.5)
        assert outcome.tier_err == pytest.approx(0.03)

    def test_out_of_envelope_raises(self):
        with pytest.raises(ValueError, match="outside"):
            self.model().predict(self.request(900e6))


def fast_outcome(tier_err: float) -> SimOutcome:
    from repro.core.multicore import RunResult
    from repro.util.events import EventLedger

    return SimOutcome(
        ledger=EventLedger(),
        result=RunResult(cycles=1, instructions=1, completed=True),
        engine=None,
        tier="fast",
        tier_err=tier_err,
    )


def sim_outcome() -> SimOutcome:
    out = fast_outcome(0.0)
    out.tier = "sim"
    return out


class TestFidelityPolicy:
    def calibrated(self, tmp_path, request, **profile_over):
        store = ProfileStore(tmp_path)
        store.save(
            make_profile(key=profile_key(request), **profile_over)
        )
        return store

    def request(self, freq_hz: float = 500e6, checks: bool = False):
        req = CALIBRATION_WORKLOADS["int"].base_request(quick=True)
        return replace(req, freq_hz=freq_hz, checks=checks)

    def test_rejects_tier_sim(self, tmp_path):
        with pytest.raises(ValueError, match="no policy"):
            FidelityPolicy(store=ProfileStore(tmp_path), tier="sim")

    def test_uncalibrated_request_falls_back(self, tmp_path):
        tracer = Tracer()
        policy = FidelityPolicy(
            store=ProfileStore(tmp_path), tracer=tracer
        )
        assert policy.predict(self.request()) is None
        assert tracer.resilience["surrogate_fallbacks"] == 1

    def test_checked_request_always_falls_back(self, tmp_path):
        request = self.request(checks=True)
        # Key ignores nothing: a checks=True request has a different
        # digest, but even a matching profile must not serve it.
        store = self.calibrated(tmp_path, request)
        policy = FidelityPolicy(store=store)
        assert policy.predict(request) is None

    def test_auto_serves_within_tolerance(self, tmp_path):
        request = self.request()
        tracer = Tracer()
        policy = FidelityPolicy(
            store=self.calibrated(tmp_path, request),
            tolerance=0.05,
            tracer=tracer,
        )
        outcome = policy.predict(request)
        assert outcome is not None and outcome.tier == "fast"
        assert tracer.resilience["surrogate_hits"] == 1
        assert tracer.meta["surrogate_max_err"] == pytest.approx(0.03)

    def test_auto_falls_back_over_tolerance(self, tmp_path):
        request = self.request()
        policy = FidelityPolicy(
            store=self.calibrated(tmp_path, request), tolerance=0.01
        )
        assert policy.predict(request) is None

    def test_fast_serves_regardless_of_bound(self, tmp_path):
        request = self.request()
        policy = FidelityPolicy(
            store=self.calibrated(tmp_path, request),
            tier="fast",
            tolerance=0.0001,
        )
        assert policy.predict(request) is not None

    def test_out_of_envelope_falls_back_even_under_fast(self, tmp_path):
        request = self.request(freq_hz=50e6)
        tracer = Tracer()
        policy = FidelityPolicy(
            store=self.calibrated(tmp_path, request),
            tier="fast",
            tracer=tracer,
        )
        assert policy.predict(request) is None
        assert tracer.resilience["surrogate_fallbacks"] == 1


class TestAcceptsCachedOutcome:
    """The point journal's tier gate on real outcomes: what a resume
    at each fidelity may reuse from a stored point."""

    def policy(self, tmp_path, tier="auto", tolerance=0.05):
        return FidelityPolicy(
            store=ProfileStore(tmp_path), tier=tier, tolerance=tolerance
        )

    def accepts(self, tmp_path, outcome, fidelity) -> bool:
        journal = PointJournal(
            ResultCache(tmp_path / "cas"), manifest=False
        )
        digest = request_digest("point")
        journal.append(digest, outcome)
        return journal.get(digest, fidelity) is not None

    def test_sim_points_satisfy_every_tier(self, tmp_path):
        assert self.accepts(tmp_path, sim_outcome(), None)
        assert self.accepts(
            tmp_path, sim_outcome(), self.policy(tmp_path)
        )
        assert self.accepts(
            tmp_path, sim_outcome(), self.policy(tmp_path, tier="fast")
        )

    def test_fast_points_rejected_without_policy(self, tmp_path):
        # --tier sim resume of an auto journal re-simulates, never
        # silently keeps a surrogate point.
        assert not self.accepts(tmp_path, fast_outcome(0.001), None)

    def test_fast_points_gated_by_auto_tolerance(self, tmp_path):
        policy = self.policy(tmp_path, tolerance=0.05)
        assert self.accepts(tmp_path, fast_outcome(0.03), policy)
        assert not self.accepts(tmp_path, fast_outcome(0.10), policy)

    def test_fast_policy_accepts_any_fast_point(self, tmp_path):
        policy = self.policy(tmp_path, tier="fast", tolerance=0.0001)
        assert self.accepts(tmp_path, fast_outcome(0.5), policy)


class TestRunContextTier:
    def test_default_is_sim_with_no_policy(self):
        ctx = RunContext()
        assert ctx.tier == "sim"
        assert ctx.fidelity_policy() is None

    def test_auto_builds_policy(self, tmp_path):
        ctx = RunContext(
            tier="auto", fidelity=0.08, profile_dir=str(tmp_path)
        )
        policy = ctx.fidelity_policy()
        assert policy is not None
        assert policy.tier == "auto"
        assert policy.tolerance == 0.08
        assert policy.store.root == tmp_path

    def test_rejects_unknown_tier(self):
        with pytest.raises(ValueError, match="tier"):
            RunContext(tier="warp")

    def test_rejects_nonpositive_fidelity(self):
        with pytest.raises(ValueError, match="fidelity"):
            RunContext(fidelity=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True])
    def test_rejects_non_finite_fidelity(self, tmp_path, bad):
        with pytest.raises(ValueError, match="fidelity"):
            RunContext(fidelity=bad)
        with pytest.raises(ValueError, match="fidelity"):
            FidelityPolicy(store=ProfileStore(tmp_path), tolerance=bad)
