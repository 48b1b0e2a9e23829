"""Batched execution end to end: experiments, pools, and resume.

``--batch`` may only change wall-clock time. These tests pin that at
the layers above :mod:`repro.batch`: a registry experiment's full
result document is identical with batching on and off (and across
worker pools), and a checkpoint journal written by one mode resumes
cleanly under the other — the journal format never learns about
batching.
"""

from __future__ import annotations

from repro.check.golden import strip_document
from repro.experiments import RunContext, fig11_epi
from repro.experiments.parallel import parallel_simulate
from repro.experiments.sweep import SweepPoint, sweep
from repro.obs.trace import Tracer
from repro.resilience import PointJournal, Supervision
from repro.silicon.variation import CHIP1, CHIP2, CHIP3
from repro.system import PitonSystem
from repro.workloads.microbench import int_tile

POINTS = [
    SweepPoint(persona=p, vdd=v)
    for p in (CHIP1, CHIP2, CHIP3)
    for v in (0.9, 1.05)
]


def _requests():
    requests = []
    for point in POINTS:
        system = PitonSystem.default(persona=point.persona, seed=0)
        freq = point.resolved_freq_hz()
        system.set_operating_point(point.vdd, point.vdd + 0.05, freq)
        requests.append(
            system.sim_request(
                {0: int_tile()}, warmup_cycles=200, window_cycles=800
            )
        )
    return requests


def _documents_equal(a, b) -> None:
    assert strip_document(a.to_dict()) == strip_document(b.to_dict())


def test_fig11_document_identical_batch_on_off():
    batched = fig11_epi.run(RunContext(quick=True, batch=True))
    serial = fig11_epi.run(RunContext(quick=True, batch=False))
    _documents_equal(batched, serial)


def test_fig11_document_identical_batch_with_jobs():
    pooled = fig11_epi.run(RunContext(quick=True, batch=True, jobs=2))
    serial = fig11_epi.run(RunContext(quick=True, batch=False))
    _documents_equal(pooled, serial)


def test_batch_counters_reach_manifest():
    # Telemetry is opt-in; counters appear only with a live tracer.
    result = fig11_epi.run(
        RunContext(quick=True, batch=True, tracer=Tracer())
    )
    manifest = result.manifest.to_dict()
    assert manifest["batch"] is True
    assert manifest["resilience"].get("batch_groups", 0) >= 1


def _assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.result == w.result
        assert list(g.ledger.counts.items()) == list(
            w.ledger.counts.items()
        )
        assert dict(g.ledger.weights) == dict(w.ledger.weights)


def _interrupted_run(requests, journal_dir, batch):
    """Journal a full grid, then abandon delivery after two points.

    Both execution paths journal every completed point the moment it
    exists; only a fully *delivered* grid retires the journal. Closing
    the iterator early models an interrupt unwinding through the
    measurement replay and leaves the journal on disk for resume.
    """
    supervision = Supervision(
        journal=PointJournal.campaign(journal_dir, resume=False),
        experiment_id="batch-it",
    )
    outcomes = parallel_simulate(
        requests, supervision=supervision, batch=batch
    )
    next(outcomes), next(outcomes)
    outcomes.close()


def test_journal_written_serial_resumes_batched(tmp_path):
    requests = _requests()
    baseline = list(parallel_simulate(requests, batch=False))
    _interrupted_run(requests, tmp_path / "j", batch=False)

    tracer = Tracer()
    second = Supervision(
        journal=PointJournal.campaign(tmp_path / "j", resume=True),
        tracer=tracer,
        experiment_id="batch-it",
    )
    resumed = list(
        parallel_simulate(requests, supervision=second, batch=True)
    )
    _assert_same_outcomes(resumed, baseline)
    # Every point came off disk; nothing was re-simulated.
    assert tracer.resilience["points_resumed"] == len(requests)
    assert "points_simulated" not in tracer.resilience


def test_journal_written_batched_resumes_serial(tmp_path):
    requests = _requests()
    baseline = list(parallel_simulate(requests, batch=False))
    _interrupted_run(requests, tmp_path / "j", batch=True)

    tracer = Tracer()
    second = Supervision(
        journal=PointJournal.campaign(tmp_path / "j", resume=True),
        tracer=tracer,
        experiment_id="batch-it",
    )
    resumed = list(
        parallel_simulate(requests, supervision=second, batch=False)
    )
    _assert_same_outcomes(resumed, baseline)
    assert tracer.resilience["points_resumed"] == len(requests)


def test_sweep_matches_across_batch_and_jobs():
    factory = lambda tile: int_tile()  # noqa: E731
    kwargs = dict(warmup_cycles=200, window_cycles=800)
    serial = sweep(POINTS, factory, batch=False, **kwargs)
    batched = sweep(POINTS, factory, batch=True, **kwargs)
    pooled = sweep(POINTS, factory, batch=True, jobs=2, **kwargs)
    assert batched.records == serial.records
    assert pooled.records == serial.records
