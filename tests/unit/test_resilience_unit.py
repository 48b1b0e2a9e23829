"""Unit coverage for the resilience layer: policies, the point
journal's framing, tier gate and corruption handling, atomic writes,
signal plumbing, and the worker fault injectors."""

from __future__ import annotations

import json
import os
import pickle
import signal
import struct
import subprocess
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.faults import (
    WORKER_FAULT_ENV,
    active_worker_fault,
    arm_worker_fault,
    disarm_worker_fault,
    inject_checkpoint_truncation,
)
from repro.experiments.context import RunContext, resolve_auto_jobs
from repro.obs import Tracer
from repro.resilience import (
    EXIT_RESUMABLE,
    GridInterrupted,
    PointJournal,
    ResultCache,
    RetryPolicy,
    backoff_schedule,
    derive_deadline,
    journal_status,
    request_digest,
    resumable_signals,
)
from repro.serve.journal import JobJournal
from repro.util.io import atomic_write_bytes, atomic_write_text


# ------------------------------------------------------------------ policy
def test_backoff_first_attempt_is_free():
    assert backoff_schedule(0) == 0.0
    assert backoff_schedule(-3) == 0.0


def test_backoff_grows_geometrically_then_caps():
    waits = [
        backoff_schedule(n, base_s=0.25, factor=2.0, cap_s=5.0)
        for n in (1, 2, 3, 4, 5, 6, 20)
    ]
    assert waits == [0.25, 0.5, 1.0, 2.0, 4.0, 5.0, 5.0]


def test_derive_deadline_needs_observations():
    assert derive_deadline([]) is None


def test_derive_deadline_scales_slowest_point_with_floor():
    # 8x the slowest completed point, but never below the floor.
    assert derive_deadline([0.1, 2.0], floor_s=5.0, factor=8.0) == 16.0
    assert derive_deadline([0.01], floor_s=5.0, factor=8.0) == 5.0


def test_retry_policy_validates():
    with pytest.raises(ValueError, match="retries"):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError, match="deadline_s"):
        RetryPolicy(deadline_s=0.0)


def test_retry_policy_explicit_deadline_wins():
    policy = RetryPolicy(deadline_s=3.0)
    assert policy.deadline_for([100.0]) == 3.0
    adaptive = RetryPolicy()
    assert adaptive.deadline_for([]) is None
    assert adaptive.deadline_for([2.0]) == 16.0


# ----------------------------------------------------------------- journal
@pytest.fixture
def outcome_payload():
    return {"ledger": {"alu": 42}, "cycles": 1234}


@dataclass
class _Outcome:
    """Picklable outcome stand-in carrying a fidelity tier."""

    value: int = 0
    tier: str = "sim"
    tier_err: float = 0.0


def _entries(path):
    return sorted(Path(path).rglob("*.cas"))


def test_journal_roundtrip(tmp_path, outcome_payload):
    journal = PointJournal.campaign(tmp_path / "j")
    digest = request_digest(("req", 0))
    journal.append(digest, outcome_payload)
    assert journal.get(digest) == outcome_payload
    assert len(_entries(tmp_path / "j")) == 1


def test_journal_digest_mismatch_is_a_miss(tmp_path, outcome_payload):
    journal = PointJournal.campaign(tmp_path / "j")
    journal.append(request_digest("grid A"), outcome_payload)
    reopened = PointJournal.campaign(tmp_path / "j", resume=True)
    # A point from a different grid shape must never be served.
    assert reopened.get(request_digest("grid B")) is None
    assert reopened.get(request_digest("grid A")) == outcome_payload


def test_journal_fresh_open_resets(tmp_path, outcome_payload):
    path = tmp_path / "j"
    digest = request_digest("x")
    PointJournal.campaign(path).append(digest, outcome_payload)
    fresh = PointJournal.campaign(path, resume=False)
    assert fresh.get(digest) is None
    assert not _entries(path)


def test_journal_detects_truncated_segment(tmp_path, outcome_payload):
    path = tmp_path / "j"
    journal = PointJournal.campaign(path)
    digests = [request_digest(("req", i)) for i in range(3)]
    for digest in digests:
        journal.append(digest, outcome_payload)

    report = inject_checkpoint_truncation(path, drop_bytes=5)
    torn = [d for d in digests if d.hex() in report.detail]
    assert len(torn) == 1

    resumed = PointJournal.campaign(path, resume=True)
    # Only the damaged entry is absent; intact points still serve.
    for digest in digests:
        expected = None if digest in torn else outcome_payload
        assert resumed.get(digest) == expected
    assert journal_status(path).damaged == [f"{torn[0].hex()}.cas"]


def test_journal_detects_corruption_after_scan(tmp_path, outcome_payload):
    path = tmp_path / "j"
    journal = PointJournal.campaign(path)
    digest = request_digest("req")
    entry = journal.append(digest, outcome_payload)
    blob = bytearray(entry.read_bytes())
    blob[-1] ^= 0xFF  # flip a payload bit under the CRC
    entry.write_bytes(bytes(blob))
    assert journal.get(digest) is None  # CRC checked on every read
    status = journal_status(path)
    assert status.damaged == [entry.name]
    assert status.points == 0


def test_journal_get_unpickles_only_verified_bytes(
    tmp_path, outcome_payload, monkeypatch
):
    journal = PointJournal.campaign(tmp_path / "j")
    digest = request_digest("req")
    entry = journal.append(digest, outcome_payload)
    good = entry.read_bytes()
    torn = good[:-5]
    # The entry is swapped for a torn one right after its first read.
    reads = iter([good])
    real_read_bytes = Path.read_bytes

    def swapping_read_bytes(self):
        if self == entry:
            return next(reads, torn)
        return real_read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", swapping_read_bytes)
    assert journal.get(digest) == outcome_payload  # the verified read
    assert journal.get(digest) is None  # torn from now on: a miss


def test_journal_complete_removes_directory(tmp_path, outcome_payload):
    path = tmp_path / "j"
    journal = PointJournal.campaign(path)
    journal.write_meta(experiment_id="fig13", points_expected=2)
    journal.append(request_digest("a"), outcome_payload)
    # Leftovers of the older per-index layout and of a killed writer.
    (path / "point-000000.seg").write_bytes(b"RJRN1\0 legacy")
    (path / ".tmp-stale").write_bytes(b"half an entry")
    journal.complete()
    assert not path.exists()


def test_journal_sweeps_stale_temp_files(tmp_path):
    path = tmp_path / "j"
    path.mkdir()
    (path / ".tmp-stale").write_bytes(b"half an entry")
    PointJournal.campaign(path, resume=False)
    assert not (path / ".tmp-stale").exists()


def test_journal_tier_gate_reads_header_before_unpickling(
    tmp_path, monkeypatch
):
    tracer = Tracer()
    journal = PointJournal.campaign(tmp_path / "j", tracer=tracer)
    fast = request_digest("fast point")
    journal.append(fast, _Outcome(1, tier="fast", tier_err=0.1))
    loads = []
    real_loads = pickle.loads
    monkeypatch.setattr(
        pickle, "loads", lambda b: loads.append(b) or real_loads(b)
    )
    auto = SimpleNamespace(tier="auto", tolerance=0.05)
    assert journal.get(fast) is None  # cycle-level requested
    assert journal.get(fast, auto) is None  # bound above tolerance
    assert tracer.resilience == {"points_tier_rejected": 2}
    assert loads == []  # rejected on the frame header alone
    loose = SimpleNamespace(tier="auto", tolerance=0.2)
    assert journal.get(fast, loose) == _Outcome(
        1, tier="fast", tier_err=0.1
    )
    assert len(loads) == 1
    # An absent point is a plain miss, not a rejection.
    assert journal.get(request_digest("absent")) is None
    assert tracer.resilience == {"points_tier_rejected": 2}


def test_journal_status_reports_counts(tmp_path, outcome_payload):
    path = tmp_path / "j"
    journal = PointJournal.campaign(path)
    journal.write_meta(experiment_id="fig13", points_expected=5)
    for i in range(2):
        journal.append(request_digest(i), outcome_payload)
    status = journal_status(path)
    assert status.exists
    assert status.experiment_id == "fig13"
    assert (status.points, status.points_expected) == (2, 5)
    assert status.complete is False
    assert status.bytes > 0
    assert status.damaged == []
    missing = journal_status(tmp_path / "nope")
    assert not missing.exists and missing.points == 0


def test_status_json_reads_each_entry_once(tmp_path, monkeypatch, capsys):
    from repro.cli import main
    from repro.resilience import store

    journal = PointJournal.campaign(tmp_path / "ckpt" / "fig13")
    journal.write_meta(experiment_id="fig13", points_expected=4)
    for i in range(3):
        journal.append(request_digest(i), {"point": i})
    inject_checkpoint_truncation(tmp_path / "ckpt" / "fig13")
    reads = []
    real_read_entry = store._read_entry
    monkeypatch.setattr(
        store,
        "_read_entry",
        lambda path: reads.append(path) or real_read_entry(path),
    )
    assert main([
        "status", "--json",
        "--checkpoint-dir", str(tmp_path / "ckpt"),
        "--cas-dir", str(tmp_path / "no-cas"),
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    fig13 = doc["experiments"]["fig13"]
    assert (fig13["points"], fig13["points_expected"]) == (2, 4)
    assert len(fig13["damaged"]) == 1
    assert len(reads) == 3  # one verified read per entry, not two


def test_checkpointed_run_never_loads_the_daemon(tmp_path):
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        "main(['run', 'fig11', '--quick', '--checkpoint-dir', 'ckpt'])\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'asyncio' or m.startswith('repro.serve')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[2] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"
    assert not (tmp_path / "ckpt" / "fig11").exists()


def test_request_digest_stable_and_discriminating():
    req = {"tiles": [0, 1], "window": 4000}
    assert request_digest(req) == request_digest(
        {"tiles": [0, 1], "window": 4000}
    )
    assert request_digest(req) != request_digest(
        {"tiles": [0, 1], "window": 4001}
    )
    assert len(request_digest(req)) == 32


# ------------------------------------------------------------ frame codec
# The two binary stores as ``(magic, header format, trailing fields,
# write, read)``; ``write(data)``/``read()`` go through the store's own
# API at its own on-disk path, so these cases pin the files, not just
# the codec.
def _job_store(root):
    def write(data):
        request = {"data": data.hex()}
        return JobJournal(root).record("run", "ab" * 32, "accepted", request)

    def read():
        return JobJournal(root).get("run", "ab" * 32)

    return b"RJOB1\0", ">IQ", (), write, read


def _cas_store(root):
    def write(data):
        return ResultCache(root).put(
            "point", "cd" * 32, data, tier="fast", tier_err=0.03
        )

    def read():
        return ResultCache(root).get("point", "cd" * 32)

    return b"RCAS1\0", ">IQBd", (1, 0.03), write, read


_STORES = [_job_store, _cas_store]


def _parent_layout(magic, fmt, fields, payload):
    return (
        magic
        + struct.pack(fmt, zlib.crc32(payload), len(payload), *fields)
        + payload
    )


@pytest.mark.parametrize("store", _STORES, ids=lambda s: s.__name__)
def test_frames_byte_compatible_with_original_layout(tmp_path, store):
    magic, fmt, fields, write, read = store(tmp_path / "s")
    path = write(b"payload")
    written = path.read_bytes()
    payload = written[len(magic) + struct.calcsize(fmt):]
    # Writers emit exactly the original layout...
    assert written == _parent_layout(magic, fmt, fields, payload)
    # ...and a file built from it by hand reads back.
    path.write_bytes(_parent_layout(magic, fmt, fields, payload))
    assert read() is not None


_damage = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 0.999)),
    st.tuples(st.just("flip"), st.floats(0.0, 0.999), st.integers(0, 7)),
    st.tuples(st.just("magic"), st.binary(min_size=1, max_size=6)),
)


@pytest.mark.parametrize("store", _STORES, ids=lambda s: s.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=64), damage=_damage)
def test_damaged_frames_read_as_absent(
    tmp_path_factory, store, data, damage
):
    magic, fmt, fields, write, read = store(tmp_path_factory.mktemp("s"))
    path = write(data)
    blob = bytearray(path.read_bytes())
    trailer = range(len(magic) + 12, len(magic) + struct.calcsize(fmt))
    kind = damage[0]
    if kind == "truncate":
        del blob[int(damage[1] * len(blob)):]
    elif kind == "flip":
        # Everything but the trailing fields is under the magic, length
        # or CRC check. The CAS tier fields sit outside the CRC in the
        # original layout, so they are not flipped here.
        positions = [i for i in range(len(blob)) if i not in trailer]
        blob[positions[int(damage[1] * len(positions))]] ^= 1 << damage[2]
    else:
        wrong = damage[1][: len(magic)]
        if magic.startswith(wrong):
            wrong = bytes([wrong[0] ^ 0xFF]) + wrong[1:]
        blob[: len(wrong)] = wrong
    path.write_bytes(bytes(blob))
    assert read() is None


# ----------------------------------------------------------- atomic writes
def test_atomic_write_replaces_content(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    atomic_write_text(target, "new")
    assert target.read_text() == "new"
    assert not list(tmp_path.glob(".*tmp*"))  # no temp litter


def test_atomic_write_ensure_newline(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "line", ensure_newline=True)
    assert target.read_text() == "line\n"


def test_atomic_write_failure_leaves_old_file(tmp_path, monkeypatch):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        atomic_write_bytes(target, b"new")
    assert target.read_bytes() == b"old"
    assert not list(tmp_path.glob(".*tmp*"))


# -------------------------------------------------------------- RunContext
def test_run_context_jobs_zero_means_auto():
    ctx = RunContext(jobs=0)
    assert ctx.jobs == resolve_auto_jobs() >= 1


def test_run_context_validates_resilience_knobs():
    with pytest.raises(ValueError, match="retries"):
        RunContext(retries=-1)
    with pytest.raises(ValueError, match="deadline_s"):
        RunContext(deadline_s=-2.0)


def test_run_context_supervision_default_is_none(tmp_path):
    # The idle library default: serial, nothing journaled, no pool —
    # supervision must cost nothing.
    assert RunContext().supervision("fig13") is None


def test_run_context_supervision_wires_policy_and_journal(tmp_path):
    ctx = RunContext(
        jobs=2,
        retries=5,
        deadline_s=9.0,
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    sup = ctx.supervision("fig13")
    assert sup.policy.retries == 5
    assert sup.policy.deadline_s == 9.0
    assert sup.journal is not None
    assert sup.journal.cache.root == tmp_path / "ckpt" / "fig13"
    assert sup.journal.manifest
    assert sup.experiment_id == "fig13"
    sup.journal.complete()
    assert not (tmp_path / "ckpt" / "fig13").exists()


def test_run_context_resume_uses_default_checkpoint_dir(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)  # default dir is CWD-relative
    digest = request_digest("point")
    PointJournal.campaign("results/checkpoints/fig11").append(digest, 7)
    sup = RunContext(resume=True).supervision("fig11")
    assert sup is not None
    assert sup.journal.get(digest) == 7  # resumed, not reset
    sup.journal.complete()


# ------------------------------------------------------------ worker faults
@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    monkeypatch.delenv(WORKER_FAULT_ENV, raising=False)


def test_worker_fault_arm_parse_disarm():
    assert active_worker_fault() is None
    arm_worker_fault("worker_crash", point=7)
    assert os.environ[WORKER_FAULT_ENV] == "worker_crash:7"
    assert active_worker_fault() == ("worker_crash", 7)
    disarm_worker_fault()
    assert active_worker_fault() is None


def test_worker_fault_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown worker fault"):
        arm_worker_fault("coffee_spill")


def test_worker_fault_malformed_spec_raises(monkeypatch):
    monkeypatch.setenv(WORKER_FAULT_ENV, "worker_crash")
    with pytest.raises(ValueError, match="malformed"):
        active_worker_fault()
    monkeypatch.setenv(WORKER_FAULT_ENV, "segfault:1")
    with pytest.raises(ValueError, match="unknown worker fault kind"):
        active_worker_fault()


def test_checkpoint_truncation_requires_segments(tmp_path):
    with pytest.raises(RuntimeError, match="no checkpoint entries"):
        inject_checkpoint_truncation(tmp_path)


# ---------------------------------------------------------------- signals
def test_exit_resumable_is_ex_tempfail():
    assert EXIT_RESUMABLE == 75


def test_grid_interrupted_is_a_keyboard_interrupt():
    # Pre-existing `except KeyboardInterrupt` cleanup must keep firing.
    assert issubclass(GridInterrupted, KeyboardInterrupt)
    assert GridInterrupted(signal.SIGTERM).signum == signal.SIGTERM


def test_resumable_signals_raise_and_restore():
    before = signal.getsignal(signal.SIGINT)
    with resumable_signals():
        with pytest.raises(GridInterrupted) as exc_info:
            os.kill(os.getpid(), signal.SIGINT)
        assert exc_info.value.signum == signal.SIGINT
    assert signal.getsignal(signal.SIGINT) is before
