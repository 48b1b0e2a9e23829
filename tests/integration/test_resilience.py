"""Fault tolerance end to end: crashed and hung workers must be
invisible in results, interrupted campaigns must resume bit-identical,
and damaged checkpoints must cost exactly the damaged points.

The simulator is a pure function of its request, so every recovery
path (retry, in-process fallback, journal replay) reproduces the clean
run exactly — these tests assert that, not statistical closeness.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import struct
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest

from repro.check.faults import (
    WORKER_FAULT_ENV,
    inject_checkpoint_truncation,
)
from repro.experiments.parallel import parallel_simulate
from repro.obs.trace import Tracer
from repro.resilience import (
    EXIT_RESUMABLE,
    PointJournal,
    PointFailure,
    RetryPolicy,
    SupervisedPool,
    Supervision,
    request_digest,
)
from repro.silicon.variation import CHIP3
from repro.system import PitonSystem
from repro.workloads.microbench import hist_workload, microbench_core_ids

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _no_armed_fault(monkeypatch):
    monkeypatch.delenv(WORKER_FAULT_ENV, raising=False)


def _grid_requests(count: int = 4):
    """Small multi-tile coherent points (shared-bucket Hist traffic)."""
    system = PitonSystem.default(persona=CHIP3, seed=13)
    return [
        system.sim_request(
            hist_workload(microbench_core_ids(tiles), 1).tiles,
            warmup_cycles=800,
            window_cycles=1_200,
        )
        for tiles in range(2, 2 + count)
    ]


def _ledgers(outcomes):
    return [
        (o.ledger.as_dict(), o.result.cycles, o.result.instructions)
        for o in outcomes
    ]


# --------------------------------------------------------- worker faults
def test_worker_crash_recovers_bit_identical(monkeypatch):
    serial = _ledgers(parallel_simulate(_grid_requests(), jobs=1))

    monkeypatch.setenv(WORKER_FAULT_ENV, "worker_crash:1")
    tracer = Tracer()
    survived = _ledgers(
        parallel_simulate(
            _grid_requests(),
            jobs=2,
            supervision=Supervision(tracer=tracer),
        )
    )
    assert survived == serial
    assert tracer.resilience["worker_crashes"] >= 1
    assert tracer.resilience["retries"] >= 1
    # The retry ran on a worker, not via the serial escape hatch.
    assert "fallback_in_process" not in tracer.resilience


def test_worker_hang_killed_by_deadline(monkeypatch):
    serial = _ledgers(parallel_simulate(_grid_requests(), jobs=1))

    monkeypatch.setenv(WORKER_FAULT_ENV, "worker_hang:0")
    tracer = Tracer()
    survived = _ledgers(
        parallel_simulate(
            _grid_requests(),
            jobs=2,
            supervision=Supervision(
                policy=RetryPolicy(deadline_s=3.0, backoff_base_s=0.05),
                tracer=tracer,
            ),
        )
    )
    assert survived == serial
    assert tracer.resilience["timeouts"] >= 1
    assert tracer.resilience["retries"] >= 1


def test_deterministic_failure_raises_point_failure():
    pool = SupervisedPool(
        _always_failing,
        jobs=2,
        policy=RetryPolicy(retries=1, backoff_base_s=0.01),
    )
    with pytest.raises(PointFailure, match="grid point"):
        pool.map(["task-a", "task-b"])


def _always_failing(task):
    raise ValueError(f"poisoned point: {task}")


# ------------------------------------------------------ checkpoint/resume
def test_resume_skips_journaled_points(tmp_path):
    requests = _grid_requests()
    clean = _ledgers(parallel_simulate(requests, jobs=1))

    # Fake an interrupted campaign: the first 2 of 4 points journaled,
    # exactly as an on_result append would have left them.
    serial_outcomes = list(parallel_simulate(_grid_requests(), jobs=1))
    journal = PointJournal.campaign(tmp_path / "grid")
    for index in range(2):
        journal.append(
            request_digest(requests[index]), serial_outcomes[index]
        )

    tracer = Tracer()
    resumed_journal = PointJournal.campaign(tmp_path / "grid", resume=True)
    resumed = _ledgers(
        parallel_simulate(
            _grid_requests(),
            jobs=2,
            supervision=Supervision(
                journal=resumed_journal, tracer=tracer
            ),
        )
    )
    assert resumed == clean
    assert tracer.resilience["points_resumed"] == 2
    assert tracer.resilience["points_simulated"] == 2
    # A consumed grid retires its journal.
    assert not (tmp_path / "grid").exists()


def test_stale_grid_journal_never_leaks(tmp_path):
    requests = _grid_requests()
    outcomes = list(parallel_simulate(_grid_requests(), jobs=1))
    journal = PointJournal.campaign(tmp_path / "grid")
    # Journal point 0 under the *wrong* digest (a different campaign).
    journal.append(request_digest("another grid"), outcomes[-1])

    tracer = Tracer()
    resumed = _ledgers(
        parallel_simulate(
            requests,
            jobs=1,
            supervision=Supervision(
                journal=PointJournal.campaign(tmp_path / "grid", resume=True),
                tracer=tracer,
            ),
        )
    )
    assert resumed == _ledgers(outcomes)
    assert "points_resumed" not in tracer.resilience
    assert tracer.resilience["points_simulated"] == len(requests)


def test_truncated_tail_resimulates_only_damaged_point(tmp_path):
    requests = _grid_requests()
    clean = _ledgers(parallel_simulate(requests, jobs=1))

    # Journal the full grid, as a run interrupted during its final
    # measurement replay would have (all simulated, none delivered).
    journal = PointJournal.campaign(tmp_path / "grid")
    for index, outcome in enumerate(
        parallel_simulate(_grid_requests(), jobs=1)
    ):
        journal.append(request_digest(requests[index]), outcome)

    inject_checkpoint_truncation(tmp_path / "grid", drop_bytes=9)

    tracer = Tracer()
    resumed = _ledgers(
        parallel_simulate(
            requests,
            jobs=1,
            supervision=Supervision(
                journal=PointJournal.campaign(tmp_path / "grid", resume=True),
                tracer=tracer,
            ),
        )
    )
    assert resumed == clean
    assert tracer.resilience["points_resumed"] == len(requests) - 1
    assert tracer.resilience["points_simulated"] == 1


def test_abandoned_grid_keeps_journal(tmp_path):
    requests = _grid_requests()
    journal = PointJournal.campaign(tmp_path / "grid")
    outcomes = parallel_simulate(
        requests,
        jobs=1,
        supervision=Supervision(journal=journal),
    )
    next(outcomes)
    outcomes.close()  # a consumer unwinding mid-measurement
    assert (tmp_path / "grid").exists()
    assert len(list((tmp_path / "grid").rglob("*.cas"))) == len(
        requests
    )


def test_parent_layout_campaign_resumes_bit_identical(tmp_path):
    """A campaign left in the older per-index ``RJRN1`` segment layout
    reads as all-miss: resumed, it re-simulates every point and still
    matches a clean run exactly, then retires the old files too."""
    requests = _grid_requests()
    clean = _ledgers(parallel_simulate(requests, jobs=1))
    grid = tmp_path / "grid"
    grid.mkdir()
    for index, outcome in enumerate(
        parallel_simulate(_grid_requests(), jobs=1)
    ):
        payload = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        header = struct.pack(
            ">IQ32s",
            zlib.crc32(payload),
            len(payload),
            request_digest(requests[index]),
        )
        (grid / f"point-{index:06d}.seg").write_bytes(
            b"RJRN1\0" + header + payload
        )
    (grid / "meta.json").write_text(
        json.dumps({"schema_version": 1, "points_expected": 4})
    )

    tracer = Tracer()
    resumed = _ledgers(
        parallel_simulate(
            requests,
            jobs=1,
            supervision=Supervision(
                journal=PointJournal.campaign(
                    grid, resume=True, tracer=tracer
                ),
                tracer=tracer,
            ),
        )
    )
    assert resumed == clean
    assert "points_resumed" not in tracer.resilience
    assert tracer.resilience["points_simulated"] == len(requests)
    assert not grid.exists()


# -------------------------------------------------- pool teardown hygiene
def _identity(task):
    return task


def test_supervised_pool_tears_down_on_interrupt():
    """A Ctrl-C landing in ``on_result`` (where the journal appends)
    mid-``map`` propagates and still reaps every worker."""
    import multiprocessing

    before = set(p.pid for p in multiprocessing.active_children())

    def interrupt(index, result):
        raise KeyboardInterrupt

    pool = SupervisedPool(_identity, jobs=2)
    with pytest.raises(KeyboardInterrupt):
        pool.map(["a", "b", "c"], on_result=interrupt)
    leaked = [
        p for p in multiprocessing.active_children() if p.pid not in before
    ]
    assert leaked == []


def test_supervised_pool_leaves_no_children(monkeypatch):
    import multiprocessing

    before = set(p.pid for p in multiprocessing.active_children())
    _ledgers(
        parallel_simulate(
            _grid_requests(2),
            jobs=2,
            supervision=Supervision(),
        )
    )
    time.sleep(0.1)
    after = set(p.pid for p in multiprocessing.active_children())
    assert after <= before


_ORPHAN_TASK = """
import os, time

def run(payload, emit):
    if payload == "hold":
        emit({"pid": os.getpid()})
        time.sleep(30)
    return os.getpid()
"""

_ORPHAN_SUPERVISOR = """
import orphan_task
from repro.resilience import SupervisedPool

SupervisedPool(orphan_task.run, jobs=2, isolate=True).map(
    ["quick", "hold"],
    on_result=lambda i, pid: print("idle", pid, flush=True),
    on_event=lambda i, event: print("busy", event["pid"], flush=True),
)
"""


def _process_alive(pid: int) -> bool:
    """True while ``pid`` runs (an exited, unreaped zombie is gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs procfs"
)
def test_isolated_worker_exits_when_supervisor_is_killed(tmp_path):
    """A SIGKILLed supervisor must not orphan its idle isolated worker
    blocked on its task queue."""
    (tmp_path / "orphan_task.py").write_text(_ORPHAN_TASK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(tmp_path)]
    )
    supervisor = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SUPERVISOR],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    pids: dict[str, int] = {}
    try:
        while len(pids) < 2:
            line = supervisor.stdout.readline()
            assert line, "supervisor exited before reporting its workers"
            role, pid = line.split()
            pids[role] = int(pid)
        supervisor.send_signal(signal.SIGKILL)
        supervisor.wait(timeout=30)
        deadline = time.monotonic() + 5.0
        while _process_alive(pids["idle"]):
            assert time.monotonic() < deadline, (
                f"idle worker {pids['idle']} outlived its supervisor"
            )
            time.sleep(0.05)
    finally:
        if supervisor.poll() is None:
            supervisor.kill()
            supervisor.wait(timeout=30)
        for pid in pids.values():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


# ------------------------------------------------------------ CLI circuit
def _repro(args, cwd, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop(WORKER_FAULT_ENV, None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _strip(doc):
    return {k: v for k, v in doc.items() if k != "manifest"}


@pytest.mark.slow
def test_cli_sigint_then_resume_bit_identical(tmp_path):
    run = [
        "run",
        "fig11",
        "--quick",
        "--jobs",
        "2",
        "--json",
    ]
    clean_proc = _repro(
        run + ["--out", "clean.json"], cwd=tmp_path
    )
    assert clean_proc.wait(timeout=120) == 0, clean_proc.stdout.read()

    proc = _repro(run + ["--out", "resumed.json"], cwd=tmp_path)
    time.sleep(1.0)
    proc.send_signal(signal.SIGINT)
    code = proc.wait(timeout=60)
    if code == 0:  # the grid won the race; nothing to resume
        pytest.skip("run finished before SIGINT landed")
    assert code == EXIT_RESUMABLE, proc.stdout.read()
    ckpt = tmp_path / "results" / "checkpoints" / "fig11"
    assert ckpt.is_dir() and list(ckpt.rglob("*.cas"))

    resumed_proc = _repro(
        run + ["--out", "resumed.json", "--resume"], cwd=tmp_path
    )
    assert resumed_proc.wait(timeout=120) == 0, resumed_proc.stdout.read()
    assert not ckpt.exists()  # retired after the successful resume

    clean = json.loads((tmp_path / "clean.json").read_text())
    resumed = json.loads((tmp_path / "resumed.json").read_text())
    assert _strip(resumed) == _strip(clean)
    counters = resumed["manifest"]["resilience"]
    assert counters.get("points_resumed", 0) >= 1
    # Resumed points were loaded, not re-simulated: the two counters
    # partition the grid.
    total = counters["points_resumed"] + counters["points_simulated"]
    assert counters["points_simulated"] < total
