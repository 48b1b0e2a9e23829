"""Shared plumbing for the benchmark: paths, the repro import, statistics,
set-up timing, the reference speeds, the host fingerprint, and the
exact-counter ledger.

Everything the benchmark writes at run time goes under ``.perfbench/`` in
the checkout it runs from; nothing is written elsewhere.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run here (e.g. no program to measure)."""


def import_repro():
    """Put ``src/`` on the path and import the package under test."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    return repro


def child_env() -> dict[str, str]:
    """Environment for subprocesses that import ``repro`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def work_dir(*parts: str) -> Path:
    path = WORK.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ------------------------------------------------------------------ statistics
def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def digest(obj) -> str:
    """sha256 of the canonical JSON form (floats keep every digit)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ledger_doc(ledger) -> dict:
    """An event ledger as plain sorted data, for digests."""
    return {
        "counts": sorted((k, v) for k, v in ledger.counts.items()),
        "weights": sorted((k, v) for k, v in ledger.weights.items()),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB; 0 if unknown."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


# ------------------------------------------------------------------ set-up
def probe_setup_s(workload: str, seed: int) -> float:
    """Median set-up time, at reference speed, of a fresh interpreter
    that imports ``repro`` and generates this workload's inputs
    (``run.py --setup-probe``)."""
    samples = []
    refs = [spawn_samples()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable,
                str(BENCH_DIR / "run.py"),
                "--setup-probe",
                "--workload",
                workload,
                "--seed",
                str(seed),
            ],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(
                "set-up probe failed: " + proc.stderr.decode()[-2000:]
            )
        refs.append(spawn_samples())
        samples.append(at_spawn_reference(elapsed, refs[-2] + refs[-1]))
    return median(samples)


# ---------------------------------------- reference speed, host fingerprint
class _Cell:
    __slots__ = ("acc", "slots")

    def __init__(self):
        self.acc = 0
        self.slots = [0] * 8

    def step(self, i: int) -> int:
        self.acc = (self.acc * 31 + i) & 0xFFFFFFFF
        self.slots[i & 7] += 1
        return self.acc


#: Loop iterations of one reference-kernel run (a few milliseconds).
REF_ITERATIONS = 4000


def reference_kernel_s() -> float:
    """Wall time of one run of a fixed pure-Python kernel.

    The kernel does what the simulator's hot loops do (method calls,
    attribute and list updates, dict stores, integer arithmetic), so
    host slowdowns that hit the simulator hit it too.
    """
    cell = _Cell()
    table = {}
    start = time.perf_counter()
    for i in range(REF_ITERATIONS):
        table[cell.step(i) & 1023] = i
    return time.perf_counter() - start


# Host times are reported at a reference speed. The sandbox's speed
# drifts by up to 1.8x over seconds to minutes, so each measured time t
# is scaled by a same-host reference r timed around it:
# t * (nominal / r) ** alpha. Two references: the kernel above for
# in-process operations, and the spawn of a bare interpreter for work
# spread over processes (set-up, the daemon). alpha is measured, not
# chosen: the slope of log host time on log reference time across the
# host's speed modes (README.md).

#: The kernel's median time on the 2-CPU sandbox the benchmark was
#: tuned on.
KERNEL_NOMINAL_S = 0.0015
#: ``python -c pass``'s median wall time on the same sandbox.
SPAWN_NOMINAL_S = 0.06
#: Reference runs timed before each measured interval.
REF_SAMPLES = 3


def kernel_samples() -> list[float]:
    return [reference_kernel_s() for _ in range(REF_SAMPLES)]


def spawn_samples() -> list[float]:
    out = []
    for _ in range(REF_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        out.append(time.perf_counter() - start)
    return out


def at_kernel_reference(seconds: float, refs: list[float],
                        alpha: float) -> float:
    return seconds * (KERNEL_NOMINAL_S / median(refs)) ** alpha


def at_spawn_reference(seconds: float, refs: list[float]) -> float:
    """Set-up and daemon latencies follow the spawn time, alpha 1."""
    return seconds * SPAWN_NOMINAL_S / median(refs)


def reference_score(repeats: int = 15) -> float:
    """Same-host reference score, in million kernel iterations per second."""
    return REF_ITERATIONS / median(
        reference_kernel_s() for _ in range(repeats)) / 1e6


def host_fingerprint() -> dict:
    """Reported with every result so that trajectories from different
    hosts can be read side by side; never gated on."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "reference_mips": reference_score(),
    }


# ------------------------------------------------------- exact work counters
def code_fingerprint() -> str:
    """sha256 over every source file of the program under test."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_exact_counters(
    workload: str, seed: int, counters: dict
) -> list[str]:
    """Compare this run's deterministic counters with an earlier run of
    the same code and seed; record them if there is none.

    Counters are exact by construction, so any difference is a benchmark
    fault (nondeterminism), never noise. Returns the differing names.
    """
    path = work_dir("counters") / (
        f"{workload}-seed{seed}-{code_fingerprint()}.json"
    )
    if path.is_file():
        earlier = json.loads(path.read_text())
        return sorted(
            name
            for name in set(earlier) | set(counters)
            if earlier.get(name) != counters.get(name)
        )
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counters, sort_keys=True, indent=1))
    tmp.replace(path)
    return []
