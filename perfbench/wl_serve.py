"""Workload ``serve_sweeps``: the ``repro serve`` daemon under a closed loop.

The benchmark starts ``python -m repro serve`` as a subprocess on a
fresh result store (CAS) and job journal under ``.perfbench/``, waits
for its first 200 on ``GET /v1/status``, and then drives it from one
client process with a closed loop of ``CONNECTIONS`` connections: each
connection sends its next request only when the previous reply is in.
Requests come from a seeded sequence of quick ``POST /v1/sweep``
documents over the four named calibration workloads (``int``,
``hist``, ``mem_l2``, ``mem_dram``), each a grid of 2 random personas x
2 random VDDs x 2 frequencies, plus an occasional ``GET /v1/status``:

* exact repeats: whole-document CAS hits (the "light" class when
  served as ``X-Repro-Cache: hit``);
* overlapping grids: one frequency of an earlier grid kept and one
  new, so the worker reads per-point CAS entries beside a simulated
  point;
* novel grids: two new frequencies, everything simulated and written.

This is the only workload that exercises HTTP admission, worker-process
spawn, the job journal, CAS frames and in-worker batching. The
simulation behind a request is small, so service overhead dominates.

Sized for a 2-CPU sandbox: the load comes from one client process with
at most two connections, and the daemon's worker tier is no larger
than the number of CPUs this process may use.

Every 200 sweep body is checked byte for byte against the in-process
``repro.sweepspec.sweep_document`` for the same spec, with the two
fields that legitimately differ per execution (``wall_s`` and the
per-point cache counters) taken from the response.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

from common import BenchError, child_env, median, work_dir

CONNECTIONS = 2
WORKLOADS = ("int", "hist", "mem_l2", "mem_dram")
PERSONAS = ("chip1", "chip2", "chip3")
VDD = (0.85, 0.9, 0.95, 1.0, 1.05, 1.1)
#: New grids draw frequencies never used before for their workload, in
#: 0.1 MHz steps: the frequency is what makes two points two simulations
#: (persona and VDD only change the pricing), so every new frequency is
#: a simulated point, however long the run.
FREQ_RANGE_MHZ = (200.0, 800.0)

#: Request kinds of one block of the sequence, shuffled per block by
#: the seed: every block has the same mix, whatever the seed. A status
#: document lists every job the daemon has run, so its cost grows with
#: the run; one per block keeps the load close to stationary.
BLOCK = ("repeat",) * 12 + ("overlap",) * 4 + ("novel",) * 3 + ("status",)
#: Requests before the blocks start: repeats and overlaps need history.
WARMUP_NOVEL = 2
SEQUENCE_BLOCKS = 200
#: The traced run and the exact counters use this fixed prefix.
TRACE_REQUESTS = 6 * len(BLOCK) + WARMUP_NOVEL

BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0


# ------------------------------------------------------------------- inputs
def _spec_id(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def generate_requests(seed: int) -> list[tuple[str, dict | None]]:
    """The seeded request sequence: (kind, sweep spec or None).

    Every grid is 2 personas x 2 VDD x 2 frequencies. A novel grid
    brings two new frequencies (two simulated points); an overlapping
    grid keeps one frequency of an earlier grid of its workload (a
    per-point CAS read) and brings one new one. New grids take the four
    workloads in turn, so every stretch of the sequence does the same
    work.
    """
    rng = random.Random(f"serve_sweeps:{seed}")
    seen: dict[str, dict] = {}
    used: dict[str, set] = {w: set() for w in WORKLOADS}
    out: list[tuple[str, dict | None]] = []
    turn = rng.randrange(len(WORKLOADS))

    def next_workload() -> str:
        nonlocal turn
        turn += 1
        return WORKLOADS[turn % len(WORKLOADS)]

    def new_freq(workload: str) -> float:
        while True:
            freq = round(rng.uniform(*FREQ_RANGE_MHZ), 1)
            if freq not in used[workload]:
                used[workload].add(freq)
                return freq

    def grid(workload: str, freqs: list[float]) -> dict:
        return {
            "schema_version": 1,
            "workload": workload,
            "personas": sorted(rng.sample(PERSONAS, 2)),
            "vdd": sorted(rng.sample(VDD, 2)),
            "freq_mhz": sorted(freqs),
            "quick": True,
        }

    kinds = ["novel"] * WARMUP_NOVEL
    for _ in range(SEQUENCE_BLOCKS):
        block = list(BLOCK)
        rng.shuffle(block)
        kinds += block
    for kind in kinds:
        if kind == "status":
            out.append(("status", None))
            continue
        if kind == "repeat":
            doc = rng.choice(list(seen.values()))
        else:
            workload = next_workload()
            earlier = [d for d in seen.values() if d["workload"] == workload]
            if kind == "overlap" and earlier:
                kept = rng.choice(rng.choice(earlier)["freq_mhz"])
                doc = grid(workload, [kept, new_freq(workload)])
            else:
                doc = grid(workload, [new_freq(workload), new_freq(workload)])
        seen.setdefault(_spec_id(doc), doc)
        out.append((kind, doc))
    return out


def request_mix(requests) -> dict:
    mix: dict[str, int] = {}
    for kind, _ in requests:
        mix[kind] = mix.get(kind, 0) + 1
    return mix


# ------------------------------------------------------------------- daemon
def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def daemon_workers() -> int:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return max(1, min(CONNECTIONS, nproc))


class Daemon:
    """One ``repro serve`` subprocess on its own fresh store."""

    def __init__(self, name: str):
        self.root = work_dir("serve") / name
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.port = _free_port()
        self.proc: subprocess.Popen | None = None

    def start(self) -> float:
        """Spawn and wait for the first 200; returns the boot time."""
        log = open(self.root / "daemon.log", "wb")
        start = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--host", "127.0.0.1", "--port", str(self.port),
                    "--cas-dir", str(self.root / "cas"),
                    "--jobs-dir", str(self.root / "jobs"),
                    "--checkpoint-dir", str(self.root / "checkpoints"),
                    "--profile-dir", str(self.root / "surrogate"),
                    "--workers", str(daemon_workers()),
                ],
                cwd=self.root,
                env=child_env(),
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        finally:
            log.close()
        while True:
            if self.proc.poll() is not None:
                raise BenchError(
                    "daemon exited during boot: "
                    + (self.root / "daemon.log").read_text()[-2000:]
                )
            try:
                status, _, _ = self.request("GET", "/v1/status", timeout=5)
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() - start > BOOT_TIMEOUT_S:
                raise BenchError(
                    "daemon did not answer within the boot timeout")
            time.sleep(0.01)
        return time.perf_counter() - start

    def request(self, method: str, path: str, body: bytes | None = None,
                timeout: float = REQUEST_TIMEOUT_S):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, dict(resp.getheaders()), resp.read()
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (the daemon drains), then make sure the group is gone."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        self.proc = None

    def cleanup(self) -> None:
        self.stop()
        shutil.rmtree(self.root, ignore_errors=True)


# ------------------------------------------------------------------ driving
class Outcome:
    __slots__ = ("kind", "doc", "status", "cache", "job", "body",
                 "latency_s", "scale", "error", "manifest")

    def __init__(self, kind, doc):
        self.kind, self.doc = kind, doc
        self.status = 0
        self.cache = ""
        self.job = ""
        self.body = b""
        self.latency_s = 0.0
        #: Factor to the reference speed (see run.py), 1 if unscaled.
        self.scale = 1.0
        self.error = ""
        self.manifest = None


def drive(daemon: Daemon, requests, deadline: float | None,
          rec=None) -> tuple[list[Outcome], float]:
    """Closed loop over ``requests`` with CONNECTIONS connections.

    Stops issuing at ``deadline`` (``None``: run the whole list). With a
    span recorder, each request is a span and its job manifest is read
    from ``GET /v1/jobs/<id>`` as a child span.
    """
    lock = threading.Lock()
    cursor = iter(list(enumerate(requests)))
    outcomes: list[Outcome | None] = [None] * len(requests)

    def one(kind: str, doc) -> Outcome:
        out = Outcome(kind, doc)
        start = time.perf_counter()
        try:
            if kind == "status":
                out.status, _, out.body = daemon.request("GET", "/v1/status")
            else:
                out.status, headers, out.body = daemon.request(
                    "POST", "/v1/sweep", json.dumps(doc).encode("utf-8"))
                out.cache = headers.get("X-Repro-Cache", "")
                out.job = headers.get("X-Repro-Job", "")
            out.latency_s = time.perf_counter() - start
            if rec is not None and out.job:
                with rec.span("serve.get_job"):
                    status, _, body = daemon.request(
                        "GET", f"/v1/jobs/{out.job}")
                if status == 200:
                    out.manifest = json.loads(body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            out.latency_s = time.perf_counter() - start
            out.error = f"{type(exc).__name__}: {exc}"
        return out

    def client() -> None:
        while True:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            index, (kind, doc) = item
            if rec is None:
                outcomes[index] = one(kind, doc)
            else:
                name = "get_status" if kind == "status" else "post_sweep"
                with rec.span(f"serve.{name}"):
                    outcomes[index] = one(kind, doc)

    start = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return [o for o in outcomes if o is not None], wall


# ------------------------------------------------------------ verification
class Verifier:
    """Expected sweep documents, computed in process and memoised by point."""

    def __init__(self):
        from repro.experiments import RunContext

        self._ctx = RunContext(quick=True, jobs=1, out_format="json")
        self._records: dict[tuple, object] = {}

    @staticmethod
    def _point_keys(spec) -> list[tuple]:
        return [
            (spec.workload, persona, vdd, freq)
            for persona in spec.personas for vdd in spec.vdd
            for freq in spec.freq_mhz
        ]

    def expected_body(self, doc: dict, response: dict) -> bytes:
        from repro.experiments.sweep import SweepResult
        from repro.sweepspec import SweepSpec, run_sweepspec, sweep_document

        spec = SweepSpec.from_dict(doc)
        keys = self._point_keys(spec)
        if any(k not in self._records for k in keys):
            result = run_sweepspec(spec, self._ctx, supervision=None,
                                   use_context_supervision=False)
            self._records.update(zip(keys, result.records))
        cache = response.get("cache", {})
        expected = sweep_document(
            spec,
            SweepResult(records=[self._records[k] for k in keys]),
            tier="sim",
            fidelity=0.05,
            wall_s=response.get("wall_s"),
            counters={"cas_hits": cache.get("hits", 0),
                      "cas_misses": cache.get("misses", 0)},
            meta={},
        )
        return (json.dumps(expected, indent=2) + "\n").encode("utf-8")

    def check(self, out: Outcome) -> str:
        """'' when the outcome is a correct 200, else why it is not."""
        if out.error:
            return out.error
        if out.status != 200:
            return f"HTTP {out.status}"
        try:
            body = json.loads(out.body)
        except ValueError:
            return "response is not JSON"
        if out.kind == "status":
            return "" if "cas" in body and "service" in body else "bad status"
        if out.cache not in ("hit", "miss", "coalesced"):
            return f"unknown X-Repro-Cache {out.cache!r}"
        try:
            expected = self.expected_body(out.doc, body)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            return f"no expected document: {type(exc).__name__}: {exc}"
        if expected != out.body:
            return "body differs from the in-process sweep_document"
        return ""


def latency_summary(outcomes: list[Outcome]) -> dict:
    """Client latencies in ms, at reference speed."""
    def ms(pred):
        return [o.latency_s * o.scale * 1e3 for o in outcomes if pred(o)]

    hits = ms(lambda o: o.cache == "hit")
    misses = ms(lambda o: o.cache == "miss")
    return {"all_ms": ms(lambda o: o.status == 200), "hit_ms": hits,
            "miss_ms": misses, "hit_p50_ms": median(hits),
            "miss_p50_ms": median(misses)}
