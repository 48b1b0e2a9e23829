"""The repository benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload sim_manycore --seed 1 \
        --seconds 15 --trace 0

Workloads (see README.md for why each exists): ``sim_manycore``,
``noc_mesh`` and ``serve_sweeps``. With ``--trace 0`` the run measures
for ``--seconds`` seconds and reports the end-to-end metrics; with
``--trace 1`` it runs the workload's fixed trace pass once untraced and
once traced, and reports the per-layer metrics and the tracing
overhead. Every operation's output is checked; the last line of
standard output is the JSON result. Lines before it, starting with
``#``, print the same figures under the per-workload names README.md
gives them, with units, plus the host fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

from common import (
    BENCH_DIR,
    ROOT,
    SETUP_REPEATS,
    BenchError,
    at_kernel_reference,
    at_spawn_reference,
    check_exact_counters,
    host_fingerprint,
    import_repro,
    median,
    peak_rss_mb,
    percentile,
    probe_setup_s,
    process_hwm_mb,
    kernel_samples,
    spawn_samples,
    work_dir,
)

WORKLOADS = ("sim_manycore", "noc_mesh", "serve_sweeps")

#: Measured sensitivity of each in-process workload's host time to the
#: kernel's, the exponent of ``common.at_kernel_reference``.
ALPHA = {"sim_manycore": 0.5, "noc_mesh": 1.0}
#: Length of one serve_sweeps segment between two spawn references.
SERVE_SEGMENT_S = 1.5

#: Metric names and units, from BENCHMARK.json at the checkout root.
#: End-to-end metrics (every workload reports all of them): "light" and
#: "heavy" are the workload's two classes of operation (README.md).
#: Per-layer times are shares of the traced pass's wall time ("frac");
#: layers a workload does not exercise read 0.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class Report:
    """What one run produced."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []
        self.metrics: dict[str, float] = {}
        #: Figures under their README.md names, for the ``#`` lines.
        self.figures: dict[str, tuple[float, str]] = {}
        self.extra: dict[str, object] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.faults) < 20:
            self.faults.append(what)

    def figure(self, key: str, value: float, unit: str) -> None:
        self.figures[key] = (value, unit)


# ------------------------------------------------------- in-process workloads
def _expected(workload: str) -> dict:
    path = BENCH_DIR / "expected" / f"{workload}.json"
    return json.loads(path.read_text())


class InProcess:
    """sim_manycore and noc_mesh: seeded operations run in this process."""

    def __init__(self, workload: str):
        import wl_noc
        import wl_sim

        self.workload = workload
        self.mod = wl_sim if workload == "sim_manycore" else wl_noc

    def prepare(self, seed: int):
        ops = self.mod.generate_ops(seed)
        return ops, self.mod.build_inputs(ops)

    def _run_ops(self, report: Report, keys, inputs, expected, on_op=None):
        """Run and check ``keys``; returns [(index, class, s, work)]."""
        rows = []
        for index, key in enumerate(keys):
            report.attempted += 1
            try:
                elapsed, work, dig, ok, detail = self.mod.execute(key, inputs)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                report.fail(f"{key}: {type(exc).__name__}: {exc}")
                continue
            if not ok:
                report.fail(f"{key}: incomplete run")
            elif expected.get(key) != dig:
                report.fail(f"{key}: digest {dig[:12]} != expected "
                            f"{str(expected.get(key))[:12]}")
            rows.append((index, self.mod.op_class(key), elapsed, work))
            if on_op is not None:
                on_op(key, work, detail)
        return rows

    def measure(self, report: Report, seed: int, seconds: float) -> None:
        # One CPU for the whole run, so the reference kernel times the
        # CPU the operations ran on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        setup_s = probe_setup_s(self.workload, seed)
        ops, inputs = self.prepare(seed)
        expected = _expected(self.workload)
        deadline = time.perf_counter() + seconds
        refs: list[list[float]] = []

        def keys():
            i = 0
            while time.perf_counter() < deadline or i < len(ops):
                refs.append(kernel_samples())
                yield ops[i % len(ops)]
                i += 1
            refs.append(kernel_samples())

        rows = self._run_ops(report, keys(), inputs, expected)
        # Each op's time is scaled to reference speed by the kernel runs
        # just before and just after it. Per class, the rate of each
        # whole pass; the median over passes keeps a burst of host noise
        # out of the figure.
        alpha = ALPHA[self.workload]
        passes = max(1, len(rows) // len(ops))
        rates, raw = {}, {}
        for cls in (self.mod.LIGHT, self.mod.HEAVY):
            per_pass, per_pass_raw = [], []
            for p in range(passes):
                sel = [(i, t, w) for i, c, t, w in rows
                       if c == cls and i // len(ops) == p]
                if not sel:  # every op of the class failed
                    continue
                work = sum(w for _, _, w in sel)
                per_pass_raw.append(work / sum(t for _, t, _ in sel) / 1e3)
                per_pass.append(work / sum(
                    at_kernel_reference(t, refs[i] + refs[i + 1], alpha)
                    for i, t, _ in sel) / 1e3)
            rates[cls] = median(per_pass)
            raw[cls] = median(per_pass_raw)
        report.metrics.update(
            setup_s=setup_s, peak_rss_mb=peak_rss_mb(),
            light_k_per_s=rates[self.mod.LIGHT],
            heavy_k_per_s=rates[self.mod.HEAVY])
        for cls in rates:
            label = f"{cls}_{self.mod.RATE_NAME}"
            report.figure(label, rates[cls], self.mod.RATE_UNIT)
            report.figure(label + "_wall", raw[cls], self.mod.RATE_UNIT)
        report.extra["passes"] = passes

    def traced(self, report: Report, seed: int, seconds: float) -> None:
        from tracing import SpanRecorder

        ops, inputs = self.prepare(seed)
        expected = _expected(self.workload)
        start = time.perf_counter()
        self._run_ops(report, ops, inputs, expected)
        untraced_s = time.perf_counter() - start

        rec = SpanRecorder()
        rec.calibrate()
        live = self.mod.instrument(rec)
        per_op: list[tuple[str, int, dict, dict]] = []

        def on_op(key, work, detail):
            per_op.append((key, work, detail, dict(live)))

        start = time.perf_counter()
        try:
            self._run_ops(report, ops, inputs, expected, on_op)
        finally:
            rec.unwrap_all()
        traced_s = time.perf_counter() - start
        rec.write(work_dir("trace") / f"{self.workload}.spans")
        if self.workload == "sim_manycore":
            exact = _sim_layers(report, rec, per_op, traced_s, self.mod)
        else:
            exact = _noc_layers(report, rec, per_op, traced_s, self.mod)
        _trace_common(report, rec, untraced_s, traced_s, exact)


def _deltas(per_op):
    """Per-op increments of the live counters."""
    prev: dict = {}
    for key, work, detail, snap in per_op:
        delta = {k: v - prev.get(k, 0) for k, v in snap.items()}
        yield key, work, detail, delta
        prev = snap


def _events(rec) -> tuple[int, float]:
    calls = rec.calls("events.record") + rec.calls("events.add_bulk")
    return calls, rec.self_s("events.record") + rec.self_s("events.add_bulk")


def _sim_layers(report, rec, per_op, wall, mod) -> dict:
    m = report.metrics
    cls_tot = {c: {"instructions": 0, "cycles": 0, "steps": 0, "idle": 0}
               for c in (mod.LIGHT, mod.HEAVY)}
    build_s = 0.0
    for key, work, detail, delta in _deltas(per_op):
        tot = cls_tot[mod.op_class(key)]
        tot["instructions"] += work
        tot["cycles"] += detail["cycles"]
        tot["steps"] += delta["steps"]
        tot["idle"] += delta["idle_steps"]
        build_s += detail["build_s"]
    steps = sum(t["steps"] for t in cls_tot.values())
    idle = sum(t["idle"] for t in cls_tot.values())
    m["core.steps"] = steps
    m["core.idle_step_frac"] = idle / steps if steps else 0.0
    for cls, tot in cls_tot.items():
        m[f"core.{cls}.idle_step_frac"] = (
            tot["idle"] / tot["steps"] if tot["steps"] else 0.0)
        m[f"sim.{cls}.instructions"] = tot["instructions"]
        m[f"sim.{cls}.cycles"] = tot["cycles"]
        m[f"sim.{cls}.ipc"] = (
            tot["instructions"] / tot["cycles"] if tot["cycles"] else 0.0)
    m["core.self_frac"] = rec.self_s("core.step") / wall
    m["engine.run_self_frac"] = rec.self_s("engine.run") / wall
    cache_self = 0.0
    for op, name in (("load", "loads"), ("store", "stores"),
                     ("fetch", "fetches"), ("atomic", "atomics")):
        m[f"cache.{name}"] = rec.calls(f"cache.{op}")
        cache_self += rec.self_s(f"cache.{op}")
    m["cache.self_frac"] = cache_self / wall
    records, events_self = _events(rec)
    m["events.records"] = records
    m["events.self_frac"] = events_self / wall
    m["system.build_frac"] = build_s / wall
    m["board.measure_frac"] = rec.total_s("board.measure") / wall
    for label in ("core.step", "engine.run", "cache.load", "cache.store",
                  "cache.atomic", "events.record", "board.measure"):
        report.figure(f"{label}.self_s", rec.self_s(label), "s")
    report.figure("system.build_s", build_s, "s")
    exact_names = ("core.steps", "cache.loads", "cache.stores",
                   "cache.fetches", "cache.atomics", "events.records")
    exact = {k: m[k] for k in exact_names}
    exact["core.idle_steps"] = idle
    for cls, tot in cls_tot.items():
        exact[f"sim.{cls}.instructions"] = tot["instructions"]
        exact[f"sim.{cls}.cycles"] = tot["cycles"]
    return exact


def _noc_layers(report, rec, per_op, wall, mod) -> dict:
    m = report.metrics
    phase = {c: {"router_steps": 0, "busy": 0}
             for c in (mod.LIGHT, mod.HEAVY)}
    flit_hops = 0
    for key, _work, detail, delta in _deltas(per_op):
        p = phase[mod.op_class(key)]
        p["router_steps"] += delta["router_steps"]
        p["busy"] += delta["busy_router_steps"]
        flit_hops += detail["flit_hops"]
    router_steps = sum(p["router_steps"] for p in phase.values())
    busy = sum(p["busy"] for p in phase.values())
    m["noc.steps"] = rec.calls("noc.step")
    m["noc.step_frac"] = rec.self_s("noc.step") / wall
    m["noc.drain_scan_frac"] = rec.self_s("noc.drain") / wall
    m["noc.busy_router_frac"] = busy / router_steps if router_steps else 0.0
    for cls, p in phase.items():
        m[f"noc.{cls}.busy_router_frac"] = (
            p["busy"] / p["router_steps"] if p["router_steps"] else 0.0)
    m["noc.flit_hops"] = flit_hops
    records, events_self = _events(rec)
    m["events.records"] = records
    m["events.self_frac"] = events_self / wall
    report.figure("noc.step_s", rec.self_s("noc.step"), "s")
    report.figure("noc.drain_scan_s", rec.self_s("noc.drain"), "s")
    report.figure("events.self_s", events_self, "s")
    return {"noc.steps": m["noc.steps"], "noc.flit_hops": flit_hops,
            "noc.busy_router_steps": busy, "events.records": records}


def _trace_common(report, rec, untraced_s, traced_s, exact) -> None:
    m = report.metrics
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    m["trace.spans"] = rec.span_count
    report.figure("untraced_pass_s", untraced_s, "s")
    report.figure("traced_pass_s", traced_s, "s")
    report.figure("trace.harness_us_per_span",
                  rec.harness_s["plain"] * 1e6, "us")
    report.extra["exact_counters"] = exact
    differing = check_exact_counters(report.workload, report.seed, exact)
    if differing:
        report.faults.append(
            "exact counters differ from an earlier run of the same code "
            f"and seed: {', '.join(differing)}")
        report.extra["counter_fault"] = differing


# ---------------------------------------------------------------- serve
class Serve:
    workload = "serve_sweeps"

    def measure(self, report: Report, seed: int, seconds: float) -> None:
        import wl_serve

        samples = []
        daemon = None
        refs = [spawn_samples()]
        try:
            for i in range(SETUP_REPEATS):
                start = time.perf_counter()
                requests = wl_serve.generate_requests(seed)
                gen_s = time.perf_counter() - start
                if daemon is not None:
                    daemon.cleanup()
                daemon = wl_serve.Daemon(f"seed{seed}-boot{i}")
                boot_s = daemon.start()
                refs.append(spawn_samples())
                samples.append(
                    at_spawn_reference(gen_s + boot_s, refs[-2] + refs[-1]))
            # The window runs in segments. Between two, with nothing in
            # flight, the spawn reference is timed; each request's latency
            # is scaled by the references on either side of its segment.
            outcomes, wall = [], 0.0
            end = time.perf_counter() + seconds
            before = refs[-1]
            while time.perf_counter() < end:
                segment, seg_wall = wl_serve.drive(
                    daemon, requests[len(outcomes):],
                    min(end, time.perf_counter() + SERVE_SEGMENT_S))
                after = spawn_samples()
                for out in segment:
                    out.scale = at_spawn_reference(1.0, before + after)
                outcomes += segment
                wall += seg_wall
                before = after
            rss = max(peak_rss_mb(), process_hwm_mb(daemon.proc.pid))
        finally:
            if daemon is not None:
                daemon.cleanup()
        self._verify(report, outcomes)
        lat = wl_serve.latency_summary(outcomes)
        hit_ms, miss_ms = lat["hit_p50_ms"], lat["miss_p50_ms"]
        report.metrics.update(
            setup_s=median(samples), peak_rss_mb=rss,
            light_k_per_s=1.0 / hit_ms if hit_ms else 0.0,
            heavy_k_per_s=1.0 / miss_ms if miss_ms else 0.0,
        )
        report.figure("hit_p50_ms_wall",
                      median(o.latency_s * 1e3 for o in outcomes
                             if o.cache == "hit"), "ms")
        report.figure("miss_p50_ms_wall",
                      median(o.latency_s * 1e3 for o in outcomes
                             if o.cache == "miss"), "ms")
        n = len(lat["all_ms"])
        report.figure("req_per_s", len(outcomes) / wall, "1/s")
        report.figure(f"req_p50_ms(n={n})", median(lat["all_ms"]), "ms")
        report.figure(f"req_p90_ms(n={n})",
                      percentile(lat["all_ms"], 90), "ms")
        report.figure(f"hit_p50_ms(n={len(lat['hit_ms'])})", hit_ms, "ms")
        report.figure(f"miss_p50_ms(n={len(lat['miss_ms'])})", miss_ms, "ms")

    def _verify(self, report: Report, outcomes) -> None:
        import wl_serve

        verifier = wl_serve.Verifier()
        for out in outcomes:
            report.attempted += 1
            why = verifier.check(out)
            if why:
                report.fail(f"{out.kind} {json.dumps(out.doc)}: {why}")

    def traced(self, report: Report, seed: int, seconds: float) -> None:
        import wl_serve
        from tracing import SpanRecorder

        requests = wl_serve.generate_requests(seed)[:wl_serve.TRACE_REQUESTS]
        passes = {}
        rec = SpanRecorder(threaded=True)
        rec.calibrate()
        for name, recorder in (("untraced", None), ("traced", rec)):
            daemon = wl_serve.Daemon(f"seed{seed}-{name}")
            try:
                daemon.start()
                outcomes, wall = wl_serve.drive(daemon, requests, None,
                                                recorder)
                status = json.loads(daemon.request("GET", "/v1/status")[2])
            finally:
                daemon.cleanup()
            self._verify(report, outcomes)
            passes[name] = (outcomes, wall, status)
        rec.write(work_dir("trace") / "serve_sweeps.spans")
        outcomes, wall, status = passes["traced"]
        m = report.metrics
        m["serve.hits"] = sum(o.cache == "hit" for o in outcomes)
        m["serve.misses"] = sum(o.cache == "miss" for o in outcomes)
        m["serve.coalesced"] = sum(o.cache == "coalesced" for o in outcomes)
        m["serve.rejected"] = sum(o.status in (429, 503) for o in outcomes)
        counters = [o.manifest.get("counters", {}) for o in outcomes
                    if o.manifest]
        misses = [o.manifest.get("counters", {}) for o in outcomes
                  if o.manifest and o.cache == "miss"]
        m["serve.worker_retries"] = sum(c.get("retries", 0) for c in counters)
        # A miss job counts its own whole-document miss in cas_misses
        # beside the worker's per-point misses.
        m["cas.point_hits"] = sum(c.get("cas_hits", 0) for c in misses)
        m["cas.point_misses"] = sum(c.get("cas_misses", 1) - 1 for c in misses)
        m["batch.groups"] = sum(c.get("batch_groups", 0) for c in misses)
        m["batch.points_coalesced"] = sum(
            c.get("batch_points_coalesced", 0) for c in misses)
        m["cas.entries"] = status["cas"]["entries"]
        m["cas.bytes"] = status["cas"]["bytes"]
        jobs = [(o.latency_s, o.manifest.get("wall_s") or 0.0)
                for o in outcomes if o.manifest and o.status == 200]
        latency = sum(lat for lat, _ in jobs)
        job_wall = sum(w for _, w in jobs)
        m["serve.job_wall_frac"] = job_wall / latency if latency else 0.0
        m["serve.http_overhead_frac"] = (
            (latency - job_wall) / latency if latency else 0.0)
        overhead_ms = [(lat - w) * 1e3 for lat, w in jobs]
        report.figure("serve.job_wall_ms_p50",
                    median(w * 1e3 for _, w in jobs), "ms")
        report.figure("serve.http_overhead_ms_p50", median(overhead_ms), "ms")
        untraced_wall = passes["untraced"][1]
        _trace_common(report, rec, untraced_wall, wall,
                      {"cas.entries": m["cas.entries"],
                       "requests": len(outcomes)})


# ------------------------------------------------------------------- main
def _result_line(report: Report) -> dict:
    names = PER_LAYER if report.trace else END_TO_END
    values = dict.fromkeys(names, 0.0)
    values.update({k: v for k, v in report.metrics.items() if k in names})
    if report.trace:
        values["failed_frac"] = report.failed / max(1, report.attempted)
    return {
        "correct": report.failed == 0 and not report.faults,
        "attempted": max(1, report.attempted),
        "failed": report.failed,
        "metrics": {k: {"value": v, "unit": names[k]}
                    for k, v in values.items()},
    }


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # One string-hash seed for this process and every process it
        # starts: dict layouts, and with them timings, then do not vary
        # from run to run for reasons outside the program.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run unwinds, so every daemon it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        import_repro()
        host = None if args.setup_probe else host_fingerprint()
        if args.setup_probe:
            if args.workload == "serve_sweeps":
                import wl_serve
                wl_serve.generate_requests(args.seed)
            else:
                InProcess(args.workload).prepare(args.seed)
            return 0
        runner = (Serve() if args.workload == "serve_sweeps"
                  else InProcess(args.workload))
        report = Report(args.workload, args.seed, bool(args.trace))
        if args.trace:
            runner.traced(report, args.seed, args.seconds)
        else:
            runner.measure(report, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"# host: nproc={host['nproc']} python={host['python']} "
          f"reference_mips={host['reference_mips']}")
    for key, (value, unit) in report.figures.items():
        print(f"# {args.workload} {key} = {value:.6g} {unit}")
    print(f"# {args.workload} failed_frac = "
          f"{report.failed / max(1, report.attempted):.6g} "
          f"(attempted {report.attempted})")
    for fault in report.faults:
        print(f"# FAULT {fault}")
    line = _result_line(report)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host,
              "figures": {k: v for k, (v, _) in report.figures.items()},
              "faults": report.faults, **report.extra, **line}
    out = work_dir("results") / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
