"""Deterministic fault injection against the simulator's bookkeeping.

Each injector corrupts one subsystem the way a real bookkeeping bug
(or a single-event upset in the modelled hardware) would, so the test
suite can prove every :class:`~repro.check.invariants.CheckSuite`
checker actually fires — a checker that never trips under injected
faults is dead weight, not an oracle.

All injectors are seeded and pure functions of the target's current
state: the same seed against the same state corrupts the same site.
They return a :class:`FaultReport` describing exactly what was done,
and raise :class:`RuntimeError` when the target holds no injectable
state (the fault tests drive a small workload first to create sites).

Scenario -> detecting checker:

================== ==========================================
fault              checker that must fire
================== ==========================================
tag bit-flip       ``directory`` (MESI/directory agreement)
dropped flit       ``mesh`` (flit conservation)
duplicated flit    ``mesh`` (flit conservation)
stalled router     ``mesh`` (forward progress)
DRAM timeout       ``access`` (latency bound)
cap breach         ``gov_cap`` (budget soundness)
off-tick sample    ``gov_tick`` (actuation on the tick grid)
hysteresis chatter ``gov_dwell`` (trip/clear dwell spacing)
energy leak        ``gov_energy`` (ledger conservation)
================== ==========================================
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.system import CoherentMemorySystem
    from repro.governor.controller import GovernedTrace
    from repro.noc.mesh import MeshNetwork

#: Every injectable scenario, for tests that sweep all of them.
FAULT_KINDS = (
    "tag_bitflip",
    "dropped_flit",
    "duplicated_flit",
    "stalled_router",
    "dram_timeout",
)

#: Governor-trace corruptions; each must trip the matching
#: ``check_governor`` invariant (see the table above).
GOVERNOR_FAULT_KINDS = (
    "gov_cap_breach",
    "gov_offtick_sample",
    "gov_chatter",
    "gov_energy_leak",
)

#: Execution-layer faults the resilience stack must absorb (as opposed
#: to the simulator-bookkeeping faults above, which the checkers must
#: *detect*). ``worker_crash``/``worker_hang`` arm via environment so
#: they reach pool workers in any process tree — including ``repro``
#: invoked from a shell or CI; ``checkpoint_truncation`` tears the
#: tail off a checkpoint journal the way a crashed filesystem would.
WORKER_FAULT_KINDS = ("worker_crash", "worker_hang", "checkpoint_truncation")

#: ``kind:point`` — e.g. ``worker_crash:0`` crashes whichever worker
#: picks up grid point 0 on its first attempt.
WORKER_FAULT_ENV = "REPRO_WORKER_FAULT"

#: How long a ``worker_hang`` fault wedges the worker (long enough
#: that only the supervisor's deadline can end it).
WORKER_HANG_S = 600.0


@dataclass(frozen=True)
class FaultReport:
    """What one injector corrupted."""

    kind: str
    detail: str


def _rng(seed: int) -> random.Random:
    return random.Random(seed)


# ------------------------------------------------------------- directory
def inject_tag_bitflip(
    memsys: "CoherentMemorySystem", seed: int = 0
) -> FaultReport:
    """Flip directory/private-state bits for one cached line.

    Picks, seeded, among the single-bit corruptions a flaky directory
    SRAM could produce: a bogus sharer beside an exclusive owner, a
    silently promoted private copy (S -> M with no upgrade), a
    directory entry dropped while the line is still cached above, or
    the owner field flipped to another tile.
    """
    from repro.cache.coherence import MesiState

    rng = _rng(seed)
    candidates: list[tuple[str, int, int]] = []
    for slice_ in memsys.l2:
        for line, entry in slice_.directory.items():
            if entry.owner is not None:
                candidates.append(("add_sharer", slice_.tile_id, line))
                candidates.append(("flip_owner", slice_.tile_id, line))
            if not entry.uncached:
                # Dropping a holder-less entry would be invisible;
                # only corrupt entries some tile still caches.
                candidates.append(("drop_entry", slice_.tile_id, line))
    for tile in range(memsys.config.tile_count):
        for line, state in memsys._l15_state[tile].items():
            if state is not MesiState.SHARED:
                continue
            home = memsys.address_map.home_tile(line)
            entry = memsys.l2[home].directory.get(
                memsys.l2[home].line_addr(line)
            )
            # A tile that owns the whole 64B line may hold sibling
            # sub-lines in S legitimately; promoting those would not
            # violate the directory. Target tracked sharers only.
            if entry is not None and tile in entry.sharers:
                candidates.append(("promote_shared", tile, line))
    if not candidates:
        raise RuntimeError(
            "no directory state to corrupt (run a workload first)"
        )
    kind, where, line = rng.choice(sorted(candidates))
    n = memsys.config.tile_count
    if kind == "add_sharer":
        entry = memsys.l2[where].directory[line]
        bogus = (entry.owner + 1) % n
        entry.sharers.add(bogus)
        detail = (
            f"added sharer {bogus} beside owner {entry.owner} of line "
            f"{line:#x} at slice {where}"
        )
    elif kind == "flip_owner":
        entry = memsys.l2[where].directory[line]
        old = entry.owner
        entry.owner = (old + 1) % n
        detail = (
            f"flipped owner of line {line:#x} at slice {where} from "
            f"{old} to {entry.owner}"
        )
    elif kind == "drop_entry":
        del memsys.l2[where].directory[line]
        detail = f"dropped directory entry for line {line:#x} at slice {where}"
    else:  # promote_shared
        memsys._l15_state[where][line] = MesiState.MODIFIED
        detail = (
            f"promoted tile {where}'s shared copy of line {line:#x} "
            "to Modified without an upgrade"
        )
    return FaultReport("tag_bitflip", detail)


# ------------------------------------------------------------------ mesh
def _flit_queues(mesh: "MeshNetwork"):
    """Every queue holding in-flight flits, in deterministic order."""
    queues = []
    for router in mesh.routers:
        for port, ip in sorted(router.inputs.items()):
            queues.append((f"router {router.tile_id} {port.name}", ip.queue))
    for tile in sorted(mesh._inject_queues):
        queues.append((f"inject queue {tile}", mesh._inject_queues[tile]))
    return queues


def inject_dropped_flit(mesh: "MeshNetwork", seed: int = 0) -> FaultReport:
    """Silently drop one in-flight flit (a lost link transfer)."""
    rng = _rng(seed)
    nonempty = [(name, q) for name, q in _flit_queues(mesh) if q]
    if not nonempty:
        raise RuntimeError("no in-flight flits to drop (inject traffic first)")
    name, queue = rng.choice(nonempty)
    index = rng.randrange(len(queue))
    del queue[index]
    return FaultReport("dropped_flit", f"dropped flit {index} from {name}")


def inject_duplicated_flit(
    mesh: "MeshNetwork", seed: int = 0
) -> FaultReport:
    """Duplicate one in-flight flit (a double-latched link transfer)."""
    rng = _rng(seed)
    nonempty = [(name, q) for name, q in _flit_queues(mesh) if q]
    if not nonempty:
        raise RuntimeError(
            "no in-flight flits to duplicate (inject traffic first)"
        )
    name, queue = rng.choice(nonempty)
    queue.append(queue[rng.randrange(len(queue))])
    return FaultReport("duplicated_flit", f"duplicated a flit in {name}")


def inject_stalled_router(
    mesh: "MeshNetwork",
    tile: int | None = None,
    stall_cycles: int = 1 << 30,
    seed: int = 0,
) -> FaultReport:
    """Wedge one router: every input port stalls for ``stall_cycles``.

    When ``tile`` is not given, picks (seeded) a router that currently
    buffers flits — stalling an idle router off the traffic path would
    be a no-op no checker could (or should) flag.
    """
    if tile is None:
        occupied = sorted(
            r.tile_id
            for r in mesh.routers
            if any(ip.queue for ip in r.inputs.values())
        )
        if not occupied:
            raise RuntimeError(
                "no router holds flits to stall (inject traffic first)"
            )
        tile = _rng(seed).choice(occupied)
    router = mesh.routers[tile]
    until = mesh.now + stall_cycles
    for ip in router.inputs.values():
        ip.stall_until = until
    return FaultReport(
        "stalled_router",
        f"stalled router {tile} until cycle {until}",
    )


# ------------------------------------------------------------------ dram
def inject_dram_timeout(
    memsys: "CoherentMemorySystem",
    latency_cycles: int = 10_000_000,
    seed: int = 0,
) -> FaultReport:
    """Make every off-chip access hang for ``latency_cycles``.

    Wraps the memory system's off-chip model; the wrapped model still
    runs (so channel state stays consistent) but the reported latency
    is the timeout, which the ``access`` checker must reject.
    """
    del seed  # uniform fault; kept for the common injector signature
    original = memsys.offchip

    def timed_out(line_addr: int, write: bool = False, now: int = 0) -> int:
        original(line_addr, write, now)
        return latency_cycles

    memsys.offchip = timed_out
    return FaultReport(
        "dram_timeout",
        f"off-chip accesses now take {latency_cycles} cycles",
    )


# ------------------------------------------------------------ worker layer
def arm_worker_fault(kind: str, point: int = 0) -> None:
    """Arm one execution-layer fault for the next supervised grid.

    The arming travels through :data:`WORKER_FAULT_ENV`, so it reaches
    every pool worker forked afterwards (and workers of a ``repro``
    subprocess started with the variable exported). The fault fires on
    the *first attempt* of the chosen grid point only — retries of the
    point run clean, which is exactly the transient-failure shape the
    supervisor exists to absorb.
    """
    if kind not in ("worker_crash", "worker_hang"):
        raise ValueError(
            f"unknown worker fault {kind!r}; armable: "
            "('worker_crash', 'worker_hang')"
        )
    os.environ[WORKER_FAULT_ENV] = f"{kind}:{point}"


def disarm_worker_fault() -> None:
    os.environ.pop(WORKER_FAULT_ENV, None)


def active_worker_fault() -> tuple[str, int] | None:
    """The armed ``(kind, point)``, or ``None``. Malformed specs raise
    (a typo'd chaos run must fail loudly, not silently test nothing)."""
    spec = os.environ.get(WORKER_FAULT_ENV)
    if not spec:
        return None
    try:
        kind, point_text = spec.split(":", 1)
        point = int(point_text)
    except ValueError:
        raise ValueError(
            f"malformed {WORKER_FAULT_ENV}={spec!r}; expected "
            "'worker_crash:POINT' or 'worker_hang:POINT'"
        ) from None
    if kind not in ("worker_crash", "worker_hang"):
        raise ValueError(
            f"unknown worker fault kind {kind!r} in "
            f"{WORKER_FAULT_ENV}={spec!r}"
        )
    return kind, point


def trigger_worker_fault(index: int, attempt: int) -> None:
    """Fire the armed worker fault, if this is its target attempt.

    Called by the supervised pool's worker loop just before a point
    simulates; the parent process (and the in-process serial fallback)
    never calls it, so worker faults are worker-level by construction.
    ``worker_crash`` dies the way a segfaulting or OOM-killed worker
    does — abruptly, with no Python-level cleanup; ``worker_hang``
    wedges until the supervisor's deadline terminates it.
    """
    fault = active_worker_fault()
    if fault is None:
        return
    kind, point = fault
    if index != point or attempt != 0:
        return
    if kind == "worker_crash":
        os._exit(17)
    time.sleep(WORKER_HANG_S)


# ------------------------------------------------------------ serve layer
#: Daemon-level faults the service hardening must absorb.
#: ``task_delay`` stretches every worker task (so tests can observe a
#: job mid-flight: saturate the tier, abort a stream, kill the
#: daemon); ``daemon_kill`` makes the daemon die abruptly right after
#: journaling a job as running — the mid-job SIGKILL scenario.
SERVE_FAULT_KINDS = ("task_delay", "daemon_kill")

#: ``kind:value`` — e.g. ``task_delay:0.5`` (seconds) or
#: ``daemon_kill:1`` (fire on the 1st running transition).
SERVE_FAULT_ENV = "REPRO_SERVE_FAULT"


def arm_serve_fault(kind: str, value: float = 0.0) -> None:
    """Arm one daemon-level fault via the environment.

    Like :func:`arm_worker_fault`, arming travels through the
    environment so it reaches a daemon started as a subprocess.
    ``daemon_kill`` takes the whole process down with ``os._exit`` —
    never arm it for a daemon running inside the test process.
    """
    if kind not in SERVE_FAULT_KINDS:
        raise ValueError(
            f"unknown serve fault {kind!r}; armable: {SERVE_FAULT_KINDS}"
        )
    os.environ[SERVE_FAULT_ENV] = f"{kind}:{value:g}"


def disarm_serve_fault() -> None:
    os.environ.pop(SERVE_FAULT_ENV, None)


def active_serve_fault() -> tuple[str, float] | None:
    """The armed ``(kind, value)``, or ``None``; malformed specs raise."""
    spec = os.environ.get(SERVE_FAULT_ENV)
    if not spec:
        return None
    try:
        kind, value_text = spec.split(":", 1)
        value = float(value_text)
    except ValueError:
        raise ValueError(
            f"malformed {SERVE_FAULT_ENV}={spec!r}; expected "
            "'task_delay:SECONDS' or 'daemon_kill:N'"
        ) from None
    if kind not in SERVE_FAULT_KINDS:
        raise ValueError(
            f"unknown serve fault kind {kind!r} in "
            f"{SERVE_FAULT_ENV}={spec!r}"
        )
    return kind, value


def trigger_serve_task_delay() -> None:
    """Stretch this worker task if ``task_delay`` is armed.

    Called at the top of the service worker body, inside the isolated
    worker process — the daemon itself never sleeps.
    """
    fault = active_serve_fault()
    if fault is not None and fault[0] == "task_delay":
        time.sleep(fault[1])


_DAEMON_KILL_FIRED = 0


def trigger_daemon_kill() -> None:
    """Die abruptly if ``daemon_kill`` is armed and its count is due.

    Called by the daemon right after a job's ``running`` journal
    record lands — the worst moment to die, which is the point. The
    value names which running-transition fires (1 = the first), so a
    recovery test can let a warm-up job through. ``os._exit`` skips
    every finally/atexit, exactly like SIGKILL. Subprocess daemons
    only: in-process use would kill the test runner.
    """
    global _DAEMON_KILL_FIRED
    fault = active_serve_fault()
    if fault is None or fault[0] != "daemon_kill":
        return
    _DAEMON_KILL_FIRED += 1
    if _DAEMON_KILL_FIRED >= int(fault[1]):
        os._exit(9)


def inject_job_journal_truncation(
    jobs_dir: "Path | str", drop_bytes: int = 7, seed: int = 0
) -> FaultReport:
    """Truncate the newest job-journal record (a torn tail write).

    The job journal's CRC framing must quarantine the record on the
    next scan — one lost job, not a crashed recovery loop.
    """
    del seed  # deterministic target; kept for the injector signature
    jobs_dir = Path(jobs_dir)
    records = sorted(
        jobs_dir.glob("*.job"), key=lambda p: p.stat().st_mtime
    )
    if not records:
        raise RuntimeError(
            f"no job records under {jobs_dir} to truncate "
            "(journal a job first)"
        )
    target = records[-1]
    size = target.stat().st_size
    keep = max(0, size - drop_bytes)
    with open(target, "r+b") as fh:
        fh.truncate(keep)
    return FaultReport(
        "job_journal_truncation",
        f"truncated {target.name} from {size} to {keep} bytes",
    )


def inject_checkpoint_truncation(
    journal_dir: "Path | str", drop_bytes: int = 7, seed: int = 0
) -> FaultReport:
    """Truncate the newest checkpoint entry (a torn tail write).

    Models the one corruption the store's atomic rename cannot rule
    out: a filesystem that lost the tail of an already-renamed entry
    (disk full, dirty shutdown before the data blocks flushed). The
    frame's CRC must detect it on resume and re-simulate only the
    damaged point.
    """
    del seed  # deterministic target; kept for the injector signature
    journal_dir = Path(journal_dir)
    entries = sorted(
        journal_dir.rglob("*.cas"),
        key=lambda p: (p.stat().st_mtime_ns, p.name),
    )
    if not entries:
        raise RuntimeError(
            f"no checkpoint entries under {journal_dir} to truncate "
            "(run a journaled grid first)"
        )
    target = entries[-1]
    size = target.stat().st_size
    keep = max(0, size - drop_bytes)
    with open(target, "r+b") as fh:
        fh.truncate(keep)
    return FaultReport(
        "checkpoint_truncation",
        f"truncated {target.name} from {size} to {keep} bytes",
    )


# -------------------------------------------------------------- governor
def inject_gov_cap_breach(
    trace: "GovernedTrace", seed: int = 0
) -> FaultReport:
    """Rewrite one settled sample's true power above the cap.

    Models a capping loop that silently applied a hotter rung than it
    recorded deciding — the exact bug the soundness invariant exists
    to catch.
    """
    if trace.cap_w is None:
        raise RuntimeError("trace has no cap to breach (run a cap policy)")
    candidates = [
        i
        for i, s in enumerate(trace.samples)
        if not trace.in_settle_window(s.t_s)
    ]
    if not candidates:
        raise RuntimeError(
            "every sample sits in a settle window (run longer)"
        )
    index = _rng(seed).choice(candidates)
    bad_w = trace.cap_w * 1.5
    trace.samples[index] = replace(trace.samples[index], power_w=bad_w)
    return FaultReport(
        "gov_cap_breach",
        f"sample {index} power rewritten to {bad_w:.3f} W over the "
        f"{trace.cap_w:g} W cap",
    )


def inject_gov_offtick_sample(
    trace: "GovernedTrace", seed: int = 0
) -> FaultReport:
    """Shift one sample off the monitor tick grid.

    Models a controller that actuated between telemetry ticks (or a
    trace whose timestamps were accumulated instead of derived).
    """
    if not trace.samples:
        raise RuntimeError("trace has no samples to shift")
    index = _rng(seed).randrange(len(trace.samples))
    shift = 0.37 / trace.poll_hz
    sample = trace.samples[index]
    trace.samples[index] = replace(sample, t_s=sample.t_s + shift)
    return FaultReport(
        "gov_offtick_sample",
        f"sample {index} shifted {shift:.4f} s off the tick grid",
    )


def inject_gov_chatter(
    trace: "GovernedTrace", seed: int = 0
) -> FaultReport:
    """Mark an extra actuation one tick after a real one.

    Models hysteresis without a dwell: trip and clear firing on
    back-to-back ticks around a threshold.
    """
    if trace.min_dwell_s <= 0:
        raise RuntimeError(
            "trace advertises no dwell; chatter is not an invariant "
            "for this policy"
        )
    acts = [i for i, s in enumerate(trace.samples) if s.actuated]
    acts = [i for i in acts if i + 1 < len(trace.samples)]
    if acts:
        index = _rng(seed).choice(acts) + 1
    else:
        if len(trace.samples) < 2:
            raise RuntimeError("trace too short to chatter")
        index = _rng(seed).randrange(len(trace.samples) - 1)
        trace.samples[index] = replace(
            trace.samples[index], actuated=True
        )
        index += 1
    trace.samples[index] = replace(trace.samples[index], actuated=True)
    return FaultReport(
        "gov_chatter",
        f"sample {index} marked actuated one tick after the previous "
        "actuation",
    )


def inject_gov_energy_leak(
    trace: "GovernedTrace", seed: int = 0
) -> FaultReport:
    """Inflate the energy ledger relative to the per-tick sum.

    Models an accumulator bug across throttle events (double-counting
    the actuation tick).
    """
    del seed  # uniform fault; kept for the common injector signature
    old = trace.energy_j
    trace.energy_j = old * 1.01 + 1.0
    return FaultReport(
        "gov_energy_leak",
        f"energy ledger inflated from {old:.3f} J to "
        f"{trace.energy_j:.3f} J",
    )


def inject_governor_fault(
    kind: str, trace: "GovernedTrace", seed: int = 0
) -> FaultReport:
    """Inject one named governor fault into a governed trace."""
    injectors = {
        "gov_cap_breach": inject_gov_cap_breach,
        "gov_offtick_sample": inject_gov_offtick_sample,
        "gov_chatter": inject_gov_chatter,
        "gov_energy_leak": inject_gov_energy_leak,
    }
    if kind not in injectors:
        raise ValueError(
            f"unknown governor fault kind {kind!r}; known: "
            f"{GOVERNOR_FAULT_KINDS}"
        )
    return injectors[kind](trace, seed=seed)


# -------------------------------------------------------------- dispatch
def inject_fault(
    kind: str,
    memsys: "CoherentMemorySystem | None" = None,
    mesh: "MeshNetwork | None" = None,
    seed: int = 0,
) -> FaultReport:
    """Inject one named fault into the supplied target(s)."""
    if kind == "tag_bitflip":
        if memsys is None:
            raise ValueError("tag_bitflip needs a memory system")
        return inject_tag_bitflip(memsys, seed=seed)
    if kind == "dram_timeout":
        if memsys is None:
            raise ValueError("dram_timeout needs a memory system")
        return inject_dram_timeout(memsys, seed=seed)
    if kind in ("dropped_flit", "duplicated_flit", "stalled_router"):
        if mesh is None:
            raise ValueError(f"{kind} needs a mesh network")
        injector = {
            "dropped_flit": inject_dropped_flit,
            "duplicated_flit": inject_duplicated_flit,
            "stalled_router": inject_stalled_router,
        }[kind]
        return injector(mesh, seed=seed)
    raise ValueError(f"unknown fault kind {kind!r}; known: {FAULT_KINDS}")
