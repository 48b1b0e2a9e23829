"""Workload ``sim_manycore``: many-core simulation points, in process.

Each point is a run-to-completion ``SimRequest`` executed serially
through ``repro.system.run_simulation`` and then priced by
``PitonSystem.measure_outcome``: the path a fig14-style sweep point
takes, which is most of a user's sweep time.

Two classes of point, drawn by seed from a fixed catalogue:

* compute points (the "light" class): Int, HP at 2 T/C, and synthetic
  mul/fp/ALU mixes, all L1-resident, 8-24 cores. Every core issues
  nearly every cycle and the memory system is nearly idle, so these
  time the core issue loop.
* coherent points (the "heavy" class): the Hist shared-data histogram
  and synthetic load/store loops whose footprints exceed the 8 KiB
  L1.5, 8-16 cores, at 1 and 2 T/C. Most core steps issue nothing and
  the memory system, directory and event ledger dominate.

Idle-core skipping or memory-system interning should move the coherent
rate and must leave the compute rate alone; the pair is measured in
one run so both sides of such a change show.

Every point's outcome (ledger counts and weights, ``RunResult`` and
the measured core power) is checked against the digest recorded for
its catalogue key in ``expected/sim_manycore.json``.
"""

from __future__ import annotations

import random
import time

#: The slots of one pass, interleaved so that any prefix of a pass
#: holds both classes in about the pass's proportions. Each slot fixes
#: the kind of point and its size (cores, threads per core); the seed
#: draws the rest (instruction mixes, operand activity and generator
#: seeds), so every seed gives the same class mix and about
#: the same work per class. Changing a slot or a choice below changes
#: the catalogue: re-record ``expected/`` with record_expected.py.
PASS_SLOTS = (
    ("int", 8, 1), ("syn", 12, 1), ("hist", 16, 1),
    ("hp2", 10, 2), ("syn", 16, 1), ("mem", 16, 1),
    ("int", 24, 1), ("syn", 20, 1), ("hist", 8, 2),
    ("hp2", 12, 2), ("syn", 24, 1), ("mem", 8, 2),
)
#: Footprint of each load/store slot, KiB (by core count): above the
#: 8 KiB L1.5 and fixed per slot, so peak memory does not vary by seed.
MEM_FOOTPRINT_K = {16: 16, 8: 64}
SYN_MIXES = {"m10": (0.10, 0.0), "f20": (0.0, 0.20), "m10f10": (0.10, 0.10),
             "m20": (0.20, 0.0)}
SYN_ACTIVITY = (25, 75)
MEM_MIXES = {"l25s10": (0.25, 0.10), "l20s10": (0.20, 0.10)}
SPEC_SEEDS = (0, 1)

COMPUTE_ITERATIONS = 100
SYN_ITERATIONS = 60
HIST_ELEMENTS = 128
MEM_ITERATIONS = 30

LIGHT, HEAVY = "compute", "coherent"


# ------------------------------------------------------------------- inputs
def _choices(kind: str, cores: int, tpc: int) -> list[str]:
    """Every key a slot can draw."""
    if kind == "int":
        return [f"int:c{cores}"]
    if kind == "hp2":
        return [f"hp2:c{cores}"]
    if kind == "hist":
        return [f"hist:c{cores}:t{tpc}"]
    if kind == "syn":
        return [f"syn:c{cores}:{mix}:a{act}:s{s}" for mix in SYN_MIXES
                for act in SYN_ACTIVITY for s in SPEC_SEEDS]
    return [f"mem:c{cores}:t{tpc}:f{MEM_FOOTPRINT_K[cores]}k:{mix}:s{s}"
            for mix in MEM_MIXES for s in SPEC_SEEDS]


def catalogue() -> list[str]:
    """Every point key a seed can draw."""
    return list(dict.fromkeys(
        key for slot in PASS_SLOTS for key in _choices(*slot)))


def generate_ops(seed: int) -> list[str]:
    """The seeded pass: one catalogue key per slot of PASS_SLOTS."""
    rng = random.Random(f"sim_manycore:{seed}")
    return [rng.choice(_choices(*slot)) for slot in PASS_SLOTS]


def op_class(key: str) -> str:
    kind = key.split(":")[0]
    return LIGHT if kind in ("int", "hp2", "syn") else HEAVY


def _replicated(tile_program, cores: int, tpc: int) -> dict:
    from repro.workloads.base import TileProgram

    return {
        tile: TileProgram(
            programs=list(tile_program.programs) * tpc,
            init_regs=dict(tile_program.init_regs),
            init_fregs=dict(tile_program.init_fregs),
            memory_image=tile_program.memory_image if tile == 0 else {},
        )
        for tile in range(cores)
    }


def build_workload(key: str) -> dict:
    """The tile -> TileProgram map for one catalogue key."""
    from repro.workloads.base import TileProgram
    from repro.workloads.microbench import (
        PATTERN_A,
        PATTERN_B,
        hist_workload,
        hp_tile,
        int_program,
    )
    from repro.workloads.synthetic import WorkloadSpec, generate

    parts = key.split(":")
    kind, cores = parts[0], int(parts[1][1:])
    if kind == "int":
        return {
            tile: TileProgram(
                programs=[int_program(COMPUTE_ITERATIONS)],
                init_regs={8: PATTERN_A, 9: PATTERN_B, 31: 1},
            )
            for tile in range(cores)
        }
    if kind == "hp2":
        return {
            tile: hp_tile(["compute", "mixed"], tile,
                          iterations=COMPUTE_ITERATIONS)
            for tile in range(cores)
        }
    if kind == "syn":
        mul, fp = SYN_MIXES[parts[2]]
        spec = WorkloadSpec(
            name=key, mul_frac=mul, fp_frac=fp,
            activity=int(parts[3][1:]) / 100.0, seed=int(parts[4][1:]),
        )
        # One program on every core, as the Int loop: the cores stay in
        # lockstep, so the point times the issue loop, not stalls.
        program = generate(spec, tile=0, iterations=SYN_ITERATIONS)
        return _replicated(program.tile_program, cores, 1)
    if kind == "hist":
        tpc = int(parts[2][1:])
        return hist_workload(
            list(range(cores)), tpc, total_elements=HIST_ELEMENTS,
            repeat_forever=False,
        ).tiles
    if kind == "mem":
        tpc = int(parts[2][1:])
        load, store = MEM_MIXES[parts[4]]
        spec = WorkloadSpec(
            name=key, load_frac=load, store_frac=store,
            footprint_bytes=int(parts[3][1:-1]) * 1024, seed=int(parts[5][1:]),
        )
        return {
            tile: _replicated(
                generate(spec, tile=tile, iterations=MEM_ITERATIONS)
                .tile_program, 1, tpc)[0]
            for tile in range(cores)
        }
    raise ValueError(f"unknown sim_manycore key {key!r}")


def build_inputs(keys: list[str]) -> dict:
    """key -> SimRequest, built once per distinct key."""
    from repro.system import PitonSystem

    system = PitonSystem.default()
    return {
        key: system.sim_request_to_completion(build_workload(key))
        for key in dict.fromkeys(keys)
    }


# ---------------------------------------------------------------- execution
#: What the class rates count, per host second.
RATE_NAME, RATE_UNIT = "kips", "kIPS"


def execute(key: str, inputs: dict):
    """One timed operation: simulate, then take the bench measurement.

    Returns (host s, instructions, digest, completed, detail). Each point
    gets a fresh bench with a fixed noise seed, so its measured power is
    a pure function of the point and can be digested.
    """
    from common import digest, ledger_doc
    from repro.system import PitonSystem, run_simulation

    system = PitonSystem.default(seed=0)
    start = time.perf_counter()
    outcome = run_simulation(inputs[key])
    run = system.measure_outcome(outcome)
    elapsed = time.perf_counter() - start
    result = outcome.result
    dig = digest({
        "ledger": ledger_doc(outcome.ledger),
        "cycles": result.cycles,
        "instructions": result.instructions,
        "completed": result.completed,
        "core_w": run.measurement.core.value,
    })
    return (elapsed, result.instructions, dig, result.completed,
            {"cycles": result.cycles, "build_s": outcome.build_wall_s})


def instrument(rec) -> dict:
    """Wrap the simulation layers' public calls; returns live counters."""
    from repro.cache.system import CoherentMemorySystem
    from repro.core.multicore import MulticoreEngine
    from repro.core.pipeline import Core
    from repro.system import PitonSystem
    from repro.util.events import EventLedger

    counts = {"steps": 0, "idle_steps": 0}

    def step_probe(args, before):
        core = args[0]
        if before is None:
            return core.stats.issued
        counts["steps"] += 1
        if core.stats.issued == before:
            counts["idle_steps"] += 1
        return None

    rec.wrap(MulticoreEngine, "run", "engine.run")
    rec.wrap(Core, "step", "core.step", probe=step_probe)
    for op in ("load", "store", "fetch", "atomic"):
        rec.wrap(CoherentMemorySystem, op, f"cache.{op}")
    rec.wrap(EventLedger, "record", "events.record")
    rec.wrap(EventLedger, "add_bulk", "events.add_bulk")
    rec.wrap(PitonSystem, "measure_outcome", "board.measure")
    return counts
