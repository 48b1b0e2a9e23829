"""Differential test: the due-core engine against the lockstep oracle.

``MulticoreEngine`` steps a core only in the cycles it is due and
credits the cycles in between lazily; ``CoherentMemorySystem`` prices
messages from per-config hop/turn tables and interned ledger names.
``NaiveMulticoreEngine`` (``tests/reference/naive_engine.py``) steps
every active core every visited cycle over a ``NaiveMemorySystem``
that derives geometry per call. Both run the same seeded multi-thread
programs (ALU, mul, FP, loads, stores and CAS on shared lines) on 2-25
tiles at 1-4 threads per core, to completion or in ``cycles=``
windows, with and without an invariant checker sweeping every few
cycles. After every run their observable state must be equal exactly:
the ledger (names in insertion order, counts and float weights), the
``RunResult``, ``engine.now``, every core's and thread's statistics and
architectural state, the caches, the L1.5 MESI states and the
directories.

Programs end in store runs often, so cores spend cycles with every
thread finished and stores still draining beside cores that are busy
or stalled: the case the stall rule treats specially. Some scenarios
give every core the same programs, so they issue in lockstep.
"""

from __future__ import annotations

import random
from dataclasses import asdict, replace

import pytest
from reference.naive_engine import NaiveMulticoreEngine

from repro.arch.params import CacheParams, PitonConfig
from repro.check import CheckSuite
from repro.core.multicore import MulticoreEngine
from repro.isa.assembler import assemble

#: Shared lines every core's loads, stores and CAS draw from (byte
#: offsets from the base in %r1); CAS addresses sit in %r2-%r5.
SHARED_WORDS = 96
CAS_REGS = (2, 3, 4, 5)
#: Destination registers (never an address register).
DEST = range(10, 21)
SRC = range(0, 21)

#: A deliberately tiny hierarchy, so fills evict and the L2 recalls.
TINY = PitonConfig(
    l1d=CacheParams(256, 2, 16),
    l15=CacheParams(256, 2, 16),
    l2_slice=CacheParams(1024, 2, 64),
)


def _alu(rng):
    op = rng.choice(["add", "sub", "and", "or", "xor", "sll", "srl"])
    return f"{op} %r{rng.choice(SRC)}, %r{rng.choice(SRC)}, %r{rng.choice(DEST)}"


def _mul(rng):
    op = rng.choice(["mulx", "mulx", "sdivx"])
    return f"{op} %r{rng.choice(SRC)}, %r{rng.choice(SRC)}, %r{rng.choice(DEST)}"


def _fp(rng):
    op = rng.choice(["faddd", "fsubd", "fmuld", "fadds", "fmuls"])
    a, b, d = (2 * rng.randrange(8) for _ in range(3))
    return f"{op} %f{a}, %f{b}, %f{d}"


def _ldx(rng):
    return f"ldx [%r1 + {8 * rng.randrange(SHARED_WORDS)}], %r{rng.choice(DEST)}"


def _stx(rng):
    return f"stx %r{rng.choice(SRC)}, [%r1 + {8 * rng.randrange(SHARED_WORDS)}]"


def _cas(rng):
    return f"cas [%r{rng.choice(CAS_REGS)}], %r{rng.choice(DEST)}, %r{rng.choice(DEST)}"


class TestEngineOracle:
    """Seeded programs run on both engines; states compared after each run.

    ``ops`` maps each operation kind to its generator and draw weight;
    ``number_of_tests`` cases are drawn from ``seed``.
    """

    ops = {
        "alu": (_alu, 6),
        "mul": (_mul, 1),
        "fp": (_fp, 2),
        "ldx": (_ldx, 4),
        "stx": (_stx, 3),
        "cas": (_cas, 1),
    }
    number_of_tests = 40
    seed = 1514

    @classmethod
    def program(cls, rng: random.Random) -> str:
        kinds = list(cls.ops)
        weights = [cls.ops[k][1] for k in kinds]
        body = [
            cls.ops[kind][0](rng)
            for kind in rng.choices(kinds, weights, k=rng.randint(1, 24))
        ]
        if rng.random() < 0.5:
            # Finish on a run of stores: the thread is done long before
            # its store buffer drains.
            body += [_stx(rng) for _ in range(rng.randint(1, 10))]
        if rng.random() < 0.3:
            body = (
                [f"set {rng.randint(1, 3)}, %r30", "top:"]
                + body
                + ["sub %r30, 1, %r30", "bne %r30, top"]
            )
        return "\n".join(body)

    @classmethod
    def scenario(cls, index: int) -> dict:
        rng = random.Random(f"{cls.seed}:{index}")
        config = rng.choice([PitonConfig(), TINY])
        tiles = sorted(rng.sample(range(config.tile_count), rng.randint(2, 25)))
        # 1-4 threads per core: 3 and 4 need a wider core than Piton's.
        tpc = rng.randint(1, 4)
        if tpc > config.threads_per_core:
            config = replace(config, threads_per_core=tpc)
        base = 0x4000 * rng.randint(1, 8)
        # Sometimes every core runs the same programs, so whole cycles
        # find every core due with no skipped cycles to credit.
        shared = None
        if rng.random() < 0.3:
            shared = [cls.program(rng) for _ in range(rng.randint(1, tpc))]
        cores = []
        for tile in tiles:
            regs = {1: base, 31: rng.getrandbits(64)}
            for reg in CAS_REGS:
                regs[reg] = base + 8 * rng.randrange(SHARED_WORDS)
            fregs = {2 * i: rng.uniform(0.5, 2.0) for i in range(8)}
            sources = shared or [
                cls.program(rng) for _ in range(rng.randint(1, tpc))
            ]
            cores.append((tile, [assemble(src) for src in sources], regs, fregs))
        windows = None
        if rng.random() < 0.5:
            windows = [rng.randint(1, 400) for _ in range(rng.randint(1, 6))]
        return {
            "config": config,
            "cores": cores,
            "windows": windows,
            "check_interval": rng.choice([None, 1, 7, 64]),
            "drafting": rng.random() < 0.2,
        }


def _engine(cls, scenario: dict):
    engine = cls(
        scenario["config"], execution_drafting=scenario["drafting"]
    )
    if scenario["check_interval"] is not None:
        engine.checker = CheckSuite()
        engine.CHECK_INTERVAL = scenario["check_interval"]
    for tile, programs, regs, fregs in scenario["cores"]:
        engine.add_core(tile, programs, init_regs=regs, init_fregs=fregs)
    return engine


def _state(engine) -> dict:
    """Everything a run can change."""
    memsys = engine.memsys
    caches = {}
    for level in ("l1i", "l1d", "l15"):
        for cache in getattr(memsys, level):
            caches[cache.name] = (cache._sets, asdict(cache.stats))
    for slice_ in memsys.l2:
        caches[slice_.tags.name] = (slice_.tags._sets, asdict(slice_.tags.stats))
    cores = {}
    for tile, core in engine.cores.items():
        sb = core.store_buffer
        cores[tile] = {
            "stats": asdict(core.stats),
            "done": core.done,
            "store_buffer": (
                [(e.addr, e.value, e.thread_id, e.seq) for e in sb._entries],
                sb.head_done_at, sb.pushed, sb.drained,
            ),
            "threads": [
                (t.pc, t.ready_at, t.done, t.regs, t.fregs, asdict(t.stats))
                for t in core.threads
            ],
            "rr": (core._rr_next, core._last_issued_thread),
        }
    return {
        "now": engine.now,
        "counts": list(engine.ledger.counts.items()),
        "weights": list(engine.ledger.weights.items()),
        "cores": cores,
        "memory": engine.memory._words,
        "caches": caches,
        "l15_state": memsys._l15_state,
        "directories": [
            {line: (e.owner, sorted(e.sharers)) for line, e in s.directory.items()}
            for s in memsys.l2
        ],
        "checks": (
            None if engine.checker is None else engine.checker.counts
        ),
    }


@pytest.mark.parametrize("index", range(TestEngineOracle.number_of_tests))
def test_engine_matches_lockstep_oracle(index):
    scenario = TestEngineOracle.scenario(index)
    fast = _engine(MulticoreEngine, scenario)
    naive = _engine(NaiveMulticoreEngine, scenario)
    windows = scenario["windows"]
    runs = (
        [{"until_done": True}]
        if windows is None
        else [{"cycles": w} for w in windows] + [{"until_done": True}]
    )
    for kwargs in runs:
        got = fast.run(**kwargs)
        want = naive.run(**kwargs)
        assert got == want
        assert _state(fast) == _state(naive)
    assert got.completed
