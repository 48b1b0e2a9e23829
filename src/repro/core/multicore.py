"""Multicore engine and the shared functional memory.

The engine advances a set of cores in lockstep against the shared
coherent memory system, but steps a core only in the cycles at which it
is due (its next-event cycle: a thread becomes ready or a store drains).
Cycles in which no core is due are skipped outright. The cycles a core
was not stepped through are credited to its statistics lazily, so the
cost of simulation scales with instructions executed rather than with
cycles elapsed or with cores stalled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.params import PitonConfig
from repro.cache.system import CoherentMemorySystem
from repro.core.pipeline import Core
from repro.isa.program import Program
from repro.util.events import EventLedger


class SharedMemory:
    """Flat 64-bit-word architectural memory shared by all cores.

    Addresses are byte addresses; reads/writes operate on the aligned
    8-byte word containing the address (the ISA subset is ldx/stx only).
    Unwritten memory reads as zero.
    """

    def __init__(self):
        self._words: dict[int, int] = {}

    @staticmethod
    def _word(addr: int) -> int:
        return addr >> 3

    def read(self, addr: int) -> int:
        return self._words.get(self._word(addr), 0)

    def write(self, addr: int, value: int) -> None:
        self._words[self._word(addr)] = value & ((1 << 64) - 1)

    def load_image(self, image: dict[int, int]) -> None:
        """Pre-load {byte_addr: value} pairs (test fixtures)."""
        for addr, value in image.items():
            self.write(addr, value)


@dataclass
class RunResult:
    """Outcome of one engine run."""

    cycles: int
    instructions: int
    completed: bool

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def _settle(
    active: list[Core], settled: list[int], idle_at: list[int],
    until: int, idle: int,
) -> int:
    """Credit each active core the cycles before ``until`` it was not
    stepped through, ``idle`` being the run's globally idle cycles so
    far. Returns the idle cycles' stall events."""
    events = 0
    for i, core in enumerate(active):
        gap = until - settled[i]
        if gap > 0:
            gap_idle = idle - idle_at[i]
            core.credit_skipped(gap, gap_idle)
            events += gap_idle
            settled[i] = until
            idle_at[i] = idle
    return events


class MulticoreEngine:
    """Steps a set of cores over shared memory, each when it is due."""

    #: Cycle interval between full invariant sweeps when a checker is
    #: installed (sweeps also run once at the end of every run).
    CHECK_INTERVAL = 4096

    def __init__(
        self,
        config: PitonConfig | None = None,
        ledger: EventLedger | None = None,
        memsys: CoherentMemorySystem | None = None,
        execution_drafting: bool = False,
        checker=None,
    ):
        self.config = config or PitonConfig()
        self.ledger = ledger if ledger is not None else EventLedger()
        self.memsys = memsys or CoherentMemorySystem(
            self.config, ledger=self.ledger
        )
        self.memory = SharedMemory()
        self.cores: dict[int, Core] = {}
        self.execution_drafting = execution_drafting
        #: Optional :class:`repro.check.CheckSuite`; ``None`` (the
        #: default) keeps the run loop check-free.
        self.checker = checker
        self.now = 0

    def add_core(
        self,
        tile_id: int,
        programs: list[Program],
        init_regs: dict[int, int] | None = None,
        init_fregs: dict[int, float] | None = None,
    ) -> Core:
        """Activate ``tile_id`` with one program per hardware thread.

        ``init_regs``/``init_fregs`` pre-load architectural registers in
        every thread — how the EPI assembly tests plant their minimum /
        random / maximum operand values (the real tests do this with a
        setup preamble; pre-loading keeps the measured loop pure).
        """
        if tile_id in self.cores:
            raise ValueError(f"tile {tile_id} already active")
        if not 0 <= tile_id < self.config.tile_count:
            raise ValueError(f"tile {tile_id} out of range")
        core = Core(
            tile_id,
            self.config,
            self.memsys,
            self.memory,
            self.ledger,
            programs,
            execution_drafting=self.execution_drafting,
        )
        for thread in core.threads:
            for reg, value in (init_regs or {}).items():
                thread.write_int(reg, value)
            for reg, value in (init_fregs or {}).items():
                thread.write_fp(reg, value)
        self.cores[tile_id] = core
        return core

    @property
    def active_core_count(self) -> int:
        return len(self.cores)

    @property
    def total_instructions(self) -> int:
        return sum(c.stats.issued for c in self.cores.values())

    def run(
        self,
        cycles: int | None = None,
        until_done: bool = False,
        max_cycles: int = 50_000_000,
    ) -> RunResult:
        """Run for ``cycles`` cycles, or until every thread finishes.

        Returns cycle and instruction counts for the run window.
        ``max_cycles`` bounds ``until_done`` so a livelocked workload
        fails loudly instead of hanging.
        """
        if not self.cores:
            raise RuntimeError("no active cores")
        if cycles is None and not until_done:
            raise ValueError("specify cycles or until_done")
        start_cycle = now = self.now
        start_instrs = self.total_instructions
        deadline = None if cycles is None else now + cycles
        cores = list(self.cores.values())
        active = [c for c in cores if not c.done]
        checker = self.checker
        next_check = (
            now + self.CHECK_INTERVAL if checker is not None else None
        )
        # Per active core, index-aligned with ``active``: ``due`` is the
        # cycle the core is next stepped at (every core is stepped in
        # the run's first cycle, which yields its first next-event
        # cycle); ``settled`` is the first cycle not yet credited to its
        # stats, and ``idle_at`` the number of globally idle cycles
        # (cycles in which no core was due) before ``settled``.
        due = [now] * len(active)
        settled = [now] * len(active)
        idle_at = [0] * len(active)
        idle = 0
        # Stall events of globally idle cycles, recorded on the ledger
        # in one batch (the stalls of visited cycles are per-core).
        idle_stall_events = 0

        try:
            while active:
                if checker is not None and now >= next_check:
                    idle_stall_events += _settle(
                        active, settled, idle_at, now, idle
                    )
                    checker.check_engine(self)
                    next_check = now + self.CHECK_INTERVAL
                if deadline is not None and now >= deadline:
                    break
                if now - start_cycle >= max_cycles:
                    raise RuntimeError(
                        f"workload did not finish within {max_cycles} cycles"
                    )
                # Step the due cores in tile-activation order; each step
                # returns the core's next-event cycle.
                finished = False
                settled_to = now + 1
                for i, core in enumerate(active):
                    if due[i] != now:
                        continue
                    gap = now - settled[i]
                    if gap:
                        gap_idle = idle - idle_at[i]
                        core.credit_skipped(gap, gap_idle)
                        idle_stall_events += gap_idle
                        idle_at[i] = idle
                    settled[i] = settled_to
                    due[i] = core.step(now)
                    if core.done:
                        finished = True
                if finished:
                    keep = [i for i, c in enumerate(active) if not c.done]
                    if not keep:
                        self.now = now + 1
                        break
                    active = [active[i] for i in keep]
                    due = [due[i] for i in keep]
                    settled = [settled[i] for i in keep]
                    idle_at = [idle_at[i] for i in keep]
                next_now = min(due)
                if deadline is not None and next_now > deadline:
                    next_now = deadline
                idle += next_now - now - 1
                self.now = now = next_now
        finally:
            idle_stall_events += _settle(
                active, settled, idle_at, self.now, idle
            )
            if idle_stall_events:
                self.ledger.record("core.stall_cycle", idle_stall_events)
            for core in cores:
                core.flush_events()
        if checker is not None:
            checker.check_engine(self)

        return RunResult(
            cycles=self.now - start_cycle,
            instructions=self.total_instructions - start_instrs,
            completed=all(c.done for c in cores),
        )
