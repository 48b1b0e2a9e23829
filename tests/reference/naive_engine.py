"""The lockstep engine and per-call memory system: the test oracle for
``MulticoreEngine`` and ``CoherentMemorySystem``.

:class:`NaiveMulticoreEngine` overrides only :meth:`run` with the
original loop: every active core is stepped in every visited cycle,
and only globally idle gaps are fast-forwarded, crediting a stall to
every core still active; by default it runs over a
:class:`NaiveMemorySystem`. That memory system derives hop counts and
turns from tile coordinates on every lookup instead of reading the
per-config tables, and overrides only the interned helpers: ledger
names are formatted per message, and an invalidation sweeps all four
sub-lines of the L2 line through the L1D and L1.5 tag stores.
Everything else is inherited, so a differential test isolates exactly
the scheduling and the interned lookups.
"""

from __future__ import annotations

from repro.arch.params import PitonConfig
from repro.cache.coherence import MesiState
from repro.cache.system import CoherentMemorySystem
from repro.core.multicore import MulticoreEngine, RunResult
from repro.util.events import EventLedger


class _PerCallTable:
    """``table[src][dst]``, recomputed from tile coordinates per lookup."""

    def __init__(self, config: PitonConfig, turns: bool):
        self.config = config
        self.turns = turns

    def __getitem__(self, src: int) -> list[int]:
        width = self.config.mesh_width
        ax, ay = src % width, src // width
        row = []
        for dst in range(self.config.tile_count):
            bx, by = dst % width, dst // width
            if self.turns:
                row.append(1 if ax != bx and ay != by else 0)
            else:
                row.append(abs(ax - bx) + abs(ay - by))
        return row


class NaiveMemorySystem(CoherentMemorySystem):
    """``CoherentMemorySystem`` with per-call geometry and names."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._hops = _PerCallTable(self.config, turns=False)
        self._turns = _PerCallTable(self.config, turns=True)

    def _invalidate_private(self, tile: int, addr: int) -> bool:
        dirty = False
        for subline in self._l2_sublines(addr):
            state = self._l15_state[tile].pop(subline, None)
            dirty = dirty or state is MesiState.MODIFIED
            self.l1d[tile].invalidate(subline)
            self.l15[tile].invalidate(subline)
        return dirty

    def _l2_sublines(self, addr: int) -> list[int]:
        l2_bytes = self.config.l2_slice.line_bytes
        l15_bytes = self.config.l15.line_bytes
        base = (addr // l2_bytes) * l2_bytes
        return [base + off for off in range(0, l2_bytes, l15_bytes)]

    def _l15_line(self, addr: int) -> int:
        l15_bytes = self.config.l15.line_bytes
        return addr // l15_bytes * l15_bytes

    def _noc_transfer(self, network: int, src: int, dst: int, flits: int) -> None:
        hops = self._hops[src][dst]
        self.ledger.record(f"noc{network}.flit", flits)
        if hops:
            self.ledger.record(f"noc{network}.flit_hop", flits * hops)


class NaiveMulticoreEngine(MulticoreEngine):
    """``MulticoreEngine`` stepping every active core every visited cycle."""

    def __init__(self, config=None, ledger=None, memsys=None, **kwargs):
        config = config or PitonConfig()
        ledger = ledger if ledger is not None else EventLedger()
        memsys = memsys or NaiveMemorySystem(config, ledger=ledger)
        super().__init__(config, ledger, memsys, **kwargs)

    def run(
        self,
        cycles: int | None = None,
        until_done: bool = False,
        max_cycles: int = 50_000_000,
    ) -> RunResult:
        if not self.cores:
            raise RuntimeError("no active cores")
        if cycles is None and not until_done:
            raise ValueError("specify cycles or until_done")
        start_cycle = self.now
        start_instrs = self.total_instructions
        deadline = None if cycles is None else self.now + cycles
        cores = list(self.cores.values())
        active = [c for c in cores if not c.done]
        far_future = 1 << 62
        ff_stall_events = 0
        checker = self.checker
        next_check = (
            self.now + self.CHECK_INTERVAL
            if checker is not None
            else far_future
        )

        try:
            while active:
                now = self.now
                if checker is not None and now >= next_check:
                    checker.check_engine(self)
                    next_check = now + self.CHECK_INTERVAL
                if deadline is not None and now >= deadline:
                    break
                if now - start_cycle >= max_cycles:
                    raise RuntimeError(
                        f"workload did not finish within {max_cycles} cycles"
                    )
                next_now = far_future
                finished = False
                for core in active:
                    next_event = core.step(now)
                    if core.done:
                        finished = True
                    elif next_event < next_now:
                        next_now = next_event
                if finished:
                    active = [c for c in active if not c.done]
                    if not active:
                        self.now = now + 1
                        break
                if deadline is not None and next_now > deadline:
                    next_now = deadline
                skipped = next_now - now - 1
                if skipped > 0:
                    for core in active:
                        core.stats.cycles += skipped
                        core.stats.stall_cycles += skipped
                    ff_stall_events += skipped * len(active)
                self.now = next_now if next_now > now + 1 else now + 1
        finally:
            if ff_stall_events:
                self.ledger.record("core.stall_cycle", ff_stall_events)
            for core in cores:
                core.flush_events()
        if checker is not None:
            checker.check_engine(self)

        return RunResult(
            cycles=self.now - start_cycle,
            instructions=self.total_instructions - start_instrs,
            completed=all(c.done for c in cores),
        )
