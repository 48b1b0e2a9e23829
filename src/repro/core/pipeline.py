"""The core issue pipeline: fine-grained MT timing + energy events.

Timing rules (all from the paper / OpenSPARC T1 documentation):

* one instruction issues per cycle, round-robin among *ready* threads;
* a thread that issued a ``latency``-cycle instruction is not ready
  again for ``latency`` cycles (single-issue, in-order, blocking);
* loads speculate L1 hit: a hit costs the 3-cycle load-use latency; a
  miss triggers a roll-back (energy event) and stalls the thread for
  the memory system's computed latency;
* stores issue speculatively into the 8-entry store buffer; a full
  buffer forces a roll-back and replay (``stx (F)``);
* the store buffer drains serially at the 10-cycle ``stx`` latency and
  performs the real (coherent) L1.5 write at drain time.

Hot-loop design: the engine calls :meth:`Core.step` only in the cycles
a core is due (a thread becomes ready or a store drains) and credits
the cycles in between through :meth:`Core.credit_skipped`. The step
still runs millions of times per experiment, so it avoids per-event
string hashing and per-instruction opcode lookups. Core-side energy
events accumulate in interned integer counters (per instruction class)
and are folded into the shared :class:`EventLedger` once per engine
run via :meth:`Core.flush_events`; per-instruction ``OpcodeInfo`` is
read from the program's precomputed ``infos`` list.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.params import PitonConfig
from repro.cache.system import CoherentMemorySystem
from repro.core.semantics import execute
from repro.core.storebuffer import StoreBuffer, StoreEntry
from repro.core.thread import ThreadContext
from repro.isa.instructions import INSTR_EVENT_NAMES, NUM_INSTR_CLASSES
from repro.isa.program import Program
from repro.util.events import EventLedger

#: Cycles to refill the pipeline after a speculative-issue roll-back
#: (the 6-stage depth of the T1 pipeline).
ROLLBACK_PENALTY = 6

#: Sentinel "never" cycle for cores with no schedulable event.
_FAR_FUTURE = 1_000_000_000


@dataclass
class CoreStats:
    """Per-core aggregate counters."""

    cycles: int = 0
    issued: int = 0
    stall_cycles: int = 0
    rollbacks: int = 0
    store_buffer_rollbacks: int = 0
    load_miss_rollbacks: int = 0

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.issued / self.cycles


class Core:
    """One tile's core: threads, store buffer, and the issue loop."""

    def __init__(
        self,
        tile_id: int,
        config: PitonConfig,
        memsys: CoherentMemorySystem,
        memory,
        ledger: EventLedger,
        programs: list[Program],
        execution_drafting: bool = False,
    ):
        if not 1 <= len(programs) <= config.threads_per_core:
            raise ValueError(
                f"core takes 1..{config.threads_per_core} thread programs"
            )
        self.tile_id = tile_id
        self.config = config
        self.memsys = memsys
        self.memory = memory
        self.ledger = ledger
        self.execution_drafting = execution_drafting
        self.threads = [
            ThreadContext(thread_id=i, program=p)
            for i, p in enumerate(programs)
        ]
        self.store_buffer = StoreBuffer(
            config.store_buffer_entries, memsys.latency.store_buffer
        )
        self.stats = CoreStats()
        self._rr_next = 0
        self._last_issued_thread: int | None = None
        # Incrementally-maintained completion state: ``done`` flips True
        # once every thread ran off its program end and the store buffer
        # drained. The engine reads the flag instead of re-deriving it.
        self._undone = sum(1 for t in self.threads if not t.done)
        self.done = self._undone == 0 and self.store_buffer.empty
        self._reset_event_counters()

    def _reset_event_counters(self) -> None:
        # Interned event accumulators, flushed by flush_events(). All
        # of these carry the ledger's default activity except the
        # per-class instruction counters, which sum real activities.
        self._issues = 0  # core.active_cycle + core.fetch
        self._thread_switches = 0
        self._stall_cycle_events = 0
        self._rollback_events = 0
        self._replay_bubbles = 0
        self._class_counts = [0.0] * NUM_INSTR_CLASSES
        self._class_weights = [0.0] * NUM_INSTR_CLASSES

    # ------------------------------------------------------------------ state
    def next_event_cycle(self, now: int) -> int:
        """Earliest future cycle at which this core can make progress."""
        best = None
        for t in self.threads:
            if not t.done:
                r = t.ready_at
                if best is None or r < best:
                    best = r
        drain = self.store_buffer.head_done_at
        if drain is not None and (best is None or drain < best):
            best = drain
        if best is None:
            return now + _FAR_FUTURE  # effectively never
        return best if best > now else now + 1

    def credit_skipped(self, cycles: int, idle: int) -> None:
        """Credit ``cycles`` cycles the engine did not step this core
        through; in ``idle`` of them it stepped no core at all.

        This is the stall rule of a step that issues nothing, applied in
        bulk: every skipped cycle stalls a core with unfinished threads.
        A drain-only core (every thread finished, stores still
        draining) does not stall in a cycle the engine visits for other
        cores, but does in a globally idle one. The engine records the
        idle cycles' ledger events itself, so only the visited ones are
        counted here.
        """
        stats = self.stats
        stats.cycles += cycles
        if self._undone:
            stats.stall_cycles += cycles
            self._stall_cycle_events += cycles - idle
        else:
            stats.stall_cycles += idle

    # ----------------------------------------------------------------- events
    def flush_events(self) -> None:
        """Fold the interned event counters into the shared ledger.

        Called once per engine run — the point of accumulating locally
        is that the hot loop never hashes event-name strings. Exact
        with respect to per-event recording: all accumulated counts and
        activity weights are small dyadic rationals, so float addition
        here is associative (no rounding).
        """
        ledger = self.ledger
        n = self._issues
        if n:
            ledger.add_bulk("core.active_cycle", n, n * 0.5)
            ledger.add_bulk("core.fetch", n, n * 0.5)
        n = self._thread_switches
        if n:
            ledger.add_bulk("core.thread_switch", n, n * 0.5)
        n = self._stall_cycle_events
        if n:
            ledger.add_bulk("core.stall_cycle", n, n * 0.5)
        n = self._rollback_events
        if n:
            ledger.add_bulk("core.rollback", n, n * 0.5)
        n = self._replay_bubbles
        if n:
            ledger.add_bulk("core.replay_bubble", n, n * 0.5)
        counts = self._class_counts
        weights = self._class_weights
        for i in range(NUM_INSTR_CLASSES):
            if counts[i]:
                ledger.add_bulk(INSTR_EVENT_NAMES[i], counts[i], weights[i])
        self._reset_event_counters()

    # ------------------------------------------------------------------- step
    def step(self, now: int) -> int:
        """Advance one cycle: drain stores, select a thread, issue.

        Returns the core's next-event cycle (its post-step
        :meth:`next_event_cycle`): the engine steps the core again only
        at that cycle, without a second scan over the threads.
        """
        stats = self.stats
        stats.cycles += 1
        store_buffer = self.store_buffer
        drain = store_buffer.head_done_at
        if drain is not None and now >= drain:
            self._drain_stores(now)

        # Select a thread: round-robin among the ready ones.
        threads = self.threads
        n = len(threads)
        thread = None
        if n == 1:
            candidate = threads[0]
            if not candidate.done and candidate.ready_at <= now:
                thread = candidate
        else:
            rr_next = self._rr_next
            for offset in range(n):
                idx = rr_next + offset
                if idx >= n:
                    idx -= n
                candidate = threads[idx]
                if not candidate.done and candidate.ready_at <= now:
                    self._rr_next = (idx + 1) % n
                    thread = candidate
                    break
        if thread is None:
            if self._undone:
                stats.stall_cycles += 1
                self._stall_cycle_events += 1
            elif not self.done and store_buffer.empty:
                self.done = True
            return self.next_event_cycle(now)

        instr = thread.instructions[thread.pc]
        info = thread.infos[thread.pc]

        # Speculative store issue: detect a full buffer *before* the
        # architectural write, roll back and replay later.
        if info.is_store and store_buffer.full:
            self._rollback(thread, now, kind="store_buffer")
            return self.next_event_cycle(now)

        outcome = execute(instr, thread, self.memory, info)
        stats.issued += 1
        thread.stats.instructions += 1
        self._issues += 1
        last = self._last_issued_thread
        if last is not None and last != thread.thread_id:
            self._thread_switches += 1
        self._last_issued_thread = thread.thread_id
        drafted = self.execution_drafting and self._draftable(instr)
        n = 0.5 if drafted else 1.0
        class_index = info.class_index
        self._class_counts[class_index] += n
        self._class_weights[class_index] += n * outcome.activity

        if info.is_store:
            thread.stats.stores += 1
            store_buffer.push(
                StoreEntry(outcome.mem_addr, outcome.store_value,
                           thread.thread_id),
                now,
            )
            thread.ready_at = now + 1
        elif info.is_load:
            thread.stats.loads += 1
            # RAW through the store buffer: a younger buffered store to
            # the same word forwards its value to this load.
            forwarded = store_buffer.forward_value(outcome.mem_addr)
            if forwarded is not None:
                thread.write_int(instr.rd, forwarded)
            mem = self.memsys.load(self.tile_id, outcome.mem_addr, now)
            if mem.level != "l1":
                stats.load_miss_rollbacks += 1
                stats.rollbacks += 1
                thread.stats.rollbacks += 1
                self._rollback_events += 1
            thread.ready_at = now + mem.latency
        elif outcome.is_atomic:
            mem = self.memsys.atomic(self.tile_id, outcome.mem_addr, now)
            thread.ready_at = now + mem.latency
        elif info.is_branch:
            thread.stats.branches += 1
            if outcome.branch_taken:
                thread.stats.branches_taken += 1
                if outcome.branch_target is not None and (
                    outcome.branch_target <= thread.pc
                ):
                    thread.stats.iterations += 1
            thread.ready_at = now + info.latency
        else:
            thread.ready_at = now + info.latency

        if thread.done:
            self._undone -= 1
            if self._undone == 0 and store_buffer.empty:
                self.done = True
        return self.next_event_cycle(now)

    # ------------------------------------------------------------------ parts
    def _drain_stores(self, now: int) -> None:
        entry = self.store_buffer.drain_ready(now)
        if entry is None:
            return
        # The store becomes architecturally visible at drain time.
        self.memory.write(entry.addr, entry.value)
        outcome = self.memsys.store(self.tile_id, entry.addr, now)
        extra = outcome.latency - self.memsys.latency.store_buffer
        if extra > 0:
            # Memory backpressure delays the next drain.
            self.store_buffer.delay_head(extra)

    def _rollback(self, thread: ThreadContext, now: int, kind: str) -> None:
        """Speculative-issue failure: replay after the pipeline refills."""
        self.stats.rollbacks += 1
        self.stats.store_buffer_rollbacks += kind == "store_buffer"
        thread.stats.rollbacks += 1
        self._rollback_events += 1
        # The replayed instructions burn fetch/decode energy again.
        self._replay_bubbles += ROLLBACK_PENALTY
        thread.ready_at = now + ROLLBACK_PENALTY

    def _draftable(self, instr) -> bool:
        """Execution Drafting: when both threads sit at the same PC of
        the same program, the second execution drafts behind the first
        and the front-end energy is shared. A simple, honest stand-in
        for McKeown et al.'s MICRO-47 mechanism."""
        if len(self.threads) < 2:
            return False
        a, b = self.threads[0], self.threads[1]
        return a.program is b.program and a.pc == b.pc
