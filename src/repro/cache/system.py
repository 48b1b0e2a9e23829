"""Chip-wide coherent memory system.

Ties together the per-tile private caches (L1I, write-through L1D, and
the write-back L1.5 that encapsulates it), the distributed shared L2
slices with their directories, the address-interleaved homing map, and
an off-chip access model. State transitions are exact MESI; timing is
composed from :class:`~repro.cache.latency.MemoryLatencyModel` plus
floorplan hop counts; every energy-relevant action is recorded in the
shared :class:`~repro.util.events.EventLedger`.

Message sizes follow the paper: a remote L2 hit is a 3-flit request
plus a 3-flit response (Section IV-G); invalidations ride NoC2 and
acks/data responses NoC3; L1.5 dirty-line writebacks carry the 16B line
as two payload flits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.arch.floorplan import Floorplan
from repro.arch.params import PitonConfig
from repro.cache.addressing import AddressMap
from repro.cache.cdr import CdrRegistry
from repro.cache.coherence import CoherenceError, MesiState
from repro.cache.l2 import L2Slice, RecallAction
from repro.cache.latency import MemoryLatencyModel, default_latency_model
from repro.cache.setassoc import SetAssocCache
from repro.noc.mitts import MittsShaper
from repro.util.events import EventLedger

# Message lengths in flits (header + payload).
REQUEST_FLITS = 3
RESPONSE_FLITS = 3
INVALIDATE_FLITS = 2
ACK_FLITS = 1

#: Ledger names of physical NoC ``n``'s flit and flit-hop events,
#: indexed by ``n`` (1-3).
_FLIT_EVENT = tuple(f"noc{n}.flit" for n in range(4))
_FLIT_HOP_EVENT = tuple(f"noc{n}.flit_hop" for n in range(4))


def fixed_offchip_model(
    cycles: int = 390,
) -> Callable[[int, bool, int], int]:
    """A trivial off-chip model: constant round-trip latency.

    The full system replaces this with
    :class:`repro.chip.offchip.OffChipPath`, which models the chip
    bridge, gateway FPGA, chipset, and DDR3 timing of Figure 15.
    """

    def access(line_addr: int, write: bool = False, now: int = 0) -> int:
        del line_addr, write, now
        return cycles

    return access


@dataclass(frozen=True)
class MemoryAccessOutcome:
    """Latency and classification of one memory operation."""

    latency: int
    level: str  # "l1" | "l15" | "l2_local" | "l2_remote" | "mem"
    hops: int = 0
    turns: int = 0
    home_tile: int | None = None


class CoherentMemorySystem:
    """All caches and directories of one chip."""

    def __init__(
        self,
        config: PitonConfig | None = None,
        ledger: EventLedger | None = None,
        address_map: AddressMap | None = None,
        latency_model: MemoryLatencyModel | None = None,
        offchip: Callable[[int, bool, int], int] | None = None,
        cdr: CdrRegistry | None = None,
    ):
        self.config = config or PitonConfig()
        self.ledger = ledger if ledger is not None else EventLedger()
        self.floorplan = Floorplan(self.config)
        # Every message is priced from the per-config hop/turn tables.
        self._hops = self.floorplan.hop_table
        self._turns = self.floorplan.turn_table
        self._l15_bytes = self.config.l15.line_bytes
        self._l2_bytes = self.config.l2_slice.line_bytes
        self.address_map = address_map or AddressMap(self.config)
        self.latency = latency_model or default_latency_model(self.config)
        self.offchip = offchip or fixed_offchip_model()
        #: Optional Coherence Domain Restriction registry; None means
        #: one unrestricted domain (the paper's configuration).
        self.cdr = cdr
        #: Per-tile MITTS shapers on the DRAM-bound request path; pass-
        #: through by default (the chip's reset configuration).
        self.mitts: dict[int, MittsShaper] = {}
        #: Optional :class:`repro.check.CheckSuite`; when set, every
        #: miss-path access outcome is validated (latency bounds,
        #: level classification). ``None`` keeps the paths check-free.
        self.checker = None

        n = self.config.tile_count
        self.l1i = [
            SetAssocCache(self.config.l1i, f"l1i[{t}]") for t in range(n)
        ]
        self.l1d = [
            SetAssocCache(self.config.l1d, f"l1d[{t}]") for t in range(n)
        ]
        self.l15 = [
            SetAssocCache(self.config.l15, f"l15[{t}]") for t in range(n)
        ]
        self.l2 = [
            L2Slice(t, self.config.l2_slice, self.ledger) for t in range(n)
        ]
        # MESI state of each L1.5-resident line, keyed by line base addr.
        # Its keys are exactly the lines resident in the tile's L1.5, and
        # the L1D (inclusive) holds a subset of them, so coherence
        # actions visit only the sub-lines present here.
        self._l15_state: list[dict[int, MesiState]] = [{} for _ in range(n)]

    def set_mitts(self, tile: int, shaper: MittsShaper) -> None:
        """Install a MITTS configuration on one tile's memory traffic."""
        if not 0 <= tile < self.config.tile_count:
            raise ValueError(f"tile {tile} out of range")
        self.mitts[tile] = shaper

    # ------------------------------------------------------------------ loads
    def load(self, tile: int, addr: int, now: int = 0) -> MemoryAccessOutcome:
        """A 64-bit load from ``tile``; returns latency and level."""
        if self.cdr is not None:
            self.cdr.check(tile, addr)
        self.ledger.record("l1d.read")
        if self.l1d[tile].access(addr).hit:
            return MemoryAccessOutcome(self.latency.l1_hit, "l1")

        # L1D miss: look in the encapsulating L1.5.
        self.ledger.record("l15.read")
        state = self._l15_state[tile].get(self._l15_line(addr))
        if state is not None and state.can_read:
            self.l15[tile].access(addr)
            self._fill_l1d(tile, addr)
            latency = self.latency.l1_hit + self.latency.l15_lookup
            return MemoryAccessOutcome(latency, "l15")
        self.l15[tile].stats.misses += 1

        # Miss in both: request the line (shared) from its home slice.
        return self._fetch_from_home(tile, addr, exclusive=False, now=now)

    # ----------------------------------------------------------------- stores
    def store(self, tile: int, addr: int, now: int = 0) -> MemoryAccessOutcome:
        """A 64-bit store from ``tile`` (write-through L1D into L1.5)."""
        if self.cdr is not None:
            self.cdr.check(tile, addr)
        self.ledger.record("l1d.write")
        # Write-through, no-write-allocate L1D: a hit updates its LRU
        # state; the write itself lands in the L1.5.
        self.l1d[tile].access(addr, write=True)

        line = self._l15_line(addr)
        state = self._l15_state[tile].get(line)
        self.ledger.record("l15.write")
        if state is MesiState.MODIFIED:
            self.l15[tile].access(addr, write=True)
            return MemoryAccessOutcome(self.latency.store_buffer, "l15")
        if state is MesiState.EXCLUSIVE:
            # Silent E->M upgrade, no traffic.
            self.l15[tile].access(addr, write=True)
            self._l15_state[tile][line] = MesiState.MODIFIED
            return MemoryAccessOutcome(self.latency.store_buffer, "l15")
        if state is MesiState.SHARED:
            outcome = self._upgrade_to_owner(tile, addr)
        else:
            self.l15[tile].stats.misses += 1
            outcome = self._fetch_from_home(
                tile, addr, exclusive=True, now=now
            )
        # The store retires through the store buffer after ownership.
        return outcome

    # ----------------------------------------------------------------- fetch
    def fetch(self, tile: int, addr: int, now: int = 0) -> MemoryAccessOutcome:
        """Instruction fetch. The L1I is not coherent with stores in this
        model (self-modifying code is out of scope); misses stream from
        the home L2 without directory tracking."""
        self.ledger.record("l1i.read")
        if self.l1i[tile].access(addr).hit:
            return MemoryAccessOutcome(1, "l1")
        home = self.address_map.home_tile(addr)
        hops = self._hops[tile][home]
        turns = self._turns[tile][home]
        self._noc_transfer(1, tile, home, REQUEST_FLITS)
        self._noc_transfer(3, home, tile, RESPONSE_FLITS + 2)
        latency = self.latency.l2_hit(hops, turns)
        if not self.l2[home].lookup(addr):
            latency += self._l2_fill_from_memory(home, addr, now)
        self.l1i[tile].fill(addr)
        self.ledger.record("l1i.fill")
        outcome = MemoryAccessOutcome(
            latency, "l2_local" if hops == 0 else "l2_remote", hops, turns, home
        )
        if self.checker is not None:
            self.checker.check_access(outcome)
        return outcome

    # ----------------------------------------------------------- atomic (CAS)
    def atomic(self, tile: int, addr: int, now: int = 0) -> MemoryAccessOutcome:
        """Atomic compare-and-swap: performed at the home L2 (as on the
        T1), invalidating every private copy of the line."""
        if self.cdr is not None:
            self.cdr.check(tile, addr)
        self.ledger.record("l15.write")
        outcome = self._fetch_from_home(
            tile, addr, exclusive=True, allocate_private=False, now=now
        )
        # The atomic result lives at the L2; drop any stale private copy
        # the requester itself held.
        self._invalidate_private(tile, addr)
        home = self.address_map.home_tile(addr)
        self.l2[home].tags.set_dirty(addr, True)  # the swap lands at the L2
        line = self.l2[home].line_addr(addr)
        entry = self.l2[home].directory.get(line)
        if entry is not None:
            entry.drop(tile)
            if entry.uncached:
                del self.l2[home].directory[line]
        return outcome

    # ----------------------------------------------------------------- guts
    def _fetch_from_home(
        self,
        tile: int,
        addr: int,
        exclusive: bool,
        allocate_private: bool = True,
        now: int = 0,
    ) -> MemoryAccessOutcome:
        home = self.address_map.home_tile(addr)
        hops = self._hops[tile][home]
        turns = self._turns[tile][home]
        self._noc_transfer(1, tile, home, REQUEST_FLITS)

        latency = self.latency.l2_hit(hops, turns)
        level = "l2_local" if hops == 0 else "l2_remote"

        l2_hit = self.l2[home].lookup(addr, write=exclusive)
        if not l2_hit:
            latency += self._l2_fill_from_memory(
                home, addr, now, requester=tile
            )
            level = "mem"

        entry = self.l2[home].entry(addr)
        if exclusive:
            latency += self._invalidate_all(home, addr, except_tile=tile)
            entry.sharers.clear()
            entry.owner = None
            if allocate_private:
                entry.set_owner(tile)
        else:
            if entry.owner is not None and entry.owner != tile:
                latency += self._downgrade_owner(home, addr)
            if entry.owner == tile:
                entry.owner = None  # stale; re-granted below
            if allocate_private:
                if entry.uncached and not exclusive:
                    entry.set_owner(tile)  # grant Exclusive
                else:
                    entry.add_sharer(tile)

        self._noc_transfer(3, home, tile, RESPONSE_FLITS)
        if allocate_private:
            grant = (
                MesiState.MODIFIED
                if exclusive
                else (
                    MesiState.EXCLUSIVE
                    if entry.owner == tile
                    else MesiState.SHARED
                )
            )
            self._fill_l15(tile, addr, grant)
            if not exclusive:
                self._fill_l1d(tile, addr)
        outcome = MemoryAccessOutcome(latency, level, hops, turns, home)
        if self.checker is not None:
            self.checker.check_access(outcome)
        return outcome

    def _upgrade_to_owner(self, tile: int, addr: int) -> MemoryAccessOutcome:
        """S -> M upgrade: invalidate the other sharers via the home."""
        home = self.address_map.home_tile(addr)
        hops = self._hops[tile][home]
        turns = self._turns[tile][home]
        self._noc_transfer(1, tile, home, REQUEST_FLITS)
        if not self.l2[home].lookup(addr, write=True):
            raise CoherenceError(
                f"upgrade for line not resident at home slice {home}"
            )
        entry = self.l2[home].entry(addr)
        latency = self.latency.l2_hit(hops, turns)
        latency += self._invalidate_all(home, addr, except_tile=tile)
        entry.sharers.clear()
        entry.owner = None
        entry.set_owner(tile)
        self._noc_transfer(3, home, tile, ACK_FLITS)
        self.l15[tile].access(addr, write=True)
        line = self._l15_line(addr)
        self._l15_state[tile][line] = MesiState.MODIFIED
        return MemoryAccessOutcome(
            latency, "l2_local" if hops == 0 else "l2_remote", hops, turns, home
        )

    def _invalidate_all(self, home: int, addr: int, except_tile: int) -> int:
        """Invalidate every private copy except ``except_tile``'s.

        Returns the added latency (the slowest invalidation round trip).
        """
        entry = self.l2[home].entry(addr)
        worst = 0
        targets = set(entry.sharers)
        if entry.owner is not None:
            targets.add(entry.owner)
        targets.discard(except_tile)
        hops, turns, latency = self._hops[home], self._turns[home], self.latency
        for target in targets:
            self._noc_transfer(2, home, target, INVALIDATE_FLITS)
            dirty = self._invalidate_private(target, addr)
            flits = ACK_FLITS + (2 if dirty else 0)
            self._noc_transfer(3, target, home, flits)
            if dirty:
                self.l2[home].writeback_data(addr)
            round_trip = 2 * (
                hops[target] * latency.hop + turns[target] * latency.turn
            ) + latency.l15_lookup
            worst = max(worst, round_trip)
        return worst

    def _downgrade_owner(self, home: int, addr: int) -> int:
        """Owner (E or M) loses exclusivity for a read-shared grant."""
        entry = self.l2[home].entry(addr)
        owner = entry.owner
        assert owner is not None
        self._noc_transfer(2, home, owner, INVALIDATE_FLITS)
        dirty = False
        states = self._l15_state[owner]
        l15 = self.l15[owner]
        for subline in self._l2_sublines(addr):
            state = states.get(subline)
            if state is None:
                continue
            dirty = dirty or state is MesiState.MODIFIED
            states[subline] = MesiState.SHARED
            if l15.probe(subline):
                l15.set_dirty(subline, False)
        flits = ACK_FLITS + (2 if dirty else 0)
        self._noc_transfer(3, owner, home, flits)
        if dirty:
            self.l2[home].writeback_data(addr)
        entry.downgrade_owner_to_sharer()
        latency = self.latency
        return 2 * (
            self._hops[home][owner] * latency.hop
            + self._turns[home][owner] * latency.turn
        ) + latency.l15_lookup

    def _l2_fill_from_memory(
        self, home: int, addr: int, now: int = 0, requester: int | None = None
    ) -> int:
        """Fetch the line from DRAM into the home slice, shaped by the
        requesting tile's MITTS configuration when one is installed."""
        line_addr = self.l2[home].line_addr(addr)
        mitts_delay = 0
        shaper = self.mitts.get(requester) if requester is not None else None
        if shaper is not None:
            release = shaper.release_time(now)
            mitts_delay = release - now
            if mitts_delay:
                self.ledger.record("mitts.stall_cycle", mitts_delay)
        # The shaped wait precedes the request; the channel itself is
        # debited at call time (transaction-level approximation that
        # keeps unshaped tenants from queueing behind future-dated
        # shaped requests).
        cycles = mitts_delay + self.offchip(line_addr, False, now)
        # While the miss is outstanding the requesting core's thread
        # scheduler, replay logic, and L1.5 MSHR/CCX retry path stay
        # active (the T1 speculatively reschedules the missing thread).
        self.ledger.record("mem.outstanding_cycle", cycles)
        recall = self.l2[home].fill(addr)
        if recall is not None:
            self._execute_recall(home, recall, now)
        self.ledger.record("mem.line_fetch")
        return cycles

    def _execute_recall(self, home: int, recall: RecallAction, now: int = 0) -> None:
        targets = set(recall.sharers)
        if recall.owner is not None:
            targets.add(recall.owner)
        dirty_any = recall.dirty_writeback
        for target in targets:
            self._noc_transfer(2, home, target, INVALIDATE_FLITS)
            dirty = self._invalidate_private(target, recall.line_addr)
            dirty_any = dirty_any or dirty
            self._noc_transfer(3, target, home, ACK_FLITS + (2 if dirty else 0))
        if dirty_any:
            self.offchip(recall.line_addr, True, now)
            self.ledger.record("mem.line_writeback")

    def _invalidate_private(self, tile: int, addr: int) -> bool:
        """Drop every private copy a tile holds of the *L2 line*
        containing ``addr``; returns True if any sub-line was dirty.

        The directory tracks 64B L2 lines while the L1/L1.5 hold 16B
        lines, so one coherence action covers all four sub-lines; only
        those the tile holds need their tags dropped.
        """
        dirty = False
        states = self._l15_state[tile]
        for subline in self._l2_sublines(addr):
            state = states.pop(subline, None)
            if state is None:
                continue
            dirty = dirty or state is MesiState.MODIFIED
            self.l1d[tile].invalidate(subline)
            self.l15[tile].invalidate(subline)
        return dirty

    def _l2_sublines(self, addr: int) -> range:
        """Base addresses of the L1.5-granularity pieces of the L2
        line containing ``addr``."""
        l2_bytes = self._l2_bytes
        base = addr // l2_bytes * l2_bytes
        return range(base, base + l2_bytes, self._l15_bytes)

    def _fill_l15(self, tile: int, addr: int, state: MesiState) -> None:
        self.ledger.record("l15.fill")
        result = self.l15[tile].fill(
            addr, dirty=state is MesiState.MODIFIED
        )
        line = self._l15_line(addr)
        self._l15_state[tile][line] = state
        if result.evicted_line_addr is not None:
            self._evict_l15_line(tile, result.evicted_line_addr)

    def _evict_l15_line(self, tile: int, line_addr: int) -> None:
        """Capacity eviction from the L1.5: notify home, write back dirty
        data, and maintain L1D inclusion. The tile only leaves the
        directory's sharer/owner sets once it holds *no* sub-line of
        the 64B L2 line."""
        state = self._l15_state[tile].pop(line_addr, None)
        self.l1d[tile].invalidate(line_addr)
        home = self.address_map.home_tile(line_addr)
        dirty = state is MesiState.MODIFIED
        flits = ACK_FLITS + (2 if dirty else 0)
        self._noc_transfer(3, tile, home, flits)
        if dirty:
            self.l2[home].writeback_data(line_addr)
        still_held = any(
            subline in self._l15_state[tile]
            for subline in self._l2_sublines(line_addr)
        )
        if not still_held:
            self.l2[home].drop_private(line_addr, tile)

    def _fill_l1d(self, tile: int, addr: int) -> None:
        self.ledger.record("l1d.fill")
        self.l1d[tile].fill(addr)

    def _l15_line(self, addr: int) -> int:
        return addr // self._l15_bytes * self._l15_bytes

    def _noc_transfer(self, network: int, src: int, dst: int, flits: int) -> None:
        """Record flit-hop events for a message on physical NoC ``network``."""
        hops = self._hops[src][dst]
        self.ledger.record(_FLIT_EVENT[network], flits)
        if hops:
            self.ledger.record(_FLIT_HOP_EVENT[network], flits * hops)

    # ------------------------------------------------------------- invariants
    def check_invariants(self) -> None:
        """Protocol safety: single writer, directory/private agreement."""
        for slice_ in self.l2:
            slice_.check_invariants()
        # Collect private states per line.
        holders: dict[int, list[tuple[int, MesiState]]] = {}
        for tile in range(self.config.tile_count):
            for line, state in self._l15_state[tile].items():
                holders.setdefault(line, []).append((tile, state))
        for line, entries in holders.items():
            exclusive = [
                t
                for t, s in entries
                if s in (MesiState.MODIFIED, MesiState.EXCLUSIVE)
            ]
            if len(exclusive) > 1:
                raise CoherenceError(
                    f"line {line:#x} exclusively held by {exclusive}"
                )
            if exclusive and len(entries) > 1:
                raise CoherenceError(
                    f"line {line:#x} has owner {exclusive} and sharers"
                )
            home = self.address_map.home_tile(line)
            dir_entry = self.l2[home].directory.get(
                self.l2[home].line_addr(line)
            )
            if dir_entry is None:
                raise CoherenceError(
                    f"line {line:#x} cached privately but untracked at home"
                )
            for tile, state in entries:
                # State-precise agreement: an exclusive private state
                # must be backed by directory ownership, and a shared
                # one by sharer membership — "tracked somehow" is not
                # enough (a flipped S->M tag must trip this).
                if state in (MesiState.MODIFIED, MesiState.EXCLUSIVE):
                    tracked = dir_entry.owner == tile
                else:
                    # Line ownership subsumes sharer rights: a tile
                    # that owns the 64B line may hold sibling 16B
                    # sub-lines in S without a sharer record.
                    tracked = (
                        tile in dir_entry.sharers or dir_entry.owner == tile
                    )
                if not tracked:
                    raise CoherenceError(
                        f"line {line:#x} held {state} by tile {tile} "
                        "but directory records owner "
                        f"{dir_entry.owner} sharers {sorted(dir_entry.sharers)}"
                    )
            if self.cdr is not None:
                allowed = self.cdr.allowed_sharers(
                    line, self.config.tile_count
                )
                holders_of_line = {t for t, _ in entries}
                if not holders_of_line <= allowed:
                    raise CoherenceError(
                        f"line {line:#x} cached outside its coherence "
                        f"domain: {holders_of_line - allowed}"
                    )
