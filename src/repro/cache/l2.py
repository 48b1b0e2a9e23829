"""Distributed shared L2 slice with integrated directory.

Each tile owns one 64KB, 4-way slice. The slice is inclusive of the
private caches above it for the lines it homes: evicting an L2 line
recalls (invalidates) every private copy, which the paper's coherence
protocol requires and our invariants tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.params import CacheParams
from repro.cache.coherence import CoherenceError, DirectoryEntry
from repro.cache.setassoc import SetAssocCache
from repro.util.events import EventLedger


@dataclass
class RecallAction:
    """Private copies the slice needs invalidated to make room."""

    line_addr: int
    sharers: set[int] = field(default_factory=set)
    owner: int | None = None
    dirty_writeback: bool = False


class L2Slice:
    """Tag store + directory for the lines this tile homes."""

    def __init__(
        self,
        tile_id: int,
        params: CacheParams,
        ledger: EventLedger,
    ):
        self.tile_id = tile_id
        self.tags = SetAssocCache(params, name=f"l2[{tile_id}]")
        self.directory: dict[int, DirectoryEntry] = {}
        self.ledger = ledger

    def line_addr(self, addr: int) -> int:
        line_bytes = self.tags.line_bytes
        return addr // line_bytes * line_bytes

    def lookup(self, addr: int, write: bool = False) -> bool:
        """Tag + directory-cache lookup; returns residency."""
        self.ledger.record("l2.read" if not write else "l2.write")
        self.ledger.record("dir.lookup")
        return self.tags.access(addr, write=write).hit

    def entry(self, addr: int) -> DirectoryEntry:
        """Directory entry for a *resident* line (created on demand)."""
        line = self.line_addr(addr)
        if not self.tags.probe(addr):
            raise CoherenceError(
                f"directory access to non-resident line {line:#x} "
                f"at slice {self.tile_id}"
            )
        return self.directory.setdefault(line, DirectoryEntry())

    def fill(self, addr: int, dirty: bool = False) -> RecallAction | None:
        """Install a line fetched from memory; returns any recall needed
        for the line evicted to make room."""
        self.ledger.record("l2.fill")
        result = self.tags.fill(addr, dirty=dirty)
        if result.evicted_line_addr is None:
            return None
        evicted = result.evicted_line_addr
        entry = self.directory.pop(evicted, DirectoryEntry())
        action = RecallAction(
            line_addr=evicted,
            sharers=set(entry.sharers),
            owner=entry.owner,
            dirty_writeback=result.evicted_dirty,
        )
        if result.evicted_dirty:
            self.ledger.record("l2.writeback")
        return action

    def drop_private(self, addr: int, tile: int) -> None:
        """A private cache evicted its copy; update the directory."""
        line = self.line_addr(addr)
        entry = self.directory.get(line)
        if entry is not None:
            entry.drop(tile)
            if entry.uncached:
                del self.directory[line]

    def writeback_data(self, addr: int) -> None:
        """Dirty data arrived from an owner; mark the L2 line dirty."""
        self.ledger.record("l2.write")
        if not self.tags.probe(addr):
            raise CoherenceError(
                f"writeback to non-resident line {addr:#x} "
                f"at slice {self.tile_id}"
            )
        self.tags.set_dirty(addr, True)

    def check_invariants(self) -> None:
        """Directory entries only for resident lines; MESI entry shape."""
        resident = set(self.tags.resident_lines())
        for line, entry in self.directory.items():
            if line not in resident:
                raise CoherenceError(
                    f"directory entry for non-resident line {line:#x}"
                )
            entry.check()
