"""The T1's eight-entry store buffer.

Stores retire into the buffer and drain serially to the L1.5 — one
entry every ``drain_cycles`` (the 10-cycle ``stx`` latency of Table VI).
The core issues stores *speculatively*, assuming space: when the buffer
is actually full the issue is rolled back and replayed, which is the
extra energy the paper isolates as ``stx (F)`` versus ``stx (NF)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass
class StoreEntry:
    addr: int
    value: int
    thread_id: int
    #: Push order stamp (set by :meth:`StoreBuffer.push`); the invariant
    #: checkers use it to prove the FIFO never reorders.
    seq: int = -1


class StoreBuffer:
    """FIFO store buffer with timed serial drain."""

    def __init__(self, capacity: int = 8, drain_cycles: int = 10):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.drain_cycles = drain_cycles
        self._entries: deque[StoreEntry] = deque()
        #: Cycle the head entry finishes draining, ``None`` when empty.
        #: Read-only outside the buffer: the core and the invariant
        #: checks read it, only the buffer's own methods move it.
        self.head_done_at: int | None = None
        self.drained = 0
        self.pushed = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def push(self, entry: StoreEntry, now: int) -> None:
        """Insert a store; caller must have checked :attr:`full`."""
        if self.full:
            raise OverflowError("store buffer full")
        entry.seq = self.pushed
        self.pushed += 1
        self._entries.append(entry)
        if self.head_done_at is None:
            self.head_done_at = now + self.drain_cycles

    def drain_ready(self, now: int) -> StoreEntry | None:
        """Pop the head entry if its drain interval has elapsed.

        The caller performs the actual L1.5 write (and records its
        energy); the buffer only sequences the timing.
        """
        if self.head_done_at is None or now < self.head_done_at:
            return None
        entry = self._entries.popleft()
        self.drained += 1
        self.head_done_at = (
            None if not self._entries else now + self.drain_cycles
        )
        return entry

    def delay_head(self, extra: int) -> None:
        """Push the pending head drain back by ``extra`` cycles.

        Models memory backpressure: when the L1.5 write behind a drain
        takes longer than the nominal drain interval, the next drain
        completes correspondingly later. No-op when nothing is pending.
        """
        if extra < 0:
            raise ValueError("delay must be non-negative")
        if self.head_done_at is not None:
            self.head_done_at += extra

    def forward_value(self, addr: int) -> int | None:
        """Store-to-load forwarding: the youngest buffered store to the
        same 64-bit word, or None. Real T1 store buffers bypass their
        contents to dependent loads (RAW through the buffer)."""
        word = addr >> 3
        for entry in reversed(self._entries):
            if entry.addr >> 3 == word:
                return entry.value
        return None
