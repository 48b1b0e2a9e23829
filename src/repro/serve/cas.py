"""Content-addressed result store: simulate once, serve forever.

The store under ``results/cas/`` memoizes completed work keyed by the
sha256 digest of the request that produced it — the same digest the
checkpoint journal already proves stable across processes (see
:func:`repro.resilience.request_digest`). Two namespaces:

* ``point`` — pickled :class:`~repro.system.SimOutcome` per grid
  point, written/served through :class:`CasJournal` (which duck-types
  :class:`~repro.resilience.CheckpointJournal`, so the existing grid
  executors absorb and serve cache entries without learning anything
  new);
* ``run`` — complete ``ExperimentResult`` JSON documents for
  ``POST /v1/run``, returned byte-for-byte on a warm hit.

Entries are frames (:func:`repro.util.io.frame`) whose header carries
the fidelity tier and error bound, written with
:func:`repro.util.io.atomic_write_bytes`: a frame that fails
verification is treated as absent and the point simply re-simulates —
and overwrites the bad entry with a good one.

Cache policy is tier-aware, mirroring
:func:`repro.surrogate.dispatch.accepts_cached_outcome`: a ``sim``
entry (cycle-level) satisfies any requested tier; a ``fast`` entry
(surrogate-served) satisfies ``fast`` always, ``auto`` only within
the requested tolerance, and ``sim`` never.
"""

from __future__ import annotations

import os
import pickle
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs.trace import NULL_TRACER, Tracer
from repro.util.io import atomic_write_bytes, frame, unframe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import SimOutcome

#: Bump when the entry framing changes; unknown frames are misses.
_MAGIC = b"RCAS1\0"
#: crc32(payload), len(payload), tier code, tier error bound.
_HEADER = struct.Struct(">IQBd")

_TIER_TO_CODE = {"sim": 0, "fast": 1}
_CODE_TO_TIER = {v: k for k, v in _TIER_TO_CODE.items()}

#: Where ``repro serve`` keeps the store unless told otherwise.
DEFAULT_CAS_DIR = "results/cas"


@dataclass(frozen=True)
class CacheEntry:
    """One verified store entry: payload plus its fidelity provenance."""

    payload: bytes
    tier: str
    tier_err: float


def _normalize_key(key: bytes | str) -> str:
    if isinstance(key, bytes):
        return key.hex()
    return key


class ResultCache:
    """The on-disk content-addressed store (crash-safe, append-only)."""

    #: Quarantined frames land here, renamed so no glob re-reads them.
    QUARANTINE_DIR = "quarantine"

    def __init__(self, root: Path | str = DEFAULT_CAS_DIR):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Lifetime counters for this handle (the daemon keeps one for
        # its whole life, so these are the service totals surfaced on
        # /v1/status; a CLI handle starts from zero).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.scrub_repairs = 0

    def _entry_path(self, namespace: str, key: bytes | str) -> Path:
        key = _normalize_key(key)
        # Two-character fan-out keeps directories small under dense
        # sweeps (65k points land ~256 per directory).
        return self.root / namespace / key[:2] / f"{key}.cas"

    # ----------------------------------------------------------------- write
    def put(
        self,
        namespace: str,
        key: bytes | str,
        payload: bytes,
        tier: str = "sim",
        tier_err: float = 0.0,
    ) -> Path:
        """Store one entry atomically and durably."""
        path = self._entry_path(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        return atomic_write_bytes(
            path,
            frame(
                _MAGIC,
                _HEADER,
                payload,
                _TIER_TO_CODE.get(tier, 1),
                tier_err,
            ),
        )

    # ------------------------------------------------------------------ read
    @staticmethod
    def _decode(blob: bytes) -> CacheEntry | None:
        """Verify one frame; ``None`` on any damage (torn, flipped)."""
        framed = unframe(_MAGIC, _HEADER, blob)
        if framed is None:
            return None
        (tier_code, tier_err), payload = framed
        tier = _CODE_TO_TIER.get(tier_code)
        if tier is None:
            return None
        return CacheEntry(payload=payload, tier=tier, tier_err=tier_err)

    def get(self, namespace: str, key: bytes | str) -> CacheEntry | None:
        """The verified entry, or ``None`` (absent *or* corrupt)."""
        path = self._entry_path(namespace, key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        return self._decode(blob)

    @staticmethod
    def satisfies(
        entry: CacheEntry, tier: str, tolerance: float
    ) -> bool:
        """Tier-aware acceptance (mirrors ``accepts_cached_outcome``):
        cycle-level entries satisfy every tier; surrogate entries never
        satisfy ``sim`` and satisfy ``auto`` only within tolerance."""
        if entry.tier == "sim":
            return True
        if tier == "fast":
            return True
        if tier == "auto":
            return entry.tier_err <= tolerance
        return False

    def lookup(
        self,
        namespace: str,
        key: bytes | str,
        tier: str = "sim",
        tolerance: float = 0.05,
    ) -> CacheEntry | None:
        """:meth:`get` plus the tier gate in one call.

        Counts a hit/miss on this handle and — on a hit — touches the
        entry's mtime, which is the LRU clock :meth:`gc` evicts by:
        an entry a sweep keeps re-reading stays hot however old its
        write is.
        """
        entry = self.get(namespace, key)
        if entry is None or not self.satisfies(entry, tier, tolerance):
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(self._entry_path(namespace, key))
        except OSError:  # pragma: no cover - racing eviction
            pass
        return entry

    # ----------------------------------------------------------- maintenance
    def entry_count(self, namespace: str | None = None) -> int:
        root = self.root / namespace if namespace else self.root
        if not root.is_dir():
            return 0
        return sum(1 for _ in root.rglob("*.cas"))

    def _entries(self) -> list[tuple[float, int, Path]]:
        """Every live entry as ``(mtime, size, path)``; racing-unlink
        tolerant (a concurrent GC or writer is normal operation)."""
        out: list[tuple[float, int, Path]] = []
        for path in self.root.rglob("*.cas"):
            try:
                st = path.stat()
            except OSError:
                continue
            out.append((st.st_mtime, st.st_size, path))
        return out

    def stats(self) -> dict[str, int]:
        """The CAS section of the shared status document."""
        entries = self._entries()
        return {
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "scrub_repairs": self.scrub_repairs,
        }

    def gc(self, quota_bytes: int) -> int:
        """Evict least-recently-used entries until under ``quota_bytes``.

        Returns how many entries were evicted. Eviction is safe at any
        moment: a reader that loses the race sees a miss and
        re-simulates; a writer re-creates the entry atomically.
        """
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for _mtime, size, path in sorted(entries):
            if total <= quota_bytes:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing unlink
                continue
            total -= size
            evicted += 1
        self.evictions += evicted
        return evicted

    def scrub(self) -> int:
        """Quarantine every entry whose frame fails verification.

        A damaged entry is moved to ``quarantine/`` with a
        ``.damaged`` suffix — out of every read path (readers glob
        ``*.cas``) but inspectable — and counted as a repair: the next
        request for that key is a clean miss that overwrites nothing.
        Returns how many entries were quarantined.
        """
        quarantine = self.root / self.QUARANTINE_DIR
        repaired = 0
        for _mtime, _size, path in self._entries():
            try:
                blob = path.read_bytes()
            except OSError:
                continue
            if self._decode(blob) is not None:
                continue
            quarantine.mkdir(parents=True, exist_ok=True)
            try:
                os.replace(
                    path, quarantine / (path.name + ".damaged")
                )
            except OSError:  # pragma: no cover - racing unlink
                continue
            repaired += 1
        self.scrub_repairs += repaired
        return repaired


@dataclass
class CasJournal:
    """The CAS viewed as a checkpoint journal.

    Duck-types the :class:`~repro.resilience.CheckpointJournal`
    surface the grid executors consume (``get`` / ``append`` /
    ``write_meta`` / ``complete``), with two deliberate differences:
    points are keyed *purely* by request digest (the grid index is
    ignored — identical points hit from any grid, any shape), and
    ``complete()`` is a no-op (the store is the service's memory, not
    a crash artifact to be retired).

    Tier arbitration happens here, on the frame header, before any
    unpickle: a surrogate-tier entry that the requested tier cannot
    accept is a miss (and will be overwritten by the cycle-level
    outcome the executor then produces). ``cas_hits`` / ``cas_misses``
    land on the tracer's counters, which is how they reach job
    manifests and sweep documents.
    """

    cache: ResultCache
    tier: str = "sim"
    tolerance: float = 0.05
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)

    def get(self, index: int, digest: bytes) -> "SimOutcome | None":
        entry = self.cache.lookup(
            "point", digest, tier=self.tier, tolerance=self.tolerance
        )
        if entry is None:
            self.tracer.count("cas_misses")
            return None
        try:
            outcome = pickle.loads(entry.payload)
        except Exception:
            self.tracer.count("cas_misses")
            return None
        self.tracer.count("cas_hits")
        return outcome

    def append(self, index: int, digest: bytes, outcome: object) -> None:
        payload = pickle.dumps(
            outcome, protocol=pickle.HIGHEST_PROTOCOL
        )
        self.cache.put(
            "point",
            digest,
            payload,
            tier=getattr(outcome, "tier", "sim"),
            tier_err=getattr(outcome, "tier_err", 0.0),
        )

    def write_meta(self, **_kwargs: object) -> None:
        pass

    def complete(self) -> None:
        pass
