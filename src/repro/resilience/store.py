"""The point store: completed work keyed by request digest.

One on-disk store serves both consumers of completed grid points:

* ``repro run --resume`` checkpoints — a :class:`PointJournal` with a
  grid manifest over a :class:`ResultCache` rooted at
  ``<checkpoint_dir>/<experiment>``, cleared by a fresh run and
  removed once the grid is fully delivered;
* the ``repro serve`` result store under ``results/cas/`` — the same
  :class:`PointJournal`, without a manifest, over the daemon's
  long-lived cache, plus the ``run``/``sweep`` namespaces holding whole
  response documents.

Entries are :func:`repro.util.io.frame` records (magic ``RCAS1``)
whose header carries the fidelity tier and error bound, written with
:func:`repro.util.io.atomic_write_bytes`: a frame that fails
verification is treated as absent, and the point simply re-simulates —
overwriting the bad entry with a good one.

Tier policy lives in one place, :meth:`ResultCache.satisfies`, and is
applied to the frame header before any payload is unpickled: a ``sim``
entry (cycle-level) satisfies any requested tier; a ``fast`` entry
(surrogate-served) satisfies ``fast`` always, ``auto`` only within the
requested tolerance, and ``sim`` never.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs.trace import NULL_TRACER, Tracer
from repro.util.io import atomic_write_bytes, atomic_write_text, frame, unframe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.surrogate.dispatch import FidelityPolicy

#: Bump when the entry framing changes; unknown frames are misses.
_MAGIC = b"RCAS1\0"
#: crc32(payload), len(payload), tier code, tier error bound.
_HEADER = struct.Struct(">IQBd")

_TIER_TO_CODE = {"sim": 0, "fast": 1}
_CODE_TO_TIER = {v: k for k, v in _TIER_TO_CODE.items()}

#: Where ``repro serve`` keeps the store unless told otherwise.
DEFAULT_CAS_DIR = "results/cas"

#: The namespace grid points live in.
POINT = "point"
_META_NAME = "meta.json"
JOURNAL_SCHEMA_VERSION = 1


def request_digest(request: object) -> bytes:
    """SHA-256 identity of one grid point's simulation request.

    The digest is over the request's pickle. Requests are plain
    dataclasses of scalars, lists, and insertion-ordered dicts (no
    sets), so the bytes are stable across processes and runs of the
    same code — which is what lets ``--resume`` and the daemon match
    points written by an earlier process.
    """
    return hashlib.sha256(
        pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
    ).digest()


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


def _read_entry(path: Path) -> CacheEntry | None:
    """Read and verify one frame; ``None`` if absent or damaged."""
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    framed = unframe(_MAGIC, _HEADER, blob)
    if framed is None:
        return None
    (tier_code, tier_err), payload = framed
    tier = _CODE_TO_TIER.get(tier_code)
    if tier is None:
        return None
    return CacheEntry(payload=payload, tier=tier, tier_err=tier_err)


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
    def get(self, namespace: str, key: bytes | str) -> CacheEntry | None:
        """The verified entry, or ``None`` (absent *or* corrupt)."""
        return _read_entry(self._entry_path(namespace, key))

    @staticmethod
    def satisfies(
        entry: CacheEntry, tier: str, tolerance: float
    ) -> bool:
        """Tier-aware acceptance, the one rule every reuse path applies:
        cycle-level entries satisfy every tier; surrogate entries never
        satisfy ``sim`` and satisfy ``auto`` only within tolerance."""
        if entry.tier == "sim":
            return True
        if tier == "fast":
            return True
        if tier == "auto":
            return entry.tier_err <= tolerance
        return False

    def touch(self, namespace: str, key: bytes | str) -> None:
        """Mark an entry used: its mtime is the LRU clock :meth:`gc`
        evicts by, so an entry that keeps being re-read stays hot
        however old its write is."""
        try:
            os.utime(self._entry_path(namespace, key))
        except OSError:  # pragma: no cover - racing eviction
            pass

    def lookup(
        self,
        namespace: str,
        key: bytes | str,
        tier: str = "sim",
        tolerance: float = 0.05,
    ) -> CacheEntry | None:
        """:meth:`get` plus the tier gate in one call; counts a
        hit/miss on this handle and touches the entry on a hit."""
        entry = self.get(namespace, key)
        if entry is None or not self.satisfies(entry, tier, tolerance):
            self.misses += 1
            return None
        self.hits += 1
        self.touch(namespace, key)
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
            if _read_entry(path) is not None:
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
class PointJournal:
    """Completed grid points in a :class:`ResultCache`, by digest.

    The grid executors :meth:`get` every point before simulating and
    :meth:`append` each one the moment it completes. Points are keyed
    purely by request digest, so identical points hit from any grid,
    any shape, and a point from a different grid can never be served.

    ``manifest`` is set by the call site: a ``repro run`` campaign
    (:meth:`campaign`) keeps a ``meta.json`` grid manifest for
    ``repro status`` and removes its whole directory once the grid was
    delivered; the daemon's journal over the shared store has neither
    (the store is the service's memory, not a crash artifact).
    """

    cache: ResultCache
    manifest: bool
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)

    @classmethod
    def campaign(
        cls,
        path: Path | str,
        resume: bool = False,
        tracer: Tracer = NULL_TRACER,
    ) -> "PointJournal":
        """A ``repro run`` checkpoint at ``path``; a fresh (non-resume)
        open drops whatever an earlier campaign left there."""
        if not resume:
            shutil.rmtree(path, ignore_errors=True)
        return cls(ResultCache(path), manifest=True, tracer=tracer)

    def get(
        self, digest: bytes, fidelity: "FidelityPolicy | None" = None
    ) -> object | None:
        """The stored outcome for ``digest``, if intact and acceptable.

        The tier gate reads only the verified frame header: an entry
        the requested fidelity (``None`` = cycle-level) cannot accept
        counts ``points_tier_rejected`` and is never unpickled. An
        absent, damaged or unreadable entry is a plain miss.
        """
        entry = self.cache.get(POINT, digest)
        if entry is None:
            return None
        tier, tolerance = (
            ("sim", 0.0)
            if fidelity is None
            else (fidelity.tier, fidelity.tolerance)
        )
        if not ResultCache.satisfies(entry, tier, tolerance):
            self.tracer.count("points_tier_rejected")
            return None
        try:
            outcome = pickle.loads(entry.payload)
        except Exception:
            return None
        self.cache.touch(POINT, digest)
        return outcome

    def append(self, digest: bytes, outcome: object) -> Path:
        """Store one completed point (atomic, durable write)."""
        return self.cache.put(
            POINT,
            digest,
            pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL),
            tier=getattr(outcome, "tier", "sim"),
            tier_err=getattr(outcome, "tier_err", 0.0),
        )

    def write_meta(
        self,
        experiment_id: str | None = None,
        points_expected: int | None = None,
    ) -> None:
        """Record campaign facts for ``repro status`` (atomic write)."""
        if not self.manifest:
            return
        meta = {
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "experiment_id": experiment_id,
            "points_expected": points_expected,
            "updated_at": time.time(),
        }
        atomic_write_text(
            self.cache.root / _META_NAME, json.dumps(meta, indent=2) + "\n"
        )

    def complete(self) -> None:
        """The grid was delivered: a campaign retires its directory."""
        if self.manifest:
            shutil.rmtree(self.cache.root, ignore_errors=True)


@dataclass
class JournalStatus:
    """What ``repro status`` reports about one experiment's journal."""

    path: Path
    exists: bool
    points: int = 0
    points_expected: int | None = None
    damaged: list[str] = field(default_factory=list)
    bytes: int = 0
    updated_at: float | None = None
    experiment_id: str | None = None

    @property
    def complete(self) -> bool | None:
        if self.points_expected is None:
            return None
        return self.points >= self.points_expected

    def to_dict(self) -> dict[str, object]:
        return {
            "path": str(self.path),
            "exists": self.exists,
            "experiment_id": self.experiment_id,
            "points": self.points,
            "points_expected": self.points_expected,
            "complete": self.complete,
            "damaged": list(self.damaged),
            "bytes": self.bytes,
            "updated_at": self.updated_at,
        }


def journal_status(path: Path | str) -> JournalStatus:
    """Inspect a campaign directory without opening it for writing."""
    path = Path(path)
    status = JournalStatus(path=path, exists=path.is_dir())
    if not status.exists:
        return status
    meta_path = path / _META_NAME
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text())
            status.experiment_id = meta.get("experiment_id")
            status.points_expected = meta.get("points_expected")
        except (OSError, json.JSONDecodeError):
            status.damaged.append(_META_NAME)
    newest = 0.0
    for entry in sorted(path.rglob("*.cas")):
        st = entry.stat()
        status.bytes += st.st_size
        newest = max(newest, st.st_mtime)
        if _read_entry(entry) is None:
            status.damaged.append(entry.name)
        else:
            status.points += 1
    status.updated_at = newest or None
    return status
