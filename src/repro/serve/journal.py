"""Durable job journal: the daemon's crash-safe memory of accepted work.

Every simulating request the daemon admits is journaled under
``results/serve/jobs/`` as one CRC-framed record *before* execution
starts, updated on state transitions, and retired (deleted) when the
job reaches a terminal state with its result safely in the
content-addressed store. A daemon that dies — ``SIGKILL``, power
loss, a drain that timed out — therefore leaves behind exactly the
set of jobs whose results it still owed, and the next daemon replays
them on startup through the normal execution path. Sweep points that
completed before the crash are already in the CAS (the worker's
:class:`~repro.resilience.PointJournal` appends each point the moment
it exists), so a recovered sweep re-simulates only the missing tail —
the service-level twin of ``repro run --resume``.

Records are JSON in a :func:`repro.util.io.frame`, written with
:func:`repro.util.io.atomic_write_bytes`. A record that fails
verification is quarantined (renamed ``*.damaged``) and never
replayed — a torn journal record must cost one lost job, not a
crashed recovery loop.
"""

from __future__ import annotations

import json
import os
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.util.io import atomic_write_bytes, frame, fsync_dir, unframe

#: Bump when the record framing changes; unknown frames are damaged.
_MAGIC = b"RJOB1\0"
#: crc32(payload), len(payload) — payload is UTF-8 JSON.
_HEADER = struct.Struct(">IQ")

JOB_JOURNAL_SCHEMA_VERSION = 1

#: Where ``repro serve`` keeps the journal unless told otherwise.
DEFAULT_JOBS_DIR = "results/serve/jobs"

#: States a scanned record may carry; all of them are recoverable
#: (a terminal job is retired, i.e. deleted, never left behind).
RECOVERABLE_STATES = ("accepted", "running", "interrupted")


@dataclass
class JobRecord:
    """One journaled job: everything needed to re-execute it."""

    kind: str  # "run" | "sweep"
    digest: str  # the request's canonical sha256
    state: str  # accepted | running | interrupted
    request: dict  # the parsed request document, verbatim
    created_at: float = field(default_factory=time.time)
    updated_at: float = field(default_factory=time.time)

    def to_dict(self) -> dict[str, object]:
        return {
            "schema_version": JOB_JOURNAL_SCHEMA_VERSION,
            "kind": self.kind,
            "digest": self.digest,
            "state": self.state,
            "request": self.request,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        return cls(
            kind=str(data["kind"]),
            digest=str(data["digest"]),
            state=str(data["state"]),
            request=dict(data["request"]),
            created_at=float(data.get("created_at", 0.0)),
            updated_at=float(data.get("updated_at", 0.0)),
        )


class JobJournal:
    """CRC-framed, atomically-written job records, one file per job.

    Records are keyed ``<kind>-<digest>.job``: re-submitting an
    identical request while the original is still journaled updates
    the same record (the digest *is* the job's identity, exactly as
    in the CAS), so recovery never replays one piece of work twice.
    """

    def __init__(self, root: Path | str = DEFAULT_JOBS_DIR):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_temp_files()

    def _sweep_temp_files(self) -> None:
        for tmp in self.root.glob(".tmp-*"):
            tmp.unlink(missing_ok=True)

    def _path(self, kind: str, digest: str) -> Path:
        return self.root / f"{kind}-{digest}.job"

    # ------------------------------------------------------------------ write
    def record(
        self, kind: str, digest: str, state: str, request: dict
    ) -> Path:
        """Journal (or update) one job atomically; returns its path."""
        if state not in RECOVERABLE_STATES:
            raise ValueError(
                f"unjournalable state {state!r}; terminal jobs are "
                f"retired, not recorded (recoverable: "
                f"{RECOVERABLE_STATES})"
            )
        path = self._path(kind, digest)
        existing = self._load(path)
        rec = JobRecord(
            kind=kind,
            digest=digest,
            state=state,
            request=request,
            created_at=(
                existing.created_at if existing else time.time()
            ),
        )
        payload = json.dumps(
            rec.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return atomic_write_bytes(path, frame(_MAGIC, _HEADER, payload))

    def retire(self, kind: str, digest: str) -> None:
        """The job reached a terminal state: forget it."""
        self._path(kind, digest).unlink(missing_ok=True)
        fsync_dir(self.root)

    def mark_interrupted(self, kind: str, digest: str) -> None:
        """Shutdown abandoned this job: record that, keep the record."""
        existing = self.get(kind, digest)
        if existing is not None:
            self.record(kind, digest, "interrupted", existing.request)

    # ------------------------------------------------------------------- read
    @staticmethod
    def _decode(blob: bytes) -> JobRecord | None:
        framed = unframe(_MAGIC, _HEADER, blob)
        if framed is None:
            return None
        try:
            data = json.loads(framed[1].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if data.get("schema_version") != JOB_JOURNAL_SCHEMA_VERSION:
            return None
        try:
            return JobRecord.from_dict(data)
        except (KeyError, TypeError, ValueError):
            return None

    def _load(self, path: Path) -> JobRecord | None:
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        return self._decode(blob)

    def get(self, kind: str, digest: str) -> JobRecord | None:
        return self._load(self._path(kind, digest))

    def scan(self) -> tuple[list[JobRecord], list[str]]:
        """Every recoverable record, oldest first, plus quarantined names.

        A record that fails verification — torn tail, flipped bits,
        an unknown schema — is renamed ``<name>.damaged`` so it is
        inspectable but never rescanned; the job it described is lost
        (its client will retry), the daemon is not.
        """
        records: list[JobRecord] = []
        damaged: list[str] = []
        for path in sorted(self.root.glob("*.job")):
            rec = self._load(path)
            if rec is None or rec.state not in RECOVERABLE_STATES:
                damaged.append(path.name)
                try:
                    os.replace(
                        path, path.with_name(path.name + ".damaged")
                    )
                except OSError:  # pragma: no cover - racing unlink
                    pass
                continue
            records.append(rec)
        records.sort(key=lambda r: r.created_at)
        return records, damaged

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.job"))
