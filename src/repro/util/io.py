"""Durable, self-verifying files: the one writer and the one frame.

Every file the tooling persists — result artifacts, goldens, reports,
checkpoint metadata, and the records of both binary stores — goes
through :func:`atomic_write_bytes`: same-directory ``.tmp-*`` file,
fsync, ``os.replace``, directory fsync. An interrupt at any instant
leaves the complete old file or the complete new one, and a finished
write is durable before the call returns — so a store that deletes
something *because* a write landed (the job journal retiring a job
whose result reached the CAS) can never outrun it.

The binary stores share one record layout, :func:`frame`: a per-store
magic, ``>IQ`` crc32/length plus the store's own trailing header
fields, then the payload. :func:`unframe` verifies it; a short, torn,
bit-flipped or foreign blob reads as ``None`` (absent), never an error.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path


def fsync_dir(path: Path | str) -> None:
    """Flush a directory entry (best effort on exotic filesystems)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path | str, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically and durably.

    Temp file + fsync + rename + directory fsync; stores that sweep
    ``.tmp-*`` on open clean up after a writer killed mid-write.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(prefix=".tmp-", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        Path(tmp_name).unlink(missing_ok=True)
        raise
    fsync_dir(path.parent)
    return path


def atomic_write_text(
    path: Path | str, text: str, ensure_newline: bool = False
) -> Path:
    """Write ``text`` to ``path`` atomically; optionally newline-end it."""
    if ensure_newline and not text.endswith("\n"):
        text += "\n"
    return atomic_write_bytes(path, text.encode("utf-8"))


def frame(
    magic: bytes, header: struct.Struct, payload: bytes, *fields: object
) -> bytes:
    """``magic + header(crc32, len, *fields) + payload``.

    ``header`` must start with ``>IQ``; ``fields`` fill the rest.
    """
    return (
        magic
        + header.pack(zlib.crc32(payload), len(payload), *fields)
        + payload
    )


def unframe(
    magic: bytes, header: struct.Struct, blob: bytes
) -> tuple[tuple, bytes] | None:
    """``(trailing header fields, payload)`` of a verified frame.

    ``None`` when the magic, length or CRC does not check out.
    """
    head = len(magic) + header.size
    if len(blob) < head or not blob.startswith(magic):
        return None
    crc, length, *fields = header.unpack(blob[len(magic):head])
    payload = blob[head:]
    if len(payload) != length or zlib.crc32(payload) != crc:
        return None
    return tuple(fields), payload
