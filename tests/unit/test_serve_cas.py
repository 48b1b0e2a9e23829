"""Unit tests for the content-addressed result store
(repro.resilience.store): framing, atomicity, corruption handling, the
tier-aware acceptance matrix, and the daemon's point journal over it."""

from __future__ import annotations

import os
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.obs import Tracer
from repro.resilience import CacheEntry, PointJournal, ResultCache


@dataclass
class FakeOutcome:
    """Picklable stand-in for SimOutcome (module level on purpose)."""

    value: int = 0
    tier: str = "sim"
    tier_err: float = 0.0


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path / "cas")


DIGEST = b"\xab" * 32


class TestPutGet:
    def test_round_trip(self, cache):
        cache.put("run", "aa" * 32, b"payload bytes")
        entry = cache.get("run", "aa" * 32)
        assert entry == CacheEntry(
            payload=b"payload bytes", tier="sim", tier_err=0.0
        )

    def test_bytes_and_hex_keys_equivalent(self, cache):
        cache.put("point", DIGEST, b"x")
        assert cache.get("point", DIGEST.hex()).payload == b"x"

    def test_absent_is_none(self, cache):
        assert cache.get("run", "00" * 32) is None

    def test_namespaces_isolated(self, cache):
        cache.put("run", DIGEST, b"run-bytes")
        assert cache.get("point", DIGEST) is None

    def test_tier_metadata_survives(self, cache):
        cache.put("point", DIGEST, b"x", tier="fast", tier_err=0.03)
        entry = cache.get("point", DIGEST)
        assert entry.tier == "fast"
        assert entry.tier_err == pytest.approx(0.03)

    def test_overwrite_replaces_atomically(self, cache):
        cache.put("run", DIGEST, b"old")
        cache.put("run", DIGEST, b"new")
        assert cache.get("run", DIGEST).payload == b"new"
        # No temp droppings left behind.
        leftovers = [
            p for p in cache.root.rglob(".tmp-*") if p.is_file()
        ]
        assert leftovers == []

    def test_put_fsyncs_entry_directory(self, cache, monkeypatch):
        # The rename must be durable before put returns: the job
        # journal retires a job once its result is in the CAS.
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            st = os.fstat(fd)
            synced.append((st.st_dev, st.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        path = cache.put("point", DIGEST, b"x")
        directory = path.parent.stat()
        assert (directory.st_dev, directory.st_ino) in synced

    def test_entry_count(self, cache):
        assert cache.entry_count() == 0
        cache.put("run", "aa" * 32, b"1")
        cache.put("point", "bb" * 32, b"2")
        assert cache.entry_count() == 2
        assert cache.entry_count("point") == 1
        assert cache.entry_count("absent") == 0


class TestCorruption:
    """A torn or tampered frame must read as a miss, never an error —
    the caller's recovery is simply to re-simulate and overwrite."""

    def _path(self, cache):
        cache.put("run", DIGEST, b"good payload")
        [path] = cache.root.rglob("*.cas")
        return path

    def test_flipped_payload_byte_is_a_miss(self, cache):
        path = self._path(cache)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.get("run", DIGEST) is None

    def test_truncated_entry_is_a_miss(self, cache):
        path = self._path(cache)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 3])
        assert cache.get("run", DIGEST) is None

    def test_wrong_magic_is_a_miss(self, cache):
        path = self._path(cache)
        blob = path.read_bytes()
        path.write_bytes(b"XXXX" + blob[4:])
        assert cache.get("run", DIGEST) is None

    def test_empty_file_is_a_miss(self, cache):
        path = self._path(cache)
        path.write_bytes(b"")
        assert cache.get("run", DIGEST) is None

    def test_resimulate_overwrites_corrupt_entry(self, cache):
        path = self._path(cache)
        path.write_bytes(b"garbage")
        assert cache.get("run", DIGEST) is None
        cache.put("run", DIGEST, b"fresh")
        assert cache.get("run", DIGEST).payload == b"fresh"


class TestTierMatrix:
    """sim entries satisfy everything; fast entries satisfy fast
    always, auto within tolerance, sim never."""

    @pytest.mark.parametrize("tier", ["sim", "auto", "fast"])
    def test_sim_entry_satisfies_any_tier(self, tier):
        entry = CacheEntry(b"", tier="sim", tier_err=0.0)
        assert ResultCache.satisfies(entry, tier, tolerance=0.0)

    def test_fast_entry_never_satisfies_sim(self):
        entry = CacheEntry(b"", tier="fast", tier_err=0.0)
        assert not ResultCache.satisfies(entry, "sim", tolerance=1.0)

    def test_fast_entry_always_satisfies_fast(self):
        entry = CacheEntry(b"", tier="fast", tier_err=0.5)
        assert ResultCache.satisfies(entry, "fast", tolerance=0.0)

    def test_fast_entry_satisfies_auto_within_tolerance_only(self):
        entry = CacheEntry(b"", tier="fast", tier_err=0.1)
        assert not ResultCache.satisfies(entry, "auto", tolerance=0.05)
        assert ResultCache.satisfies(entry, "auto", tolerance=0.2)

    def test_lookup_applies_the_gate(self, cache):
        cache.put("point", DIGEST, b"x", tier="fast", tier_err=0.1)
        assert cache.lookup("point", DIGEST, tier="sim") is None
        assert (
            cache.lookup("point", DIGEST, tier="auto", tolerance=0.05)
            is None
        )
        assert (
            cache.lookup("point", DIGEST, tier="auto", tolerance=0.2)
            is not None
        )
        assert cache.lookup("point", DIGEST, tier="fast") is not None


class TestCasJournal:
    """The daemon's point journal: the shared store, no manifest."""

    def test_append_then_get_round_trips_outcome(self, cache):
        journal = PointJournal(cache, manifest=False)
        journal.append(DIGEST, FakeOutcome(value=7))
        # Pure digest keying: a second handle on the store (another
        # worker, any grid shape) hits the same entry.
        outcome = PointJournal(cache, manifest=False).get(DIGEST)
        assert outcome == FakeOutcome(value=7)

    def test_counters_land_on_tracer(self, cache):
        tracer = Tracer()
        journal = PointJournal(cache, manifest=False, tracer=tracer)
        assert journal.get(DIGEST) is None  # absent: a plain miss
        journal.append(DIGEST, FakeOutcome(tier="fast", tier_err=0.2))
        assert journal.get(DIGEST) is None  # header-rejected
        assert tracer.resilience == {"points_tier_rejected": 1}

    def test_surrogate_outcome_stored_with_its_tier(self, cache):
        journal = PointJournal(cache, manifest=False)
        journal.append(DIGEST, FakeOutcome(tier="fast", tier_err=0.02))
        entry = cache.get("point", DIGEST)
        assert entry.tier == "fast"
        assert entry.tier_err == pytest.approx(0.02)
        # A sim-tier consumer refuses it...
        assert journal.get(DIGEST, None) is None
        # ...an auto consumer takes it within tolerance.
        auto = SimpleNamespace(tier="auto", tolerance=0.05)
        assert journal.get(DIGEST, auto) is not None

    def test_unpicklable_entry_is_a_miss(self, cache):
        tracer = Tracer()
        cache.put("point", DIGEST, b"not a pickle")
        journal = PointJournal(cache, manifest=False, tracer=tracer)
        assert journal.get(DIGEST) is None
        assert tracer.resilience == {}

    def test_meta_and_complete_are_noops(self, cache):
        journal = PointJournal(cache, manifest=False)
        journal.append(DIGEST, FakeOutcome())
        journal.write_meta(experiment_id="x", points_expected=3)
        journal.complete()
        assert cache.entry_count() == 1
        assert not (cache.root / "meta.json").exists()


# ----------------------------------------------------------- concurrency
def _race_writer(root, key, payload, rounds):
    """Child-process body: hammer one key with one payload."""
    cache = ResultCache(root=root)
    for _ in range(rounds):
        cache.put("point", key, payload)


class TestConcurrentWriters:
    def test_two_processes_racing_one_key_never_tear(self, tmp_path):
        """Readers racing two writers see complete frames or nothing.

        The atomic temp+fsync+rename discipline means a concurrent
        reader can observe either writer's entry — but never a splice
        of the two and never a partial frame.
        """
        import multiprocessing

        root = tmp_path / "cas"
        key = "ab" * 32
        payloads = (b"A" * 4096, b"B" * 4096)
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(
                target=_race_writer, args=(root, key, payload, 200)
            )
            for payload in payloads
        ]
        for w in writers:
            w.start()
        reader = ResultCache(root=root)
        observed = set()
        while any(w.is_alive() for w in writers):
            entry = reader.get("point", key)
            if entry is not None:
                assert entry.payload in payloads  # complete, untorn
                observed.add(entry.payload)
        for w in writers:
            w.join()
            assert w.exitcode == 0
        final = reader.get("point", key)
        assert final is not None and final.payload in payloads
        assert observed  # the race was actually observed

    def test_torn_frame_is_a_miss_then_cleanly_overwritten(
        self, cache
    ):
        """Crash-mid-write recovery: miss, re-simulate, overwrite."""
        key = "cd" * 32
        cache.put("point", key, b"original payload")
        path = cache._entry_path("point", key)
        path.write_bytes(path.read_bytes()[:-3])  # torn tail
        assert cache.get("point", key) is None
        assert (
            cache.lookup("point", key) is None
        )  # counted as a miss, not an error
        cache.put("point", key, b"replacement payload")
        entry = cache.get("point", key)
        assert entry is not None
        assert entry.payload == b"replacement payload"

    def test_interleaved_writers_and_gc_stay_consistent(self, tmp_path):
        """GC racing a writer on the same store never breaks reads."""
        import multiprocessing

        root = tmp_path / "cas"
        key = "ef" * 32
        ctx = multiprocessing.get_context("fork")
        writer = ctx.Process(
            target=_race_writer, args=(root, key, b"X" * 1024, 100)
        )
        writer.start()
        collector = ResultCache(root=root)
        while writer.is_alive():
            collector.gc(quota_bytes=0)  # evict everything, always
            entry = collector.get("point", key)
            assert entry is None or entry.payload == b"X" * 1024
        writer.join()
        assert writer.exitcode == 0
