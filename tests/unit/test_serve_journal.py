"""Unit coverage for the daemon's hardening layers.

The durable job journal (CRC framing, atomic updates, quarantine of
torn records), the per-client token-bucket rate limiter (injectable
clock, no sleeps), and the CAS lifecycle operations (stats, LRU gc,
scrub quarantine) — each exercised in isolation, with the fault
injectors proving the failure paths actually engage.
"""

from __future__ import annotations

import pytest

from repro.check.faults import (
    SERVE_FAULT_ENV,
    active_serve_fault,
    arm_serve_fault,
    disarm_serve_fault,
    inject_job_journal_truncation,
)
from repro.resilience import ResultCache
from repro.serve.journal import JobJournal, RECOVERABLE_STATES
from repro.serve.ratelimit import RateLimiter, TokenBucket


# ------------------------------------------------------------- job journal
class TestJobJournal:
    def test_record_roundtrip(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record("run", "abc123", "accepted", {"params": {"x": 1}})
        rec = journal.get("run", "abc123")
        assert rec is not None
        assert rec.kind == "run"
        assert rec.state == "accepted"
        assert rec.request == {"params": {"x": 1}}
        assert len(journal) == 1

    def test_update_preserves_created_at(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record("run", "abc", "accepted", {"params": {}})
        first = journal.get("run", "abc")
        journal.record("run", "abc", "running", {"params": {}})
        second = journal.get("run", "abc")
        assert second.state == "running"
        assert second.created_at == first.created_at
        assert len(journal) == 1  # same identity, same record

    def test_terminal_states_are_unjournalable(self, tmp_path):
        journal = JobJournal(tmp_path)
        with pytest.raises(ValueError, match="retired"):
            journal.record("run", "abc", "done", {})

    def test_retire_forgets(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record("sweep", "d1", "running", {"spec": {}})
        journal.retire("sweep", "d1")
        assert journal.get("sweep", "d1") is None
        assert len(journal) == 0

    def test_scan_orders_by_created_at(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record("run", "first", "accepted", {})
        journal.record("run", "second", "running", {})
        records, damaged = journal.scan()
        assert [r.digest for r in records] == ["first", "second"]
        assert damaged == []
        assert all(r.state in RECOVERABLE_STATES for r in records)

    def test_truncated_record_is_quarantined_not_fatal(self, tmp_path):
        """The torn-tail injector must cost one job, not the scan."""
        journal = JobJournal(tmp_path)
        journal.record("run", "good", "accepted", {"params": {}})
        journal.record("run", "torn", "running", {"params": {}})
        report = inject_job_journal_truncation(tmp_path, drop_bytes=7)
        assert "truncated" in report.detail
        records, damaged = journal.scan()
        assert [r.digest for r in records] == ["good"]
        assert len(damaged) == 1
        # Quarantined aside, inspectable, never rescanned.
        assert len(list(tmp_path.glob("*.damaged"))) == 1
        again, damaged_again = journal.scan()
        assert len(again) == 1 and damaged_again == []

    def test_mark_interrupted_keeps_the_record(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record("sweep", "d2", "running", {"spec": {"a": 1}})
        journal.mark_interrupted("sweep", "d2")
        rec = journal.get("sweep", "d2")
        assert rec.state == "interrupted"
        assert rec.request == {"spec": {"a": 1}}
        records, _ = journal.scan()
        assert len(records) == 1  # still recoverable

    def test_stale_temp_files_swept_on_open(self, tmp_path):
        (tmp_path / ".tmp-orphan").write_bytes(b"half a record")
        JobJournal(tmp_path)
        assert not list(tmp_path.glob(".tmp-*"))


# ------------------------------------------------------------- rate limiting
class TestTokenBucket:
    def test_burst_then_refusal_with_honest_wait(self):
        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        wait = bucket.try_acquire()
        assert wait == pytest.approx(1.0)  # one token at 1/s

    def test_refill_is_elapsed_time_not_polling(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=lambda: now[0])
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0
        now[0] += 0.5  # exactly one token at 2/s
        assert bucket.try_acquire() == 0.0

    def test_tokens_cap_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=lambda: now[0])
        now[0] += 100.0  # idle forever != unlimited burst
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0


class TestRateLimiter:
    def test_disabled_by_default(self):
        limiter = RateLimiter()
        assert not limiter.enabled
        assert limiter.check("anyone") == 0.0

    def test_clients_have_independent_buckets(self):
        now = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=lambda: now[0])
        assert limiter.check("alice") == 0.0
        assert limiter.check("alice") > 0.0  # alice exhausted
        assert limiter.check("bob") == 0.0  # bob untouched

    def test_bucket_count_is_bounded(self):
        now = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=lambda: now[0])
        for i in range(limiter.MAX_CLIENTS + 10):
            now[0] += 0.001  # distinct staleness per bucket
            limiter.check(f"client-{i}")
        assert len(limiter._buckets) <= limiter.MAX_CLIENTS


# ------------------------------------------------------------ fault arming
class TestServeFaultArming:
    def test_arm_roundtrip(self, monkeypatch):
        monkeypatch.delenv(SERVE_FAULT_ENV, raising=False)
        arm_serve_fault("task_delay", 0.25)
        try:
            assert active_serve_fault() == ("task_delay", 0.25)
        finally:
            disarm_serve_fault()
        assert active_serve_fault() is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown serve fault"):
            arm_serve_fault("meteor_strike")

    def test_malformed_spec_raises_loudly(self, monkeypatch):
        monkeypatch.setenv(SERVE_FAULT_ENV, "task_delay")
        with pytest.raises(ValueError, match="malformed"):
            active_serve_fault()


# ------------------------------------------------------------ cas lifecycle
def _fill(cache: ResultCache, n: int, size: int = 64) -> list[str]:
    keys = []
    for i in range(n):
        key = f"{i:02x}" * 32
        cache.put("point", key, bytes([i % 251]) * size)
        keys.append(key)
    return keys


class TestCasLifecycle:
    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 3, size=100)
        stats = cache.stats()
        assert stats["entries"] == 3
        # Each frame: 6B magic + 21B header + 100B payload.
        assert stats["bytes"] == 3 * (6 + 21 + 100)

    def test_gc_evicts_least_recently_used_first(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        keys = _fill(cache, 4, size=100)
        # Make LRU order unambiguous without sleeping.
        for rank, key in enumerate(keys):
            path = cache._entry_path("point", key)
            os.utime(path, (1000.0 + rank, 1000.0 + rank))
        # Touch the oldest via a hit: it must survive the gc.
        cache.lookup("point", keys[0])
        one_entry = 6 + 21 + 100
        evicted = cache.gc(quota_bytes=2 * one_entry)
        assert evicted == 2
        assert cache.get("point", keys[0]) is not None  # touched
        assert cache.get("point", keys[1]) is None  # coldest, gone
        assert cache.get("point", keys[2]) is None
        assert cache.get("point", keys[3]) is not None
        assert cache.evictions == 2
        assert cache.stats()["entries"] == 2

    def test_gc_under_quota_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 2)
        assert cache.gc(quota_bytes=1 << 30) == 0
        assert cache.stats()["entries"] == 2

    def test_scrub_quarantines_torn_frames(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill(cache, 3)
        victim = cache._entry_path("point", keys[1])
        blob = victim.read_bytes()
        victim.write_bytes(blob[:-5])  # torn tail
        assert cache.scrub() == 1
        assert cache.scrub_repairs == 1
        # Gone from the read path, preserved for inspection.
        assert cache.get("point", keys[1]) is None
        quarantined = list(
            (tmp_path / ResultCache.QUARANTINE_DIR).glob("*.damaged")
        )
        assert len(quarantined) == 1
        # The other entries are untouched and a rescrub finds nothing.
        assert cache.get("point", keys[0]) is not None
        assert cache.scrub() == 0

    def test_lookup_counts_hits_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill(cache, 1)
        assert cache.lookup("point", keys[0]) is not None
        assert cache.lookup("point", "ff" * 32) is None
        assert cache.hits == 1
        assert cache.misses == 1
