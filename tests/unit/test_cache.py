"""Unit tests for repro.cache: tag stores, addressing, latency,
directory, and the coherent memory system."""

from __future__ import annotations

import pytest

from repro.arch.params import CacheParams, PitonConfig
from repro.cache.addressing import AddressMap, Interleave
from repro.cache.coherence import CoherenceError, DirectoryEntry, MesiState
from repro.cache.latency import MemoryLatencyModel
from repro.cache.setassoc import SetAssocCache
from repro.cache.system import CoherentMemorySystem, fixed_offchip_model
from repro.util.events import EventLedger


class TestSetAssocCache:
    def make(self, sets=4, ways=2, line=16):
        return SetAssocCache(CacheParams(sets * ways * line, ways, line))

    def test_miss_then_fill_then_hit(self):
        c = self.make()
        assert not c.access(0x40).hit
        c.fill(0x40)
        assert c.access(0x40).hit
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_same_line_different_bytes(self):
        c = self.make()
        c.fill(0x40)
        assert c.access(0x4F).hit  # same 16B line

    def test_lru_eviction(self):
        c = self.make(sets=1, ways=2)
        c.fill(0x00)
        c.fill(0x10)
        c.access(0x00)  # make 0x00 MRU
        result = c.fill(0x20)
        assert result.evicted_line_addr == 0x10

    def test_dirty_eviction_reported(self):
        c = self.make(sets=1, ways=1)
        c.fill(0x00, dirty=True)
        result = c.fill(0x10)
        assert result.evicted_dirty
        assert c.stats.writebacks == 1

    def test_probe_does_not_touch_lru(self):
        c = self.make(sets=1, ways=2)
        c.fill(0x00)
        c.fill(0x10)
        c.probe(0x00)  # probe must NOT refresh
        result = c.fill(0x20)
        assert result.evicted_line_addr == 0x00

    def test_invalidate(self):
        c = self.make()
        c.fill(0x40)
        assert c.invalidate(0x40)
        assert not c.access(0x40).hit
        assert not c.invalidate(0x40)

    def test_dirty_tracking(self):
        c = self.make()
        c.fill(0x40)
        assert not c.is_dirty(0x40)
        c.access(0x40, write=True)
        assert c.is_dirty(0x40)
        c.set_dirty(0x40, False)
        assert not c.is_dirty(0x40)

    def test_set_dirty_missing_line_raises(self):
        with pytest.raises(KeyError):
            self.make().set_dirty(0x40)

    def test_fill_existing_refreshes(self):
        c = self.make(sets=1, ways=2)
        c.fill(0x00)
        c.fill(0x10)
        c.fill(0x00)  # refresh, no eviction
        assert c.stats.evictions == 0
        assert sorted(c.resident_lines()) == [0x00, 0x10]

    def test_flush(self):
        c = self.make()
        c.fill(0x40)
        c.flush()
        assert c.resident_lines() == []


class TestAddressMap:
    def test_low_interleave_consecutive_lines(self):
        amap = AddressMap(PitonConfig(), Interleave.LOW)
        homes = [amap.home_tile(64 * i) for i in range(25)]
        assert homes == list(range(25))

    def test_high_interleave_coarse(self):
        amap = AddressMap(PitonConfig(), Interleave.HIGH)
        assert amap.home_tile(0) == amap.home_tile(1 << 20)

    def test_middle_interleave(self):
        amap = AddressMap(PitonConfig(), Interleave.MIDDLE)
        assert amap.home_tile(0) == amap.home_tile(64)
        assert amap.home_tile(0) != amap.home_tile(1 << 16)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            AddressMap().home_tile(-1)

    @pytest.mark.parametrize("tile", [0, 7, 24])
    def test_address_homed_at(self, tile):
        amap = AddressMap()
        for seq in range(5):
            addr = amap.address_homed_at(tile, seq)
            assert amap.home_tile(addr) == tile

    def test_homed_at_with_set_constraint(self):
        config = PitonConfig()
        amap = AddressMap(config)
        for tile in (0, 13, 24):
            addrs = [
                amap.address_homed_at(
                    tile, sequence=i, set_index=5, cache=config.l1d
                )
                for i in range(8)
            ]
            assert len(set(addrs)) == 8
            for addr in addrs:
                assert amap.home_tile(addr) == tile
                assert (addr // 16) % config.l1d.num_sets == 5

    def test_homed_at_l2_set_constraint(self):
        config = PitonConfig()
        amap = AddressMap(config)
        addrs = [
            amap.address_homed_at(
                3, sequence=i, set_index=9, cache=config.l2_slice
            )
            for i in range(6)
        ]
        for addr in addrs:
            assert (addr // 64) % config.l2_slice.num_sets == 9
            assert amap.home_tile(addr) == 3

    def test_bad_tile(self):
        with pytest.raises(ValueError):
            AddressMap().address_homed_at(99)


class TestLatencyModel:
    """Table VII's latencies must emerge from the named composition."""

    def test_table7_values(self):
        m = MemoryLatencyModel()
        assert m.l1_hit == 3
        assert m.local_l2_hit() == 34
        assert m.l2_hit(4, 0) == 42
        assert m.l2_hit(8, 1) == 52

    def test_miss_adds_offchip(self):
        m = MemoryLatencyModel()
        assert m.l2_miss(0, 0, 390) == 424

    def test_store_buffer_latency(self):
        assert MemoryLatencyModel().store_buffer == 10


class TestDirectoryEntry:
    def test_owner_and_sharers_exclusive(self):
        entry = DirectoryEntry(owner=3)
        with pytest.raises(CoherenceError):
            entry.add_sharer(4)

    def test_set_owner_with_sharers_rejected(self):
        entry = DirectoryEntry()
        entry.add_sharer(1)
        with pytest.raises(CoherenceError):
            entry.set_owner(2)

    def test_downgrade(self):
        entry = DirectoryEntry(owner=3)
        assert entry.downgrade_owner_to_sharer() == 3
        assert entry.owner is None and entry.sharers == {3}

    def test_downgrade_without_owner(self):
        with pytest.raises(CoherenceError):
            DirectoryEntry().downgrade_owner_to_sharer()

    def test_drop(self):
        entry = DirectoryEntry(owner=3)
        entry.drop(3)
        assert entry.uncached
        entry.add_sharer(1)
        entry.drop(1)
        assert entry.uncached

    def test_check_detects_corruption(self):
        entry = DirectoryEntry(owner=1)
        entry.sharers.add(2)  # corrupt directly
        with pytest.raises(CoherenceError):
            entry.check()


class TestCoherentMemorySystem:
    def make(self):
        ledger = EventLedger()
        return (
            CoherentMemorySystem(
                PitonConfig(),
                ledger=ledger,
                offchip=fixed_offchip_model(390),
            ),
            ledger,
        )

    def test_first_load_goes_to_memory(self):
        ms, _ = self.make()
        out = ms.load(0, 0x0)
        assert out.level == "mem"
        assert out.latency == 34 + 390

    def test_second_load_hits_l1(self):
        ms, _ = self.make()
        ms.load(0, 0x0)
        out = ms.load(0, 0x0)
        assert out.level == "l1"
        assert out.latency == 3

    def test_local_vs_remote_latency(self):
        ms, _ = self.make()
        # Line 0 homes at tile 0 under LOW interleave.
        ms.load(0, 0x0)
        ms.l1d[0].invalidate(0x0)
        ms.l15[0].invalidate(0x0)
        ms._l15_state[0].pop(0, None)
        out_local = ms.load(0, 0x0)
        assert out_local.level == "l2_local"
        assert out_local.latency == 34

    def test_remote_l2_hit_latency_4hops(self):
        ms, _ = self.make()
        addr = 4 * 64  # homes at tile 4
        ms.load(4, addr)  # owner fetches (local)
        out = ms.load(0, addr)  # 4 straight hops from tile 0
        assert out.level == "l2_remote"
        assert out.hops == 4 and out.turns == 0
        # Owner downgrade adds the forward trip to the base 42.
        assert out.latency >= 42

    def test_read_sharing_grants_shared(self):
        ms, _ = self.make()
        addr = 0x0
        ms.load(0, addr)
        ms.load(1, addr)
        assert ms._l15_state[0][0] is MesiState.SHARED
        assert ms._l15_state[1][0] is MesiState.SHARED
        ms.check_invariants()

    def test_first_reader_gets_exclusive(self):
        ms, _ = self.make()
        ms.load(3, 3 * 64)
        line = ms._l15_line(3 * 64)
        assert ms._l15_state[3][line] is MesiState.EXCLUSIVE

    def test_store_invalidates_sharers(self):
        ms, _ = self.make()
        addr = 0x0
        ms.load(0, addr)
        ms.load(1, addr)
        ms.store(2, addr)
        assert 0 not in ms._l15_state[0]
        assert 0 not in ms._l15_state[1]
        assert ms._l15_state[2][0] is MesiState.MODIFIED
        ms.check_invariants()

    def test_silent_e_to_m_upgrade(self):
        ms, ledger = self.make()
        addr = 0x0
        ms.load(0, addr)  # E
        flits_before = ledger.count("noc1.flit")
        out = ms.store(0, addr)
        assert ledger.count("noc1.flit") == flits_before  # no traffic
        assert out.latency == 10
        assert ms._l15_state[0][0] is MesiState.MODIFIED

    def test_shared_store_upgrades(self):
        ms, _ = self.make()
        addr = 0x0
        ms.load(0, addr)
        ms.load(1, addr)  # both S
        ms.store(0, addr)
        assert ms._l15_state[0][0] is MesiState.MODIFIED
        assert 0 not in ms._l15_state[1]

    def test_dirty_writeback_on_remote_read(self):
        ms, ledger = self.make()
        addr = 0x0
        ms.store(0, addr)  # M at tile 0
        before = ledger.count("l2.write")
        ms.load(1, addr)  # downgrade + writeback
        assert ledger.count("l2.write") > before
        assert ms._l15_state[0][0] is MesiState.SHARED
        ms.check_invariants()

    def test_atomic_leaves_line_uncached(self):
        ms, _ = self.make()
        addr = 0x0
        ms.load(0, addr)
        ms.atomic(1, addr)
        assert 0 not in ms._l15_state[0]
        assert 0 not in ms._l15_state[1]
        ms.check_invariants()

    def test_l15_capacity_eviction_notifies_home(self):
        config = PitonConfig()
        ms, _ = self.make()
        # 5 addresses aliasing one L1.5 set (4 ways): first evicts.
        stride = config.l15.num_sets * config.l15.line_bytes * 25
        addrs = [i * stride for i in range(5)]
        for a in addrs:
            ms.load(0, a)
        ms.check_invariants()
        home0 = ms.address_map.home_tile(addrs[0])
        entry = ms.l2[home0].directory.get(
            ms.l2[home0].line_addr(addrs[0])
        )
        assert entry is None  # dropped after eviction notification

    def test_fetch_instruction(self):
        ms, ledger = self.make()
        out1 = ms.fetch(0, 0x5000)
        out2 = ms.fetch(0, 0x5000)
        assert out2.level == "l1" and out2.latency == 1
        assert ledger.count("l1i.fill") == 1
        assert out1.latency > out2.latency

    def test_events_recorded(self):
        ms, ledger = self.make()
        ms.load(0, 0x0)
        assert ledger.count("l1d.read") == 1
        assert ledger.count("l15.read") == 1
        assert ledger.count("l2.read") == 1
        assert ledger.count("mem.line_fetch") == 1
