"""Engine behaviour under less-common cache compositions."""

from __future__ import annotations

import pytest

from repro.bench.harness import seed_database
from repro.cache.block_cache import BlockCache
from repro.cache.kv_cache import KVCache
from repro.cache.range_cache import RangeCache
from repro.core.engine import KVEngine
from repro.lsm.options import BLOCK_SIZE, LSMOptions
from repro.workloads.keys import key_of, value_of

OPTS = LSMOptions(memtable_entries=32, entries_per_sstable=64)


class TestNoCacheEngine:
    def test_bare_engine_serves_correctly(self):
        tree = seed_database(500, OPTS)
        engine = KVEngine(tree)
        assert engine.get(key_of(100)) == value_of(100)
        assert engine.scan(key_of(10), 4)[0][0] == key_of(10)

    def test_bare_engine_windows_still_seal(self):
        tree = seed_database(500, OPTS)
        engine = KVEngine(tree, window_size=50)
        for i in range(120):
            engine.get(key_of(i % 500))
        assert len(engine.windows) == 2
        assert engine.windows[0].io_miss > 0
        assert engine.current_range_ratio == 0.0

    def test_every_disk_read_counted_without_cache(self):
        tree = seed_database(500, OPTS)
        engine = KVEngine(tree)
        reads0 = engine.sst_reads_total
        engine.get(key_of(7))
        engine.get(key_of(7))  # same key: no cache, reads again
        assert engine.sst_reads_total >= reads0 + 2


class TestKVPlusBlock:
    """AC-Key-style composition: row cache over block cache."""

    def engine(self):
        tree = seed_database(1000, OPTS)
        block = BlockCache(64 * BLOCK_SIZE, BLOCK_SIZE, tree.disk.read_block)
        kv = KVCache(64 * 1024, entry_charge=1024)
        return KVEngine(tree, block_cache=block, kv_cache=kv)

    def test_kv_hit_short_circuits_block_cache(self):
        engine = self.engine()
        engine.get(key_of(5))
        lookups_before = engine.block_cache.stats.lookups
        assert engine.get(key_of(5)) == value_of(5)
        assert engine.block_cache.stats.lookups == lookups_before

    def test_scan_bypasses_kv_but_uses_block_cache(self):
        engine = self.engine()
        engine.scan(key_of(100), 8)
        reads = engine.tree.disk.block_reads_total
        engine.scan(key_of(100), 8)  # blocks now cached
        assert engine.tree.disk.block_reads_total == reads

    def test_write_keeps_both_coherent(self):
        engine = self.engine()
        engine.get(key_of(5))
        engine.put(key_of(5), "fresh")
        assert engine.get(key_of(5)) == "fresh"
        assert (key_of(5), "fresh") in engine.scan(key_of(5), 1)


class TestRangePlusBlock:
    """The AdCache composition minus the controller: both caches static."""

    def engine(self):
        tree = seed_database(1000, OPTS)
        block = BlockCache(32 * BLOCK_SIZE, BLOCK_SIZE, tree.disk.read_block)
        range_ = RangeCache(128 * 1024, entry_charge=1024)
        return KVEngine(tree, block_cache=block, range_cache=range_)

    def test_range_hit_preferred_over_block(self):
        engine = self.engine()
        engine.get(key_of(5))  # fills both range (result) and block
        block_lookups = engine.block_cache.stats.lookups
        assert engine.get(key_of(5)) == value_of(5)
        assert engine.block_cache.stats.lookups == block_lookups

    def test_block_cache_backstops_range_misses(self):
        engine = self.engine()
        engine.scan(key_of(100), 8)
        engine.range_cache.clear()  # simulate range-side eviction storm
        reads = engine.tree.disk.block_reads_total
        result = engine.scan(key_of(100), 8)
        assert len(result) == 8
        assert engine.tree.disk.block_reads_total == reads  # blocks held

    def test_window_reports_both_occupancies(self):
        engine = self.engine()
        engine.window_size = 30
        for i in range(35):
            engine.get(key_of(i))
        window = engine.windows[0]
        assert window.range_occupancy > 0.0
        assert window.block_occupancy > 0.0
