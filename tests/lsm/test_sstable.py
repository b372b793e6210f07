"""SSTables: packing, index search, bloom pruning, scan metadata."""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.lsm.sstable import SSTable


def build_table(n=16, sst_id=1, entries_per_block=4, start=0, step=1):
    keys = [f"k{start + i * step:05d}" for i in range(n)]
    values = [f"v{i}" for i in range(n)]
    return SSTable.build(sst_id, keys, values, entries_per_block, 0)


class TestConstruction:
    def test_block_packing(self):
        table = build_table(n=10, entries_per_block=4)
        assert table.num_blocks == 3  # 4 + 4 + 2
        assert table.num_entries == 10

    def test_empty_rejected(self):
        with pytest.raises(StorageError):
            SSTable.build(1, [], [], 4, 0)

    def test_key_span(self):
        table = build_table(n=8)
        assert table.first_key == "k00000"
        assert table.last_key == "k00007"


class TestLookup:
    def test_find_block_no_locates_key(self):
        table = build_table(n=12, entries_per_block=4)
        # key k00005 lives in block 1 (entries 4..7)
        assert table.find_block_no("k00005") == 1

    def test_find_block_no_outside_range(self):
        table = build_table(n=8)
        assert table.find_block_no("a") is None
        assert table.find_block_no("z") is None

    def test_bloom_rejects_absent(self):
        table = build_table(n=64)
        present = sum(table.bloom.may_contain(f"k{i:05d}") for i in range(64))
        assert present == 64
        absent_hits = sum(table.bloom.may_contain(f"x{i:05d}") for i in range(500))
        assert absent_hits < 30  # ~1% FPR expected at 10 bits/key

    def test_block_at_bounds(self):
        table = build_table(n=8, entries_per_block=4)
        assert table.block_at(0).first_key == "k00000"
        with pytest.raises(StorageError):
            table.block_at(5)


class TestRangeMetadata:
    def test_first_block_no_for_scan(self):
        table = build_table(n=12, entries_per_block=4)
        assert table.first_block_no_for("k00006") == 1
        assert table.first_block_no_for("a") == 0
        assert table.first_block_no_for("z") is None

    def test_all_entries_roundtrip(self):
        table = build_table(n=10)
        assert [k for b in table.blocks for k in b.keys] == [f"k{i:05d}" for i in range(10)]
        assert [v for b in table.blocks for v in b.values] == [f"v{i}" for i in range(10)]

    def test_handles_enumerate_blocks(self):
        table = build_table(n=10, entries_per_block=4, sst_id=9)
        handles = table.block_handles
        assert [h.block_no for h in handles] == [0, 1, 2]
        assert all(h.sst_id == 9 for h in handles)
