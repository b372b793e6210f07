"""Merging iterators: run priority, tombstones, lazy block reads."""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Iterator, List, Optional, Tuple

from repro.lsm.iterator import (
    MergeItem,
    memtable_source,
    sstable_source,
    level_source,
)
from repro.lsm.memtable import MemTable
from repro.lsm.options import LSMOptions
from repro.lsm.sstable import SSTable
from repro.lsm.tree import LSMTree


def merge_scan(sources: List[Iterator[MergeItem]]) -> Iterator[Tuple[str, str]]:
    """Merge run sources into live ``(key, value)`` pairs in key order.

    For duplicate keys, the source with the lowest priority number (the
    newest run) wins; tombstones suppress the key entirely.  The oracle
    for ``LSMTree.scan``'s inlined merge.
    """
    current_key: Optional[str] = None
    for key, _priority, value in heapq.merge(*sources):
        if key == current_key:
            continue  # older version of a key we already resolved
        current_key = key
        if value is not None:
            yield key, value


def table_of(sst_id, entries):
    return SSTable.from_entries(sst_id, entries, 4)


def direct_fetch_counting(table, counter):
    def fetch(handle):
        counter.append(handle)
        return table.block_at(handle.block_no)

    return fetch


class TestSources:
    def test_memtable_source(self):
        m = MemTable()
        m.put("b", "1")
        m.put("a", "2")
        out = list(memtable_source(m, "a", priority=0))
        assert out == [("a", 0, "2"), ("b", 0, "1")]

    def test_sstable_source_from_midpoint(self):
        t = table_of(1, [(f"k{i}", str(i)) for i in range(8)])
        reads = []
        out = list(sstable_source(t, "k5", 1, direct_fetch_counting(t, reads)))
        assert [k for k, _, _ in out] == ["k5", "k6", "k7"]
        assert len(reads) == 1  # only the second block touched

    def test_sstable_source_entirely_before_start_costs_nothing(self):
        t = table_of(1, [("a", "1"), ("b", "2")])
        reads = []
        out = list(sstable_source(t, "z", 1, direct_fetch_counting(t, reads)))
        assert out == [] and reads == []

    def test_level_source_skips_early_files(self):
        t1 = table_of(1, [("a", "1"), ("b", "2")])
        t2 = table_of(2, [("m", "3"), ("n", "4")])
        reads = []

        def fetch(handle):
            reads.append(handle)
            table = t1 if handle.sst_id == 1 else t2
            return table.block_at(handle.block_no)

        out = list(level_source([t1, t2], "m", 1, fetch))
        assert [k for k, _, _ in out] == ["m", "n"]
        assert all(h.sst_id == 2 for h in reads)


class TestMerge:
    def test_newest_wins_on_duplicates(self):
        new = iter([("a", 0, "new"), ("b", 0, "bn")])
        old = iter([("a", 1, "old"), ("c", 1, "co")])
        out = list(merge_scan([new, old]))
        assert out == [("a", "new"), ("b", "bn"), ("c", "co")]

    def test_tombstone_suppresses_key(self):
        new = iter([("a", 0, None)])
        old = iter([("a", 1, "stale"), ("b", 1, "keep")])
        assert list(merge_scan([new, old])) == [("b", "keep")]

    def test_old_tombstone_does_not_mask_new_value(self):
        new = iter([("a", 0, "live")])
        old = iter([("a", 1, None)])
        assert list(merge_scan([new, old])) == [("a", "live")]

    def test_three_way_merge_sorted(self):
        s1 = iter([("a", 0, "1"), ("d", 0, "4")])
        s2 = iter([("b", 1, "2")])
        s3 = iter([("c", 2, "3")])
        out = list(merge_scan([s1, s2, s3]))
        assert [k for k, _ in out] == ["a", "b", "c", "d"]

    def test_empty_sources(self):
        assert list(merge_scan([iter([]), iter([])])) == []


class TestTreeScanOracle:
    def test_tree_scan_equals_islice_of_merge_scan(self):
        """``LSMTree.scan`` returns and reads what the generator merge does."""
        opts = LSMOptions(memtable_entries=16, entries_per_sstable=32)
        tree, twin = LSMTree(opts), LSMTree(opts)
        for t in (tree, twin):
            for i in range(300):
                t.put(f"k{(i * 37) % 211:04d}", f"v{i}")
                if i % 7 == 0:
                    t.delete(f"k{(i * 11) % 211:04d}")
        assert tree.num_sorted_runs > 2 and len(tree.memtable) > 0
        for start, n in [("k0000", 5), ("k0050", 40), ("k0100", 500), ("k0209", 3), ("z", 4)]:
            reads = tree.disk.block_reads_total
            got = tree.scan(start, n)
            tree_reads = tree.disk.block_reads_total - reads
            reads = twin.disk.block_reads_total
            want = list(islice(merge_scan(twin._scan_sources(start)), n))
            assert got == want
            assert tree_reads == twin.disk.block_reads_total - reads
