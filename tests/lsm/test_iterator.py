"""Range-scan merge: run priority, tombstones, lazy block reads.

``LSMTree.scan`` merges one block cursor per sorted run.  The per-entry
generator merge it replaced lives on here as its oracle: one source
generator per run (``memtable_source``, ``sstable_source``,
``level_source``, built by ``scan_sources``) merged by ``merge_scan``.
The scan must return what ``islice(merge_scan(...), n)`` returns and
fetch the same block handles in the same order.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.strategies import build_engine
from repro.lsm.block import BlockFetch, BlockHandle, DataBlock
from repro.lsm.memtable import MemTable
from repro.lsm.options import LSMOptions
from repro.lsm.sstable import SSTable
from repro.lsm.tree import LSMTree

MergeItem = Tuple[str, int, Optional[str]]  # (key, priority, value)
Pair = Tuple[str, Optional[str]]  # value None == tombstone


# -- the oracle ---------------------------------------------------------------


def block_entries_from(block: DataBlock, key: str) -> List[Pair]:
    """The block's entries with key >= ``key``, in order."""
    idx = bisect_left(block.keys, key)
    return list(zip(block.keys[idx:], block.values[idx:]))


def memtable_source(memtable: MemTable, start: str, priority: int) -> Iterator[MergeItem]:
    """Merge source over the MemTable's entries >= ``start``."""
    keys, values, pos = memtable.sorted_from(start)
    for i in range(pos, len(keys)):
        yield keys[i], priority, values[i]


def sstable_source(
    table: SSTable, start: str, priority: int, fetch: BlockFetch
) -> Iterator[MergeItem]:
    """Merge source over one SSTable's entries >= ``start``.

    Reads blocks one at a time through ``fetch`` as the consumer
    advances; a table entirely before ``start`` yields nothing and
    costs no I/O.
    """
    block_no = table.first_block_no_for(start)
    if block_no is None:
        return
    handles = table.block_handles
    first = True
    while block_no < len(handles):
        block = fetch(handles[block_no])
        entries = block_entries_from(block, start if first else "")
        first = False
        for key, value in entries:
            yield key, priority, value
        block_no += 1


def level_source(
    files: List[SSTable], start: str, priority: int, fetch: BlockFetch
) -> Iterator[MergeItem]:
    """Merge source over a sorted level from ``start``, opening each
    file lazily and skipping the files that end before ``start``."""
    return itertools.chain.from_iterable(
        sstable_source(table, start, priority, fetch)
        for table in files
        if table.last_key >= start
    )


def scan_sources(
    tree: LSMTree, start: str, fetch: Optional[BlockFetch] = None
) -> List[Iterator[MergeItem]]:
    """One merge source per sorted run; no I/O until the merge pulls."""
    if fetch is None:
        fetch = tree.fetch_block
    sources = [memtable_source(tree.memtable, start, priority=0)]
    priority = 1
    for table in tree.levels.level_files(0):  # newest first
        sources.append(sstable_source(table, start, priority, fetch))
        priority += 1
    for level in range(1, tree.options.max_levels):
        files = tree.levels.level_files(level)
        if files:
            sources.append(level_source(files, start, priority, fetch))
            priority += 1
    return sources


def merge_scan(sources: List[Iterator[MergeItem]]) -> Iterator[Tuple[str, str]]:
    """Merge run sources into live ``(key, value)`` pairs in key order.

    For duplicate keys, the source with the lowest priority number (the
    newest run) wins; tombstones suppress the key entirely.  The oracle
    for ``LSMTree.scan``.
    """
    current_key: Optional[str] = None
    for key, _priority, value in heapq.merge(*sources):
        if key == current_key:
            continue  # older version of a key we already resolved
        current_key = key
        if value is not None:
            yield key, value


def oracle_scan(
    tree: LSMTree, start: str, length: int, fetch: Optional[BlockFetch] = None
) -> List[Tuple[str, str]]:
    return list(islice(merge_scan(scan_sources(tree, start, fetch)), length))


# -- helpers ------------------------------------------------------------------


def table_of(sst_id, keys, values):
    return SSTable.build(sst_id, keys, values, 4, 0)


def direct_fetch_counting(table, counter):
    def fetch(handle):
        counter.append(handle)
        return table.block_at(handle.block_no)

    return fetch


def recording(tree: LSMTree, log: List[BlockHandle]) -> BlockFetch:
    def fetch(handle):
        log.append(handle)
        return tree.fetch_block(handle)

    return fetch


class TestSources:
    def test_memtable_source(self):
        m = MemTable()
        m.put("b", "1")
        m.put("a", "2")
        out = list(memtable_source(m, "a", priority=0))
        assert out == [("a", 0, "2"), ("b", 0, "1")]

    def test_sstable_source_from_midpoint(self):
        t = table_of(1, [f"k{i}" for i in range(8)], [str(i) for i in range(8)])
        reads = []
        out = list(sstable_source(t, "k5", 1, direct_fetch_counting(t, reads)))
        assert [k for k, _, _ in out] == ["k5", "k6", "k7"]
        assert len(reads) == 1  # only the second block touched

    def test_sstable_source_entirely_before_start_costs_nothing(self):
        t = table_of(1, ["a", "b"], ["1", "2"])
        reads = []
        out = list(sstable_source(t, "z", 1, direct_fetch_counting(t, reads)))
        assert out == [] and reads == []

    def test_level_source_skips_early_files(self):
        t1 = table_of(1, ["a", "b"], ["1", "2"])
        t2 = table_of(2, ["m", "n"], ["3", "4"])
        reads = []

        def fetch(handle):
            reads.append(handle)
            table = t1 if handle.sst_id == 1 else t2
            return table.block_at(handle.block_no)

        out = list(level_source([t1, t2], "m", 1, fetch))
        assert [k for k, _, _ in out] == ["m", "n"]
        assert all(h.sst_id == 2 for h in reads)

    def test_block_entries_from_midpoint(self):
        block = table_of(1, ["a", "c", "e"], ["1", "2", "3"]).block_at(0)
        assert [k for k, _ in block_entries_from(block, "b")] == ["c", "e"]

    def test_block_entries_from_before_start(self):
        block = table_of(1, ["a", "c"], ["1", "2"]).block_at(0)
        assert [k for k, _ in block_entries_from(block, "")] == ["a", "c"]

    def test_block_entries_from_past_end(self):
        block = table_of(1, ["a", "c"], ["1", "2"]).block_at(0)
        assert block_entries_from(block, "z") == []


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
            want = oracle_scan(twin, start, n)
            assert got == want
            assert tree_reads == twin.disk.block_reads_total - reads

    def test_first_block_wholly_below_start_is_read_then_skipped(self):
        # Blocks [a c] [e g]: the first-key index sends start "d" to the
        # first block, which holds nothing >= "d"; it is still read.
        tree = LSMTree(LSMOptions(entries_per_block=2, entries_per_sstable=4))
        table = SSTable.build(
            tree.disk.allocate_sst_id(), ["a", "c", "e", "g"], ["1", "2", "3", "4"], 2, 0
        )
        tree.disk.install(table)
        tree.levels.add_to_level(1, table)
        log: List[BlockHandle] = []
        assert tree.scan("d", 1, recording(tree, log)) == [("e", "3")]
        assert log == table.block_handles

    def test_level_entered_by_bisect_reads_no_earlier_file(self):
        tree = LSMTree(LSMOptions(entries_per_block=2, entries_per_sstable=4))
        for i in range(0, 40, 4):
            table = SSTable.build(
                tree.disk.allocate_sst_id(),
                [f"k{j:03d}" for j in range(i, i + 4)],
                [str(j) for j in range(i, i + 4)],
                2,
                0,
            )
            tree.disk.install(table)
            tree.levels.add_to_level(1, table)
        files = tree.levels.level_files(1)
        log: List[BlockHandle] = []
        assert tree.scan("k021", 4, recording(tree, log)) == [
            (f"k{j:03d}", str(j)) for j in range(21, 25)
        ]
        assert log == [files[5].block_handles[0], files[5].block_handles[1],
                       files[6].block_handles[0]]


# -- differential fetch-order property -----------------------------------------

KEYS = [f"k{i:03d}" for i in range(40)]
VALUES = st.one_of(st.none(), st.sampled_from(["x", "y", "z"]))
STARTS = st.one_of(
    st.sampled_from(KEYS),
    st.sampled_from(KEYS).map(lambda k: k + "5"),  # between two keys
    st.sampled_from(["", "a", "k", "z"]),  # before every key / after every key
)


def run_of(min_size: int = 0):
    return st.dictionaries(
        st.sampled_from(KEYS), VALUES, min_size=min_size, max_size=24
    ).map(lambda d: sorted(d.items()))


def install(tree: LSMTree, level: int, entries: List[Pair], per_block: int) -> None:
    keys = [key for key, _ in entries]
    values = [value for _, value in entries]
    table = SSTable.build(tree.disk.allocate_sst_id(), keys, values, per_block, 0)
    tree.disk.install(table)
    if level == 0:
        tree.levels.add_level0(table)
    else:
        tree.levels.add_to_level(level, table)


@st.composite
def trees(draw) -> Tuple[LSMTree, Dict[str, Optional[str]]]:
    """A tree built run by run, and the newest value of every key."""
    per_block = draw(st.integers(min_value=1, max_value=3))
    tree = LSMTree(LSMOptions(max_levels=4, auto_compact=False))
    runs: List[List[Pair]] = []  # newest first
    memtable = draw(run_of())
    for key, value in memtable:
        if value is None:
            tree.memtable.delete(key)
        else:
            tree.memtable.put(key, value)
    runs.append(memtable)
    level0 = draw(st.lists(run_of(min_size=1), max_size=3))  # oldest first
    for entries in level0:
        install(tree, 0, entries, per_block)
    runs.extend(reversed(level0))
    for level in (1, 2, 3):
        entries = draw(run_of())
        if not entries:
            continue
        cuts = sorted(draw(st.sets(st.integers(1, max(1, len(entries) - 1)), max_size=8)))
        bounds = [0] + [c for c in cuts if c < len(entries)] + [len(entries)]
        for lo, hi in zip(bounds, bounds[1:]):
            install(tree, level, entries[lo:hi], per_block)
        runs.append(entries)
    newest: Dict[str, Optional[str]] = {}
    for entries in runs:
        for key, value in entries:
            newest.setdefault(key, value)
    return tree, newest


@settings(max_examples=300, deadline=None)
@given(trees(), STARTS, st.data())
def test_scan_matches_generator_merge_and_fetch_order(built, start, data):
    tree, newest = built
    live = sorted((k, v) for k, v in newest.items() if v is not None and k >= start)
    n = data.draw(st.integers(min_value=0, max_value=len(live) + 5))
    got_log: List[BlockHandle] = []
    want_log: List[BlockHandle] = []
    got = tree.scan(start, n, recording(tree, got_log))
    want = oracle_scan(tree, start, n, recording(tree, want_log))
    assert got == want == live[:n]
    assert got_log == want_log


def _memo(fetch: BlockFetch) -> BlockFetch:
    memo: Dict[BlockHandle, DataBlock] = {}

    def memo_fetch(handle):
        block = memo.get(handle)
        if block is None:
            block = memo[handle] = fetch(handle)
        return block

    return memo_fetch


def _twin_trees() -> Tuple[LSMTree, LSMTree]:
    opts = LSMOptions(memtable_entries=16, entries_per_sstable=32)
    pair = LSMTree(opts), LSMTree(opts)
    for t in pair:
        for i in range(400):
            t.put(f"k{(i * 53) % 307:04d}", f"v{i}")
            if i % 5 == 0:
                t.delete(f"k{(i * 13) % 307:04d}")
    return pair


REQUESTS = st.lists(
    st.tuples(st.integers(0, 320).map(lambda i: f"k{i:04d}"), st.integers(0, 24)),
    min_size=2,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(REQUESTS)
@example([("k0010", 8), ("k0012", 4), ("k0010", 8), ("k0300", 24)])
def test_multi_scan_memo_path_matches_generator_merge(requests):
    """``KVEngine.multi_scan``'s per-batch memo fetch sees the same
    handle sequence under the block-run merge as under the oracle."""
    engines = [build_engine("block", tree, 16 * 1024, seed=1) for tree in _twin_trees()]
    oracle = engines[1].tree
    oracle.scan = lambda start, length, fetch=None: oracle_scan(oracle, start, length, fetch)
    logs: List[List[BlockHandle]] = [[], []]
    for engine, log in zip(engines, logs):
        read = engine.tree.disk.read_block
        engine.block_cache.set_backing_fetch(
            lambda handle, read=read, log=log: log.append(handle) or read(handle)
        )
    assert engines[0].multi_scan(requests) == engines[1].multi_scan(requests)
    assert logs[0] == logs[1]
    assert engines[0].block_cache.stats == engines[1].block_cache.stats
    # The memo itself, on the bare trees: same memo misses in order.
    trees = _twin_trees()
    misses: List[List[BlockHandle]] = [[], []]
    fetches = [_memo(recording(t, log)) for t, log in zip(trees, misses)]
    for start, length in requests:
        assert trees[0].scan(start, length, fetches[0]) == oracle_scan(
            trees[1], start, length, fetches[1]
        )
    assert misses[0] == misses[1]
