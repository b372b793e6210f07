"""Compaction: triggers, merging semantics, invalidation events."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.options import LSMOptions
from repro.lsm.tree import LSMTree
from repro.workloads.keys import key_of, value_of


def small_tree(**kw):
    opts = LSMOptions(memtable_entries=16, entries_per_sstable=32, **kw)
    return LSMTree(opts)


class TestTriggers:
    def test_l0_compaction_trigger(self):
        tree = small_tree()
        # Enough writes to exceed the L0 trigger several times over.
        for i in range(400):
            tree.put(key_of(i), value_of(i))
        assert tree.compactor.compactions_total > 0
        assert (
            tree.levels.level0_file_count
            < tree.options.level0_file_num_compaction_trigger
        )

    def test_deeper_levels_respect_capacity(self):
        tree = small_tree()
        for i in range(2000):
            tree.put(key_of(i % 500), value_of(i % 500, i))
        for level in range(1, tree.options.max_levels - 1):
            count = tree.levels.level_entry_count(level)
            # May transiently exceed by one file's worth; not more.
            assert count <= tree.options.level_capacity_entries(level) + \
                tree.options.entries_per_sstable


class TestMergeSemantics:
    def test_newest_version_survives(self):
        tree = small_tree()
        for round_ in range(5):
            for i in range(100):
                tree.put(key_of(i), value_of(i, round_))
        for i in range(0, 100, 11):
            assert tree.get(key_of(i)) == value_of(i, 4)

    def test_tombstones_removed_at_bottom(self):
        tree = small_tree()
        for i in range(100):
            tree.put(key_of(i), value_of(i))
        for i in range(50):
            tree.delete(key_of(i))
        # Churn enough to force full compaction cascades.
        for i in range(100, 400):
            tree.put(key_of(i), value_of(i))
        for i in range(0, 50, 7):
            assert tree.get(key_of(i)) is None
        for i in range(50, 100, 7):
            assert tree.get(key_of(i)) == value_of(i)

    def test_obsolete_files_deleted_from_disk(self):
        tree = small_tree()
        for i in range(500):
            tree.put(key_of(i), value_of(i))
        live = set(tree.disk.live_sst_ids())
        referenced = {t.sst_id for t in tree.levels.all_files()}
        assert live == referenced


class TestEvents:
    def test_listener_reports_invalidated_blocks(self):
        tree = small_tree()
        events = []
        tree.add_compaction_listener(events.append)
        for i in range(300):
            tree.put(key_of(i), value_of(i))
        assert events
        for event in events:
            assert event.entries_in > 0
            assert event.blocks_invalidated > 0
            assert event.input_sst_ids
            # Compaction preserves entries unless tombstones are dropped.
            assert event.entries_out <= event.entries_in

    def test_compaction_changes_sst_ids(self):
        tree = small_tree()
        events = []
        tree.add_compaction_listener(events.append)
        for i in range(300):
            tree.put(key_of(i), value_of(i))
        for event in events:
            assert not set(event.input_sst_ids) & set(event.output_sst_ids)


def columns(tables):
    """The ``(key, value)`` pairs of ``tables``, block by block."""
    return [
        pair for table in tables for block in table.blocks
        for pair in zip(block.keys, block.values)
    ]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.booleans()), min_size=60, max_size=300))
def test_output_matches_per_entry_merge(writes):
    """Every compaction writes what a per-entry merge of its inputs gives:
    the newest version of each key in key order, tombstones kept unless
    no deeper level holds data, in full tables but the last."""
    tree = LSMTree(LSMOptions(
        entries_per_block=2, entries_per_sstable=4, memtable_entries=4, max_levels=4
    ))
    built = {}
    install = tree.disk.install

    def record(table):
        built[table.sst_id] = table
        install(table)

    def check(event):
        newest = {}
        # Inputs are listed newer runs first (L0 newest first): first seen wins.
        for key, value in columns(built[i] for i in event.input_sst_ids):
            newest.setdefault(key, value)
        bottom = not any(tree.levels.level_files(lv) for lv in range(event.level_to + 1, 4))
        expected = [(k, v) for k, v in sorted(newest.items()) if v is not None or not bottom]
        outputs = [built[i] for i in event.output_sst_ids]
        assert columns(outputs) == expected
        assert all(t.num_entries == 4 for t in outputs[:-1])

    tree.disk.install = record
    tree.add_compaction_listener(check)
    for n, (k, delete) in enumerate(writes):
        if delete:
            tree.delete(f"k{k:03d}")
        else:
            tree.put(f"k{k:03d}", f"v{n}")
