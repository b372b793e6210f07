"""Level structure: run counting, scan entry, file bookkeeping."""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.lsm.sstable import SSTable
from repro.lsm.version import LevelState


def table(sst_id, start, n=4):
    keys = [f"k{start + i:05d}" for i in range(n)]
    return SSTable.build(sst_id, keys, ["v"] * n, 4, 0)


class TestLevel0:
    def test_newest_first(self):
        levels = LevelState(4)
        levels.add_level0(table(1, 0))
        levels.add_level0(table(2, 0))
        assert [t.sst_id for t in levels.level_files(0)] == [2, 1]

    def test_run_counting(self):
        levels = LevelState(4)
        levels.add_level0(table(1, 0))
        levels.add_level0(table(2, 0))
        levels.add_to_level(2, table(3, 100))
        assert levels.num_sorted_runs == 3  # two L0 + one deeper level
        assert levels.num_levels == 3
        assert levels.level0_file_count == 2


class TestSortedLevels:
    def test_add_keeps_order(self):
        levels = LevelState(4)
        levels.add_to_level(1, table(2, 100))
        levels.add_to_level(1, table(1, 0))
        assert [t.sst_id for t in levels.level_files(1)] == [1, 2]

    def test_overlap_rejected(self):
        levels = LevelState(4)
        levels.add_to_level(1, table(1, 0, n=8))
        with pytest.raises(StorageError):
            levels.add_to_level(1, table(2, 4, n=8))

    def test_add_level0_api_guard(self):
        levels = LevelState(4)
        with pytest.raises(StorageError):
            levels.add_to_level(0, table(1, 0))

    def test_find_file(self):
        levels = LevelState(4)
        levels.add_to_level(1, table(1, 0))     # k00000..k00003
        levels.add_to_level(1, table(2, 100))   # k00100..k00103
        assert levels.find_file(1, "k00101").sst_id == 2
        assert levels.find_file(1, "k00050") is None
        assert levels.find_file(1, "a") is None

    def test_find_file_level0_rejected(self):
        with pytest.raises(StorageError):
            LevelState(4).find_file(0, "k")

    def test_scan_start(self):
        levels = LevelState(4)
        assert levels.scan_start(1, "k") == 0  # empty level
        levels.add_to_level(1, table(1, 0))     # k00000..k00003
        levels.add_to_level(1, table(2, 100))   # k00100..k00103
        assert levels.scan_start(1, "a") == 0
        assert levels.scan_start(1, "k00002") == 0
        assert levels.scan_start(1, "k00003") == 0
        assert levels.scan_start(1, "k00050") == 1  # between the files
        assert levels.scan_start(1, "k00103") == 1
        assert levels.scan_start(1, "k00104") == 2  # past the level

    def test_remove(self):
        levels = LevelState(4)
        levels.add_to_level(1, table(1, 0))
        removed = levels.remove(1, 1)
        assert removed.sst_id == 1
        with pytest.raises(StorageError):
            levels.remove(1, 1)

    def test_entry_and_total_counts(self):
        levels = LevelState(4)
        levels.add_to_level(1, table(1, 0, n=4))
        levels.add_to_level(2, table(2, 100, n=8))
        assert levels.level_entry_count(1) == 4
        assert levels.total_entries() == 12

    def test_needs_two_levels(self):
        with pytest.raises(StorageError):
            LevelState(1)
