"""LSMOptions validation and level-capacity geometry."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.lsm.options import (
    BLOCK_SIZE,
    BLOOM_BITS_PER_KEY,
    KEY_SIZE,
    SIZE_RATIO,
    VALUE_SIZE,
    LSMOptions,
)


class TestDefaults:
    def test_paper_constants(self):
        assert KEY_SIZE == 24
        assert VALUE_SIZE == 1000
        assert BLOCK_SIZE == 4096

    def test_default_geometry_matches_paper(self):
        opts = LSMOptions()
        assert opts.entries_per_block == 4  # 4 KB / (24 + 1000) B
        assert SIZE_RATIO == 10
        assert opts.level0_slowdown_writes_trigger == 4
        assert opts.level0_stop_writes_trigger == 8
        assert BLOOM_BITS_PER_KEY == 10

    def test_blocks_per_sstable(self):
        opts = LSMOptions(entries_per_sstable=64, entries_per_block=4)
        assert opts.blocks_per_sstable == 16


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("entries_per_block", 0),
            ("entries_per_sstable", -1),
            ("memtable_entries", 0),
            ("max_levels", 0),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            LSMOptions(**{field: value})

    def test_sstable_must_be_block_multiple(self):
        with pytest.raises(ConfigError):
            LSMOptions(entries_per_sstable=65, entries_per_block=4)

    def test_stop_must_dominate_slowdown(self):
        with pytest.raises(ConfigError):
            LSMOptions(
                level0_slowdown_writes_trigger=8, level0_stop_writes_trigger=4
            )


class TestLevelCapacities:
    def test_growth_by_size_ratio(self):
        opts = LSMOptions(entries_per_sstable=64, memtable_entries=64)
        l1 = opts.level_capacity_entries(1)
        assert opts.level_capacity_entries(2) == l1 * 10
        assert opts.level_capacity_entries(3) == l1 * 100

    def test_level0_bounded_by_file_count(self):
        opts = LSMOptions(entries_per_sstable=64)
        assert opts.level_capacity_entries(0) == (
            opts.level0_file_num_compaction_trigger * 64
        )
