"""AdCacheConfig validation and the window stats collector."""

from __future__ import annotations

import math

import pytest

from repro.core.adcache import ACTOR_LR, CRITIC_LR, GAMMA, SKETCH_SATURATION
from repro.core.config import AdCacheConfig
from repro.core.stats import StatsCollector, WindowStats, merge_windows
from repro.errors import ConfigError


class TestConfig:
    def test_defaults(self):
        cfg = AdCacheConfig()
        # Paper-faithful structural defaults.
        assert cfg.window_size == 1000
        assert cfg.hidden_dim == 256
        assert SKETCH_SATURATION == 8
        # Simulator-scale learning defaults (see config docstring).
        assert cfg.alpha == 0.3
        assert ACTOR_LR == CRITIC_LR == 1e-2
        assert cfg.reward_mode == "level"
        assert GAMMA == 0.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("total_cache_bytes", -1),
            ("initial_range_ratio", 1.5),
            ("window_size", 0),
            ("alpha", -0.1),
            ("num_shards", 0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigError):
            AdCacheConfig(**{field: value})


class TestWindowStats:
    def test_derived_ratios(self):
        w = WindowStats(ops=10, points=5, scans=3, writes=2, scan_length_sum=48)
        assert w.point_ratio == 0.5
        assert w.scan_ratio == 0.3
        assert w.write_ratio == 0.2
        assert w.avg_scan_length == 16.0
        assert w.reads == 8

    def test_empty_window_safe(self):
        w = WindowStats()
        assert w.point_ratio == 0.0
        assert w.avg_scan_length == 0.0
        assert w.range_hit_rate == 0.0
        assert w.block_hit_rate == 0.0

    def test_hit_rates(self):
        w = WindowStats(
            ops=4, points=2, scans=2, range_point_hits=1, range_scan_hits=1,
            block_hits=3, block_misses=1,
        )
        assert w.range_hit_rate == 0.5
        assert w.block_hit_rate == 0.75


class TestMergeWindows:
    def test_empty_list_merges_to_default_window(self):
        assert merge_windows([]) == WindowStats()

    def test_counters_sum_and_snapshots_weight_by_ops(self):
        a = WindowStats(
            ops=300, io_miss=30, num_levels=2, level0_runs=1, window_index=3,
            range_occupancy=0.9, block_occupancy=0.1, range_ratio=0.8,
        )
        b = WindowStats(
            ops=100, io_miss=10, num_levels=4, level0_runs=3, window_index=4,
            range_occupancy=0.1, block_occupancy=0.5, range_ratio=0.4,
        )
        m = merge_windows([a, b])
        assert m.ops == 400 and m.io_miss == 40
        assert m.range_occupancy == pytest.approx(0.9 * 0.75 + 0.1 * 0.25)
        assert m.block_occupancy == pytest.approx(0.1 * 0.75 + 0.5 * 0.25)
        assert m.range_ratio == pytest.approx(0.8 * 0.75 + 0.4 * 0.25)
        # Structural maxima, not means: the fleet is as deep as its
        # deepest shard.
        assert m.num_levels == 4 and m.level0_runs == 3
        assert m.window_index == 4

    def test_idle_fleet_falls_back_to_plain_mean(self):
        a = WindowStats(ops=0, range_occupancy=0.2, range_ratio=0.4)
        b = WindowStats(ops=0, range_occupancy=0.6, range_ratio=0.6)
        m = merge_windows([a, b])
        assert m.range_occupancy == pytest.approx(0.4)
        assert m.range_ratio == pytest.approx(0.5)

    def test_poisoned_shard_cannot_nan_the_fleet_view(self):
        poisoned = WindowStats(
            ops=100, io_miss=5,
            range_occupancy=float("inf"), block_occupancy=float("nan"),
            range_ratio=0.5,
        )
        healthy = WindowStats(
            ops=100, io_miss=7,
            range_occupancy=0.3, block_occupancy=0.4, range_ratio=0.7,
        )
        m = merge_windows([poisoned, healthy])
        assert m.io_miss == 12  # counters still sum
        assert m.range_occupancy == pytest.approx(0.3)
        assert m.block_occupancy == pytest.approx(0.4)
        assert m.range_ratio == pytest.approx(0.6)
        assert all(
            math.isfinite(v)
            for v in (m.range_occupancy, m.block_occupancy, m.range_ratio)
        )

    def test_negative_ops_window_contributes_no_weight(self):
        wrapped = WindowStats(ops=-5, range_occupancy=0.9)
        good = WindowStats(ops=10, range_occupancy=0.1)
        m = merge_windows([wrapped, good])
        assert m.range_occupancy == pytest.approx(0.1)

    def test_to_dict_from_dict_roundtrip(self):
        w = WindowStats(
            ops=10, points=4, scans=3, io_miss=7, range_ratio=0.6,
            window_index=7, compactions=2, blocks_invalidated=9,
        )
        assert WindowStats.from_dict(w.to_dict()) == w

    def test_from_dict_tolerates_missing_and_unknown_keys(self):
        w = WindowStats.from_dict({"ops": 5, "unknown_future_field": 1})
        assert w.ops == 5 and w.points == 0


class TestCollector:
    def seal(self, collector, **kw):
        defaults = dict(
            io_miss=0, block_hits=0, block_misses=0, num_levels=1,
            level0_runs=0, range_occupancy=0.0, block_occupancy=0.0,
            range_ratio=0.5,
        )
        defaults.update(kw)
        return collector.end_window(**defaults)

    def test_per_op_accounting(self):
        c = StatsCollector()
        c.note_point(range_hit=True)
        c.note_scan(16, range_hit=False)
        c.note_write()
        c.note_delete()
        assert c.ops_in_window == 4
        w = self.seal(c, io_miss=7)
        assert (w.points, w.scans, w.writes, w.deletes) == (1, 1, 1, 1)
        assert w.range_point_hits == 1 and w.range_scan_hits == 0
        assert w.io_miss == 7

    def test_window_resets(self):
        c = StatsCollector()
        c.note_point(range_hit=False)
        self.seal(c)
        assert c.ops_in_window == 0
        w2 = self.seal(c)
        assert w2.ops == 0 and w2.window_index == 1

    def test_compactions_attributed_to_window(self):
        c = StatsCollector()
        c.note_compaction(blocks_invalidated=10)
        c.note_compaction(blocks_invalidated=5)
        w = self.seal(c)
        assert w.compactions == 2 and w.blocks_invalidated == 15
        w2 = self.seal(c)
        assert w2.compactions == 0

    def test_lifetime_accumulates(self):
        c = StatsCollector()
        c.note_point(range_hit=True)
        self.seal(c, io_miss=3)
        c.note_scan(16, range_hit=True)
        self.seal(c, io_miss=2)
        assert c.lifetime.points == 1
        assert c.lifetime.scans == 1
        assert c.lifetime.io_miss == 5

    def test_totals_include_partial_window(self):
        c = StatsCollector()
        c.note_point(range_hit=False)
        self.seal(c)
        c.note_write()  # in-progress window
        totals = c.totals()
        assert totals.points == 1 and totals.writes == 1
