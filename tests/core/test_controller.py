"""Policy decision controller: reward flow, action application, delay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.admission import FrequencyAdmission, PartialScanAdmission
from repro.cache.block_cache import BlockCache
from repro.cache.range_cache import RangeCache
from repro.cache.sketch import CountMinSketch
from repro.core.config import AdCacheConfig
from repro.core.controller import (
    A_MAX,
    POINT_THRESHOLD_MAX,
    UPDATES_PER_WINDOW,
    PolicyDecisionController,
)
from repro.core.stats import WindowStats
from repro.lsm.storage import SimulatedDisk
from repro.rl.actor_critic import ActorCriticAgent
from repro.rl.features import STATE_DIM


def make_controller(config=None, **config_kw):
    config = config or AdCacheConfig(
        total_cache_bytes=1 << 20, hidden_dim=32, **config_kw
    )
    agent = ActorCriticAgent(STATE_DIM, 4, hidden_dim=32, seed=1)
    disk = SimulatedDisk()
    block = BlockCache(config.total_cache_bytes // 2, 4096, disk.read_block)
    range_ = RangeCache(config.total_cache_bytes // 2, entry_charge=1024)
    freq = FrequencyAdmission(CountMinSketch(width=256, depth=2, seed=1))
    scan = PartialScanAdmission(a=16, b=0.5)
    controller = PolicyDecisionController(
        config, agent, block, range_, freq, scan,
        entries_per_block=4, level0_max_runs=8,
    )
    return controller, block, range_, freq, scan


def window(points=500, scans=300, writes=200, io_miss=1000, index=0):
    return WindowStats(
        window_index=index,
        ops=points + scans + writes,
        points=points,
        scans=scans,
        writes=writes,
        scan_length_sum=scans * 16,
        io_miss=io_miss,
        num_levels=4,
        level0_runs=2,
    )


class TestControlLoop:
    def test_record_appended_per_window(self):
        controller, *_ = make_controller()
        controller.on_window(window(index=0))
        controller.on_window(window(index=1))
        assert len(controller.history) == 2
        assert controller.history[1].window_index == 1

    def test_budgets_always_sum_to_total(self):
        controller, block, range_, _, _ = make_controller()
        total = controller.config.total_cache_bytes
        for i in range(10):
            controller.on_window(window(index=i, io_miss=1000 + 100 * i))
            assert block.budget_bytes + range_.budget_bytes == total

    def test_admission_params_applied(self):
        controller, _, _, freq, scan = make_controller()
        controller.on_window(window())
        assert freq.threshold == pytest.approx(controller.point_threshold)
        assert scan.a == pytest.approx(controller.scan_params[0])
        assert scan.b == pytest.approx(controller.scan_params[1])

    def test_one_window_delay(self):
        """No agent update can happen on the very first window."""
        controller, *_ = make_controller()
        controller.on_window(window(index=0))
        assert controller.agent.updates_total == 0
        controller.on_window(window(index=1))
        # One fresh transition plus replayed passes.
        assert (
            controller.agent.updates_total
            == UPDATES_PER_WINDOW
        )

    def test_learning_rate_adapts_with_reward(self):
        controller, *_ = make_controller()
        controller.on_window(window(io_miss=2000))
        lr_before = controller.agent.actor_lr
        # A dramatic hit-rate drop must not *decrease* the rate.
        controller.on_window(window(io_miss=4000))
        record = controller.history[-1]
        assert record.trend < 0
        assert controller.agent.actor_lr >= lr_before

    def test_actions_clipped_to_valid_ranges(self):
        controller, *_ = make_controller()
        for i in range(8):
            record = controller.on_window(window(index=i))
            assert 0.0 <= record.range_ratio <= 1.0
            assert 0.0 <= record.point_threshold <= POINT_THRESHOLD_MAX
            assert 0.0 <= record.scan_a <= A_MAX
            assert 0.0 <= record.scan_b <= 1.0


class TestAblationFlags:
    def test_partitioning_disabled_freezes_boundary(self):
        controller, block, range_, _, _ = make_controller(
            enable_partitioning=False
        )
        b0, r0 = block.budget_bytes, range_.budget_bytes
        for i in range(5):
            controller.on_window(window(index=i))
        assert (block.budget_bytes, range_.budget_bytes) == (b0, r0)
        assert controller.range_ratio == controller.config.initial_range_ratio

    def test_admission_disabled_freezes_thresholds(self):
        controller, _, _, freq, scan = make_controller(enable_admission=False)
        thr0, a0, b0 = freq.threshold, scan.a, scan.b
        for i in range(5):
            controller.on_window(window(index=i))
        assert (freq.threshold, scan.a, scan.b) == (thr0, a0, b0)

    def test_frozen_agent_never_updates(self):
        controller, *_ = make_controller(online_learning=False)
        for i in range(5):
            controller.on_window(window(index=i))
        assert controller.agent.updates_total == 0
        # Frozen agents act deterministically: once the smoothed hit
        # rate settles under identical windows, the action settles too.
        for i in range(5, 30):
            controller.on_window(window(index=i))
        r1 = controller.on_window(window(index=30))
        r2 = controller.on_window(window(index=31))
        assert r1.range_ratio == pytest.approx(r2.range_ratio, abs=0.02)


class TestRewardPlumbing:
    def test_trend_reflects_io_direction(self):
        controller, *_ = make_controller()
        controller.on_window(window(io_miss=3000, index=0))
        improving = controller.on_window(window(io_miss=500, index=1))
        assert improving.trend > 0
        degrading = controller.on_window(window(io_miss=4000, index=2))
        assert degrading.trend < 0

    def test_level_reward_separates_good_and_bad_windows(self):
        controller, *_ = make_controller()
        controller.on_window(window(io_miss=3000, index=0))
        good = controller.on_window(window(io_miss=500, index=1))
        controller.on_window(window(io_miss=4000, index=2))
        bad = controller.on_window(window(io_miss=4000, index=3))
        assert good.reward > bad.reward

    def test_h_estimate_in_record(self):
        controller, *_ = make_controller()
        record = controller.on_window(window(points=1000, scans=0, writes=0, io_miss=500))
        assert record.h_estimate == pytest.approx(0.5)
