"""Controller degraded mode: blackout detection, pinning, recovery."""

from __future__ import annotations

import math

import pytest

from repro.cache.admission import FrequencyAdmission, PartialScanAdmission
from repro.cache.block_cache import BlockCache
from repro.cache.range_cache import RangeCache
from repro.cache.sketch import CountMinSketch
from repro.core.config import AdCacheConfig
from repro.core.controller import (
    DEGRADED_RECOVERY_WINDOWS,
    INITIAL_A,
    INITIAL_B,
    MAX_RATIO_STEP,
    PolicyDecisionController,
)
from repro.core.stats import WindowStats
from repro.lsm.storage import SimulatedDisk
from repro.rl.actor_critic import ActorCriticAgent
from repro.rl.features import STATE_DIM
from repro.rl.reward import adapt_learning_rate


def make_controller():
    config = AdCacheConfig(total_cache_bytes=1 << 20, hidden_dim=32)
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


def healthy(index=0, io_miss=1000):
    return WindowStats(
        window_index=index, ops=1000, points=500, scans=300, writes=200,
        scan_length_sum=300 * 16, io_miss=io_miss, num_levels=4, level0_runs=2,
    )


def poisoned(index=0):
    w = healthy(index)
    w.io_miss = float("nan")
    w.range_occupancy = float("inf")
    return w


class TestActivation:
    def test_poisoned_window_enters_degraded_mode(self):
        controller, *_ = make_controller()
        record = controller.on_window(poisoned(0))
        assert record.degraded
        assert controller.degraded
        assert controller.degraded_activations_total == 1
        assert controller.degraded_windows_total == 1
        assert controller.agent.updates_total == 0  # RL never saw the window

    def test_consecutive_blackout_counts_one_activation(self):
        controller, *_ = make_controller()
        for i in range(4):
            controller.on_window(poisoned(i))
        assert controller.degraded_activations_total == 1
        assert controller.degraded_windows_total == 4

    def test_pinned_to_safe_defaults(self):
        controller, block, range_, freq, scan = make_controller()
        # Let RL move the parameters somewhere first.
        for i in range(6):
            controller.on_window(healthy(i, io_miss=1000 + 50 * i))
        for i in range(6, 16):
            controller.on_window(poisoned(i))
        config = controller.config
        assert controller.range_ratio == pytest.approx(config.initial_range_ratio)
        assert controller.point_threshold == 0.0  # admission wide open
        assert freq.threshold == 0.0
        assert controller.scan_params == pytest.approx((INITIAL_A, INITIAL_B))
        total = config.total_cache_bytes
        assert block.budget_bytes + range_.budget_bytes == total

    def test_boundary_walk_is_rate_limited(self):
        controller, *_ = make_controller()
        for i in range(6):
            controller.on_window(healthy(i, io_miss=1000 + 50 * i))
        before = controller.range_ratio
        controller.on_window(poisoned(6))
        after = controller.range_ratio
        assert abs(after - before) <= MAX_RATIO_STEP + 1e-9


def recover(controller, first):
    """Feed the healthy windows that end a blackout; returns the next index."""
    for i in range(first, first + DEGRADED_RECOVERY_WINDOWS):
        controller.on_window(healthy(i))
    return first + DEGRADED_RECOVERY_WINDOWS


class TestRecovery:
    def test_recovers_after_configured_healthy_streak(self):
        controller, *_ = make_controller()
        controller.on_window(poisoned(0))
        assert controller.degraded
        for i in range(1, DEGRADED_RECOVERY_WINDOWS):
            assert controller.on_window(healthy(i)).degraded  # still pinned
        last = controller.on_window(healthy(DEGRADED_RECOVERY_WINDOWS))
        assert not last.degraded
        assert not controller.degraded
        assert controller.degraded_recoveries_total == 1

    def test_relapse_resets_the_streak(self):
        controller, *_ = make_controller()
        controller.on_window(poisoned(0))
        controller.on_window(healthy(1))
        controller.on_window(poisoned(2))  # relapse
        record = controller.on_window(healthy(3))
        assert record.degraded  # streak restarted, not yet recovered
        assert controller.degraded_activations_total == 1  # one episode

    def test_learning_resumes_after_recovery(self):
        controller, *_ = make_controller()
        controller.on_window(healthy(0))
        controller.on_window(poisoned(1))
        updates_during = controller.agent.updates_total
        # The last healthy window of the streak recovers and acts, with
        # nothing to train on yet; the one after it is the first
        # post-recovery transition.
        nxt = recover(controller, 2)
        controller.on_window(healthy(nxt))
        assert controller.agent.updates_total > updates_during

    def test_no_training_across_the_blackout(self):
        """The (state, action) pending from before the blackout must be
        discarded, not paired with a post-blackout reward."""
        controller, *_ = make_controller()
        controller.on_window(healthy(0))
        controller.on_window(poisoned(1))
        recover(controller, 2)
        # The recovery window acted, but had no prev transition to train on.
        assert controller.agent.updates_total == 0

    def test_lr_stays_finite_through_blackout(self):
        controller, *_ = make_controller()
        for i in range(3):
            controller.on_window(healthy(i))
        for i in range(3, 6):
            controller.on_window(poisoned(i))
        for i in range(6, 10):
            controller.on_window(healthy(i))
        assert math.isfinite(controller.agent.actor_lr)
        assert all(math.isfinite(r.actor_lr) for r in controller.history)


class TestAdaptLearningRateGuard:
    def test_nan_reward_leaves_lr_unchanged(self):
        assert adapt_learning_rate(1e-3, float("nan")) == pytest.approx(1e-3)

    def test_inf_reward_leaves_lr_unchanged(self):
        assert adapt_learning_rate(1e-3, float("inf")) == pytest.approx(1e-3)
        assert adapt_learning_rate(1e-3, float("-inf")) == pytest.approx(1e-3)

    def test_non_finite_input_lr_still_clamped(self):
        out = adapt_learning_rate(5.0, float("nan"))
        assert out == pytest.approx(1e-2)

    def test_finite_rewards_unaffected_by_guard(self):
        assert adapt_learning_rate(1e-3, 0.5) == pytest.approx(5e-4)
        assert adapt_learning_rate(1e-3, -0.5) == pytest.approx(1.5e-3)
