"""Reward model: the paper's IO_estimate formula and smoothing."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.rl import reward as reward_module
from repro.rl.reward import (
    RewardCalculator,
    adapt_learning_rate,
    estimate_no_cache_io,
    h_estimate,
)


class TestIOEstimate:
    def test_formula_matches_paper(self):
        # IO = p(1+FPR) + s*l/B + s*(L + r0max/2 - 1)
        io = estimate_no_cache_io(
            points=100,
            scans=50,
            avg_scan_length=16,
            entries_per_block=4,
            num_levels=4,
            level0_max_runs=8,
        )
        assert io == 100 + 50 * 4 + 50 * (4 + 4 - 1)

    def test_fpr_term(self, monkeypatch):
        monkeypatch.setattr(reward_module, "BLOOM_FPR", 0.01)
        io = estimate_no_cache_io(100, 0, 0, 4, 1, 0)
        assert io == pytest.approx(101.0)

    def test_pure_write_window_is_zero(self):
        assert estimate_no_cache_io(0, 0, 0, 4, 4, 8) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            estimate_no_cache_io(1, 1, 1, 0, 1, 1)


class TestRewardCalculator:
    def calc(self, alpha=0.9, mode="delta"):
        return RewardCalculator(alpha=alpha, entries_per_block=4, mode=mode)

    def test_first_window_initialises_smoothing(self):
        rc = self.calc()
        out = rc.compute(1000, 0, 0, io_miss=500, num_levels=4, level0_max_runs=8)
        assert out.h_estimate == pytest.approx(0.5)
        assert out.h_smoothed == pytest.approx(0.5)
        assert out.reward == 0.0

    def test_improvement_gives_positive_reward(self):
        rc = self.calc()
        rc.compute(1000, 0, 0, io_miss=500, num_levels=4, level0_max_runs=8)
        out = rc.compute(1000, 0, 0, io_miss=200, num_levels=4, level0_max_runs=8)
        assert out.reward > 0

    def test_degradation_gives_negative_reward(self):
        rc = self.calc()
        rc.compute(1000, 0, 0, io_miss=200, num_levels=4, level0_max_runs=8)
        out = rc.compute(1000, 0, 0, io_miss=900, num_levels=4, level0_max_runs=8)
        assert out.reward < 0

    def test_smoothing_formula(self):
        rc = self.calc(alpha=0.9)
        rc.compute(1000, 0, 0, io_miss=500, num_levels=4, level0_max_runs=8)
        out = rc.compute(1000, 0, 0, io_miss=0, num_levels=4, level0_max_runs=8)
        # h_smoothed = 0.9 * 0.5 + 0.1 * 1.0 = 0.55
        assert out.h_smoothed == pytest.approx(0.55)

    def test_alpha_zero_is_unsmoothed(self):
        rc = self.calc(alpha=0.0)
        rc.compute(1000, 0, 0, io_miss=500, num_levels=4, level0_max_runs=8)
        out = rc.compute(1000, 0, 0, io_miss=0, num_levels=4, level0_max_runs=8)
        assert out.h_smoothed == pytest.approx(1.0)

    def test_pure_write_window_holds_state(self):
        rc = self.calc()
        rc.compute(1000, 0, 0, io_miss=500, num_levels=4, level0_max_runs=8)
        out = rc.compute(0, 0, 0, io_miss=0, num_levels=4, level0_max_runs=8)
        assert out.reward == 0.0
        assert out.h_smoothed == pytest.approx(0.5)

    def test_scan_window_scores_its_h_estimate(self):
        rc = self.calc()
        out = rc.compute(100, 10, 160, io_miss=150, num_levels=3, level0_max_runs=8)
        # IO = 100 + 10 * 16 / 4 + 10 * (3 + 8 / 2 - 1) = 200
        assert (out.h_estimate, out.io_estimate) == (0.25, 200.0)
        assert (out.h_estimate, out.io_estimate) == h_estimate(100, 10, 160, 150, 4, 3, 8)

    def test_reset(self):
        rc = self.calc()
        rc.compute(1000, 0, 0, io_miss=500, num_levels=4, level0_max_runs=8)
        rc.reset()
        assert rc.h_smoothed == 0.0

    def test_alpha_validated(self):
        with pytest.raises(ConfigError):
            RewardCalculator(alpha=1.5)

    def test_mode_validated(self):
        with pytest.raises(ConfigError):
            RewardCalculator(mode="bogus")


class TestLevelMode:
    def calc(self, alpha=0.3):
        return RewardCalculator(alpha=alpha, entries_per_block=4, mode="level")

    def test_reward_is_smoothed_level(self):
        rc = self.calc(alpha=0.0)
        out = rc.compute(1000, 0, 0, io_miss=300, num_levels=4, level0_max_runs=8)
        assert out.reward == pytest.approx(0.7)

    def test_better_configuration_scores_higher(self):
        """Unlike delta mode, level mode separates two plateaus."""
        rc = self.calc(alpha=0.0)
        rc.compute(1000, 0, 0, io_miss=500, num_levels=4, level0_max_runs=8)
        low = rc.compute(1000, 0, 0, io_miss=500, num_levels=4, level0_max_runs=8)
        high = rc.compute(1000, 0, 0, io_miss=200, num_levels=4, level0_max_runs=8)
        assert high.reward > low.reward

    def test_trend_still_reported(self):
        rc = self.calc(alpha=0.5)
        rc.compute(1000, 0, 0, io_miss=500, num_levels=4, level0_max_runs=8)
        out = rc.compute(1000, 0, 0, io_miss=900, num_levels=4, level0_max_runs=8)
        assert out.trend < 0  # degradation, for the adaptive lr

    def test_pure_write_window_repeats_level(self):
        rc = self.calc()
        rc.compute(1000, 0, 0, io_miss=500, num_levels=4, level0_max_runs=8)
        out = rc.compute(0, 0, 0, io_miss=0, num_levels=4, level0_max_runs=8)
        assert out.reward == pytest.approx(rc.h_smoothed)
        assert out.trend == 0.0


class TestAdaptiveLearningRate:
    def test_negative_reward_raises_lr(self):
        assert adapt_learning_rate(1e-3, -0.5) > 1e-3

    def test_positive_reward_lowers_lr(self):
        assert adapt_learning_rate(1e-3, 0.5) < 1e-3

    def test_clamped(self):
        assert adapt_learning_rate(1e-2, -100.0) == 1e-2
        assert adapt_learning_rate(1e-5, 0.9999) == 1e-5
