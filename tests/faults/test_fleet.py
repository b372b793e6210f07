"""Fleet fault plans: seeded shard-crash schedules for the serving layer."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.faults.fleet import FleetFaultConfig, FleetFaultPlan, ShardCrash


class TestConfigValidation:
    def test_defaults_are_valid(self):
        FleetFaultConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crashes": -1},
            {"earliest_us": -1.0},
            {"latest_us": 5.0, "earliest_us": 10.0},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FleetFaultConfig(**kwargs)


class TestPlan:
    def test_plan_is_deterministic(self):
        config = FleetFaultConfig(crashes=3, seed=9)
        a = list(FleetFaultPlan(config, num_shards=8))
        b = list(FleetFaultPlan(config, num_shards=8))
        assert a == b

    def test_seeds_diverge(self):
        a = list(FleetFaultPlan(FleetFaultConfig(crashes=3, seed=1), 8))
        b = list(FleetFaultPlan(FleetFaultConfig(crashes=3, seed=2), 8))
        assert a != b

    def test_victims_are_distinct_shards(self):
        plan = FleetFaultPlan(FleetFaultConfig(crashes=4, seed=5), 6)
        victims = [crash.shard_id for crash in plan]
        assert len(set(victims)) == len(victims)
        assert all(0 <= v < 6 for v in victims)

    def test_times_within_window_and_sorted_per_victim_order(self):
        config = FleetFaultConfig(
            crashes=3, earliest_us=1_000.0, latest_us=9_000.0, seed=2
        )
        plan = FleetFaultPlan(config, 8)
        times = [crash.at_us for crash in plan]
        assert all(1_000.0 <= t <= 9_000.0 for t in times)
        assert times == sorted(times)

    def test_must_leave_a_survivor(self):
        with pytest.raises(ConfigError):
            FleetFaultPlan(FleetFaultConfig(crashes=4), num_shards=4)
        with pytest.raises(ConfigError):
            FleetFaultPlan(FleetFaultConfig(crashes=5), num_shards=4)

    def test_len_matches_crashes(self):
        plan = FleetFaultPlan(FleetFaultConfig(crashes=2, seed=0), 5)
        assert len(plan) == 2

    def test_crash_entries_are_frozen(self):
        crash = ShardCrash(shard_id=1, at_us=5.0)
        with pytest.raises(AttributeError):
            crash.at_us = 6.0  # type: ignore[misc]
