"""Circuit breakers and the degradation ladder: deterministic state machines."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serve.resilience import (
    CLOSED,
    HALF_OPEN,
    LEVEL_NORMAL,
    LEVEL_OWNERS_ONLY,
    LEVEL_SHED_COLD_READS,
    LEVEL_SHED_SCANS,
    OPEN,
    CircuitBreaker,
    DegradationLadder,
    ResilienceConfig,
)


def config(**overrides) -> ResilienceConfig:
    defaults = dict(
        breaker_window=8,
        breaker_failure_threshold=0.5,
        breaker_min_samples=4,
        breaker_open_us=1_000.0,
        breaker_half_open_probes=2,
        degrade_enter_frac=0.75,
        degrade_exit_frac=0.40,
        degrade_dwell_us=100.0,
    )
    defaults.update(overrides)
    return ResilienceConfig(**defaults)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ResilienceConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"breaker_window": 0},
            {"breaker_failure_threshold": 0.0},
            {"breaker_failure_threshold": 1.5},
            {"breaker_min_samples": 0},
            {"breaker_open_us": -1.0},
            {"breaker_half_open_probes": 0},
            {"op_timeout_us": -1.0},
            {"hedge_quantile": 1.0},
            {"hedge_quantile": -0.1},
            {"hedge_floor_us": -1.0},
            {"hedge_min_samples": 0},
            {"degrade_enter_frac": 0.0},
            {"degrade_exit_frac": 0.9, "degrade_enter_frac": 0.8},
            {"degrade_dwell_us": -1.0},
            {"owner_tenants": -1},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ResilienceConfig(**kwargs)


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        b = CircuitBreaker(0, config())
        assert b.state == CLOSED
        assert b.allow(0.0)
        assert b.refusals == 0

    def test_failure_rate_trips_open(self):
        b = CircuitBreaker(0, config())
        for t in range(4):
            b.record_failure(float(t))
        assert b.state == OPEN
        assert not b.allow(4.0)
        assert b.refusals == 1
        b.check_invariants()

    def test_needs_min_samples_before_tripping(self):
        b = CircuitBreaker(0, config(breaker_min_samples=6))
        for t in range(5):
            b.record_failure(float(t))
        assert b.state == CLOSED

    def test_successes_keep_it_closed(self):
        b = CircuitBreaker(0, config())
        for t in range(20):
            b.record_success(float(t))
            b.record_failure(float(t) + 0.5)
        # 50% failures meets the threshold eventually; flip the mix:
        b2 = CircuitBreaker(1, config(breaker_failure_threshold=0.9))
        for t in range(20):
            b2.record_success(float(t))
            b2.record_failure(float(t) + 0.5)
        assert b2.state == CLOSED

    def test_cooldown_half_opens(self):
        b = CircuitBreaker(0, config())
        b.force_open(10.0, "crash")
        assert b.state == OPEN
        assert not b.allow(500.0)
        assert b.allow(1_010.0)  # past the 1000us cooldown
        assert b.state == HALF_OPEN
        b.check_invariants()

    def test_half_open_probes_close(self):
        b = CircuitBreaker(0, config())
        b.force_open(0.0, "crash")
        b.record_success(1_001.0)  # ticks open -> half_open, probe 1
        assert b.state == HALF_OPEN
        b.record_success(1_002.0)  # probe 2 of 2
        assert b.state == CLOSED
        assert [t[3] for t in b.transitions] == [
            "crash", "cooldown", "probes_passed",
        ]
        b.check_invariants()

    def test_half_open_probe_failure_reopens(self):
        b = CircuitBreaker(0, config())
        b.force_open(0.0, "crash")
        b.half_open(500.0, "promoted")
        b.record_failure(1_001.0, "timeout")
        assert b.state == OPEN
        assert b.transitions[-1][3] == "probe_timeout"
        b.check_invariants()

    def test_force_open_while_open_extends_cooldown(self):
        b = CircuitBreaker(0, config())
        b.force_open(0.0, "crash")
        b.force_open(900.0, "crash")
        assert not b.allow(1_500.0)  # cooldown re-anchored at 900
        assert b.allow(1_901.0)

    def test_transition_log_is_deterministic(self):
        def drive(b):
            for t in range(4):
                b.record_failure(float(t))
            b.record_success(1_500.0)
            b.record_success(1_501.0)
            return b.transitions

        assert drive(CircuitBreaker(0, config())) == drive(
            CircuitBreaker(0, config())
        )


class TestDegradationLadder:
    def test_starts_normal_and_admits_everything(self):
        ladder = DegradationLadder(config())
        assert ladder.level == LEVEL_NORMAL
        assert ladder.admits("scan", owner=False, resident=False) is None
        assert ladder.admits("get", owner=False, resident=False) is None

    def test_pressure_steps_up_one_level_at_a_time(self):
        ladder = DegradationLadder(config())
        ladder.observe(0.9, False, 0.0)
        assert ladder.level == LEVEL_SHED_SCANS
        ladder.observe(0.9, False, 50.0)  # within dwell: no move
        assert ladder.level == LEVEL_SHED_SCANS
        ladder.observe(0.9, False, 200.0)
        assert ladder.level == LEVEL_SHED_COLD_READS
        ladder.observe(0.9, False, 400.0)
        assert ladder.level == LEVEL_OWNERS_ONLY
        ladder.observe(0.9, False, 600.0)  # already at max
        assert ladder.level == LEVEL_OWNERS_ONLY
        ladder.check_invariants()

    def test_hysteresis_band_holds_level(self):
        ladder = DegradationLadder(config())
        ladder.observe(0.9, False, 0.0)
        ladder.observe(0.55, False, 500.0)  # between exit and enter
        assert ladder.level == LEVEL_SHED_SCANS
        ladder.observe(0.2, False, 1_000.0)
        assert ladder.level == LEVEL_NORMAL

    def test_down_shard_floors_at_scan_shed(self):
        ladder = DegradationLadder(config())
        ladder.observe(0.0, True, 0.0)
        assert ladder.level == LEVEL_SHED_SCANS
        # Pressure is zero but the floor holds while the shard is down.
        ladder.observe(0.0, True, 1_000.0)
        assert ladder.level == LEVEL_SHED_SCANS
        ladder.observe(0.0, False, 2_000.0)
        assert ladder.level == LEVEL_NORMAL

    def test_admits_sheds_scans_at_l1(self):
        ladder = DegradationLadder(config())
        ladder.observe(0.9, False, 0.0)
        assert ladder.admits("scan", False, True) == "degraded_scan"
        assert ladder.admits("get", False, True) is None

    def test_admits_sheds_cold_reads_at_l2(self):
        ladder = DegradationLadder(config())
        ladder.observe(0.9, False, 0.0)
        ladder.observe(0.9, False, 200.0)
        assert ladder.level == LEVEL_SHED_COLD_READS
        assert ladder.admits("get", False, False) == "degraded_cold_read"
        assert ladder.admits("get", False, True) is None
        assert ladder.admits("put", False, False) is None

    def test_l3_keeps_only_owner_traffic(self):
        ladder = DegradationLadder(config())
        for t in (0.0, 200.0, 400.0):
            ladder.observe(0.9, False, t)
        assert ladder.level == LEVEL_OWNERS_ONLY
        assert ladder.admits("get", owner=False, resident=True) == (
            "degraded_non_owner"
        )
        # Owners are capped at L1 severity: points flow, scans shed.
        assert ladder.admits("get", owner=True, resident=False) is None
        assert ladder.admits("scan", owner=True, resident=True) == (
            "degraded_scan"
        )

    def test_transitions_log_chains(self):
        ladder = DegradationLadder(config())
        for t in (0.0, 200.0, 400.0):
            ladder.observe(0.9, False, t)
        for t in (600.0, 800.0, 1_000.0):
            ladder.observe(0.1, False, t)
        assert [(s, d) for _, s, d, _ in ladder.transitions] == [
            (0, 1), (1, 2), (2, 3), (3, 2), (2, 1), (1, 0),
        ]
        ladder.check_invariants()
