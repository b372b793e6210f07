"""Circuit breakers and the degradation ladder: deterministic state machines."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serve.resilience import (
    BREAKER_HALF_OPEN_PROBES,
    BREAKER_MIN_SAMPLES,
    BREAKER_OPEN_US,
    CLOSED,
    DEGRADE_DWELL_US,
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


def dwell(n: float) -> float:
    """``n`` ladder dwell periods, in simulated us."""
    return n * DEGRADE_DWELL_US


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ResilienceConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"op_timeout_us": -1.0},
            {"hedge_quantile": 1.0},
            {"hedge_quantile": -0.1},
            {"hedge_floor_us": -1.0},
            {"hedge_min_samples": 0},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ResilienceConfig(**kwargs)


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        b = CircuitBreaker(0)
        assert b.state == CLOSED
        assert b.allow(0.0)
        assert b.refusals == 0

    def test_failure_rate_trips_open(self):
        b = CircuitBreaker(0)
        for t in range(BREAKER_MIN_SAMPLES):
            b.record_failure(float(t))
        assert b.state == OPEN
        assert not b.allow(float(BREAKER_MIN_SAMPLES))
        assert b.refusals == 1
        b.check_invariants()

    def test_needs_min_samples_before_tripping(self):
        b = CircuitBreaker(0)
        for t in range(BREAKER_MIN_SAMPLES - 1):
            b.record_failure(float(t))
        assert b.state == CLOSED

    def test_successes_keep_it_closed(self):
        # One failure in three stays under the trip threshold.
        b = CircuitBreaker(0)
        for t in range(20):
            b.record_success(float(t))
            b.record_success(float(t) + 0.25)
            b.record_failure(float(t) + 0.5)
        assert b.state == CLOSED

    def test_cooldown_half_opens(self):
        b = CircuitBreaker(0)
        b.force_open(10.0, "crash")
        assert b.state == OPEN
        assert not b.allow(10.0 + BREAKER_OPEN_US / 2)
        assert b.allow(10.0 + BREAKER_OPEN_US)  # the cooldown has passed
        assert b.state == HALF_OPEN
        b.check_invariants()

    def test_half_open_probes_close(self):
        b = CircuitBreaker(0)
        b.force_open(0.0, "crash")
        b.record_success(BREAKER_OPEN_US + 1)  # ticks open -> half_open, probe 1
        for probe in range(2, BREAKER_HALF_OPEN_PROBES + 1):
            assert b.state == HALF_OPEN
            b.record_success(BREAKER_OPEN_US + probe)
        assert b.state == CLOSED
        assert [t[3] for t in b.transitions] == [
            "crash", "cooldown", "probes_passed",
        ]
        b.check_invariants()

    def test_half_open_probe_failure_reopens(self):
        b = CircuitBreaker(0)
        b.force_open(0.0, "crash")
        b.half_open(500.0, "promoted")
        b.record_failure(1_001.0, "timeout")
        assert b.state == OPEN
        assert b.transitions[-1][3] == "probe_timeout"
        b.check_invariants()

    def test_force_open_while_open_extends_cooldown(self):
        b = CircuitBreaker(0)
        b.force_open(0.0, "crash")
        b.force_open(900.0, "crash")
        assert not b.allow(BREAKER_OPEN_US + 500)  # cooldown re-anchored at 900
        assert b.allow(BREAKER_OPEN_US + 901)

    def test_transition_log_is_deterministic(self):
        def drive(b):
            for t in range(BREAKER_MIN_SAMPLES):
                b.record_failure(float(t))
            for probe in range(BREAKER_HALF_OPEN_PROBES):
                b.record_success(BREAKER_OPEN_US + 500 + probe)
            return b.transitions

        assert drive(CircuitBreaker(0)) == drive(CircuitBreaker(0))


class TestDegradationLadder:
    def test_starts_normal_and_admits_everything(self):
        ladder = DegradationLadder()
        assert ladder.level == LEVEL_NORMAL
        assert ladder.admits("scan", owner=False, resident=False) is None
        assert ladder.admits("get", owner=False, resident=False) is None

    def test_pressure_steps_up_one_level_at_a_time(self):
        ladder = DegradationLadder()
        ladder.observe(0.9, False, 0.0)
        assert ladder.level == LEVEL_SHED_SCANS
        ladder.observe(0.9, False, dwell(0.5))  # within dwell: no move
        assert ladder.level == LEVEL_SHED_SCANS
        ladder.observe(0.9, False, dwell(1))
        assert ladder.level == LEVEL_SHED_COLD_READS
        ladder.observe(0.9, False, dwell(2))
        assert ladder.level == LEVEL_OWNERS_ONLY
        ladder.observe(0.9, False, dwell(3))  # already at max
        assert ladder.level == LEVEL_OWNERS_ONLY
        ladder.check_invariants()

    def test_hysteresis_band_holds_level(self):
        ladder = DegradationLadder()
        ladder.observe(0.9, False, 0.0)
        ladder.observe(0.55, False, dwell(1))  # between exit and enter
        assert ladder.level == LEVEL_SHED_SCANS
        ladder.observe(0.2, False, dwell(2))
        assert ladder.level == LEVEL_NORMAL

    def test_down_shard_floors_at_scan_shed(self):
        ladder = DegradationLadder()
        ladder.observe(0.0, True, 0.0)
        assert ladder.level == LEVEL_SHED_SCANS
        # Pressure is zero but the floor holds while the shard is down.
        ladder.observe(0.0, True, dwell(1))
        assert ladder.level == LEVEL_SHED_SCANS
        ladder.observe(0.0, False, dwell(2))
        assert ladder.level == LEVEL_NORMAL

    def test_admits_sheds_scans_at_l1(self):
        ladder = DegradationLadder()
        ladder.observe(0.9, False, 0.0)
        assert ladder.admits("scan", False, True) == "degraded_scan"
        assert ladder.admits("get", False, True) is None

    def test_admits_sheds_cold_reads_at_l2(self):
        ladder = DegradationLadder()
        ladder.observe(0.9, False, 0.0)
        ladder.observe(0.9, False, dwell(1))
        assert ladder.level == LEVEL_SHED_COLD_READS
        assert ladder.admits("get", False, False) == "degraded_cold_read"
        assert ladder.admits("get", False, True) is None
        assert ladder.admits("put", False, False) is None

    def test_l3_keeps_only_owner_traffic(self):
        ladder = DegradationLadder()
        for n in (0, 1, 2):
            ladder.observe(0.9, False, dwell(n))
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
        ladder = DegradationLadder()
        for n in (0, 1, 2):
            ladder.observe(0.9, False, dwell(n))
        for n in (3, 4, 5):
            ladder.observe(0.1, False, dwell(n))
        assert [(s, d) for _, s, d, _ in ladder.transitions] == [
            (0, 1), (1, 2), (2, 3), (3, 2), (2, 1), (1, 0),
        ]
        ladder.check_invariants()
