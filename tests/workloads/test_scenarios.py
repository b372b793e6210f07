"""Scenario atlas schedules: registry, validation, determinism."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.workloads.generator import WorkloadSpec
from repro.workloads.scenarios import (
    SCENARIOS,
    ScenarioParams,
    ScenarioPhase,
    ScenarioSchedule,
    TenantPhase,
    build_scenario,
    describe_scenarios,
    interpolate_specs,
    scenario_names,
)

#: Small enough for per-scenario serve tests, big enough to be real.
TINY = ScenarioParams(
    num_keys=600, tenants=2, phase_ops=80, arrival_rate_ops_s=4000.0, seed=5
)


class TestRegistry:
    def test_at_least_six_scenarios(self):
        assert len(SCENARIOS) >= 6

    def test_names_sorted_and_described(self):
        names = scenario_names()
        assert names == sorted(names)
        text = describe_scenarios()
        for name in names:
            assert name in text
            assert SCENARIOS[name].description

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            build_scenario("nope", TINY)


class TestSchedules:
    @pytest.mark.parametrize("name", scenario_names())
    def test_build_is_pure(self, name):
        a = build_scenario(name, TINY)
        b = build_scenario(name, TINY)
        assert a == b

    @pytest.mark.parametrize("name", scenario_names())
    def test_shape(self, name):
        schedule = build_scenario(name, TINY)
        assert schedule.name == name
        assert schedule.seed == TINY.seed
        assert len(schedule.phases) >= 5
        assert schedule.total_ops > 0
        assert schedule.total_duration_us > 0
        assert schedule.num_keys >= TINY.num_keys
        starts = schedule.phase_starts()
        assert starts[0] == 0.0
        assert starts == sorted(starts)
        # Every tenant's per-phase budgets add up to its total.
        assert sum(
            schedule.tenant_total_ops(t) for t in schedule.tenant_names
        ) == schedule.total_ops

    def test_flash_crowd_spikes_one_tenant(self):
        schedule = build_scenario("flash_crowd", TINY)
        star = schedule.tenant_names[0]
        other = schedule.tenant_names[1]
        assert schedule.tenant_total_ops(star) > 2 * schedule.tenant_total_ops(
            other
        )

    def test_tenant_churn_staggers_arrivals(self):
        schedule = build_scenario("tenant_churn", TINY)
        last = schedule.tenant_names[-1]
        # The last tenant is dormant (absent) in phase 0 and the
        # founding tenant is gone from the final phase.
        assert last not in schedule.phases[0].tenants
        assert schedule.tenant_names[0] not in schedule.phases[-1].tenants

    def test_keyspace_growth_preloads_a_prefix(self):
        schedule = build_scenario("keyspace_growth", TINY)
        assert schedule.preload_keys == TINY.num_keys
        assert schedule.num_keys == 3 * TINY.num_keys

    def test_zipf_drift_rotates_hot_set(self):
        schedule = build_scenario("zipf_drift", TINY)
        offsets = [
            next(iter(p.tenants.values())).spec.hot_offset
            for p in schedule.phases
        ]
        skews = [
            next(iter(p.tenants.values())).spec.point_skew
            for p in schedule.phases
        ]
        assert offsets == sorted(offsets) and offsets[-1] > offsets[0]
        assert skews[0] == pytest.approx(0.6)
        assert skews[-1] == pytest.approx(1.1)


class TestValidation:
    def _phase(self, ops=10):
        spec = WorkloadSpec(num_keys=100, get_ratio=1.0)
        return ScenarioPhase(
            "p", 1000.0, {"t0": TenantPhase(spec, ops)}
        )

    def test_needs_phases(self):
        with pytest.raises(ConfigError, match="needs >= 1 phase"):
            ScenarioSchedule("s", 0, (), num_keys=100, preload_keys=100)

    def test_phase_duration_positive(self):
        with pytest.raises(ConfigError, match="duration_us"):
            ScenarioPhase("p", 0.0, {})

    def test_tenant_phase_bounds(self):
        spec = WorkloadSpec(num_keys=10, get_ratio=1.0)
        with pytest.raises(ConfigError, match="ops must be >= 0"):
            TenantPhase(spec, -1)
        with pytest.raises(ConfigError, match="rate_scale"):
            TenantPhase(spec, 1, rate_scale=-0.5)

    def test_spec_must_fit_keyspace(self):
        spec = WorkloadSpec(num_keys=500, get_ratio=1.0)
        phase = ScenarioPhase("p", 1000.0, {"t0": TenantPhase(spec, 5)})
        with pytest.raises(ConfigError, match="keyspace is 100"):
            ScenarioSchedule("s", 0, (phase,), num_keys=100, preload_keys=100)

    def test_preload_within_keyspace(self):
        with pytest.raises(ConfigError, match="preload_keys"):
            ScenarioSchedule(
                "s", 0, (self._phase(),), num_keys=100, preload_keys=101
            )

    def test_idle_tenant_rejected(self):
        with pytest.raises(ConfigError, match="never"):
            ScenarioSchedule(
                "s", 0, (self._phase(ops=0),), num_keys=100, preload_keys=100
            )


class TestInterpolation:
    def test_endpoints_and_monotone_ramp(self):
        start = WorkloadSpec(
            num_keys=100, get_ratio=0.8, write_ratio=0.2, point_skew=0.6
        )
        end = WorkloadSpec(
            num_keys=100, get_ratio=0.2, write_ratio=0.8, point_skew=1.1
        )
        specs = interpolate_specs(start, end, 5)
        assert len(specs) == 5
        assert specs[0].get_ratio == pytest.approx(0.8)
        assert specs[-1].write_ratio == pytest.approx(0.8)
        assert specs[-1].point_skew == pytest.approx(1.1)
        writes = [s.write_ratio for s in specs]
        assert writes == sorted(writes)
        for spec in specs:  # every step is itself a valid spec
            total = (
                spec.get_ratio + spec.short_scan_ratio + spec.long_scan_ratio
                + spec.write_ratio + spec.delete_ratio
            )
            assert total == pytest.approx(1.0)

    def test_needs_two_steps(self):
        spec = WorkloadSpec(num_keys=10, get_ratio=1.0)
        with pytest.raises(ConfigError, match=">= 2 steps"):
            interpolate_specs(spec, spec, 1)
