"""Workload specs and operation streams."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.workloads.dynamic import DYNAMIC_PHASES, dynamic_phase_specs
from repro.workloads.generator import (
    WorkloadGenerator,
    WorkloadSpec,
    balanced_workload,
    long_scan_workload,
    point_lookup_workload,
    short_scan_workload,
)
from repro.workloads.keys import index_of, key_of, value_of


class TestKeys:
    def test_key_width_is_24_bytes(self):
        assert len(key_of(0)) == 24
        assert len(key_of(10**9)) == 24

    def test_order_preserving(self):
        assert key_of(5) < key_of(50) < key_of(500)

    def test_roundtrip(self):
        assert index_of(key_of(12345)) == 12345

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            key_of(-1)
        with pytest.raises(ConfigError):
            index_of("bogus")

    def test_value_versions_differ(self):
        assert value_of(1, 0) != value_of(1, 1)


class TestSpecValidation:
    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(num_keys=10, get_ratio=0.5)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(num_keys=10, get_ratio=1.5, write_ratio=-0.5)

    def test_avg_scan_length(self):
        spec = WorkloadSpec(
            num_keys=10, short_scan_ratio=0.5, long_scan_ratio=0.5
        )
        assert spec.avg_scan_length == (16 + 64) / 2
        assert point_lookup_workload(10).avg_scan_length == 0.0

    def test_static_workload_constructors(self):
        n = 100
        assert point_lookup_workload(n).get_ratio == 1.0
        assert short_scan_workload(n).short_scan_ratio == 1.0
        assert long_scan_workload(n).long_scan_ratio == 1.0
        balanced = balanced_workload(n)
        assert balanced.get_ratio == pytest.approx(1 / 3)
        assert balanced.write_ratio == pytest.approx(1 / 3)


class TestGenerator:
    def test_exact_count(self):
        gen = WorkloadGenerator(balanced_workload(1000), seed=1)
        assert len(list(gen.ops(500))) == 500

    def test_deterministic(self):
        a = list(WorkloadGenerator(balanced_workload(1000), seed=3).ops(50))
        b = list(WorkloadGenerator(balanced_workload(1000), seed=3).ops(50))
        assert a == b

    def test_mix_approximates_spec(self):
        spec = WorkloadSpec(
            num_keys=1000, get_ratio=0.5, short_scan_ratio=0.25, write_ratio=0.25
        )
        ops = list(WorkloadGenerator(spec, seed=2).ops(4000))
        gets = sum(1 for op in ops if op.kind == "get")
        scans = sum(1 for op in ops if op.kind == "scan")
        writes = sum(1 for op in ops if op.kind == "put")
        assert abs(gets / 4000 - 0.5) < 0.05
        assert abs(scans / 4000 - 0.25) < 0.05
        assert abs(writes / 4000 - 0.25) < 0.05

    def test_scan_lengths_match_spec(self):
        spec = WorkloadSpec(num_keys=1000, short_scan_ratio=0.5, long_scan_ratio=0.5)
        lengths = {op.length for op in WorkloadGenerator(spec, seed=1).ops(200)}
        assert lengths == {16, 64}

    def test_scans_never_run_past_keyspace(self):
        spec = long_scan_workload(100)  # tiny keyspace, length-64 scans
        for op in WorkloadGenerator(spec, seed=1).ops(300):
            assert index_of(op.key) + op.length <= 100

    def test_put_values_versioned(self):
        spec = WorkloadSpec(num_keys=10, write_ratio=1.0, point_skew=0.0)
        values = [op.value for op in WorkloadGenerator(spec, seed=1).ops(20)]
        assert len(set(values)) == 20  # every write distinct


class TestDynamicPhases:
    def test_table3_ratios(self):
        assert DYNAMIC_PHASES["A"] == (1, 1, 97, 1)
        assert DYNAMIC_PHASES["F"] == (1, 12, 12, 75)
        assert all(sum(v) == 100 for v in DYNAMIC_PHASES.values())

    def test_phase_specs_built_in_order(self):
        specs = dynamic_phase_specs(1000)
        assert [name for name, _ in specs] == list("ABCDEF")
        phase_a = specs[0][1]
        assert phase_a.long_scan_ratio == pytest.approx(0.97)
        phase_f = specs[5][1]
        assert phase_f.write_ratio == pytest.approx(0.75)

    def test_subset_selection(self):
        specs = dynamic_phase_specs(1000, phases="CD")
        assert [name for name, _ in specs] == ["C", "D"]


class TestSpecValidationMessages:
    """Satellite: each rejection names the workload, field, and value."""

    def test_zero_key_space(self):
        with pytest.raises(ConfigError, match=r"'empty'.*num_keys.*got 0"):
            WorkloadSpec(num_keys=0, get_ratio=1.0, name="empty")

    def test_negative_ratio_names_the_field(self):
        with pytest.raises(
            ConfigError, match=r"write_ratio must be non-negative, got -0\.5"
        ):
            WorkloadSpec(num_keys=10, get_ratio=1.5, write_ratio=-0.5)

    def test_over_unit_sum_reports_breakdown(self):
        with pytest.raises(
            ConfigError, match=r"must sum to 1, got 1\.5 \(get_ratio=1"
        ):
            WorkloadSpec(num_keys=10, get_ratio=1.0, write_ratio=0.5)

    def test_under_unit_sum_rejected(self):
        with pytest.raises(ConfigError, match=r"must sum to 1, got 0\.4"):
            WorkloadSpec(num_keys=10, get_ratio=0.4)

    def test_scan_length_and_skew_named(self):
        with pytest.raises(
            ConfigError, match="long_scan_length must be positive"
        ):
            WorkloadSpec(num_keys=10, get_ratio=1.0, long_scan_length=0)
        with pytest.raises(ConfigError, match="point_skew must be >= 0"):
            WorkloadSpec(num_keys=10, get_ratio=1.0, point_skew=-0.1)

    def test_negative_hot_offset_rejected(self):
        with pytest.raises(ConfigError, match="hot_offset must be >= 0"):
            WorkloadSpec(num_keys=10, get_ratio=1.0, hot_offset=-3)

    def test_hot_offset_reaches_generators(self):
        spec = WorkloadSpec(
            num_keys=100, get_ratio=1.0, scrambled=False, hot_offset=40
        )
        gen = WorkloadGenerator(spec, seed=1)
        assert gen._point_keys.offset == 40
        assert gen._scan_keys.offset == 40
