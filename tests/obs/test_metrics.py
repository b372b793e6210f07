"""Metrics registry: kind checking, window deltas, merges, exports."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ObsError
from repro.obs import names as N
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    export_fleet_metrics,
    merge_registries,
    merge_window_snapshots,
)
from repro.obs.schema import validate_metrics_lines


class TestRegistry:
    def test_unregistered_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ObsError, match="unregistered"):
            # lint: disable-next=OBS001  # the rejection of an inline name is the test
            reg.inc("nope.not.registered")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ObsError, match="counter"):
            reg.set_gauge(N.WINDOW_OPS, 1.0)
        with pytest.raises(ObsError, match="gauge"):
            reg.inc(N.G_REWARD)
        with pytest.raises(ObsError, match="histogram"):
            reg.inc(N.H_WINDOW_IO_MISS)

    def test_every_l2_name_is_registered_and_listed(self):
        # The tiered serving path emits these; a typo'd or unregistered
        # name would fail at inc() time and at --validate, so the full
        # vocabulary must be in the closed registry (and thus rendered
        # by `repro report --list-metrics`).
        from repro.obs.report import list_metrics

        counters = (
            N.L2_HITS,
            N.L2_MISSES,
            N.L2_DEMOTIONS,
            N.L2_ADMITS,
            N.L2_REJECTS,
            N.L2_GHOST_HITS_RECENCY,
            N.L2_GHOST_HITS_FREQUENCY,
            N.L2_EVICTIONS,
        )
        reg = MetricsRegistry()
        for name in counters:
            assert name in N.METRICS
            reg.inc(name)  # registered as a counter
        for gauge in (N.G_L2_BUDGET_SHARE, N.G_L2_OCCUPANCY):
            assert gauge in N.METRICS
            reg.set_gauge(gauge, 0.5)
        assert N.EV_L2_SPLIT in N.EVENT_KINDS
        listing = list_metrics()
        for name in counters + (N.G_L2_BUDGET_SHARE, N.G_L2_OCCUPANCY):
            assert name in listing

    def test_window_snapshot_holds_deltas_not_totals(self):
        reg = MetricsRegistry()
        reg.inc(N.WINDOW_OPS, 100)
        first = reg.snapshot_window(0, ts_us=10.0)
        reg.inc(N.WINDOW_OPS, 40)
        second = reg.snapshot_window(1, ts_us=20.0)
        assert first.counters[N.WINDOW_OPS] == 100
        assert second.counters[N.WINDOW_OPS] == 40
        assert reg.counter_total(N.WINDOW_OPS) == 140

    def test_zero_delta_counters_omitted_from_snapshot(self):
        reg = MetricsRegistry()
        reg.inc(N.WINDOW_OPS, 5)
        reg.snapshot_window(0, ts_us=1.0)
        snap = reg.snapshot_window(1, ts_us=2.0)
        assert N.WINDOW_OPS not in snap.counters

    def test_gauge_last_write_wins_and_persists(self):
        reg = MetricsRegistry()
        reg.set_gauge(N.G_REWARD, 0.1)
        reg.set_gauge(N.G_REWARD, 0.7)
        snap = reg.snapshot_window(0, ts_us=1.0)
        assert snap.gauges[N.G_REWARD] == 0.7
        # Gauges are point-in-time: they carry forward unless re-set.
        assert reg.snapshot_window(1, ts_us=2.0).gauges[N.G_REWARD] == 0.7

    def test_export_jsonl_validates(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc(N.WINDOW_OPS, 10)
        reg.set_gauge(N.G_RANGE_RATIO, 0.5)
        reg.observe(N.H_WINDOW_IO_MISS, 12)
        reg.snapshot_window(0, ts_us=5.0)
        path = tmp_path / "metrics.jsonl"
        reg.export_jsonl(str(path))
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        assert validate_metrics_lines(objs, "metrics.jsonl") == []
        assert objs[0]["type"] == "meta" and objs[-1]["type"] == "totals"


class TestHistogram:
    def test_small_values_share_bucket_zero(self):
        h = Histogram(growth=2.0, min_value=1.0)
        h.observe(0)
        h.observe(1)
        assert h.count == 2
        assert h.quantile(1.0) == 1.0

    def test_rejects_negative_and_non_finite(self):
        h = Histogram()
        with pytest.raises(ObsError):
            h.observe(-1)
        with pytest.raises(ObsError):
            h.observe(float("nan"))

    def test_quantile_and_mean(self):
        h = Histogram(growth=2.0, min_value=1.0)
        for v in (1, 2, 4, 8):
            h.observe(v)
        assert h.mean == pytest.approx(15 / 4)
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 8.0
        assert h.max_value == 8.0

    def test_merge_requires_same_geometry(self):
        a = Histogram(growth=2.0)
        b = Histogram(growth=4.0)
        with pytest.raises(ObsError, match="geometry"):
            a.merge(b)

    def test_merge_folds_counts(self):
        a, b = Histogram(), Histogram()
        a.observe(3)
        b.observe(100)
        a.merge(b)
        assert a.count == 2 and a.max_value == 100


def _snap(index, ops, ratio=None, ts=0.0, extra=None):
    from repro.obs.metrics import WindowSnapshot

    counters = {N.WINDOW_OPS: ops} if ops else {}
    counters.update(extra or {})
    gauges = {} if ratio is None else {N.G_RANGE_RATIO: ratio}
    return WindowSnapshot(index=index, ts_us=ts, counters=counters, gauges=gauges)


class TestMergeWindowSnapshots:
    def test_counters_sum_gauges_weight_by_ops(self):
        merged = merge_window_snapshots(
            [[_snap(0, 300, ratio=0.8)], [_snap(0, 100, ratio=0.4)]]
        )
        assert len(merged) == 1
        assert merged[0].counters[N.WINDOW_OPS] == 400
        assert merged[0].gauges[N.G_RANGE_RATIO] == pytest.approx(0.7)

    def test_idle_fleet_falls_back_to_plain_mean(self):
        merged = merge_window_snapshots(
            [[_snap(0, 0, ratio=0.2)], [_snap(0, 0, ratio=0.6)]]
        )
        assert merged[0].gauges[N.G_RANGE_RATIO] == pytest.approx(0.4)

    def test_non_finite_gauges_excluded(self):
        merged = merge_window_snapshots(
            [[_snap(0, 100, ratio=float("nan"))], [_snap(0, 100, ratio=0.3)]]
        )
        assert merged[0].gauges[N.G_RANGE_RATIO] == pytest.approx(0.3)

    def test_ragged_streams_merge_without_padding(self):
        merged = merge_window_snapshots(
            [[_snap(0, 10), _snap(1, 20, ts=9.0)], [_snap(0, 5, ts=4.0)]]
        )
        assert len(merged) == 2
        assert merged[0].counters[N.WINDOW_OPS] == 15
        assert merged[1].counters[N.WINDOW_OPS] == 20
        assert merged[1].ts_us == 9.0

    def test_empty_input(self):
        assert merge_window_snapshots([]) == []


class TestFleetExport:
    def _registry(self, ops, sample):
        reg = MetricsRegistry()
        reg.inc(N.WINDOW_OPS, ops)
        reg.observe(N.H_WINDOW_IO_MISS, sample)
        reg.set_gauge(N.G_RANGE_RATIO, 0.5)
        reg.snapshot_window(0, ts_us=float(ops))
        return reg

    def test_merge_registries_sums_counters(self):
        windows, counters = merge_registries(
            [self._registry(10, 1), self._registry(30, 2)]
        )
        assert len(windows) == 1
        assert counters[N.WINDOW_OPS] == 40

    def test_export_fleet_metrics_validates_and_merges(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        export_fleet_metrics(
            [self._registry(10, 3), self._registry(30, 200)], str(path)
        )
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        assert validate_metrics_lines(objs, "metrics.jsonl") == []
        totals = objs[-1]
        assert totals["counters"][N.WINDOW_OPS] == 40
        hist = totals["histograms"][N.H_WINDOW_IO_MISS]
        assert hist["count"] == 2 and hist["max"] == 200
