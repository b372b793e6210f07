"""Metrics registry: counters, gauges, and log-bucketed histograms.

A :class:`MetricsRegistry` accepts recordings only against names
registered in :mod:`repro.obs.names` and only through the method
matching the metric's kind — ``inc`` for counters, ``set_gauge`` for
gauges, ``observe`` for histograms.  At each window boundary
:meth:`MetricsRegistry.snapshot_window` seals a
:class:`WindowSnapshot` holding the counter *deltas* accumulated since
the previous snapshot plus the current gauge values, mirroring how the
engine seals :class:`~repro.core.stats.WindowStats`.

Everything here is deterministic and stdlib-only; timestamps come from
the sim clock via the recorder, never wall time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ObsError
from repro.obs import names as N


class Histogram:
    """Deterministic log-bucketed value accumulator (stdlib only).

    Samples fold into geometric buckets (``growth`` ratio between
    consecutive upper bounds), so quantile queries cost O(buckets) and
    memory is bounded regardless of sample count.  A reported quantile
    is the *upper bound* of the bucket holding that rank: a
    deterministic over-estimate within ``growth`` of the exact value,
    the HdrHistogram-style trade-off.  Values are unit-agnostic (serve
    latencies in microseconds, entries, stall time, block counts).  The
    default growth of 2 keeps the obs JSONL export compact; the serving
    simulator's latency histograms use a finer one.
    """

    __slots__ = ("_growth", "_min_value", "_log_growth", "_buckets", "count", "total", "max_value")

    def __init__(self, growth: float = 2.0, min_value: float = 1.0) -> None:
        if growth <= 1.0:
            raise ObsError("histogram growth factor must be > 1")
        if min_value <= 0:
            raise ObsError("histogram min_value must be positive")
        self._growth = growth
        self._min_value = min_value
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0

    def observe(self, value: float) -> None:
        """Fold one sample into the histogram."""
        if value < 0 or not math.isfinite(value):
            raise ObsError(f"histogram sample must be finite and >= 0, got {value!r}")
        if value <= self._min_value:
            bucket = 0
        else:
            bucket = max(0, math.ceil(math.log(value / self._min_value) / self._log_growth))
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram (same geometry) into this one."""
        if (other._growth, other._min_value) != (self._growth, self._min_value):
            raise ObsError("cannot merge histograms with different geometry")
        for bucket, n in other._buckets.items():
            self._buckets[bucket] = self._buckets.get(bucket, 0) + n
        self.count += other.count
        self.total += other.total
        if other.max_value > self.max_value:
            self.max_value = other.max_value

    def upper_bound(self, bucket: int) -> float:
        """Inclusive upper bound of ``bucket`` in sample units."""
        return self._min_value * self._growth**bucket

    def quantile(self, p: float) -> float:
        """Value bound at fraction ``p`` of recorded samples (0 if empty)."""
        if not 0.0 <= p <= 1.0:
            raise ObsError("quantile fraction must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(p * self.count))
        seen = 0
        for bucket in sorted(self._buckets):
            seen += self._buckets[bucket]
            if seen >= rank:
                return self.upper_bound(bucket)
        return self.upper_bound(max(self._buckets))  # pragma: no cover - defensive

    @property
    def p50(self) -> float:
        """Median bound."""
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        """95th-percentile bound."""
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        """99th-percentile bound."""
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        """Exact mean of recorded samples (0 if empty)."""
        return self.total / self.count if self.count else 0.0

    def fingerprint(self) -> Tuple[Tuple[int, int], ...]:
        """Canonical bucket contents, for byte-identity assertions."""
        return tuple(sorted(self._buckets.items()))

    def summary_row(self) -> List[str]:
        """``[count, mean, p50, p95, p99, max]`` formatted for tables."""
        return [
            f"{self.count:,}",
            f"{self.mean:,.1f}",
            f"{self.p50:,.1f}",
            f"{self.p95:,.1f}",
            f"{self.p99:,.1f}",
            f"{self.max_value:,.1f}",
        ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form: geometry, totals, and sparse bucket counts."""
        return {
            "growth": self._growth,
            "min_value": self._min_value,
            "count": self.count,
            "total": self.total,
            "max": self.max_value,
            "buckets": {str(b): n for b, n in sorted(self._buckets.items())},
        }


@dataclass
class WindowSnapshot:
    """Counter deltas + gauge values for one sealed window."""

    index: int
    ts_us: float
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (one ``type: window`` line in metrics.jsonl)."""
        return {
            "type": "window",
            "index": self.index,
            "ts_us": self.ts_us,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }


class MetricsRegistry:
    """Validated, window-snapshotting store for all registered metrics."""

    __slots__ = ("_counters", "_gauges", "_histograms", "_last_seal", "windows")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._last_seal: Dict[str, int] = {}
        self.windows: List[WindowSnapshot] = []

    def _check_kind(self, name: str, expected: str) -> None:
        spec = N.spec_of(name)
        if spec.kind != expected:
            raise ObsError(
                f"metric {name!r} is a {spec.kind}, not a {expected}; "
                f"use the matching recording method"
            )

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (registered, kind-checked)."""
        self._check_kind(name, N.COUNTER)
        self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write per window wins)."""
        self._check_kind(name, N.GAUGE)
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name``."""
        self._check_kind(name, N.HISTOGRAM)
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe(value)

    def counter_total(self, name: str) -> int:
        """Lifetime total of counter ``name`` (0 if never incremented)."""
        self._check_kind(name, N.COUNTER)
        return self._counters.get(name, 0)

    def histogram(self, name: str) -> Histogram:
        """The histogram for ``name`` (empty one if never observed)."""
        self._check_kind(name, N.HISTOGRAM)
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        return hist

    def snapshot_window(self, index: int, ts_us: float) -> WindowSnapshot:
        """Seal a window: counter deltas since the last seal + gauges now."""
        counters: Dict[str, int] = {}
        for name, total in self._counters.items():
            delta = total - self._last_seal.get(name, 0)
            if delta:
                counters[name] = delta
            self._last_seal[name] = total
        snap = WindowSnapshot(
            index=index, ts_us=ts_us, counters=counters, gauges=dict(self._gauges)
        )
        self.windows.append(snap)
        return snap

    def totals_dict(self) -> Dict[str, object]:
        """JSON-ready lifetime totals (the ``type: totals`` line)."""
        return {
            "type": "totals",
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self._histograms.items())
            },
        }

    def export_jsonl(self, path: str) -> None:
        """Write metrics.jsonl: meta line, one line per window, totals."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "meta", "kind": "metrics", "version": 1}) + "\n")
            for snap in self.windows:
                fh.write(json.dumps(snap.to_dict()) + "\n")
            fh.write(json.dumps(self.totals_dict()) + "\n")


def merge_window_snapshots(
    groups: Sequence[Sequence[WindowSnapshot]],
) -> List[WindowSnapshot]:
    """Fleet-wide reduction of per-shard window snapshot streams.

    Mirrors :func:`repro.core.stats.merge_windows`: snapshots are joined
    by position (window *i* of every shard describes the same logical
    window), counters sum, gauges average weighted by each shard's
    ``window.ops`` counter delta (falling back to a plain mean when no
    shard did work), and the timestamp is the max across shards (the
    fleet window is sealed when its slowest shard seals).  Shards with
    fewer windows simply stop contributing, so ragged streams merge
    without padding.
    """
    if not groups:
        return []
    depth = max(len(g) for g in groups)
    merged: List[WindowSnapshot] = []
    for i in range(depth):
        row = [g[i] for g in groups if i < len(g)]
        counters: Dict[str, int] = {}
        for snap in row:
            for name, value in snap.counters.items():
                counters[name] = counters.get(name, 0) + value
        weights = [float(snap.counters.get(N.WINDOW_OPS, 0)) for snap in row]
        total_weight = sum(weights)
        gauges: Dict[str, float] = {}
        gauge_names = sorted({name for snap in row for name in snap.gauges})
        for name in gauge_names:
            num = 0.0
            denom = 0.0
            for snap, weight in zip(row, weights):
                if name not in snap.gauges:
                    continue
                value = snap.gauges[name]
                if not math.isfinite(value):
                    continue
                w = weight if total_weight > 0 else 1.0
                num += value * w
                denom += w
            if denom > 0:
                gauges[name] = num / denom
        merged.append(
            WindowSnapshot(
                index=max(snap.index for snap in row),
                ts_us=max(snap.ts_us for snap in row),
                counters=counters,
                gauges=gauges,
            )
        )
    return merged


def merge_registries(registries: Iterable[MetricsRegistry]) -> Tuple[
    List[WindowSnapshot], Dict[str, int]
]:
    """Fleet view of several registries: merged windows + summed counters."""
    regs = list(registries)
    windows = merge_window_snapshots([r.windows for r in regs])
    counters: Dict[str, int] = {}
    for reg in regs:
        for name, value in reg._counters.items():
            counters[name] = counters.get(name, 0) + value
    return windows, counters


def export_fleet_metrics(
    registries: Sequence[MetricsRegistry], path: str
) -> None:
    """Write a fleet-level metrics.jsonl reduced from per-shard registries.

    Same line format as :meth:`MetricsRegistry.export_jsonl`, so the
    report renderer and schema validator read a fleet file exactly like
    a single-shard one: windows are position-joined merges, counters
    sum, histograms merge bucket-wise, and totals gauges come from the
    last merged window (a point-in-time value has no meaningful sum).
    """
    windows, counters = merge_registries(registries)
    histograms: Dict[str, Histogram] = {}
    for reg in registries:
        for name, hist in reg._histograms.items():
            merged = histograms.get(name)
            if merged is None:
                merged = histograms[name] = Histogram(
                    growth=hist._growth, min_value=hist._min_value
                )
            merged.merge(hist)
    totals: Dict[str, object] = {
        "type": "totals",
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(windows[-1].gauges.items())) if windows else {},
        "histograms": {
            name: hist.to_dict() for name, hist in sorted(histograms.items())
        },
    }
    with open(path, "w") as fh:
        fh.write(json.dumps({"type": "meta", "kind": "metrics", "version": 1}) + "\n")
        for snap in windows:
            fh.write(json.dumps(snap.to_dict()) + "\n")
        fh.write(json.dumps(totals) + "\n")
