"""Report formatting: ascii tables, series, rankings, and latency stats.

Besides the table/series renderers, this module owns the repo's one
latency toolkit: :func:`percentile` (exact, nearest-rank, for sample
lists) and :class:`LatencyHistogram` (log-bucketed accumulator for the
serving simulator, where storing every sample would dominate memory).
Both are stdlib-only and fully deterministic, so latency figures can be
asserted byte-for-byte across runs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.harness import RunResult
from repro.errors import ConfigError


def percentile(samples: Sequence[float], p: float) -> float:
    """Exact nearest-rank percentile of ``samples`` (0 when empty).

    ``p`` is a fraction in [0, 1]; ties and ordering are resolved by
    sorting, so the result is a pure function of the multiset.
    """
    if not 0.0 <= p <= 1.0:
        raise ConfigError("percentile fraction must be in [0, 1]")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


class LatencyHistogram:
    """Deterministic log-bucketed latency accumulator (stdlib only).

    Samples are folded into geometric buckets (``growth`` ratio between
    consecutive upper bounds), so percentile queries cost O(buckets)
    and the memory footprint is bounded regardless of request count.
    A reported percentile is the *upper bound* of the bucket containing
    that rank — a deterministic over-estimate within ``growth`` of the
    exact value, the standard HdrHistogram-style trade-off.
    """

    __slots__ = ("_growth", "_min_us", "_log_growth", "_buckets", "count", "total_us", "max_us")

    def __init__(self, growth: float = 1.15, min_us: float = 1.0) -> None:
        if growth <= 1.0:
            raise ConfigError("histogram growth factor must be > 1")
        if min_us <= 0:
            raise ConfigError("histogram min_us must be positive")
        self._growth = growth
        self._min_us = min_us
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total_us = 0.0
        self.max_us = 0.0

    def _bucket_of(self, us: float) -> int:
        if us <= self._min_us:
            return 0
        return max(0, math.ceil(math.log(us / self._min_us) / self._log_growth))

    def _upper_bound(self, bucket: int) -> float:
        return self._min_us * self._growth**bucket

    def record(self, us: float) -> None:
        """Fold one latency sample (microseconds) into the histogram."""
        if us < 0 or not math.isfinite(us):
            raise ConfigError(f"latency sample must be finite and >= 0, got {us!r}")
        bucket = self._bucket_of(us)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        self.count += 1
        self.total_us += us
        if us > self.max_us:
            self.max_us = us

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram (same geometry) into this one."""
        if (other._growth, other._min_us) != (self._growth, self._min_us):
            raise ConfigError("cannot merge histograms with different geometry")
        for bucket, n in other._buckets.items():
            self._buckets[bucket] = self._buckets.get(bucket, 0) + n
        self.count += other.count
        self.total_us += other.total_us
        if other.max_us > self.max_us:
            self.max_us = other.max_us

    def quantile(self, p: float) -> float:
        """Latency (us) at fraction ``p`` of recorded samples (0 if empty)."""
        if not 0.0 <= p <= 1.0:
            raise ConfigError("quantile fraction must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(p * self.count))
        seen = 0
        for bucket in sorted(self._buckets):
            seen += self._buckets[bucket]
            if seen >= rank:
                return self._upper_bound(bucket)
        return self._upper_bound(max(self._buckets))  # pragma: no cover - defensive

    @property
    def p50(self) -> float:
        """Median latency bound (us)."""
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        """95th-percentile latency bound (us)."""
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        """99th-percentile latency bound (us)."""
        return self.quantile(0.99)

    @property
    def mean_us(self) -> float:
        """Exact mean of recorded samples (us)."""
        return self.total_us / self.count if self.count else 0.0

    def fingerprint(self) -> Tuple[Tuple[int, int], ...]:
        """Canonical bucket contents, for byte-identity assertions."""
        return tuple(sorted(self._buckets.items()))

    def summary_row(self) -> List[str]:
        """``[count, mean, p50, p95, p99, max]`` formatted for tables."""
        return [
            f"{self.count:,}",
            f"{self.mean_us:,.1f}",
            f"{self.p50:,.1f}",
            f"{self.p95:,.1f}",
            f"{self.p99:,.1f}",
            f"{self.max_us:,.1f}",
        ]


def latency_table(
    histograms: Dict[str, LatencyHistogram], label: str = "tenant"
) -> str:
    """One row per histogram: count/mean/p50/p95/p99/max (us)."""
    headers = [label, "requests", "mean us", "p50 us", "p95 us", "p99 us", "max us"]
    rows = [[name] + h.summary_row() for name, h in histograms.items()]
    return format_table(headers, rows)


def merged_histogram(histograms: Iterable[LatencyHistogram]) -> LatencyHistogram:
    """Merge histograms into a fresh one (geometry taken from the first)."""
    merged: Optional[LatencyHistogram] = None
    for h in histograms:
        if merged is None:
            merged = LatencyHistogram(growth=h._growth, min_us=h._min_us)
        merged.merge(h)
    return merged if merged is not None else LatencyHistogram()


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width ascii table with a header rule."""
    columns = [list(col) for col in zip(headers, *rows)] if rows else [[h] for h in headers]
    widths = [max(len(str(cell)) for cell in col) for col in columns]
    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    lines = [fmt_row(headers), fmt_row(["-" * w for w in widths])]
    lines.extend(fmt_row(row) for row in rows)
    return "\n".join(lines)


def format_series(
    title: str, x_label: str, xs: Sequence, series: Dict[str, Sequence[float]],
    fmt: str = "{:.3f}",
) -> str:
    """Figure-style output: one row per x value, one column per series."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        rows.append([str(x)] + [fmt.format(series[name][i]) for name in series])
    return f"== {title} ==\n" + format_table(headers, rows)


def rank(values: Dict[str, float], higher_is_better: bool = True) -> Dict[str, int]:
    """1-based ranks (1 = best), ties broken by name for determinism."""
    ordered = sorted(
        values.items(), key=lambda kv: (-kv[1] if higher_is_better else kv[1], kv[0])
    )
    return {name: i + 1 for i, (name, _) in enumerate(ordered)}


def ranking_table(
    phase_results: Dict[str, Dict[str, RunResult]]
) -> Tuple[str, Dict[str, Tuple[float, float]]]:
    """Reproduce Table 4: per-phase throughput/hit-rate ranks + averages.

    ``phase_results`` maps phase name -> strategy -> RunResult.
    Returns the formatted table and the per-strategy average
    ``(throughput_rank, hit_rate_rank)``.
    """
    strategies: List[str] = []
    for per_strategy in phase_results.values():
        for name in per_strategy:
            if name not in strategies:
                strategies.append(name)

    rank_sums = {name: [0.0, 0.0] for name in strategies}
    rows = []
    phases = list(phase_results)
    for phase in phases:
        per_strategy = phase_results[phase]
        qps_ranks = rank({s: r.qps for s, r in per_strategy.items()})
        hit_ranks = rank({s: r.hit_rate for s, r in per_strategy.items()})
        row = [phase]
        for name in strategies:
            row.append(f"{qps_ranks[name]}/{hit_ranks[name]}")
            rank_sums[name][0] += qps_ranks[name]
            rank_sums[name][1] += hit_ranks[name]
        rows.append(row)
    averages = {
        name: (sums[0] / len(phases), sums[1] / len(phases))
        for name, sums in rank_sums.items()
    }
    rows.append(
        ["Average"]
        + [f"{averages[name][0]:.1f}/{averages[name][1]:.1f}" for name in strategies]
    )
    table = format_table(["Workload"] + strategies, rows)
    return table, averages
