"""Report formatting: ascii tables, series, rankings, and latency stats.

Besides the table/series renderers, this module owns :func:`percentile`
(exact, nearest-rank, for sample lists) and :func:`latency_table`, which
renders :class:`~repro.obs.metrics.Histogram` summaries (the serving
simulator's log-bucketed latency accumulator, where storing every sample
would dominate memory).  Both are stdlib-only and fully deterministic,
so latency figures can be asserted byte-for-byte across runs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.bench.harness import RunResult
from repro.errors import ConfigError
from repro.obs.metrics import Histogram


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


def latency_table(
    histograms: Dict[str, Histogram], label: str = "tenant"
) -> str:
    """One row per histogram: count/mean/p50/p95/p99/max (us)."""
    headers = [label, "requests", "mean us", "p50 us", "p95 us", "p99 us", "max us"]
    rows = [[name] + h.summary_row() for name, h in histograms.items()]
    return format_table(headers, rows)


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


def rank(values: Dict[str, float]) -> Dict[str, int]:
    """1-based ranks (1 = highest value), ties broken by name for determinism."""
    ordered = sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))
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
