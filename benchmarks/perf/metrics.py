"""Metric declarations and the arithmetic behind them.

Names are the contract: every later performance or simplicity claim
refers to them.  ``END_TO_END`` is what a user of the repo sees;
``PER_LAYER`` says which layer owns it.  Layers are named after the
modules under ``src/repro``.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.bench.simclock import ClockReading, CostModel, elapsed_us
from repro.core.engine import KVEngine

from trace import LAYERS


class Metric(NamedTuple):
    """One end-to-end metric.  This table is the only place a bound is written:
    ``compare`` reads it, and ``BENCHMARK.json`` is :func:`declaration` of it.
    """

    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Worsening, as a share of the base, that ``compare`` calls a
    #: regression between two reports of the *same seed*, where every
    #: simulated number is exact.
    bound: float
    #: The bound ``BENCHMARK.json`` carries to the PR driver, which runs
    #: *ten different seeds* and refuses a bound narrower than their
    #: spread.  None: the driver's contract cannot gate this metric (it is
    #: 0 or undefined on a workload, or spreads by more than the contract's
    #: widest bound); ``BENCHMARK.json`` lists it under ``per_layer``.
    seed_bound: Optional[float]
    #: Where the value comes from: untraced ``timed`` children, the
    #: ``traced`` child, or the serve_flat rate ``ladder``.
    source: str


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, 0.25, "timed"),
    Metric("host_ops_per_s", "ops/s", "higher", 0.10, 0.25, "timed"),
    Metric("host_peak_rss_mb", "MB", "lower", 0.10, 0.10, "timed"),
    Metric("sim_qps", "ops/sim-s", "higher", 0.02, 0.15, "timed"),
    Metric("sim_hit_rate", "ratio", "higher", 0.02, None, "timed"),
    Metric("sim_io_per_op", "reads/op", "lower", 0.02, 0.25, "timed"),
    Metric("sim_p50_us", "sim-us", "lower", 0.16, None, "traced"),
    Metric("sim_p99_us", "sim-us", "lower", 0.16, None, "traced"),
    Metric("sim_write_amp", "entries/entry", "lower", 0.02, None, "traced"),
    Metric("sim_max_rate_ok", "ops/s", "higher", 0.0, None, "ladder"),
    Metric("failed_frac", "ratio", "lower", 0.0, None, "timed"),
)
#: ``failed_frac`` may rise by this much, absolute, before it regresses.
FAILED_FRAC_SLACK = 0.001

E2E_BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END}

#: Simulated cost terms, each a share of the elapsed simulated time.
COST_TERMS: Tuple[str, ...] = (
    "disk", "probe", "range_insert", "block_insert", "scan_entry", "write",
    "compaction", "slowdown", "seek", "fault", "l2",
)


def _expand(prefix: str, names: str, unit: str, better: str) -> List[Tuple[str, str, str]]:
    return [(f"{prefix}.{n}", unit, better) for n in names.split()]


#: ``(name, unit, better)``.  ``better`` is the direction in which the
#: end-to-end metrics usually improve; counts have no bound of their own.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    [(f"host.frac.{layer}", "ratio", "lower") for layer in LAYERS]
    + _expand("lsm.tree", "gets scans flushes write_slowdowns sorted_runs_end", "count", "lower")
    + [("lsm.tree.block_reads_per_get", "reads/op", "lower")]
    + _expand("lsm.bloom", "negatives", "count", "higher")
    + _expand("lsm.bloom", "false_positives", "count", "lower")
    + [("lsm.bloom.fp_rate", "ratio", "lower")]
    + _expand("lsm.storage", "block_reads bytes_read sst_written sst_deleted failed_reads",
              "count", "lower")
    + _expand("lsm.compaction", "runs entries", "count", "lower")
    + _expand("lsm.wal", "appends truncations", "count", "lower")
    + _expand("cache.block", "hits", "count", "higher")
    + _expand("cache.block", "misses", "count", "lower")
    + [("cache.block.hit_rate", "ratio", "higher")]
    + _expand("cache.block", "insertions evictions invalidations", "count", "lower")
    + [("cache.block.used_frac_end", "ratio", "higher")]
    + _expand("cache.range", "hits", "count", "higher")
    + _expand("cache.range", "misses", "count", "lower")
    + [("cache.range.hit_rate", "ratio", "higher")]
    + _expand("cache.range", "insertions evictions rejections invalidations", "count", "lower")
    + [("cache.range.admit_ratio", "ratio", "higher"),
       ("cache.range.used_frac_end", "ratio", "higher")]
    + _expand("cache.tier2", "probes", "count", "lower")
    + _expand("cache.tier2", "hits", "count", "higher")
    + [("cache.tier2.hit_rate", "ratio", "higher")]
    + _expand("cache.tier2", "demotions admits rejects", "count", "lower")
    + _expand("cache.tier2", "ghost_hits", "count", "higher")
    + _expand("cache.tier2", "evictions", "count", "lower")
    + [("cache.tier2.used_frac_end", "ratio", "higher")]
    + _expand("core.engine", "range_point_hits range_scan_hits", "count", "higher")
    + _expand("core.controller", "windows", "count", "lower")
    + [("core.controller.range_ratio_end", "ratio", "higher")]
    + _expand("serve.loop", "events", "count", "lower")
    + [("serve.loop.host_us_per_event", "us", "lower")]
    + _expand("serve.shed", "queue_full deadline other", "count", "lower")
    + _expand("serve", "rebalances evictions_forced", "count", "lower")
    + [("serve.queue_wait_p99_us", "sim-us", "lower"),
       ("serve.shard_busy_max_frac", "ratio", "lower"),
       ("serve.shard_busy_min_frac", "ratio", "lower")]
    + _expand("serve", "peak_queue_depth hedges", "count", "lower")
    + _expand("serve", "hedge_wins", "count", "higher")
    + _expand("serve", "crashes promotions", "count", "lower")
    + [("serve.failover_us", "sim-us", "lower")]
    + _expand("serve", "wal_replayed scans_partial", "count", "lower")
    + _expand("serve", "acked_writes_checked", "count", "higher")
    + [("serve.l2_share_end", "ratio", "higher")]
    + _expand("obs", "events_recorded events_dropped windows", "count", "lower")
    + [(f"sim.cost.{term}", "ratio", "lower") for term in COST_TERMS]
    + [("bench.trace_overhead_frac", "ratio", "lower"),
       ("bench.calibration_ops_per_s", "ops/s", "higher")]
)
PER_LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _, _ in PER_LAYER)

#: ``bench.host_iqr_frac`` needs every timed repeat, so only the full
#: report carries it (``BENCHMARK.json``'s traced run has one repeat).
HOST_IQR = "bench.host_iqr_frac"


def declaration() -> Dict[str, object]:
    """What ``BENCHMARK.json`` holds (``run.py declare`` prints it)."""
    from workloads import RUN_SECONDS, WORKLOADS

    per_layer = [(m.name, m.unit, m.better) for m in END_TO_END if m.seed_bound is None]
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.seed_bound}
            for m in END_TO_END if m.seed_bound is not None
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer + list(PER_LAYER)
        ],
    }


# -- arithmetic ---------------------------------------------------------------


def exact_percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def iqr_frac(values: Sequence[float]) -> float:
    """Inter-quartile range over the median (0.0 below two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def cost_terms(
    before: ClockReading, after: ClockReading, costs: Optional[CostModel] = None
) -> Dict[str, float]:
    """Simulated microseconds per cost term between two readings.

    Recomputed here from the public ``ClockReading`` fields and
    ``CostModel`` prices; :func:`checked_cost_terms` asserts the terms
    still sum to ``elapsed_us``, so a price added to the cost model
    without a term here fails the run instead of vanishing from the
    shares.
    """
    c = costs or CostModel()
    d = {f: getattr(after, f) - getattr(before, f) for f in after.__dataclass_fields__}
    return {
        "disk": d["disk_reads"] * c.disk_block_read_us,
        "probe": (d["points"] + d["scans"]) * c.memtable_probe_us
        + d["range_lookups"] * c.range_cache_probe_us
        + d["block_lookups"] * c.block_cache_probe_us,
        "range_insert": d["range_insertions"] * c.range_cache_insert_us,
        "block_insert": d["block_insertions"] * c.block_cache_insert_us,
        "scan_entry": d["scan_entries"] * c.range_cache_scan_entry_us,
        "write": (d["writes"] + d["deletes"]) * c.write_op_us,
        "compaction": d["compacted_entries"] * c.compaction_entry_us,
        "slowdown": d["write_slowdowns"] * c.write_slowdown_penalty_us,
        "seek": d["runs_seeked"] * c.seek_per_run_us,
        "fault": d["failed_reads"] * c.failed_read_us
        + d["corruption_repairs"] * c.corruption_repair_us
        + d["retry_latency_us"],
        "l2": d["l2_probes"] * c.l2_probe_us + d["l2_hits"] * c.l2_hit_us,
    }


def checked_cost_terms(
    pairs: Sequence[Tuple[ClockReading, ClockReading]],
) -> Tuple[Dict[str, float], float]:
    """Summed terms over ``(before, after)`` pairs and their total.

    Raises ``ValueError`` unless the terms sum to the cost model's own
    ``elapsed_us`` within 1e-6 of it.
    """
    totals = {term: 0.0 for term in COST_TERMS}
    elapsed = 0.0
    for before, after in pairs:
        for term, us in cost_terms(before, after).items():
            totals[term] += us
        elapsed += elapsed_us(before, after)
    summed = sum(totals.values())
    if abs(summed - elapsed) > 1e-6 * max(1.0, abs(elapsed)):
        raise ValueError(
            f"sim.cost terms sum to {summed!r} us but elapsed_us charges "
            f"{elapsed!r}: the cost model has a term this benchmark lacks"
        )
    return totals, elapsed


def engine_counters(engine: KVEngine) -> Dict[str, float]:
    """Every public per-layer counter of one engine, as running totals."""
    tree = engine.tree
    disk = tree.disk
    totals = engine.collector.totals()
    block = engine.block_cache.stats if engine.block_cache is not None else None
    rng = engine.range_cache.stats if engine.range_cache is not None else None
    fa = engine.freq_admission
    return {
        "lsm.tree.gets": totals.points - totals.range_point_hits - totals.kv_hits,
        "lsm.tree.scans": tree.scans_total,
        "lsm.tree.flushes": tree.flushes_total,
        "lsm.tree.write_slowdowns": tree.write_slowdowns_total,
        "lsm.bloom.negatives": tree.bloom_negative_total,
        "lsm.bloom.false_positives": tree.bloom_false_positive_total,
        "lsm.storage.block_reads": disk.block_reads_total,
        "lsm.storage.bytes_read": disk.bytes_read_total,
        "lsm.storage.sst_written": disk.sstables_written_total,
        "lsm.storage.sst_deleted": disk.sstables_deleted_total,
        "lsm.storage.failed_reads": disk.failed_reads_total,
        "lsm.compaction.runs": tree.compactor.compactions_total,
        "lsm.compaction.entries": tree.compactor.entries_compacted_total,
        "lsm.wal.appends": tree.wal.appends_total,
        "lsm.wal.truncations": tree.wal.truncations_total,
        "cache.block.hits": block.hits if block else 0,
        "cache.block.misses": block.misses if block else 0,
        "cache.block.insertions": block.insertions if block else 0,
        "cache.block.evictions": block.evictions if block else 0,
        "cache.block.invalidations": block.invalidations if block else 0,
        "cache.range.hits": rng.hits if rng else 0,
        "cache.range.misses": rng.misses if rng else 0,
        "cache.range.insertions": rng.insertions if rng else 0,
        "cache.range.evictions": rng.evictions if rng else 0,
        "cache.range.rejections": rng.rejections if rng else 0,
        "cache.range.invalidations": rng.invalidations if rng else 0,
        "cache.range.point_admitted": fa.admitted_total if fa else 0,
        "cache.range.point_rejected": fa.rejected_total if fa else 0,
        "core.engine.range_point_hits": totals.range_point_hits,
        "core.engine.range_scan_hits": totals.range_scan_hits,
        "core.controller.windows": len(engine.windows),
        "writes": totals.writes + totals.deletes,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    deltas: Sequence[Dict[str, float]], engines: Sequence[KVEngine]
) -> Dict[str, float]:
    """Per-layer counts and ratios from per-engine counter deltas.

    ``deltas[i]`` is ``engine_counters`` of ``engines[i]`` at the end of
    the measured region minus the same at its start; a fleet sums over
    its engines.  End-of-run gauges read the engines directly.
    """
    total: Dict[str, float] = {}
    for delta in deltas:
        for name, value in delta.items():
            total[name] = total.get(name, 0) + value
    out = {k: v for k, v in total.items() if k in PER_LAYER_NAMES}
    lookups = total["lsm.tree.gets"] + total["lsm.tree.scans"]
    out["lsm.tree.block_reads_per_get"] = _ratio(total["lsm.storage.block_reads"], lookups)
    out["lsm.tree.sorted_runs_end"] = sum(e.tree.num_sorted_runs for e in engines)
    out["lsm.bloom.fp_rate"] = _ratio(
        total["lsm.bloom.false_positives"],
        total["lsm.bloom.false_positives"] + total["lsm.bloom.negatives"],
    )
    for cache in ("cache.block", "cache.range"):
        out[f"{cache}.hit_rate"] = _ratio(
            total[f"{cache}.hits"], total[f"{cache}.hits"] + total[f"{cache}.misses"]
        )
    out["cache.range.admit_ratio"] = _ratio(
        total["cache.range.point_admitted"],
        total["cache.range.point_admitted"] + total["cache.range.point_rejected"],
    )
    live = [e for e in engines if e.block_cache is not None and e.range_cache is not None]
    out["cache.block.used_frac_end"] = _ratio(
        sum(e.block_cache.used_bytes for e in live),
        sum(e.block_cache.budget_bytes for e in live),
    )
    out["cache.range.used_frac_end"] = _ratio(
        sum(e.range_cache.used_bytes for e in live),
        sum(e.range_cache.budget_bytes for e in live),
    )
    out["core.controller.range_ratio_end"] = _ratio(
        sum(e.current_range_ratio for e in engines), len(engines)
    )
    flushed = sum(
        d["lsm.tree.flushes"] * e.tree.options.memtable_entries
        for d, e in zip(deltas, engines)
    )
    out["sim_write_amp"] = (
        _ratio(total["lsm.compaction.entries"] + flushed, total["writes"])
        if total["writes"]
        else None
    )
    return out
