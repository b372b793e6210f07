#!/usr/bin/env python
"""Workload analysis: profile a trace and predict cache behaviour.

Shows the analysis toolkit end to end:

1. generate a workload, record it to a trace file (the paper's
   pretraining log-collection path),
2. characterize it (mix, scan lengths, skew) from the trace alone,
3. compute its Mattson miss-ratio curve — the LRU hit rate at *every*
   cache size from a single pass — and check the prediction against a
   real cache simulation at one size.

Run:  python examples/workload_analysis.py
"""

import tempfile
from pathlib import Path

from repro.analysis.characterize import characterize, format_profile
from repro.analysis.reuse import mattson_hit_rates, miss_ratio_curve
from repro.cache.base import BudgetedCache
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.workloads.trace import load_trace, record_trace

NUM_KEYS = 10_000


def main() -> None:
    # 1. Generate and record a mixed workload.
    spec = WorkloadSpec(
        num_keys=NUM_KEYS,
        get_ratio=0.6,
        short_scan_ratio=0.2,
        write_ratio=0.2,
        point_skew=0.95,
        name="analysis_demo",
    )
    ops = list(WorkloadGenerator(spec, seed=11).ops(20_000))
    trace_path = Path(tempfile.gettempdir()) / "analysis_demo.trace"
    record_trace(ops, trace_path)
    print(f"recorded {len(ops):,} operations to {trace_path}\n")

    # 2. Characterize from the trace file.
    profile = characterize(load_trace(trace_path))
    print(format_profile(profile))

    # 3. Miss-ratio curve over the point-lookup key stream.
    point_keys = [op.key for op in ops if op.kind == "get"]
    print("\nLRU miss-ratio curve (point lookups, Mattson single-pass):")
    for size, miss in miss_ratio_curve(point_keys, max_size=2000, num_points=8):
        bar = "#" * int((1 - miss) * 40)
        print(f"  {size:>5} entries: miss {miss:.3f} |{bar:<40}|")

    # Cross-check one point against a real LRU cache.
    capacity = 500
    predicted = mattson_hit_rates(point_keys, [capacity])[capacity]
    cache = BudgetedCache(capacity, 1)
    hits = 0
    for key in point_keys:
        if cache.get(key) is not None:
            hits += 1
        else:
            cache.put(key, "v")
    simulated = hits / len(point_keys)
    print(
        f"\nat {capacity} entries: predicted hit rate {predicted:.4f}, "
        f"simulated {simulated:.4f} (exact match expected)"
    )


if __name__ == "__main__":
    main()
