"""Figure 10: training-parameter sensitivity and parameter evolution.

Three panels, all on a workload shift from point-lookup-heavy to
short-scan-heavy (the paper warms on a read-heavy phase, then shifts):

1. **Window size** — smaller windows adapt faster; a frozen pretrained
   model (no online learning, no reward smoothing) shows the sharpest
   post-shift dip.
2. **Smoothing factor alpha** — all settings recover; heavy smoothing
   reacts more slowly.
3. **Parameter evolution** — the applied range ratio falls toward the
   block cache after the shift to short scans, and the scan-admission
   threshold settles near the scan length (16).
"""

from __future__ import annotations

import numpy as np

from common import NUM_KEYS, bench_config, fresh_options, print_banner, scaled
from repro.bench.harness import apply_operation, seed_database
from repro.bench.report import format_series
from repro.bench.strategies import build_engine
from repro.core.adcache import AdCacheEngine
from repro.workloads.generator import (
    WorkloadGenerator,
    point_lookup_workload,
    short_scan_workload,
)

CACHE = 512 * 1024
PHASE1_OPS = scaled(8000)   # warm on point lookups
PHASE2_OPS = scaled(12000)  # shift to short scans
#: Each phase spans at least this many of the run's own windows, so a
#: reduced-scale run still has a post-shift dip (5 windows) to measure.
MIN_PHASE_WINDOWS = 6


def run_shift(engine):
    """Play the shift; returns ``(engine, windows before the shift)``."""
    window = engine.config.window_size
    floor = MIN_PHASE_WINDOWS * window
    phase1_ops = max(PHASE1_OPS, floor)
    gen1 = WorkloadGenerator(point_lookup_workload(NUM_KEYS), seed=21)
    for op in gen1.ops(phase1_ops):
        apply_operation(engine, op)
    gen2 = WorkloadGenerator(short_scan_workload(NUM_KEYS), seed=22)
    for op in gen2.ops(max(PHASE2_OPS, floor)):
        apply_operation(engine, op)
    return engine, phase1_ops // window


def engine_with(window_size=None, alpha=None, seed=5):
    overrides = {}
    if window_size is not None:
        overrides["window_size"] = window_size
    if alpha is not None:
        overrides["alpha"] = alpha
    tree = seed_database(NUM_KEYS, fresh_options(), seed=7)
    return AdCacheEngine(tree, bench_config(CACHE, seed=seed, **overrides))


def pretrained_engine():
    tree = seed_database(NUM_KEYS, fresh_options(), seed=7)
    return build_engine("adcache-pretrained", tree, CACHE, seed=5)


def post_shift_curve(engine, phase1_windows):
    """Mean hit rate right after the shift and at the end."""
    h = [r.h_estimate for r in engine.controller.history]
    post = h[phase1_windows:]
    return float(np.mean(post[:5])), float(np.mean(post[-8:]))


def run_experiment():
    out = {}

    # Panel 1: window sizes (plus the frozen pretrained model).
    for window in (100, 250, 1000):
        out[f"window={window}"] = run_shift(engine_with(window_size=window))
    out["pretrained"] = run_shift(pretrained_engine())

    # Panel 2: alpha sweep at the default window.
    for alpha in (0.0, 0.5, 0.9):
        out[f"alpha={alpha}"] = run_shift(engine_with(alpha=alpha))
    return out


def test_fig10_training_params(run_once):
    out = run_once(run_experiment)
    print_banner("Figure 10 — training-parameter sensitivity across a shift")

    rows = {}
    for name, (engine, shift_w) in out.items():
        dip, end = post_shift_curve(engine, shift_w)
        rows[name] = (dip, end)
    print(
        format_series(
            "post-shift hit rate (dip = first 5 windows, end = last 8)",
            "setting",
            list(rows),
            {
                "dip": [rows[n][0] for n in rows],
                "end": [rows[n][1] for n in rows],
            },
        )
    )

    # Every online configuration recovers: end >= dip - noise.
    for name, (dip, end) in rows.items():
        if name != "pretrained":
            assert end >= dip - 0.05, (name, dip, end)

    # Panel 3: parameter evolution for the default configuration.
    engine, shift_w = out["window=250"]
    history = engine.controller.history
    ratios = [r.range_ratio for r in history]
    scan_admit = [
        min(64.0, r.scan_a + r.scan_b * (64 - r.scan_a)) for r in history
    ]
    print()
    marks = [0, shift_w - 1, shift_w + 5, len(history) - 1]
    print(
        format_series(
            "parameter evolution (default config)",
            "window",
            [history[i].window_index for i in marks],
            {
                "range_ratio": [ratios[i] for i in marks],
                "scan_admit(l=64)": [scan_admit[i] for i in marks],
                "actor_lr": [history[i].actor_lr for i in marks],
            },
            fmt="{:.4f}",
        )
    )
    # After the shift to short scans the boundary moves toward the
    # block cache relative to its pre-shift level.
    pre_ratio = float(np.mean(ratios[max(0, shift_w - 5) : shift_w]))
    post_ratio = float(np.mean(ratios[-8:]))
    assert post_ratio <= pre_ratio + 0.15
