"""Ablation: block-cache eviction policy (LRU vs CLOCK vs ARC).

RocksDB offers both LRU and Clock caches; ARC underlies AC-Key's
adaptive design.  This ablation swaps the block cache's policy under a
mixed workload with scan pollution to show why the paper's contribution
targets *structure and admission* rather than eviction alone: the
spread between eviction policies is small next to the block-vs-range
and admission effects.
"""

from __future__ import annotations

from common import NUM_KEYS, fresh_options, print_banner, scaled
from repro.bench.harness import run_workload, seed_database
from repro.bench.report import format_table
from repro.bench.strategies import build_engine
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

CACHE = 512 * 1024

#: Table row -> block-cache strategy with that eviction policy.
POLICIES = {"LRU": "block", "CLOCK": "block-clock", "ARC": "block-arc"}


def run_experiment():
    spec = WorkloadSpec(
        num_keys=NUM_KEYS,
        get_ratio=0.5,
        short_scan_ratio=0.3,
        long_scan_ratio=0.2,
        name="mixed_scan_pollution",
    )
    results = {}
    for name, strategy in POLICIES.items():
        tree = seed_database(NUM_KEYS, fresh_options(), seed=7)
        engine = build_engine(strategy, tree, CACHE)
        generator = WorkloadGenerator(spec, seed=105)
        results[name] = run_workload(
            engine, generator, num_ops=scaled(4000), warmup_ops=scaled(4000),
            name=name,
        )
    return results


def test_abl_block_eviction(run_once):
    results = run_once(run_experiment)
    print_banner("Ablation — block-cache eviction policy under scan pollution")
    rows = [
        [name, f"{r.hit_rate:.3f}", f"{r.sst_reads:,}"]
        for name, r in results.items()
    ]
    print(format_table(["policy", "hit rate", "SST reads"], rows))

    hits = {name: r.hit_rate for name, r in results.items()}
    # All policies function correctly and land in a plausible band...
    for name, h in hits.items():
        assert 0.0 < h < 1.0, name
    # ...and the spread among eviction policies is small compared to
    # the structural effects the paper targets (tens of points).
    assert max(hits.values()) - min(hits.values()) < 0.10
