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
from repro.cache.arc import ARCPolicy
from repro.cache.block_cache import BlockCache
from repro.cache.clock import ClockPolicy
from repro.cache.lru import LRUPolicy
from repro.core.engine import KVEngine
from repro.lsm.options import BLOCK_SIZE
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

CACHE = 512 * 1024

POLICIES = {
    "LRU": LRUPolicy,
    "CLOCK": ClockPolicy,
    "ARC": lambda: ARCPolicy(capacity_hint=CACHE // 4096),
}


def run_experiment():
    spec = WorkloadSpec(
        num_keys=NUM_KEYS,
        get_ratio=0.5,
        short_scan_ratio=0.3,
        long_scan_ratio=0.2,
        name="mixed_scan_pollution",
    )
    results = {}
    for name, factory in POLICIES.items():
        opts = fresh_options()
        tree = seed_database(NUM_KEYS, opts, seed=7)
        cache = BlockCache(
            CACHE, BLOCK_SIZE, tree.disk.read_block, policy_factory=factory
        )
        engine = KVEngine(tree, block_cache=cache)
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
