"""Ablation: compaction-invalidation countermeasures for block caches.

Two design points the paper discusses around its motivation:

* **Leaper-style prefetch** — repopulate the cache with the output
  blocks covering previously-hot ranges after each compaction;
* **active purge** — drop dead blocks eagerly instead of letting them
  age out (RocksDB lets them decay; purging frees budget sooner).

Both are measured against the plain block cache on a hot-read +
update-churn workload, alongside the range cache (which needs neither —
the paper's structural answer to the same problem).
"""

from __future__ import annotations

from common import fresh_options, print_banner, scaled
from repro.bench.harness import seed_database
from repro.bench.report import format_table
from repro.cache.block_cache import BlockCache
from repro.cache.prefetcher import CompactionPrefetcher
from repro.cache.range_cache import RangeCache
from repro.core.engine import KVEngine
from repro.lsm.options import BLOCK_SIZE
from repro.workloads.keys import key_of, value_of

NUM_KEYS = 2000
CACHE = 64 * 4096
#: 100 hot keys spanning ~50 blocks — comfortably inside the cache.
HOT = [key_of(i) for i in range(0, 200, 2)]
#: Update churn over a range overlapping the hot set, so compactions
#: rewrite the hot files without touching most of the key space.
CHURN_SPAN = 400
CHURN = scaled(800)


def build_block_engine(mode: str):
    opts = fresh_options()
    tree = seed_database(NUM_KEYS, opts, seed=7)
    cache = BlockCache(CACHE, BLOCK_SIZE, tree.disk.read_block)
    engine = KVEngine(tree, block_cache=cache)
    if mode == "prefetch":
        CompactionPrefetcher.attach(tree, cache)
    elif mode == "purge":
        tree.add_compaction_listener(
            lambda event: [cache.purge_sst(sst) for sst in event.input_sst_ids]
        )
    return engine


def hot_misses_after_churn(engine) -> int:
    for _ in range(3):
        for key in HOT:
            engine.get(key)
    for i in range(CHURN):
        engine.put(key_of(i % CHURN_SPAN), value_of(i % CHURN_SPAN, 1))
    before = engine.tree.disk.block_reads_total
    for key in HOT:
        engine.get(key)
    return engine.tree.disk.block_reads_total - before


def run_experiment():
    results = {}
    for mode in ("plain", "purge", "prefetch"):
        results[f"block/{mode}"] = hot_misses_after_churn(build_block_engine(mode))
    # The structural alternative: a result cache, immune by design.
    opts = fresh_options()
    tree = seed_database(NUM_KEYS, opts, seed=7)
    engine = KVEngine(tree, range_cache=RangeCache(CACHE, entry_charge=1024))
    results["range cache"] = hot_misses_after_churn(engine)
    return results


def test_abl_prefetch_purge(run_once):
    results = run_once(run_experiment)
    print_banner("Ablation — surviving compaction invalidation (hot re-read misses)")
    print(
        format_table(
            ["configuration", "disk reads re-fetching hot set"],
            [[name, str(v)] for name, v in results.items()],
        )
    )
    # Prefetching recovers a large share of the invalidated hot set.
    assert results["block/prefetch"] < results["block/plain"]
    # The result cache needs no countermeasure at all.
    assert results["range cache"] == 0
    # Purging helps at most marginally (it frees budget but cannot
    # restore the lost blocks) — it must not *hurt* materially.
    assert results["block/purge"] <= results["block/plain"] * 1.25
