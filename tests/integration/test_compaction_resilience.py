"""The paper's central contrast: block caches suffer compaction
invalidation; result caches do not."""

from __future__ import annotations

from repro.bench.strategies import build_engine
from repro.lsm.options import LSMOptions
from repro.lsm.tree import LSMTree
from repro.workloads.keys import key_of, value_of
from tests.reference_model import ReferenceModel

OPTS = LSMOptions(memtable_entries=32, entries_per_sstable=64)


def seeded_tree(num_keys=2000):
    tree = LSMTree(OPTS)
    tree.bulk_load((key_of(i), value_of(i)) for i in range(num_keys))
    return tree


def warm_then_compact_then_measure(strategy: str):
    """Warm a cache on hot keys, churn writes to force compactions,
    then measure disk reads re-fetching the same hot keys."""
    tree = seeded_tree()
    engine = build_engine(strategy, tree, cache_bytes=512 * 1024, seed=1)
    hot = [key_of(i) for i in range(0, 400, 4)]
    for _ in range(3):
        for key in hot:
            engine.get(key)
    compactions_before = tree.compactor.compactions_total
    # Write churn on a disjoint key range: invalidates physical layout
    # without touching the hot keys' logical values.
    for i in range(1200):
        engine.put(key_of(1000 + i % 800), value_of(1000 + i % 800, 1))
    assert tree.compactor.compactions_total > compactions_before
    reads_before = tree.sst_reads_total
    for key in hot:
        engine.get(key)
    return tree.sst_reads_total - reads_before


class TestCompactionResilience:
    def test_range_cache_survives_compaction(self):
        misses_range = warm_then_compact_then_measure("range")
        assert misses_range == 0  # logical entries untouched by compaction

    def test_block_cache_loses_entries_to_compaction(self):
        misses_block = warm_then_compact_then_measure("block")
        misses_range = warm_then_compact_then_measure("range")
        assert misses_block > misses_range

    def test_kv_cache_also_resilient(self):
        assert warm_then_compact_then_measure("kv") == 0


class TestCorrectnessAcrossCompaction:
    def test_cached_reads_stay_fresh_through_update_churn(self):
        """Values read through any strategy match ground truth even as
        compaction rewrites files and caches serve hits."""
        ground_truth = ReferenceModel.seeded(2000)
        tree = seeded_tree()
        engine = build_engine("adcache", tree, cache_bytes=256 * 1024, seed=1)
        from random import Random

        rng = Random(9)
        for step in range(3000):
            i = rng.randrange(2000)
            key = key_of(i)
            action = rng.random()
            if action < 0.4:
                value = value_of(i, step)
                engine.put(key, value)
                ground_truth.put(key, value)
            elif action < 0.8:
                assert engine.get(key) == ground_truth.get(key), (step, key)
            else:
                start = key_of(min(i, 2000 - 8))
                assert engine.scan(start, 8) == ground_truth.scan(start, 8), (
                    step,
                    start,
                )
