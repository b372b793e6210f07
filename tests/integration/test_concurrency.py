"""Multi-client support: the caches under concurrent read traffic."""

from __future__ import annotations

import sys
import threading

from repro.bench.harness import seed_database
from repro.bench.strategies import build_engine
from repro.cache.block_cache import BlockCache
from repro.core.adcache import AdCacheEngine
from repro.core.config import AdCacheConfig
from repro.core.engine import KVEngine
from repro.lsm.options import BLOCK_SIZE, LSMOptions
from repro.workloads.keys import key_of, value_of
from repro.workloads.zipfian import ZipfianGenerator

OPTS = LSMOptions(memtable_entries=32, entries_per_sstable=64)
NUM_KEYS = 2000


def run_clients(engine, num_clients, ops_per_client):
    errors = []

    def client(client_id):
        gen = ZipfianGenerator(NUM_KEYS, 0.9, seed=client_id)
        try:
            for idx in gen.sample(ops_per_client):
                i = int(idx)
                if i % 5 == 0:
                    start = min(i, NUM_KEYS - 8)
                    result = engine.scan(key_of(start), 8)
                    expected_first = key_of(start)
                    if result and result[0][0] != expected_first:
                        errors.append((client_id, "scan", i))
                else:
                    value = engine.get(key_of(i))
                    if value != value_of(i):
                        errors.append((client_id, "get", i))
        except Exception as exc:  # noqa: BLE001 - surfaced to the test
            errors.append((client_id, "exception", repr(exc)))

    threads = [threading.Thread(target=client, args=(c,)) for c in range(num_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


class TestShardedConcurrency:
    def test_block_cache_concurrent_reads_with_resize(self):
        """Four readers and a thread moving the budget between two sizes
        share the block cache's one lock without a wrong read."""
        tree = seed_database(NUM_KEYS, OPTS)
        cache = BlockCache(256 * 1024, BLOCK_SIZE, tree.disk.read_block)
        engine = KVEngine(tree, block_cache=cache)
        stop = threading.Event()
        resize_errors = []

        def resizer():
            try:
                while not stop.is_set():
                    cache.resize(16 * BLOCK_SIZE)
                    cache.resize(256 * 1024)
            except Exception as exc:  # noqa: BLE001 - surfaced to the test
                resize_errors.append(repr(exc))

        thread = threading.Thread(target=resizer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            thread.start()
            errors = run_clients(engine, num_clients=4, ops_per_client=300)
        finally:
            stop.set()
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert errors == [] and resize_errors == []
        assert cache.stats.evictions > 0  # the resizes bit while reads ran
        assert cache.used_bytes <= cache.budget_bytes
        cache.check_invariants()

    def test_adcache_concurrent_reads_with_training(self):
        """Background control must not corrupt results under 4 clients."""
        tree = seed_database(NUM_KEYS, OPTS)
        engine = AdCacheEngine(
            tree, AdCacheConfig(total_cache_bytes=256 * 1024, seed=1)
        )
        engine.window_size = 200  # force frequent controller activity
        errors = run_clients(engine, num_clients=4, ops_per_client=300)
        assert errors == []
        assert len(engine.controller.history) > 0
        total = engine.config.total_cache_bytes
        assert (
            engine.block_cache.budget_bytes + engine.range_cache.budget_bytes
            == total
        )

    def test_window_sealed_exactly_once_across_threads(self):
        tree = seed_database(NUM_KEYS, OPTS)
        engine = build_engine("block", tree, cache_bytes=128 * 1024, seed=1)
        engine.window_size = 100
        sealed = []
        engine.on_window = sealed.append
        errors = run_clients(engine, num_clients=4, ops_per_client=250)
        assert errors == []
        # 1000 ops / 100 per window: every sealed window has <= a small
        # overshoot from racy op counting, and none are lost.
        assert 8 <= len(sealed) <= 12
