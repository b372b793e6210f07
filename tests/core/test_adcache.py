"""AdCacheEngine: the full wired system."""

from __future__ import annotations

import pytest

from repro.core.adcache import ACTION_DIM, AdCacheEngine
from repro.core.config import AdCacheConfig
from repro.lsm.options import ENTRY_CHARGE, KEY_SIZE, VALUE_SIZE, LSMOptions
from repro.lsm.tree import LSMTree
from repro.rl.actor_critic import ActorCriticAgent
from repro.rl.features import STATE_DIM
from repro.workloads.generator import WorkloadGenerator, balanced_workload
from repro.workloads.keys import key_of, value_of


def small_config(**kw):
    defaults = dict(
        total_cache_bytes=1 << 20, window_size=100, hidden_dim=32, seed=1
    )
    defaults.update(kw)
    return AdCacheConfig(**defaults)


def seeded_engine(num_keys=2000, **config_kw):
    opts = LSMOptions(memtable_entries=32, entries_per_sstable=64)
    tree = LSMTree(opts)
    tree.bulk_load((key_of(i), value_of(i)) for i in range(num_keys))
    return AdCacheEngine(tree, config=small_config(**config_kw))


class TestConstruction:
    def test_initial_budget_split(self):
        engine = seeded_engine(initial_range_ratio=0.25)
        total = engine.config.total_cache_bytes
        assert engine.range_cache.budget_bytes == total // 4
        assert engine.block_cache.budget_bytes == total - total // 4

    def test_components_wired(self):
        engine = seeded_engine()
        assert engine.block_cache is not None
        assert engine.range_cache is not None
        assert engine.freq_admission is not None
        assert engine.scan_admission is not None
        assert engine.on_window == engine.controller.on_window

    def test_admission_disabled_strips_components(self):
        engine = seeded_engine(enable_admission=False)
        assert engine.freq_admission is None
        assert engine.scan_admission is None

    def test_custom_agent_accepted(self):
        opts = LSMOptions(memtable_entries=32, entries_per_sstable=64)
        tree = LSMTree(opts)
        tree.bulk_load((key_of(i), value_of(i)) for i in range(100))
        agent = ActorCriticAgent(STATE_DIM, ACTION_DIM, hidden_dim=16, seed=7)
        engine = AdCacheEngine(tree, config=small_config(), agent=agent)
        assert engine.agent is agent

    def test_entry_charge_matches_options(self):
        engine = seeded_engine()
        assert ENTRY_CHARGE == KEY_SIZE + VALUE_SIZE == 24 + 1000
        assert engine.range_cache.charge == ENTRY_CHARGE


class TestOperation:
    def test_serves_workload_correctly(self):
        engine = seeded_engine()
        for i in range(0, 2000, 101):
            assert engine.get(key_of(i)) == value_of(i)
        result = engine.scan(key_of(500), 8)
        assert result == [(key_of(500 + j), value_of(500 + j)) for j in range(8)]

    def test_controller_runs_at_window_boundaries(self):
        engine = seeded_engine()
        gen = WorkloadGenerator(balanced_workload(2000), seed=2)
        for op in gen.ops(450):
            from repro.bench.harness import apply_operation
            apply_operation(engine, op)
        assert len(engine.controller.history) == 4  # 450 ops / 100 window

    def test_budget_conserved_while_running(self):
        engine = seeded_engine()
        gen = WorkloadGenerator(balanced_workload(2000), seed=3)
        from repro.bench.harness import apply_operation
        for op in gen.ops(500):
            apply_operation(engine, op)
        total = engine.config.total_cache_bytes
        assert (
            engine.block_cache.budget_bytes + engine.range_cache.budget_bytes == total
        )
        assert engine.block_cache.used_bytes <= engine.block_cache.budget_bytes
        assert engine.range_cache.used_bytes <= engine.range_cache.budget_bytes

    def test_correctness_under_adaptation(self):
        """Reads stay correct while the controller reshapes the caches."""
        engine = seeded_engine()
        from repro.bench.harness import apply_operation
        gen = WorkloadGenerator(balanced_workload(2000), seed=4)
        for op in gen.ops(700):
            apply_operation(engine, op)
        engine.put(key_of(42), "sentinel")
        assert engine.get(key_of(42)) == "sentinel"
        scan = engine.scan(key_of(41), 3)
        assert (key_of(42), "sentinel") in scan
