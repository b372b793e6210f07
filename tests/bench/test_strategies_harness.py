"""Strategy factory and harness plumbing."""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    RunResult,
    apply_batch,
    apply_operation,
    estimated_hit_rate,
    run_phases,
    run_workload,
    seed_database,
)
from repro.bench.simclock import ClockReading
from repro.bench.strategies import DISPLAY_NAMES, STRATEGIES, build_engine
from repro.core.adcache import AdCacheEngine
from repro.errors import ConfigError
from repro.lsm.options import LSMOptions
from repro.workloads.dynamic import dynamic_phase_specs
from repro.workloads.generator import (
    WorkloadGenerator,
    batched_mixed_workload,
    point_lookup_workload,
)
from repro.workloads.keys import key_of, value_of
from tests.reference_model import ReferenceModel

OPTS = LSMOptions(memtable_entries=32, entries_per_sstable=64)


class TestStrategies:
    def test_every_strategy_builds_and_serves(self):
        model = ReferenceModel.seeded(300)
        for name in STRATEGIES:
            tree = seed_database(300, OPTS)
            engine = build_engine(name, tree, cache_bytes=64 * 1024, seed=1)
            assert engine.get(key_of(10)) == model.get(key_of(10)), name
            assert engine.scan(key_of(20), 4) == model.scan(key_of(20), 4), name

    def test_display_names_cover_strategies(self):
        assert set(DISPLAY_NAMES) == set(STRATEGIES)

    def test_unknown_strategy_rejected(self):
        tree = seed_database(100, OPTS)
        with pytest.raises(ConfigError):
            build_engine("bogus", tree, cache_bytes=1024)

    def test_block_strategy_has_only_block_cache(self):
        tree = seed_database(100, OPTS)
        engine = build_engine("block", tree, cache_bytes=64 * 1024)
        assert engine.block_cache is not None
        assert engine.range_cache is None and engine.kv_cache is None

    def test_adcache_strategy_fully_wired(self):
        tree = seed_database(100, OPTS)
        engine = build_engine("adcache", tree, cache_bytes=64 * 1024)
        assert isinstance(engine, AdCacheEngine)
        assert engine.freq_admission is not None

    def test_ablation_flags(self):
        tree = seed_database(100, OPTS)
        adm_only = build_engine("adcache-admission", tree, cache_bytes=64 * 1024)
        assert adm_only.config.enable_partitioning is False
        tree2 = seed_database(100, OPTS)
        part_only = build_engine("adcache-partition", tree2, cache_bytes=64 * 1024)
        assert part_only.config.enable_admission is False

    def test_range_variants_carry_their_policy(self):
        """Regression: an *empty* learned policy is falsy (it defines
        __len__), so `policy or LRUPolicy()` silently replaced it.  Plain
        ``range`` is LRU by its value map's order and holds no policy."""
        from repro.cache.cacheus import CacheusPolicy
        from repro.cache.lecar import LeCaRPolicy

        expected = {
            "range": type(None),
            "range-lecar": LeCaRPolicy,
            "range-cacheus": CacheusPolicy,
        }
        for name, policy_type in expected.items():
            tree = seed_database(100, OPTS)
            engine = build_engine(name, tree, cache_bytes=64 * 1024, seed=1)
            assert isinstance(engine.range_cache._policy, policy_type), name

    def test_pretrained_strategy_frozen(self):
        tree = seed_database(100, OPTS)
        engine = build_engine("adcache-pretrained", tree, cache_bytes=64 * 1024)
        assert engine.config.online_learning is False


class TestHarness:
    def test_seed_database(self):
        tree = seed_database(500, OPTS)
        assert tree.get(key_of(250)) == value_of(250)
        assert tree.num_levels >= 2

    def test_run_workload_result_fields(self):
        tree = seed_database(500, OPTS)
        engine = build_engine("block", tree, cache_bytes=32 * 1024, seed=1)
        gen = WorkloadGenerator(point_lookup_workload(500), seed=2)
        result = run_workload(engine, gen, num_ops=300, name="smoke")
        assert result.ops == 300
        assert 0.0 <= result.hit_rate <= 1.0
        assert result.sst_reads >= 0
        assert result.qps > 0
        assert result.io_estimate > 0

    def test_warmup_excluded_from_metrics(self):
        tree = seed_database(500, OPTS)
        engine = build_engine("block", tree, cache_bytes=256 * 1024, seed=1)
        gen = WorkloadGenerator(point_lookup_workload(500), seed=2)
        result = run_workload(engine, gen, num_ops=200, warmup_ops=400, name="w")
        assert result.ops == 200
        # Warm cache: measured hit rate should beat an unwarmed run.
        tree2 = seed_database(500, OPTS)
        engine2 = build_engine("block", tree2, cache_bytes=256 * 1024, seed=1)
        gen2 = WorkloadGenerator(point_lookup_workload(500), seed=2)
        cold = run_workload(engine2, gen2, num_ops=200, name="c")
        assert result.hit_rate >= cold.hit_rate

    def test_workload_as_explicit_op_list(self):
        from repro.workloads.generator import Operation

        tree = seed_database(100, OPTS)
        engine = build_engine("block", tree, cache_bytes=32 * 1024)
        ops = [Operation("get", key_of(i)) for i in range(10)]
        result = run_workload(engine, ops, name="list")
        assert result.ops == 10

    def test_apply_operation_returns_what_the_op_reads(self):
        from repro.workloads.generator import Operation

        tree = seed_database(100, OPTS)
        engine = build_engine("block", tree, cache_bytes=32 * 1024)
        model = ReferenceModel.seeded(100)
        for op in (
            Operation("get", key_of(3)),
            Operation("scan", key_of(5), length=2),
            Operation("put", key_of(3), value="x"),
            Operation("get", key_of(3)),
            Operation("delete", key_of(3)),
            Operation("get", key_of(3)),
        ):
            assert apply_operation(engine, op) == model.apply(op), op
        with pytest.raises(ConfigError, match="unknown operation kind"):
            apply_operation(engine, Operation("merge", key_of(3)))

    def test_generator_requires_num_ops(self):
        tree = seed_database(100, OPTS)
        engine = build_engine("block", tree, cache_bytes=32 * 1024)
        gen = WorkloadGenerator(point_lookup_workload(100), seed=1)
        with pytest.raises(ValueError):
            run_workload(engine, gen)

    def test_batched_run_executes_every_op_and_only_saves_reads(self):
        def run(batch_size):
            tree = seed_database(500, OPTS)
            engine = build_engine("adcache", tree, cache_bytes=32 * 1024, seed=1)
            ops = list(WorkloadGenerator(batched_mixed_workload(500), seed=2).ops(350))
            for op in ops[:50]:
                apply_operation(engine, op)
            before = ClockReading.capture(engine)
            for i in range(50, len(ops), batch_size):
                if batch_size == 1:
                    apply_operation(engine, ops[i])
                else:
                    apply_batch(engine, ops[i : i + batch_size])
            after = ClockReading.capture(engine)
            executed = sum(
                getattr(after, f) - getattr(before, f)
                for f in ("points", "scans", "writes", "deletes")
            )
            return executed, after.disk_reads - before.disk_reads

        (scalar_ops, scalar_reads), (batched_ops, batched_reads) = run(1), run(8)
        assert scalar_ops == batched_ops == 300
        # Coalescing inside a batch may only remove metered reads.
        assert batched_reads <= scalar_reads

    def test_estimated_hit_rate_no_cache_is_zero_ish(self):
        """With no cache at all, measured I/O should match the estimate
        for point lookups (h ~ 0): the formula's accuracy check."""
        from repro.core.engine import KVEngine

        tree = seed_database(2000, OPTS)
        engine = KVEngine(tree)  # no caches
        gen = WorkloadGenerator(point_lookup_workload(2000), seed=3)
        run_workload(engine, gen, num_ops=800, name="nocache")
        h, io_est, io_miss = estimated_hit_rate(engine)
        assert abs(h) < 0.15  # estimate within 15% of reality

    def test_run_phases_carries_state(self):
        tree = seed_database(1000, OPTS)
        engine = build_engine("block", tree, cache_bytes=128 * 1024, seed=1)
        phases = dynamic_phase_specs(1000, phases="CD")
        results = run_phases(engine, phases, ops_per_phase=300, seed=4)
        assert [r.name for r in results] == ["C", "D"]
        assert all(r.ops == 300 for r in results)
