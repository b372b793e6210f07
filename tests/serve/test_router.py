"""Shard router: partitioning, planning, and scatter-gather vs an oracle."""

from __future__ import annotations

import pytest

from repro.bench.harness import apply_operation, seed_database
from repro.core.engine import KVEngine
from repro.errors import ConfigError
from repro.lsm.options import LSMOptions
from repro.lsm.tree import LSMTree
from repro.serve.router import ShardRouter
from repro.workloads.generator import Operation, WorkloadGenerator, WorkloadSpec
from repro.workloads.keys import key_of, value_of

NUM_KEYS = 600


def _options():
    return LSMOptions(memtable_entries=32, entries_per_sstable=64)


def _build_sharded(router):
    """One plain engine per shard, seeded with that shard's keys."""
    engines = []
    for ids in router.shard_ids():
        tree = LSMTree(_options())
        tree.bulk_load(((key_of(i), value_of(i)) for i in ids), seed=7)
        engines.append(KVEngine(tree))
    return engines


class TestPartitioning:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            ShardRouter(0, 100)
        with pytest.raises(ConfigError):
            ShardRouter(2, 0)
        with pytest.raises(ConfigError):
            ShardRouter(2, 100, partition="round-robin")

    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_shard_ids_partition_the_keyspace(self, partition):
        router = ShardRouter(4, NUM_KEYS, partition)
        ids = router.shard_ids()
        flat = sorted(i for shard in ids for i in shard)
        assert flat == list(range(NUM_KEYS))
        assert all(shard == sorted(shard) for shard in ids)
        if partition == "range":
            # Contiguous slices in shard order.
            assert [shard[0] for shard in ids] == [0, 150, 300, 450]

    def test_shard_of_key_matches_shard_ids(self):
        for partition in ("hash", "range"):
            router = ShardRouter(3, NUM_KEYS, partition)
            for shard, ids in enumerate(router.shard_ids()):
                for key_id in ids[:25]:
                    assert router.shard_of_key(key_of(key_id)) == shard
                    assert router.shard_of_id(key_id) == shard

    def test_range_mode_balance(self):
        router = ShardRouter(4, NUM_KEYS, "range")
        sizes = [len(ids) for ids in router.shard_ids()]
        assert sizes == [150, 150, 150, 150]


class TestPlanning:
    def test_point_ops_route_to_one_shard(self):
        for partition in ("hash", "range"):
            router = ShardRouter(4, NUM_KEYS, partition)
            for kind in ("get", "put", "delete"):
                op = Operation(kind, key_of(123), value="v")
                plan = router.plan(op)
                assert len(plan) == 1
                assert plan[0] == (router.shard_of_key(op.key), op)

    def test_hash_scans_scatter_everywhere(self):
        router = ShardRouter(4, NUM_KEYS, "hash")
        op = Operation("scan", key_of(10), length=16)
        plan = router.plan(op)
        assert [shard for shard, _ in plan] == [0, 1, 2, 3]
        assert all(sub == op for _, sub in plan)

    def test_range_scans_touch_only_overlapping_shards(self):
        router = ShardRouter(4, NUM_KEYS, "range")
        # Fully inside shard 0 ([0, 150)).
        plan = router.plan(Operation("scan", key_of(10), length=16))
        assert [shard for shard, _ in plan] == [0]
        # Straddles the shard 0/1 boundary at 150.
        plan = router.plan(Operation("scan", key_of(145), length=16))
        assert [shard for shard, _ in plan] == [0, 1]
        # The second sub-scan starts at the boundary key, not before it.
        assert plan[1][1].key == key_of(150)

    def test_merge_scan_truncates_and_orders(self):
        router = ShardRouter(2, NUM_KEYS, "hash")
        parts = [
            [(key_of(1), "a"), (key_of(5), "b")],
            [(key_of(2), "c"), (key_of(9), "d")],
        ]
        merged = router.merge_scan(parts, 3)
        assert [k for k, _ in merged] == [key_of(1), key_of(2), key_of(5)]


class TestScatterGatherOracle:
    """Sharded scan results must equal an unsharded engine's scans."""

    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_scans_match_unsharded_oracle(self, partition):
        spec = WorkloadSpec(
            num_keys=NUM_KEYS,
            get_ratio=0.2,
            short_scan_ratio=0.5,
            write_ratio=0.3,
            short_scan_length=24,
            name="oracle-mix",
        )
        router = ShardRouter(3, NUM_KEYS, partition)
        engines = _build_sharded(router)
        oracle = KVEngine(seed_database(NUM_KEYS, _options(), seed=7))
        generator = WorkloadGenerator(spec, seed=42)
        scans_checked = 0
        for op in generator.ops(400):
            if op.kind == "scan":
                parts = [
                    router.execute(engines[shard], sub_op)
                    for shard, sub_op in router.plan(op)
                ]
                merged = router.merge_scan(parts, op.length)
                expected = oracle.scan(op.key, op.length)
                assert merged == expected, f"scan {op.key} x{op.length} diverged"
                scans_checked += 1
            else:
                for shard, sub_op in router.plan(op):
                    router.execute(engines[shard], sub_op)
                apply_operation(oracle, op)
        assert scans_checked > 50  # the mix actually exercised scans

    def test_scan_at_keyspace_tail(self):
        router = ShardRouter(3, NUM_KEYS, "range")
        engines = _build_sharded(router)
        oracle = KVEngine(seed_database(NUM_KEYS, _options(), seed=7))
        op = Operation("scan", key_of(NUM_KEYS - 5), length=16)
        parts = [
            router.execute(engines[shard], sub_op)
            for shard, sub_op in router.plan(op)
        ]
        merged = router.merge_scan(parts, op.length)
        assert merged == oracle.scan(op.key, op.length)
        assert len(merged) == 5  # keyspace exhausted, not padded


class TestHealthAwarePlanning:
    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_empty_unavailable_set_is_the_full_plan(self, partition):
        router = ShardRouter(4, 100, partition)
        op = Operation("scan", key_of(10), length=20)
        live, dropped = router.plan_healthy(op, frozenset())
        assert live == router.plan(op)
        assert dropped == []

    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_point_op_with_dead_owner_fails_fast(self, partition):
        router = ShardRouter(4, 100, partition)
        op = Operation("get", key_of(42))
        owner = router.shard_of_key(op.key)
        live, dropped = router.plan_healthy(op, {owner})
        assert live == []
        assert dropped == [owner]

    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_point_op_with_other_shard_dead_is_unaffected(self, partition):
        router = ShardRouter(4, 100, partition)
        op = Operation("get", key_of(42))
        owner = router.shard_of_key(op.key)
        dead = (owner + 1) % 4
        live, dropped = router.plan_healthy(op, {dead})
        assert live == [(owner, op)]
        assert dropped == []

    def test_hash_scan_drops_exactly_the_dead_shards(self):
        router = ShardRouter(4, 100, "hash")
        op = Operation("scan", key_of(0), length=50)
        live, dropped = router.plan_healthy(op, {1, 3})
        assert [shard for shard, _ in live] == [0, 2]
        assert dropped == [1, 3]

    def test_range_scan_drops_only_overlapping_dead_shards(self):
        router = ShardRouter(4, 100, "range")
        # Keys 10..29 live on shards 0 (0-24) and 1 (25-49).
        op = Operation("scan", key_of(10), length=20)
        full = [shard for shard, _ in router.plan(op)]
        assert full == [0, 1]
        live, dropped = router.plan_healthy(op, {1, 3})
        assert [shard for shard, _ in live] == [0]
        assert dropped == [1]

    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_retargeting_is_deterministic(self, partition):
        """Identical health histories re-target identically (both modes)."""
        router = ShardRouter(4, 200, partition)
        generator = WorkloadGenerator(
            WorkloadSpec(
                num_keys=200, get_ratio=0.5, short_scan_ratio=0.3,
                write_ratio=0.15, delete_ratio=0.05, name="mix",
            ),
            seed=77,
        )
        ops = list(generator.ops(300))
        unavailable = {2}
        first = [router.plan_healthy(op, unavailable) for op in ops]
        second = [router.plan_healthy(op, unavailable) for op in ops]
        assert first == second
        assert all(
            shard != 2 for live, _ in first for shard, _ in live
        )


def _batch_mix(count, seed=21):
    spec = WorkloadSpec(
        num_keys=NUM_KEYS,
        get_ratio=0.5,
        short_scan_ratio=0.25,
        write_ratio=0.2,
        delete_ratio=0.05,
        short_scan_length=16,
        name="batch-mix",
    )
    return list(WorkloadGenerator(spec, seed=seed).ops(count))


class TestBatchSplitting:
    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_split_union_equals_per_op_plans(self, partition):
        """Flattening the per-shard split recovers exactly the per-op plans."""
        router = ShardRouter(3, NUM_KEYS, partition)
        ops = _batch_mix(80)
        split = router.split_batch(ops)
        got = sorted(
            (index, shard, sub.kind, sub.key, sub.length)
            for shard, pairs in split.items()
            for index, sub in pairs
        )
        expected = sorted(
            (index, shard, sub.kind, sub.key, sub.length)
            for index, op in enumerate(ops)
            for shard, sub in router.plan(op)
        )
        assert got == expected

    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_per_shard_sub_batches_preserve_arrival_order(self, partition):
        router = ShardRouter(4, NUM_KEYS, partition)
        split = router.split_batch(_batch_mix(80))
        for pairs in split.values():
            indices = [index for index, _ in pairs]
            assert indices == sorted(indices)

    def test_empty_batch_splits_to_nothing(self):
        assert ShardRouter(3, NUM_KEYS).split_batch([]) == {}


class TestBatchedFleetOracle:
    """split_batch + execute_batch must be equivalent to replaying the
    same batch op-by-op through a scalar fleet: identical scan gathers
    and identical final shard state (per-shard batched runs may save
    metered reads, never change answers)."""

    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_batched_fleet_matches_scalar_replay(self, partition):
        router = ShardRouter(3, NUM_KEYS, partition)
        batched_fleet = _build_sharded(router)
        scalar_fleet = _build_sharded(router)
        ops = _batch_mix(240)
        scans_checked = 0
        for chunk in range(0, len(ops), 12):
            batch = ops[chunk : chunk + 12]
            # Batched fleet: one execute_batch per shard sub-batch.
            parts_by_index = {}
            for shard in sorted(router.split_batch(batch)):
                pairs = router.split_batch(batch)[shard]
                outs = ShardRouter.execute_batch(
                    batched_fleet[shard], [sub for _, sub in pairs]
                )
                for (index, _), entries in zip(pairs, outs):
                    parts_by_index.setdefault(index, {})[shard] = entries
            # Scalar fleet: per-op plan + execute, then compare gathers.
            for index, op in enumerate(batch):
                plan = router.plan(op)
                parts = [
                    router.execute(scalar_fleet[shard], sub)
                    for shard, sub in plan
                ]
                if op.kind != "scan":
                    continue
                expected = router.merge_scan(parts, op.length)
                got = router.merge_scan(
                    [parts_by_index[index][shard] for shard, _ in plan],
                    op.length,
                )
                assert got == expected, f"scan {op.key} diverged"
                scans_checked += 1
        assert scans_checked > 30
        # Final state parity: every probed key agrees shard-by-shard.
        for key_id in range(0, NUM_KEYS, 7):
            key = key_of(key_id)
            shard = router.shard_of_key(key)
            assert batched_fleet[shard].get(key) == scalar_fleet[shard].get(key)
        # Coalescing may only ever save metered reads, never add them.
        assert sum(
            e.tree.disk.block_reads_total for e in batched_fleet
        ) <= sum(e.tree.disk.block_reads_total for e in scalar_fleet)

    def test_batched_run_observes_earlier_writes_in_same_batch(self):
        router = ShardRouter(1, NUM_KEYS)
        engine = _build_sharded(router)[0]
        key = key_of(5)
        ops = [
            Operation("put", key, value="updated"),
            Operation("get", key),
            Operation("scan", key, length=1),
        ]
        outs = ShardRouter.execute_batch(engine, ops)
        assert outs[2] == [(key, "updated")]
        assert engine.get(key) == "updated"
