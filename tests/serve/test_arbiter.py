"""Budget arbiter: marginal-utility splits, floors, and invariants."""

from __future__ import annotations

import pytest

from repro.bench.harness import seed_database
from repro.bench.strategies import build_engine
from repro.errors import ConfigError, InvariantError
from repro.lsm.options import LSMOptions
from repro.sanitize import Sanitizer
from repro.serve import arbiter as arbiter_module
from repro.serve.arbiter import BudgetArbiter
from repro.workloads.generator import WorkloadGenerator, point_lookup_workload
from repro.workloads.keys import key_of

NUM_KEYS = 800
BUDGET = 256 * 1024


def _engine(seed=0):
    options = LSMOptions(memtable_entries=32, entries_per_sstable=64)
    tree = seed_database(NUM_KEYS, options, seed=7)
    engine = build_engine("block", tree, BUDGET // 2, seed=seed)
    engine.window_size = 200
    return engine


def _drive(engine, ops, seed=3):
    generator = WorkloadGenerator(point_lookup_workload(NUM_KEYS), seed=seed)
    for op in generator.ops(ops):
        engine.get(op.key)
    engine.flush_window()


class TestConstruction:
    def test_validation(self):
        engines = [_engine(0), _engine(1)]
        with pytest.raises(ConfigError):
            BudgetArbiter([], BUDGET)
        with pytest.raises(ConfigError):
            BudgetArbiter(engines, -1)
        with pytest.raises(ConfigError, match="min share"):
            BudgetArbiter(engines * 11, BUDGET)

    def test_initial_split_is_even_and_exact(self):
        engines = [_engine(i) for i in range(3)]
        arbiter = BudgetArbiter(engines, BUDGET)
        assert arbiter.shares == [pytest.approx(1 / 3)] * 3
        assert sum(e.cache_budget_total for e in engines) == BUDGET
        arbiter.check_invariants()


class TestRebalancing:
    def test_budget_follows_miss_traffic(self):
        busy, idle = _engine(0), _engine(1)
        arbiter = BudgetArbiter([busy, idle], BUDGET)
        _drive(busy, 2_000)  # only the first shard pays disk reads
        assert busy.collector.lifetime.io_miss > 0
        evicted = arbiter.rebalance(now_us=1.0)
        assert arbiter.shares[0] > arbiter.shares[1]
        assert busy.cache_budget_total > idle.cache_budget_total
        assert sum(e.cache_budget_total for e in [busy, idle]) == BUDGET
        assert evicted >= 0
        arbiter.check_invariants()

    def test_max_step_rate_limits_movement(self, monkeypatch):
        monkeypatch.setattr(arbiter_module, "MAX_STEP", 0.1)
        busy, idle = _engine(0), _engine(1)
        arbiter = BudgetArbiter([busy, idle], BUDGET)
        _drive(busy, 2_000)
        arbiter.rebalance()
        # One round can move a share by at most max_step before the floor
        # renormalisation.
        assert arbiter.shares[0] <= 0.5 + 0.1 + 1e-9

    def test_min_share_floor_protects_idle_shards(self, monkeypatch):
        monkeypatch.setattr(arbiter_module, "MIN_SHARE", 0.2)
        monkeypatch.setattr(arbiter_module, "MAX_STEP", 1.0)
        busy, idle = _engine(0), _engine(1)
        arbiter = BudgetArbiter([busy, idle], BUDGET)
        for _ in range(6):
            _drive(busy, 600, seed=busy.tree.gets_total + 11)
            arbiter.rebalance()
        assert arbiter.shares[1] >= 0.2 - 1e-9
        assert idle.cache_budget_total >= int(0.19 * BUDGET)

    def test_history_and_counters(self):
        engines = [_engine(0), _engine(1)]
        arbiter = BudgetArbiter(engines, BUDGET)
        _drive(engines[0], 800)
        arbiter.rebalance(now_us=123.0)
        arbiter.rebalance(now_us=456.0)
        assert arbiter.rebalances == 2
        assert [t for t, _ in arbiter.history] == [123.0, 456.0]
        for _, shares in arbiter.history:
            assert sum(shares) == pytest.approx(1.0)


class TestInvariants:
    def test_budget_leak_detected(self):
        engines = [_engine(0), _engine(1)]
        arbiter = BudgetArbiter(engines, BUDGET)
        engines[0].set_cache_budget(1024)  # out-of-band shrink: leak
        with pytest.raises(InvariantError):
            arbiter.check_invariants()

    def test_corrupted_shares_detected(self):
        engines = [_engine(0)]
        arbiter = BudgetArbiter(engines, BUDGET)
        arbiter.shares = [0.5]
        with pytest.raises(InvariantError):
            arbiter.check_invariants()

    def test_sampled_sanitizer_hook(self):
        engines = [_engine(0), _engine(1)]
        arbiter = BudgetArbiter(engines, BUDGET)
        arbiter._sanitizer = Sanitizer(1, 0)
        _drive(engines[0], 400)
        arbiter.rebalance()
        assert arbiter._sanitizer.checks_run >= 1
