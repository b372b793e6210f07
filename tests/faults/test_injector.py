"""FaultInjector: configuration, determinism, and bookkeeping."""

from __future__ import annotations

import pytest

from repro.core.stats import WindowStats
from repro.errors import ConfigError, TransientIOError
from repro.faults.injector import FaultConfig, FaultInjector
from repro.lsm.block import BlockHandle
from repro.lsm.sstable import SSTable


def _table(sst_id: int = 1, n: int = 8) -> SSTable:
    keys = [f"k{i:04d}" for i in range(n)]
    return SSTable.build(sst_id, keys, [f"v{i}" for i in range(n)], 4, 0)


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ConfigError):
            FaultConfig(transient_read_rate=1.5)
        with pytest.raises(ConfigError):
            FaultConfig(corruption_rate=-0.1)
        with pytest.raises(ConfigError):
            FaultConfig(torn_wal_rate=2.0)

    def test_zero_rates_inject_nothing(self):
        injector = FaultInjector(FaultConfig())
        table = _table()
        for i in range(100):
            injector.before_block_read(BlockHandle(1, i % 2), table)
            assert not injector.on_wal_append()
        assert injector.stats.total_injected == 0
        assert injector.stats.reads_seen == 100
        assert injector.stats.wal_appends_seen == 100


class TestDeterminism:
    def _schedule(self, seed: int, n: int = 400):
        injector = FaultInjector(
            FaultConfig(transient_read_rate=0.1, corruption_rate=0.05, seed=seed)
        )
        table = _table()
        outcomes = []
        for i in range(n):
            handle = BlockHandle(1, i % table.num_blocks)
            try:
                injector.before_block_read(handle, table)
                outcomes.append("ok")
            except TransientIOError:
                outcomes.append("transient")
            # Repair so corruption decisions aren't masked by the
            # already-corrupt check diverging across runs.
            table.repair_block(handle.block_no)
        return outcomes, injector.stats

    def test_same_seed_same_schedule(self):
        a, stats_a = self._schedule(seed=42)
        b, stats_b = self._schedule(seed=42)
        assert a == b
        assert stats_a == stats_b

    def test_different_seed_different_schedule(self):
        a, _ = self._schedule(seed=1)
        b, _ = self._schedule(seed=2)
        assert a != b


class TestInjection:
    def test_transient_rate_roughly_honored(self):
        injector = FaultInjector(FaultConfig(transient_read_rate=0.2, seed=3))
        table = _table()
        n = 2000
        for i in range(n):
            try:
                injector.before_block_read(BlockHandle(1, 0), table)
            except TransientIOError:
                pass
        rate = injector.stats.transient_injected / n
        assert 0.12 < rate < 0.28

    def test_corruption_marks_block_once(self):
        injector = FaultInjector(FaultConfig(corruption_rate=1.0, seed=0))
        table = _table()
        injector.before_block_read(BlockHandle(1, 0), table)
        injector.before_block_read(BlockHandle(1, 0), table)
        assert table.is_block_corrupt(0)
        # Second read of an already-corrupt block injects nothing new.
        assert injector.stats.corruptions_injected == 1

    def test_torn_appends_counted(self):
        injector = FaultInjector(FaultConfig(torn_wal_rate=1.0, seed=0))
        assert injector.on_wal_append()
        assert injector.stats.torn_injected == 1


class TestBlackout:
    def test_windows_in_span_poisoned(self):
        injector = FaultInjector(FaultConfig(blackout_start=5))
        healthy = WindowStats(window_index=4, ops=10, points=10)
        assert injector.maybe_blackout(healthy).is_healthy()
        for idx in (5, 6, 7):
            poisoned = injector.maybe_blackout(
                WindowStats(window_index=idx, ops=10, points=10)
            )
            assert not poisoned.is_healthy()
        after = injector.maybe_blackout(WindowStats(window_index=8, ops=10, points=10))
        assert after.is_healthy()
        assert injector.stats.blackouts_injected == 3
