"""Bounded read retries: the ``LSMOptions`` retry fields, validated and
honoured by the tree."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, TransientIOError
from repro.faults import FaultConfig, FaultInjector
from repro.lsm.options import LSMOptions
from repro.lsm.tree import LSMTree
from repro.workloads.keys import key_of, value_of


class TestValidation:
    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            LSMOptions(max_read_retries=-1)
        for backoff_us in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="finite"):
                LSMOptions(retry_backoff_us=backoff_us)


def _faulted_tree() -> LSMTree:
    tree = LSMTree(LSMOptions(memtable_entries=16))
    for i in range(200):
        tree.put(key_of(i), value_of(i))
    tree.attach_fault_injector(
        FaultInjector(FaultConfig(transient_read_rate=0.1, seed=3))
    )
    return tree


class TestTreeIntegration:
    def test_stalls_follow_policy_schedule(self):
        tree = _faulted_tree()
        for i in range(200):
            tree.get(key_of(i))
        assert tree.read_retries_total > 0
        schedule = {50.0 * 2.0**a for a in range(4)}
        assert set(tree.retry_stalls_us) <= schedule
        assert tree.retry_latency_us_total == pytest.approx(
            sum(tree.retry_stalls_us)
        )

    def test_exhausted_budget_escalates(self):
        tree = LSMTree(LSMOptions(memtable_entries=16, max_read_retries=0))
        for i in range(64):
            tree.put(key_of(i), value_of(i))
        tree.attach_fault_injector(
            FaultInjector(FaultConfig(transient_read_rate=1.0, seed=1))
        )
        with pytest.raises(TransientIOError):
            for i in range(64):
                tree.get(key_of(i))
