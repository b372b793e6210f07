"""Controller replay buffer, warmup gating, rate-limited boundary, and
bit-for-bit offline replay of the obs decision-audit log."""

from __future__ import annotations

import pytest

from repro.cache.admission import FrequencyAdmission, PartialScanAdmission
from repro.cache.block_cache import BlockCache
from repro.cache.range_cache import RangeCache
from repro.cache.sketch import CountMinSketch
from repro.core.config import AdCacheConfig
from repro.core.controller import (
    ACTOR_WARMUP_WINDOWS,
    MAX_RATIO_STEP,
    REPLAY_CAPACITY,
    UPDATES_PER_WINDOW,
    PolicyDecisionController,
)
from repro.core.stats import WindowStats
from repro.lsm.storage import SimulatedDisk
from repro.rl.actor_critic import ActorCriticAgent
from repro.rl.features import STATE_DIM


def controller_with():
    config = AdCacheConfig(total_cache_bytes=1 << 20, hidden_dim=16)
    agent = ActorCriticAgent(STATE_DIM, 4, hidden_dim=16, seed=1)
    disk = SimulatedDisk()
    block = BlockCache(config.total_cache_bytes // 2, 4096, disk.read_block)
    range_ = RangeCache(config.total_cache_bytes // 2, entry_charge=1024)
    return PolicyDecisionController(
        config,
        agent,
        block,
        range_,
        FrequencyAdmission(CountMinSketch(width=64, depth=2, seed=1)),
        PartialScanAdmission(),
        entries_per_block=4,
        level0_max_runs=8,
    )


def window(index, io_miss=1000):
    return WindowStats(
        window_index=index, ops=1000, points=700, scans=200, writes=100,
        scan_length_sum=200 * 16, io_miss=io_miss, num_levels=4, level0_runs=2,
    )


class TestReplayBuffer:
    def test_buffer_bounded_by_capacity(self):
        controller = controller_with()
        for i in range(REPLAY_CAPACITY + 5):
            controller.on_window(window(i))
        assert len(controller._replay) == REPLAY_CAPACITY

    def test_updates_per_window_honored(self):
        controller = controller_with()
        controller.on_window(window(0))
        controller.on_window(window(1))
        assert controller.agent.updates_total == UPDATES_PER_WINDOW
        controller.on_window(window(2))
        assert controller.agent.updates_total == 2 * UPDATES_PER_WINDOW


class TestActorWarmup:
    def test_actor_frozen_during_warmup(self):
        controller = controller_with()
        agent = controller.agent
        state_probe = controller._featurize(window(0), 0.5)
        mean_before = agent.action_mean(state_probe).copy()
        for i in range(ACTOR_WARMUP_WINDOWS):  # every window inside warmup
            controller.on_window(window(i))
        assert agent.updates_total > 0  # the critic trained meanwhile
        mean_after = agent.action_mean(state_probe)
        import numpy as np

        assert np.allclose(mean_before, mean_after, atol=1e-5)

    def test_actor_moves_after_warmup(self):
        controller = controller_with()
        agent = controller.agent
        state_probe = controller._featurize(window(0), 0.5)
        mean_before = agent.action_mean(state_probe).copy()
        for i in range(ACTOR_WARMUP_WINDOWS + 4):
            controller.on_window(window(i, io_miss=500 + 100 * (i % 4)))
        import numpy as np

        assert not np.allclose(mean_before, agent.action_mean(state_probe), atol=1e-6)


class TestAuditReplay:
    """The exported audit log reproduces the live action stream exactly."""

    def _recorded_run(self, tmp_path, **config_kw):
        from repro.bench.harness import apply_operation
        from repro.core.adcache import AdCacheEngine
        from repro.lsm.options import LSMOptions
        from repro.lsm.tree import LSMTree
        from repro.obs.recorder import ObsRecorder
        from repro.workloads.generator import WorkloadGenerator, balanced_workload
        from repro.workloads.keys import key_of, value_of

        opts = LSMOptions(memtable_entries=32, entries_per_sstable=64)
        tree = LSMTree(opts)
        tree.bulk_load((key_of(i), value_of(i)) for i in range(1500))
        config = AdCacheConfig(
            total_cache_bytes=1 << 20, window_size=100, hidden_dim=32,
            seed=1, **config_kw,
        )
        engine = AdCacheEngine(tree, config=config)
        recorder = ObsRecorder()
        engine.attach_recorder(recorder)
        gen = WorkloadGenerator(balanced_workload(1500), seed=2)
        for op in gen.ops(800):
            apply_operation(engine, op)
        engine.flush_window()
        paths = recorder.export(str(tmp_path))
        return engine, paths["audit"]

    def test_replay_reproduces_actions_bit_for_bit(self, tmp_path):
        from repro.obs.audit import load_audit_log, verify_replay

        engine, audit_path = self._recorded_run(tmp_path)
        header, records = load_audit_log(audit_path)
        assert len(records) == len(engine.controller.history)
        assert verify_replay(header, records) == []

    def test_replay_matches_live_applied_parameters(self, tmp_path):
        from repro.obs.audit import load_audit_log, replay_decision_log

        engine, audit_path = self._recorded_run(tmp_path)
        header, records = load_audit_log(audit_path)
        replayed = replay_decision_log(header, records)
        # The final replayed split equals the live controller's.
        assert replayed[-1].range_ratio == engine.controller.range_ratio

    def test_tampered_log_fails_verification(self, tmp_path):
        from repro.obs.audit import load_audit_log, verify_replay

        _, audit_path = self._recorded_run(tmp_path)
        header, records = load_audit_log(audit_path)
        records[1]["window"]["io_miss"] = records[1]["window"]["io_miss"] + 500
        problems = verify_replay(header, records)
        assert problems  # divergence is reported, not silently absorbed

    def test_externally_supplied_agent_refuses_replay(self, tmp_path):
        import pytest as _pytest

        from repro.errors import ObsError
        from repro.obs.audit import build_replay_controller

        with _pytest.raises(ObsError, match="agent_init"):
            build_replay_controller({
                "config": {}, "agent_init": None,
                "entries_per_block": 4, "level0_max_runs": 8,
            })


class TestRateLimitedBoundary:
    def test_ratio_moves_at_most_step_per_window(self):
        controller = controller_with()
        prev = controller.range_ratio
        for i in range(10):
            controller.on_window(window(i))
            assert abs(controller.range_ratio - prev) <= MAX_RATIO_STEP + 1e-9
            prev = controller.range_ratio

    def test_learned_action_is_the_applied_one(self):
        controller = controller_with()
        controller.on_window(window(0))
        controller.on_window(window(1))
        # The stored previous action's ratio equals the applied ratio.
        assert controller._prev_action is not None
        assert controller._prev_action[0] == pytest.approx(
            controller.range_ratio, abs=1e-6
        )
