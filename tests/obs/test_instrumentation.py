"""End-to-end instrumentation: a recorded run exports coherent
artifacts and recording never perturbs the simulation itself."""

from __future__ import annotations

from repro.bench.harness import apply_operation
from repro.bench.strategies import build_engine
from repro.core.adcache import AdCacheEngine
from repro.core.config import AdCacheConfig
from repro.lsm.options import LSMOptions
from repro.lsm.tree import LSMTree
from repro.obs import names as N
from repro.obs.recorder import ObsRecorder
from repro.obs.report import render_report
from repro.obs.schema import validate_export
from repro.serve.simulator import ServeConfig, run_serve
from repro.workloads.generator import WorkloadGenerator, balanced_workload
from repro.workloads.keys import key_of, value_of


def small_engine(seed=1, num_keys=1500):
    opts = LSMOptions(memtable_entries=32, entries_per_sstable=64)
    tree = LSMTree(opts)
    tree.bulk_load((key_of(i), value_of(i)) for i in range(num_keys))
    config = AdCacheConfig(
        total_cache_bytes=1 << 20, window_size=100, hidden_dim=32, seed=seed
    )
    return AdCacheEngine(tree, config=config)


def drive(engine, ops=650, seed=2, num_keys=1500):
    gen = WorkloadGenerator(balanced_workload(num_keys), seed=seed)
    for op in gen.ops(ops):
        apply_operation(engine, op)


class TestEngineInstrumentation:
    def test_window_counters_match_engine_accounting(self):
        engine = small_engine()
        recorder = ObsRecorder()
        engine.attach_recorder(recorder)
        drive(engine, ops=650)
        engine.flush_window()  # seal the trailing partial window
        metrics = recorder.metrics
        assert metrics.counter_total(N.WINDOW_OPS) == 650
        lifetime = engine.collector.lifetime
        assert metrics.counter_total(N.WINDOW_IO_MISS) == lifetime.io_miss
        assert metrics.counter_total(N.WINDOW_POINTS) == lifetime.points
        assert metrics.counter_total(N.WINDOW_SCANS) == lifetime.scans
        assert metrics.counter_total(N.LSM_FLUSHES) == engine.tree.flushes_total
        # 6 full windows + the flushed partial one.
        assert len(metrics.windows) == 7
        assert metrics.counter_total(N.CTRL_DECISIONS) == 7

    def test_kv_hits_are_exported_only_with_a_kv_cache(self):
        tree = LSMTree(LSMOptions(memtable_entries=32, entries_per_sstable=64))
        tree.bulk_load((key_of(i), value_of(i)) for i in range(1500))
        engine = build_engine("kv", tree, 1 << 20, seed=1)
        engine.window_size = 100
        recorder = ObsRecorder()
        engine.attach_recorder(recorder)
        drive(engine, ops=650)
        engine.flush_window()
        lifetime = engine.collector.lifetime
        assert lifetime.kv_hits > 0
        assert recorder.metrics.counter_total(N.KV_HITS) == lifetime.kv_hits
        # No KV cache, no counter: an AdCache export stays as it was.
        other = small_engine()
        other_recorder = ObsRecorder()
        other.attach_recorder(other_recorder)
        drive(other, ops=650)
        other.flush_window()
        assert N.KV_HITS not in other_recorder.metrics.totals_dict()["counters"]

    def test_recording_does_not_perturb_the_run(self):
        plain = small_engine()
        observed = small_engine()
        observed.attach_recorder(ObsRecorder())
        drive(plain)
        drive(observed)
        assert plain.collector.lifetime.to_dict() == observed.collector.lifetime.to_dict()
        assert plain.controller.range_ratio == observed.controller.range_ratio
        assert (
            plain.block_cache.stats.hits
            == observed.block_cache.stats.hits
        )
        assert plain.tree.flushes_total == observed.tree.flushes_total

    def test_export_validates_and_report_renders(self, tmp_path):
        engine = small_engine()
        recorder = ObsRecorder()
        engine.attach_recorder(recorder)
        drive(engine)
        engine.flush_window()
        recorder.export(str(tmp_path))
        assert validate_export(str(tmp_path)) == []
        report = render_report(str(tmp_path))
        for section in ("trajectory", "counter", "event", "decision"):
            assert section in report


class TestServeInstrumentation:
    CONFIG = dict(
        total_ops=2500, num_clients=4, num_shards=2, seed=3,
        num_keys=1500, window_size=250,
    )

    def test_fingerprint_identical_with_obs_enabled(self):
        base = run_serve(ServeConfig(**self.CONFIG))
        observed = run_serve(ServeConfig(obs=True, **self.CONFIG))
        assert base.fingerprint() == observed.fingerprint()
        assert len(observed.obs_recorders) == 2
        assert observed.obs_fleet_windows  # the reduction ran

    def test_fleet_export_validates_per_shard_and_fleet(self, tmp_path):
        result = run_serve(ServeConfig(obs=True, **self.CONFIG))
        result.export_obs(str(tmp_path))
        assert validate_export(str(tmp_path)) == []
        for shard in ("shard0", "shard1"):
            assert validate_export(str(tmp_path / shard)) == []
        # Fleet window ops equal the sum of per-shard sealed windows.
        fleet_ops = sum(
            w.counters.get(N.WINDOW_OPS, 0) for w in result.obs_fleet_windows
        )
        shard_ops = sum(
            r.metrics.counter_total(N.WINDOW_OPS) for r in result.obs_recorders
        )
        assert fleet_ops == shard_ops
