"""Ownership guard: engines, trees, caches and fleets free themselves.

Ownership is acyclic: a child never holds its owner, so reference
counting frees an engine (with its tree, caches and controller) or a
whole fleet as soon as its owner drops it.  Each case builds its
objects with the cyclic collector off, runs a few hundred operations,
drops them, and then checks that every weak reference taken to an
engine, its tree and its block cache is dead and that a collection
finds nothing left to free.  An edge from a child back to its owner (a
listener or clock that captures the engine) fails every case it sits in.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc
import weakref
from typing import Callable, List

import pytest

import repro.faults.chaos as chaos
import repro.serve.simulator as simulator
from repro.bench.harness import apply_batch, apply_operation, seed_database
from repro.bench.strategies import STRATEGIES, build_engine
from repro.core.engine import KVEngine
from repro.faults.chaos import run_chaos
from repro.lsm.options import LSMOptions
from repro.obs.recorder import ObsRecorder
from repro.serve import run_serve
from repro.workloads.atlas import AtlasConfig, run_atlas
from repro.workloads.generator import WorkloadGenerator, balanced_workload
from test_determinism import _matrix_config, _write_flood_config

NUM_KEYS = 500
OPS = 300


def _refs_of(engine: KVEngine) -> List[weakref.ref]:
    refs = [weakref.ref(engine), weakref.ref(engine.tree)]
    if engine.block_cache is not None:
        refs.append(weakref.ref(engine.block_cache))
    return refs


def _assert_freed_without_collector(run: Callable[[], List[weakref.ref]]) -> None:
    """``run`` builds, drives and drops its objects, returning weak refs.

    With the collector off, only reference counting can free them.
    """
    gc.collect()
    gc.disable()
    try:
        refs = run()
        assert refs, "the case built nothing to check"
        alive = [ref() for ref in refs if ref() is not None]
        assert not alive, f"kept alive after drop: {alive}"
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture
def built_engines(monkeypatch) -> List[weakref.ref]:
    """Weak refs to every engine (and its tree and block cache) that the
    chaos harness or the serving simulator builds while the test runs."""
    refs: List[weakref.ref] = []

    def recording_build(*args, **kwargs):
        engine = build_engine(*args, **kwargs)
        refs.extend(_refs_of(engine))
        return engine

    monkeypatch.setattr(chaos, "build_engine", recording_build)
    monkeypatch.setattr(simulator, "build_engine", recording_build)
    return refs


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_engine_is_freed_by_reference_counting(strategy):
    """One engine without obs and one with, each driven scalar for the
    first half of its ops and through ``apply_batch`` for the rest."""

    def run() -> List[weakref.ref]:
        refs: List[weakref.ref] = []
        ops = list(WorkloadGenerator(balanced_workload(NUM_KEYS), seed=2).ops(OPS))
        half = OPS // 2
        for obs in (False, True):
            options = LSMOptions(memtable_entries=32, entries_per_sstable=64)
            tree = seed_database(NUM_KEYS, options, seed=7)
            engine = build_engine(strategy, tree, 64 * 1024, seed=1)
            engine.window_size = 100  # cross window boundaries (and obs stamps)
            if obs:
                engine.attach_recorder(ObsRecorder())
            for op in ops[:half]:
                apply_operation(engine, op)
            for i in range(half, OPS, 16):
                apply_batch(engine, ops[i : i + 16])
            assert tree.flushes_total > 0 and len(engine.windows) >= 2
            refs.extend(_refs_of(engine))
        return refs

    _assert_freed_without_collector(run)


def test_chaos_engine_pair_is_freed(built_engines):
    def run() -> List[weakref.ref]:
        report = run_chaos(
            ops=OPS,
            num_keys=NUM_KEYS,
            cache_kb=64,
            crash_every=100,
            blackout_window=1,
            window_size=50,
        )
        assert report.crashes == 3 and report.wrong_reads == 0
        return list(built_engines)

    _assert_freed_without_collector(run)


@pytest.mark.parametrize("l2", [0, 1], ids=["flat", "l2"])
@pytest.mark.parametrize("resilient", [0, 1], ids=["plain", "resilient"])
def test_fleet_is_freed(built_engines, resilient, l2):
    def run() -> List[weakref.ref]:
        config = _matrix_config(8, 0, resilient, l2)
        result = run_serve(dataclasses.replace(config, total_ops=800))
        if resilient:
            assert result.crashes == result.promotions == 1
        return list(built_engines)

    _assert_freed_without_collector(run)


def test_write_flood_fleet_is_freed(built_engines):
    def run() -> List[weakref.ref]:
        result = run_serve(_write_flood_config(phase_ops=40))
        assert result.crashes == result.promotions == 1
        assert result.l2_probes > 0 and result.obs_recorders
        return list(built_engines)

    _assert_freed_without_collector(run)


def test_atlas_cell_is_freed(built_engines):
    def run() -> List[weakref.ref]:
        config = AtlasConfig(
            scenarios=("zipf_drift",),
            strategies=("adcache",),
            phase_ops=100,
            double_run=False,
        )
        assert len(run_atlas(config).cells) == 1
        return list(built_engines)

    _assert_freed_without_collector(run)


def test_back_to_back_fleets_release_their_memory():
    """Three fleets in a row cost what one live fleet holds."""

    def flood() -> None:
        result = run_serve(_write_flood_config(phase_ops=8))
        assert result.crashes == result.promotions == 1

    flood()  # first-use allocations (imports, memo tables) belong to no fleet
    gc.collect()
    tracemalloc.start()
    gc.disable()
    try:
        base = tracemalloc.get_traced_memory()[0]
        flood()
        one_peak = tracemalloc.get_traced_memory()[1] - base
        flood()
        flood()
        left, all_peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        gc.enable()
        tracemalloc.stop()
    assert left < 1 << 20, f"{left} bytes stayed traced after three fleets"
    assert all_peak <= 1.25 * one_peak, (all_peak, one_peak)
