"""Determinism regression: the same seed reproduces a run exactly.

The whole simulator is built on injected seeded RNGs (``Random`` /
``numpy`` generators) and metered sim time; nothing may read ambient
randomness or the wall clock (lint rule SIM001 enforces the import
side).  This harness runs the full AdCache stack twice with identical
seeds and asserts the runs match operation-for-operation — results,
counters, controller windows, and final cache contents — and that
enabling the sanitizer does not perturb the simulation.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import repro
from repro.bench.harness import apply_operation, seed_database
from repro.bench.strategies import build_engine
from repro.core.engine import KVEngine
from repro.lsm.options import LSMOptions
from repro.workloads.generator import WorkloadGenerator, balanced_workload

NUM_KEYS = 2_000
OPS = 5_000
CACHE_BYTES = 256 * 1024


def _run_once(strategy: str = "adcache", seed: int = 11, ops: int = OPS):
    options = LSMOptions(memtable_entries=32, entries_per_sstable=64)
    tree = seed_database(NUM_KEYS, options, seed=7)
    engine = build_engine(strategy, tree, CACHE_BYTES, seed=seed)
    generator = WorkloadGenerator(balanced_workload(NUM_KEYS), seed=seed + 1)
    results = []
    for op in generator.ops(ops):
        out = apply_operation(engine, op)
        # Scans as tuples: the golden digest hashes this list's repr.
        results.append(tuple(out) if op.kind == "scan" else out)
    return engine, results


def _fingerprint(engine: KVEngine):
    tree = engine.tree
    fp = {
        "tree": (
            tree.gets_total,
            tree.scans_total,
            tree.flushes_total,
            tree.bloom_negative_total,
            tree.bloom_false_positive_total,
            tree.disk.block_reads_total,
            tree.disk.bytes_read_total,
            tree.num_levels,
            tree.num_sorted_runs,
            sorted(tree.disk.live_sst_ids()),
        ),
        "windows": [
            (
                w.ops,
                w.range_point_hits,
                w.range_scan_hits,
                w.block_hits,
                w.block_misses,
                w.io_miss,
                w.range_occupancy,
                w.block_occupancy,
                w.range_ratio,
            )
            for w in engine.windows
        ],
    }
    if engine.block_cache is not None:
        stats = engine.block_cache.stats
        fp["block"] = (
            len(engine.block_cache),
            engine.block_cache.used_bytes,
            engine.block_cache.budget_bytes,
            stats.hits,
            stats.misses,
            stats.evictions,
        )
    if engine.range_cache is not None:
        stats = engine.range_cache.stats
        fp["range"] = (
            engine.range_cache.resident_keys(),
            engine.range_cache.complete_intervals(),
            engine.range_cache.used_bytes,
            engine.range_cache.budget_bytes,
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.rejections,
        )
    return fp


def test_double_run_is_byte_identical():
    engine_a, results_a = _run_once(seed=11)
    engine_b, results_b = _run_once(seed=11)
    assert results_a == results_b
    assert _fingerprint(engine_a) == _fingerprint(engine_b)
    # Sanity: the workload actually exercised the stack.
    assert engine_a.tree.flushes_total > 0
    assert len(engine_a.windows) >= 4


def test_different_seeds_diverge():
    _, results_a = _run_once(seed=11, ops=1_500)
    _, results_b = _run_once(seed=12, ops=1_500)
    assert results_a != results_b


@pytest.mark.parametrize("strategy", ["range-lecar", "range-cacheus"])
def test_learned_policies_are_deterministic_too(strategy):
    engine_a, results_a = _run_once(strategy=strategy, seed=5, ops=2_000)
    engine_b, results_b = _run_once(strategy=strategy, seed=5, ops=2_000)
    assert results_a == results_b
    assert _fingerprint(engine_a) == _fingerprint(engine_b)


# sha256 of a seeded run of each regret-weighted mixture, recorded before
# LeCaR and Cacheus shared one implementation.  The 64 KB cache holds 64
# entries, so ghost hits move the weights and Cacheus' learning rate
# adapts every 64 operations; any change to expert choice, RNG draw order
# or float operation order moves the digest.
GOLDEN_LEARNED_POLICY_DIGESTS = {
    "range-cacheus": (
        "25a7d42181df24198ae6df47e0a6da0bff776749b4c545771389749f69cbcf05"
    ),
    "range-lecar": (
        "0b72fb35d2151c470694e5c83b302d999edb1e6f0432271efa431c311b9f27c0"
    ),
}


@pytest.mark.parametrize("strategy", sorted(GOLDEN_LEARNED_POLICY_DIGESTS))
def test_learned_policy_run_matches_recorded(strategy):
    from repro.bench.harness import run_workload

    tree = seed_database(
        1_000, LSMOptions(memtable_entries=32, entries_per_sstable=64), seed=7
    )
    engine = build_engine(strategy, tree, 64 * 1024, seed=3)
    run = run_workload(
        engine, WorkloadGenerator(balanced_workload(1_000), seed=4), num_ops=3_000
    )
    cache = engine.range_cache
    policy = cache._policy
    # The run must exercise what it pins.
    assert policy.weights != (0.5, 0.5)
    if strategy == "range-cacheus":
        assert policy.learning_rate != 0.45
    payload = repr((
        run.sst_reads,
        run.hit_rate,
        cache.stats.hits,
        cache.stats.misses,
        cache.stats.evictions,
        cache.resident_keys(),
        policy.weights,
        policy._lr,
    ))
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert digest == GOLDEN_LEARNED_POLICY_DIGESTS[strategy]


SERVE_KWARGS = dict(
    num_clients=8,
    num_shards=4,
    total_ops=4_000,
    num_keys=2_000,
    cache_bytes=256 * 1024,
    seed=21,
    keep_trace=True,
)


def _run_serve_once():
    from repro.serve import ServeConfig, run_serve

    return run_serve(ServeConfig(**SERVE_KWARGS))


def test_serve_double_run_is_byte_identical():
    a = _run_serve_once()
    b = _run_serve_once()
    assert a.trace == b.trace
    assert a.fingerprint() == b.fingerprint()
    assert a.format_report() == b.format_report()
    # Sanity: the serving layer actually did multi-shard work.
    assert a.completed > 0
    assert len(a.shards) == 4
    assert len(a.tenants) == 8
    assert a.rebalances >= 1


def test_serve_sanitized_run_matches_unsanitized_run(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = _run_serve_once()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sane = _run_serve_once()
    assert plain.trace == sane.trace
    assert plain.fingerprint() == sane.fingerprint()


# sha256 over a balanced (point/scan/write) run + a serving-layer run,
# computed on the pre-optimization tree at the CI seed.  Hot-path
# optimizations must keep seeded behaviour byte-identical, so this value
# never changes when code merely gets faster; it changes only when a PR
# deliberately alters simulation semantics (and must say so).
GOLDEN_MIXED_SERVE_DIGEST = (
    "9ae1a219dbe6859d72570f8836f2010b8186fd14512e04110d759120dec9dd20"
)


def test_mixed_and_serve_digest_matches_pre_optimization_golden():
    engine, results = _run_once(seed=11)
    serve = _run_serve_once()
    payload = repr((results, _fingerprint(engine), serve.fingerprint()))
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert digest == GOLDEN_MIXED_SERVE_DIGEST, (
        "seeded run diverged from the pre-optimization golden digest; "
        "an optimization changed simulated behaviour"
    )


def test_sanitized_run_matches_unsanitized_run(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    engine_plain, results_plain = _run_once(seed=11, ops=2_000)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    engine_sane, results_sane = _run_once(seed=11, ops=2_000)
    assert results_plain == results_sane
    assert _fingerprint(engine_plain) == _fingerprint(engine_sane)
    # The sanitizer must actually have run checks, not just been armed.
    shards = engine_sane.block_cache._shards
    assert sum(s._sanitizer.checks_run for s in shards if s._sanitizer) > 0
    assert engine_sane.range_cache._sanitizer is not None
    assert engine_sane.range_cache._sanitizer.checks_run > 0


# -- fleet-fingerprint matrix ---------------------------------------------------
#
# Double-run equality proves a run is deterministic, not that a refactor
# kept it: a wrong serve-loop change passes it on both runs.  These
# fingerprints were recorded at the commit before the scalar/batched
# dispatch paths were merged and pin every fork the merge touched:
# batch size x open/closed sessions x resilience x shared L2, each on a
# small queue so sheds, expiries, crash drops and hedges all occur.
# The four batch-8 resilient cells were re-recorded when the failure
# model stopped starting shards before a burst was fully queued.


def _matrix_config(batch_size, closed, resilient, l2):
    from repro.faults.fleet import FleetFaultConfig
    from repro.serve import ServeConfig
    from repro.serve.resilience import ResilienceConfig

    kwargs = dict(
        SERVE_KWARGS,
        total_ops=2_400,
        batch_size=batch_size,
        closed_clients=3 if closed else 0,
        queue_depth=8,
        arrival_rate_ops_s=1_800.0,
        rebalance_every=500,
        l2_budget_bytes=64 * 1024 if l2 else 0,
    )
    if resilient:
        kwargs["op_deadline_us"] = 4_000.0
        kwargs["resilience"] = ResilienceConfig(
            fleet_faults=FleetFaultConfig(
                crashes=1, earliest_us=20_000.0, latest_us=60_000.0, seed=3
            ),
            hedge_quantile=0.9,
            hedge_min_samples=16,
            hedge_floor_us=200.0,
        )
    return ServeConfig(**kwargs)


# (batch_size, closed sessions, resilience, shared L2) -> fingerprint
GOLDEN_FLEET_FINGERPRINTS = {
    (1, 0, 0, 0): "d356f4dfbaa2534a27896563e55bafff657827aeb61eaa723a4c441780e0cbf8",
    (1, 0, 0, 1): "af97d0d676f29ced26c0d72726defea39c4e99aa481304175c46f1ca1b8aa060",
    (1, 0, 1, 0): "9ef7bd3039136c674f3af6bd2eabe2d67c7803092b1dcb1fc7d080b31d79e1f9",
    (1, 0, 1, 1): "351c1c04b4a94209080a09845572466e068a64909d6142a892b696a801466067",
    (1, 1, 0, 0): "7cb7542a8c3e7f41165d463395a65aedbf146a5132f39dcf5d2c411bf534e986",
    (1, 1, 0, 1): "f585340fbb18df17e661cce9bafbf653fceadfca4176dcdfa33d94ee94d57c93",
    (1, 1, 1, 0): "2eaafc42bf816584838172820123f0a0f841d71b7b78bc3f0ec6a26176ff4216",
    (1, 1, 1, 1): "7b1841e9e0e18d1d60ad095ae83f4d977f40d89d3d9c2646e31722b2a4f4bc4f",
    (8, 0, 0, 0): "79f415bc6e70d2aa91999e9514b06e43a58e4372a916ba7fef2b859633722c0c",
    (8, 0, 0, 1): "02fe938283f2958941997522d92084062cc60e401fd82d7cbb45111c026d65b7",
    (8, 0, 1, 0): "eafd8706792e11a5726a6e09adee0d8c947cbd1275f69fb53788465a574eed84",
    (8, 0, 1, 1): "b20a3350e019e30b9432c62cfb01e1ed7d14bb335b0fcbf723a07616807f7220",
    (8, 1, 0, 0): "a077c32bdfe370834039c1461ebf47bf58b270c2f618672369ff3b17f286b43b",
    (8, 1, 0, 1): "1b4142bf89ea7b6c745f8cf6ca204a316c8c3e82a49f206cca7bb4de6e3aae56",
    (8, 1, 1, 0): "d8ab1164a1fbe277f27a5e886a34cf29b27f1aa98b761df80a3571706048830c",
    (8, 1, 1, 1): "f53376c3c93500640bcad24f3c19388501569ad71e92825a29db31588087587f",
}


@pytest.mark.parametrize(
    "cell", sorted(GOLDEN_FLEET_FINGERPRINTS), ids=lambda c: "b%d-c%d-r%d-l%d" % c
)
def test_fleet_fingerprint_matrix_matches_recorded(cell):
    from repro.serve import run_serve

    result = run_serve(_matrix_config(*cell))
    # The cell must exercise what it pins.
    assert result.rejected > 0 and result.rebalances >= 2
    if cell[2]:
        assert result.crashes == result.promotions == 1
        assert result.hedge_wins > 0 and result.scans_partial > 0
        assert result.shed_by_reason["deadline"] > 0
    assert result.fingerprint() == GOLDEN_FLEET_FINGERPRINTS[cell]


def test_fleet_fingerprint_is_independent_of_string_hash_seed():
    # ``set`` iteration order over strings follows PYTHONHASHSEED, so a
    # fingerprint fed by one would differ between processes.  The test
    # process has one fixed seed; two fresh processes with different
    # seeds must both reproduce the pinned cell.
    cell = (8, 1, 1, 1)
    code = (
        f"import sys; sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
        "from test_determinism import _matrix_config\n"
        "from repro.serve import run_serve\n"
        f"print(run_serve(_matrix_config(*{cell!r})).fingerprint())\n"
    )
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code],
            env=dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=src_dir + os.pathsep + os.environ.get("PYTHONPATH", ""),
            ),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for hash_seed in ("0", "4242")
    ]
    for proc in procs:
        out, err = proc.communicate()
        assert proc.returncode == 0, err
        assert out.strip() == GOLDEN_FLEET_FINGERPRINTS[cell]


def _write_flood_config(phase_ops=150):
    """The write_flood fleet: shared L2, one crash and promotion, obs on."""
    from repro.faults.fleet import FleetFaultConfig
    from repro.serve import ServeConfig
    from repro.serve.resilience import ResilienceConfig
    from repro.workloads.scenarios import ScenarioParams, build_scenario

    schedule = build_scenario(
        "write_flood",
        ScenarioParams(
            num_keys=3_000,
            tenants=4,
            phase_ops=phase_ops,
            arrival_rate_ops_s=500.0,
            seed=5,
        ),
    )
    duration = schedule.total_duration_us
    return ServeConfig(
        num_shards=4,
        seed=5,
        cache_bytes=256 * 1024,
        l2_budget_bytes=64 * 1024,
        batch_size=8,
        resilience=ResilienceConfig(
            fleet_faults=FleetFaultConfig(
                crashes=1,
                earliest_us=duration / 30.0,
                latest_us=duration / 4.0,
                seed=5,
            )
        ),
        obs=True,
        schedule=schedule,
    )


GOLDEN_WRITE_FLOOD_FINGERPRINT = (
    "dace631195032b771b9f3bf4edeb49f2c71af162529065c4f617974ae6e70cda"
)
GOLDEN_WRITE_FLOOD_OBS_EVENTS = 312


@pytest.fixture(scope="module")
def write_flood():
    from repro.serve import run_serve

    return run_serve(_write_flood_config())


def test_scripted_write_flood_fingerprint_matches_recorded(write_flood):
    result = write_flood
    assert result.crashes == result.promotions == 1
    assert result.l2_probes > 0 and result.acked_writes_checked > 0
    assert result.fingerprint() == GOLDEN_WRITE_FLOOD_FINGERPRINT
    # The fingerprint does not cover what the run recorded for obs.
    events = sum(r.trace.next_seq for r in result.obs_recorders)
    assert events == GOLDEN_WRITE_FLOOD_OBS_EVENTS


# sha256 of the fleet metrics.jsonl the write_flood run exports: every
# obs histogram's buckets, total and max, plus the merged windows.
# Recorded before the obs and serve histograms became one class.
GOLDEN_WRITE_FLOOD_METRICS_SHA256 = (
    "864d29b26c9ebd155b47d8fd30ff7cdfb8d7cca51480f4f6f4ebf2054febe1a1"
)


def test_write_flood_fleet_metrics_export_matches_recorded(write_flood, tmp_path):
    paths = write_flood.export_obs(str(tmp_path))
    with open(paths["fleet"], "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == GOLDEN_WRITE_FLOOD_METRICS_SHA256


# The fingerprint covers neither obs event payloads nor report text.
# These pins cover both; they were recorded before the simulator was
# split into a kernel plus the failure-model, shared-L2 and obs objects.
GOLDEN_WRITE_FLOOD_EVENTS_SHA256 = (
    "21a8f040e95d295d17fe386f9a3cbe5aefb2d70ac61222ee0744c2f081d56714"
)


def test_write_flood_fleet_events_export_matches_recorded(write_flood, tmp_path):
    paths = write_flood.export_obs(str(tmp_path))
    with open(paths["fleet_events"], "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == GOLDEN_WRITE_FLOOD_EVENTS_SHA256


# The (8, 1, 1, 1) report was re-recorded with its fingerprint above.
GOLDEN_REPORT_SHA256 = {
    (1, 0, 0, 0): "612cc74b1d006cae3c4b583d1435408203937bd161683401be818002fbb3f01e",
    (8, 1, 1, 1): "8327467aaebf55f903506e2f840a0090453932d08bc87ebc47bd2c0b8cca3a99",
    "write_flood": "5c41ea4a6f7905b6d8d42817bf115a309d4e4419bc51ce1ff597b744d0c52747",
}


@pytest.mark.parametrize(
    "cell", [(1, 0, 0, 0), (8, 1, 1, 1)], ids=lambda c: "b%d-c%d-r%d-l%d" % c
)
def test_fleet_report_matches_recorded(cell):
    from repro.serve import run_serve

    report = run_serve(_matrix_config(*cell)).format_report()
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == GOLDEN_REPORT_SHA256[cell]


def test_write_flood_report_matches_recorded(write_flood):
    digest = hashlib.sha256(write_flood.format_report().encode()).hexdigest()
    assert digest == GOLDEN_REPORT_SHA256["write_flood"]


# -- on-disk layout pin ----------------------------------------------------------
#
# The counters above do not see block boundaries, checksums or bloom
# bits, so a reordered compaction merge could keep them.  This digest
# covers every live SSTable's level, id, per-block first/last key and
# checksum, and bloom bytes, after a seeded write-heavy run on a small
# geometry (overlapping L0 runs, tombstones, bottom-level tombstone
# drops) and after a bulk load.  Recorded before the write path moved
# from (key, value) tuples to key/value columns.
GOLDEN_LAYOUT_SHA256 = (
    "8d91bd710ee372339a4cba158d4cb67a81538b90a243671135e3ae5c61e19f7f"
)
LAYOUT_OPTIONS = dict(
    entries_per_block=4, entries_per_sstable=16, memtable_entries=16, max_levels=4
)


def _layout(tree):
    out = []
    for level in range(tree.options.max_levels):
        for table in tree.levels.level_files(level):
            blocks = [table.block_at(no) for no in range(table.num_blocks)]
            out.append((
                level,
                table.sst_id,
                [(b.first_key, b.last_key, b.checksum) for b in blocks],
                bytes(table.bloom._bits).hex(),
            ))
    return out


def _tombstones(tables, keys):
    """How many of ``keys`` the tables hold as tombstones."""
    count = 0
    for table in tables:
        for key in keys:
            block_no = table.find_block_no(key)
            if block_no is not None and table.block_at(block_no).get(key) == (True, None):
                count += 1
    return count


def _layout_write_run():
    from random import Random

    from repro.lsm.tree import LSMTree

    tree = LSMTree(LSMOptions(**LAYOUT_OPTIONS))
    built = {}
    install = tree.disk.install

    def record(table):
        built[table.sst_id] = table
        install(table)

    tree.disk.install = record
    deleted = set()
    drops = []

    def on_compaction(event):
        keys = sorted(deleted)
        t_in = _tombstones([built[i] for i in event.input_sst_ids], keys)
        t_out = _tombstones([built[i] for i in event.output_sst_ids], keys)
        if t_in > 0 and t_out == 0:
            drops.append(event)

    tree.add_compaction_listener(on_compaction)
    rng = Random(29)
    for op in range(3_000):
        key = "key%05d" % rng.randrange(400)
        if rng.random() < 0.25:
            tree.delete(key)
            deleted.add(key)
        else:
            tree.put(key, "v%d" % op)
    return tree, deleted, drops


def test_sstable_layout_matches_recorded():
    from repro.lsm.tree import LSMTree

    tree, deleted, drops = _layout_write_run()
    # The run must exercise what it pins.
    l0 = tree.levels.level_files(0)
    assert any(
        a.first_key <= b.last_key and b.first_key <= a.last_key
        for i, a in enumerate(l0)
        for b in l0[i + 1 :]
    )
    assert _tombstones(tree.levels.all_files(), sorted(deleted)) > 0
    assert drops
    loaded = LSMTree(LSMOptions(**LAYOUT_OPTIONS))
    loaded.bulk_load(("key%05d" % i, "b%d" % i) for i in range(1_000))
    assert loaded.num_levels == 4
    payload = repr((_layout(tree), _layout(loaded)))
    assert hashlib.sha256(payload.encode()).hexdigest() == GOLDEN_LAYOUT_SHA256
