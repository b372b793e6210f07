"""Runtime invariant sanitizer: seeded corruption must be caught.

Each test corrupts one structure's internals the way a real bug would
(byte over-charge, out-of-order key array, ghost policy entry, manifest
drift) and asserts ``check_invariants()`` raises an
:class:`~repro.errors.InvariantError` naming the broken invariant.
"""

import pytest

from repro import sanitize
from repro.cache.base import BudgetedCache
from repro.cache.block_cache import BlockCache
from repro.cache.intervals import IntervalSet
from repro.cache.kv_cache import KVCache
from repro.cache.lru import LRUPolicy
from repro.cache.range_cache import RangeCache
from repro.cache.tier2 import Tier2Cache
from repro.errors import InvariantError
from repro.lsm.block import BlockHandle
from repro.lsm.options import LSMOptions
from repro.lsm.sstable import SSTable
from repro.lsm.tree import LSMTree
from repro.lsm.version import LevelState


def _budgeted(budget=1024, charge=64):
    return BudgetedCache(budget, charge, LRUPolicy())


def _filled_range_cache(n=20, policy=None):
    cache = RangeCache(budget_bytes=64 * n, entry_charge=64, policy=policy)
    for i in range(n):
        cache.insert_point(f"k{i:04d}", f"v{i}")
    return cache


# -- sampling gate -----------------------------------------------------------


def test_env_period_parsing(monkeypatch):
    cases = {
        "": 0,
        "0": 0,
        "false": 0,
        "off": 0,
        "1": sanitize.DEFAULT_PERIOD,
        "17": 17,
        "yes-please": sanitize.DEFAULT_PERIOD,
        "-3": 0,
    }
    for raw, expected in cases.items():
        monkeypatch.setenv("REPRO_SANITIZE", raw)
        assert sanitize.env_period() == expected, raw
    monkeypatch.delenv("REPRO_SANITIZE")
    assert sanitize.env_period() == 0
    assert sanitize.from_env() is None


class _CountingTarget:
    def __init__(self):
        self.checks = 0

    def check_invariants(self):
        self.checks += 1


def test_sanitizer_schedule_is_deterministic():
    a, b = sanitize.Sanitizer(period=7, seed=42), sanitize.Sanitizer(period=7, seed=42)
    ta, tb = _CountingTarget(), _CountingTarget()
    schedule_a, schedule_b = [], []
    for i in range(500):
        a.after_mutation(ta)
        b.after_mutation(tb)
        schedule_a.append(ta.checks)
        schedule_b.append(tb.checks)
    assert schedule_a == schedule_b
    assert a.checks_run == ta.checks > 0


def test_sanitizer_period_one_checks_every_mutation():
    gate = sanitize.Sanitizer(period=1, seed=0)
    target = _CountingTarget()
    for _ in range(10):
        gate.after_mutation(target)
    assert target.checks == 10


def test_sanitizer_mean_gap_tracks_period():
    gate = sanitize.Sanitizer(period=10, seed=1)
    target = _CountingTarget()
    for _ in range(10_000):
        gate.after_mutation(target)
    # Gaps are uniform on [1, 19]: mean 10, so ~1000 checks +- noise.
    assert 800 <= target.checks <= 1200


# -- BudgetedCache corruptions -----------------------------------------------


def test_budgeted_cache_clean_state_passes():
    cache = _budgeted()
    for i in range(10):
        cache.put(f"k{i}", "v")
    cache.check_invariants()


def test_budgeted_cache_detects_overcharged_entry():
    cache = _budgeted()
    cache.put("a", "v")
    cache._used += 64  # simulate a lost decrement on eviction
    with pytest.raises(InvariantError, match="byte accounting drift"):
        cache.check_invariants()


def test_budgeted_cache_detects_resting_over_budget():
    cache = _budgeted(budget=1024)
    cache.put("a", "v")
    cache._budget = 32  # resize that forgot to evict
    with pytest.raises(InvariantError, match="over budget at rest"):
        cache.check_invariants()


def test_budgeted_cache_detects_ghost_policy_entry():
    cache = _budgeted()
    cache.put("a", "v")
    cache._policy.record_insert("ghost")  # policy knows a key the dict lost
    with pytest.raises(InvariantError, match="policy/dict divergence"):
        cache.check_invariants()


def test_budgeted_cache_detects_untracked_resident_key():
    cache = _budgeted()
    cache.put("a", "v")
    cache.put("b", "v")
    cache._policy.record_remove("a")  # resident key vanished from policy
    with pytest.raises(InvariantError, match="divergence|unknown to the"):
        cache.check_invariants()


# -- policy-less (built-in LRU) BudgetedCache corruptions ---------------------


def _lru(budget=1024, charge=64):
    cache = BudgetedCache(budget, charge)
    for i in range(10):
        cache.put(f"k{i}", "v")
    return cache


def test_lru_cache_clean_state_passes():
    _lru().check_invariants()


def test_lru_cache_detects_byte_drift():
    cache = _lru()
    cache._used -= 64  # a lost increment on insert
    with pytest.raises(InvariantError, match="byte accounting drift"):
        cache.check_invariants()


def test_lru_cache_detects_entry_the_charge_missed():
    cache = _lru()
    cache._data["stray"] = "v"  # the map gained a key put never charged
    with pytest.raises(InvariantError, match="11 entries x charge 64"):
        cache.check_invariants()


def test_lru_cache_detects_resting_over_budget():
    cache = _lru()
    cache._budget = 128  # resize that forgot to evict
    with pytest.raises(InvariantError, match="over budget at rest"):
        cache.check_invariants()


def test_enabled_sanitizer_trips_on_next_mutation():
    cache = _budgeted()
    cache._sanitizer = sanitize.Sanitizer(1, 0)
    cache.put("a", "v")  # clean mutation passes
    cache._used += 7
    with pytest.raises(InvariantError, match="byte accounting drift"):
        cache.put("b", "v")


# -- range cache key array corruptions ---------------------------------------


def test_range_cache_key_array_clean_state_passes():
    cache = RangeCache(budget_bytes=64 * 150, entry_charge=64)
    cache.insert_range("k00000", [(f"k{i:05d}", str(i)) for i in range(200)])
    for i in range(0, 200, 3):
        cache.on_delete(f"k{i:05d}")
    cache.check_invariants()


def test_range_cache_detects_key_without_value():
    cache = _filled_range_cache()
    # The map loses a key and gains another: lengths still agree, but
    # one array key no longer has a value.
    cache._data["k0005x"] = cache._data.pop("k0005")
    with pytest.raises(InvariantError, match="with no value"):
        cache.check_invariants()


def test_range_cache_detects_array_map_length_drift():
    cache = _filled_range_cache()
    cache._data["stray"] = "v"  # a value the key array never got
    with pytest.raises(InvariantError, match="length drift"):
        cache.check_invariants()


def test_range_cache_detects_keys_out_of_order():
    cache = _filled_range_cache()
    keys = cache._keys
    keys[3], keys[4] = keys[4], keys[3]  # an insert at the wrong index
    with pytest.raises(InvariantError, match="out of order"):
        cache.check_invariants()


# -- interval set corruptions ------------------------------------------------


def test_intervalset_detects_inverted_and_overlapping():
    ivs = IntervalSet()
    ivs.add("a", "f")
    ivs._starts.append("z")
    ivs._ends.append("m")
    with pytest.raises(InvariantError, match="inverted"):
        ivs.check_invariants()
    ivs2 = IntervalSet()
    ivs2._starts.extend(["a", "c"])
    ivs2._ends.extend(["d", "f"])
    with pytest.raises(InvariantError, match="overlap"):
        ivs2.check_invariants()


# -- range cache corruptions -------------------------------------------------


def test_range_cache_clean_state_passes():
    cache = _filled_range_cache()
    cache.insert_range("k0000", [(f"k{i:04d}", "v") for i in range(5)])
    cache.check_invariants()


def test_range_cache_detects_leaked_ghost_entry():
    # Only an explicit policy tracks keys apart from the value map.
    cache = _filled_range_cache(policy=LRUPolicy())
    cache._policy.record_insert("ghost-key")
    with pytest.raises(InvariantError, match="policy/dict divergence"):
        cache.check_invariants()


def test_range_cache_detects_byte_drift():
    cache = _filled_range_cache()
    cache._used -= 64
    with pytest.raises(InvariantError, match="byte accounting drift"):
        cache.check_invariants()


def test_builtin_lru_range_cache_detects_array_key_the_map_lost():
    # Built-in LRU evicts by popping the value map; a victim left in the
    # key array is the fault this path can make.
    cache = _filled_range_cache()
    del cache._data["k0007"]  # an eviction that skipped the key array
    with pytest.raises(InvariantError, match="length drift"):
        cache.check_invariants()


# -- facade caches -----------------------------------------------------------


def test_kv_cache_detects_inner_corruption():
    cache = KVCache(budget_bytes=4096, entry_charge=64)
    cache.put("a", "v")
    cache._used += 1
    with pytest.raises(InvariantError, match="byte accounting drift"):
        cache.check_invariants()


def test_env_sanitizer_catches_misrouted_block_cache_entry(monkeypatch):
    """``REPRO_SANITIZE`` reaches the block cache's own routing check,
    which no shard's check can make: period 2 checks 1 to 3 fills apart."""
    monkeypatch.setenv("REPRO_SANITIZE", "2")
    cache = BlockCache(16 * 4096, 4096, lambda handle: object(), num_shards=4)
    handle = BlockHandle(1, 0)
    cache._shards[(cache._shard_of(handle) + 1) % 4].put(handle, object())
    with pytest.raises(InvariantError, match="misrouted entry"):
        for block_no in range(3):
            cache.fetch_through(BlockHandle(2, block_no))


def test_env_sanitizer_catches_tier2_admission_drift(monkeypatch):
    """``REPRO_SANITIZE`` reaches the shared tier's accounting check:
    an offer counted as neither admit nor reject trips within 3 admits."""
    monkeypatch.setenv("REPRO_SANITIZE", "2")
    cache = Tier2Cache(16 * 4096, 4096)
    cache.demotions += 1
    with pytest.raises(InvariantError, match="admission accounting drift"):
        for block_no in range(3):
            key = (0, BlockHandle(1, block_no))
            cache.tier2_probe(key)
            cache.tier2_probe(key)  # two misses: sketch proof of reuse
            assert cache.tier2_offer(key, object())


def test_tier2_cache_detects_resident_block_its_policy_lost():
    """The shared tier inherits the container's policy/residency check:
    a resident block ARC no longer tracks is caught."""
    cache = Tier2Cache(16 * 4096, 4096)
    keys = [(0, BlockHandle(1, block_no)) for block_no in range(3)]
    for key in keys:
        cache.tier2_probe(key)
        cache.tier2_probe(key)
        assert cache.tier2_offer(key, object())
    cache.check_invariants()
    cache._policy.record_remove(keys[1])  # payload kept, ARC forgot it
    with pytest.raises(InvariantError, match="policy/dict divergence"):
        cache.check_invariants()


def test_block_cache_detects_misrouted_entry():
    cache = BlockCache(
        budget_bytes=16 * 4096,
        block_size=4096,
        backing_fetch=lambda handle: None,
        num_shards=4,
    )
    handle = BlockHandle(1, 0)
    wrong = (cache._shard_of(handle) + 1) % 4
    cache._shards[wrong].put(handle, object())
    with pytest.raises(InvariantError, match="misrouted entry"):
        cache.check_invariants()


# -- LSM manifest corruptions ------------------------------------------------


def _table(sst_id, keys):
    return SSTable.build(sst_id, keys, ["v"] * len(keys), 4, 0)


def test_level_state_detects_duplicate_sst_id():
    levels = LevelState(max_levels=4)
    levels.add_to_level(1, _table(1, ["a", "b"]))
    levels.add_to_level(2, _table(1, ["c", "d"]))
    with pytest.raises(InvariantError, match="appears at both"):
        levels.check_invariants()


def test_level_state_detects_overlap():
    levels = LevelState(max_levels=4)
    levels.add_to_level(1, _table(1, ["a", "m"]))
    levels._levels[1].append(_table(2, ["f", "z"]))  # bypass the guarded insert
    with pytest.raises(InvariantError, match="overlap"):
        levels.check_invariants()


def test_level_state_detects_dead_manifest_file():
    levels = LevelState(max_levels=4)
    levels.add_to_level(1, _table(9, ["a", "b"]))
    with pytest.raises(InvariantError, match="gone from disk"):
        levels.check_invariants(is_live=lambda sst_id: False)


def test_level_state_detects_tampered_bloom_state():
    levels = LevelState(max_levels=4)
    table = _table(3, ["key0017", "key0018", "key0042"])
    levels.add_to_level(1, table)
    levels.check_invariants()
    table.bloom._state2 ^= 1 << 17
    with pytest.raises(
        InvariantError,
        match=r"sst 3 at level 1: BloomFilter: state2 0x[0-9a-f]+ is not the "
        r"FNV-1a state after prefix 'key00'",
    ):
        levels.check_invariants()


def test_level_state_detects_bloom_prefix_outside_key_range():
    levels = LevelState(max_levels=4)
    table = _table(4, ["key0017", "key0018"])
    levels.add_to_level(1, table)
    table.bloom._prefix = "key002"
    with pytest.raises(InvariantError, match="prefix 'key002' does not start key range"):
        levels.check_invariants()


def test_lsm_tree_invariants_pass_after_real_traffic():
    tree = LSMTree(LSMOptions(memtable_entries=16, entries_per_sstable=32))
    for i in range(400):
        tree.put(f"k{i:05d}", f"v{i}")
    tree.check_invariants()
    tree.levels.check_invariants(is_live=tree.disk.has)
