"""Range-partitioned sharded Range Cache (concurrency architecture)."""

from __future__ import annotations

import threading

import pytest

from repro.cache.lecar import LeCaRPolicy
from repro.cache.sharded_range import ShardedRangeCache, even_boundaries
from repro.errors import CacheError


def entries(lo, hi):
    return [(f"k{i:04d}", f"v{i}") for i in range(lo, hi)]


def cache_of(budget_entries=32, boundaries=("k0100", "k0200")):
    return ShardedRangeCache(
        budget_entries * 100, boundaries, entry_charge=100, seed=1
    )


class TestRouting:
    def test_shard_index(self):
        c = cache_of()
        assert c.shard_index("k0000") == 0
        assert c.shard_index("k0100") == 1  # boundary belongs to the right
        assert c.shard_index("k0150") == 1
        assert c.shard_index("k0999") == 2
        assert c.num_shards == 3

    def test_points_routed_to_owner(self):
        c = cache_of()
        c.insert_point("k0050", "a")
        c.insert_point("k0150", "b")
        assert c.get_point("k0050") == "a"
        assert c.get_point("k0150") == "b"
        assert len(c.shards()[0]) == 1
        assert len(c.shards()[1]) == 1

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(CacheError):
            ShardedRangeCache(1000, ["b", "a"])
        with pytest.raises(CacheError):
            ShardedRangeCache(1000, ["a", "a"])

    def test_even_boundaries_helper(self):
        bounds = even_boundaries(100, 4, key_of=lambda i: f"k{i:04d}")
        assert bounds == ["k0025", "k0050", "k0075"]
        with pytest.raises(CacheError):
            even_boundaries(100, 0, key_of=lambda i: str(i))


class TestBoundaries:
    """Exact edge behaviour at the first/last shard and on split keys."""

    def test_first_and_last_shard_edges(self):
        c = cache_of(boundaries=("k0100", "k0200", "k0300"))
        # Smallest representable keys land in shard 0 ...
        assert c.shard_index("") == 0
        assert c.shard_index("k0000") == 0
        # ... and anything past the last boundary in the final shard.
        assert c.shard_index("k0300") == c.num_shards - 1
        assert c.shard_index("zzzz") == c.num_shards - 1

    def test_key_exactly_on_boundary_owned_by_right_shard(self):
        c = cache_of(boundaries=("k0100", "k0200"))
        c.insert_point("k0100", "edge")
        assert len(c.shards()[1]) == 1
        assert len(c.shards()[0]) == 0
        assert c.get_point("k0100") == "edge"
        # A scan starting exactly on the boundary stays inside shard 1.
        c.insert_range("k0100", entries(100, 110))
        assert c.get_range("k0100", 5) == entries(100, 105)

    def test_upper_bound_per_shard(self):
        c = cache_of(boundaries=("k0100", "k0200"))
        assert c._upper_bound(0) == "k0100"
        assert c._upper_bound(1) == "k0200"
        assert c._upper_bound(2) is None  # last shard is unbounded above

    def test_single_shard_degenerates_to_plain_range_cache(self):
        from repro.cache.range_cache import RangeCache

        sharded = ShardedRangeCache(32 * 100, [], entry_charge=100, seed=1)
        oracle = RangeCache(32 * 100, entry_charge=100, seed=1)
        for cache in (sharded, oracle):
            cache.insert_range("k0000", entries(0, 20))
        assert sharded.num_shards == 1
        for start, length in (("k0000", 5), ("k0010", 10), ("k0019", 1)):
            assert sharded.get_range(start, length) == oracle.get_range(
                start, length
            )

    def test_within_shard_scans_match_unsharded_oracle(self):
        from repro.cache.range_cache import RangeCache

        sharded = cache_of(budget_entries=256, boundaries=("k0100", "k0200"))
        oracle = RangeCache(256 * 100, entry_charge=100, seed=1)
        # Populate each shard's slice separately so inserts never cross a
        # boundary (the sharded cache rejects those by design).
        # Slices stay within each shard's budget (256/3 entries per shard)
        # and never cross a boundary (the sharded cache rejects those by
        # design).
        for lo, hi in ((60, 100), (100, 150), (200, 250)):
            sharded.insert_range(f"k{lo:04d}", entries(lo, hi))
        # The oracle sees the same data but as contiguous intervals, so it
        # can also serve the boundary-straddling scan the shards cannot.
        for lo, hi in ((60, 150), (200, 250)):
            oracle.insert_range(f"k{lo:04d}", entries(lo, hi))
        probes = [("k0065", 20), ("k0100", 30), ("k0120", 30), ("k0240", 10)]
        for start, length in probes:
            assert sharded.get_range(start, length) == oracle.get_range(
                start, length
            )
        # Crossing a shard boundary is the one divergence: the sharded
        # cache misses (falls back to the LSM) where the oracle hits.
        assert sharded.get_range("k0095", 10) is None
        assert oracle.get_range("k0095", 10) == entries(95, 105)


class TestRangePath:
    def test_in_shard_scan_hits(self):
        c = cache_of()
        c.insert_range("k0010", entries(10, 20))
        assert c.get_range("k0012", 5) == entries(12, 17)

    def test_cross_boundary_scan_is_a_miss(self):
        c = cache_of(boundaries=("k0015",))
        # Admission truncates at the boundary...
        admitted = c.insert_range("k0010", entries(10, 20))
        assert admitted == 5  # k0010..k0014 only
        # ...so a scan crossing it cannot be served.
        assert c.get_range("k0010", 8) is None
        # But the in-shard prefix is.
        assert c.get_range("k0010", 4) == entries(10, 14)

    def test_cross_shard_hit_rejected_and_counted(self):
        c = cache_of(boundaries=("k0015",))
        c.insert_range("k0010", entries(10, 15))  # fills shard 0 fully
        c.insert_range("k0015", entries(15, 20))  # shard 1
        # Shard 0's interval covers k0010..k0014; a 5-length scan fits.
        assert c.get_range("k0010", 5) == entries(10, 15)

    def test_zero_length_scan_in_a_bounded_shard(self):
        c = cache_of(boundaries=("k0015",))
        c.insert_range("k0010", entries(10, 15))
        assert c.get_range("k0011", 0) == []
        assert c.cross_shard_misses == 0

    def test_budget_split_and_totals(self):
        c = ShardedRangeCache(1000, ["m"], entry_charge=100)
        assert c.budget_bytes == 1000
        shards = c.shards()
        assert shards[0].budget_bytes + shards[1].budget_bytes == 1000

    def test_resize(self):
        c = cache_of(budget_entries=30)
        c.insert_range("k0010", entries(10, 30))
        c.resize(5 * 100)
        assert c.used_bytes <= c.budget_bytes


class TestCoherence:
    def test_on_write_and_delete_routed(self):
        c = cache_of()
        c.insert_range("k0010", entries(10, 13))
        c.on_write("k0011", "fresh")
        assert c.get_point("k0011") == "fresh"
        c.on_delete("k0011")
        assert c.get_range("k0010", 2) == [("k0010", "v10"), ("k0012", "v12")]

    def test_policy_factory_applied_per_shard(self):
        c = ShardedRangeCache(
            1000,
            ["m"],
            entry_charge=100,
            policy_factory=lambda: LeCaRPolicy(history_size=8, seed=1),
        )
        for shard in c.shards():
            assert isinstance(shard._policy, LeCaRPolicy)

    def test_stats_aggregate(self):
        c = cache_of()
        c.insert_point("k0000", "x")
        c.get_point("k0000")
        c.get_point("k0250")
        stats = c.stats
        assert stats.hits == 1 and stats.misses == 1


class TestConcurrency:
    def test_parallel_clients_on_disjoint_shards(self):
        c = ShardedRangeCache(
            64 * 100,
            even_boundaries(400, 4, key_of=lambda i: f"k{i:04d}"),
            entry_charge=100,
            seed=1,
        )
        errors = []

        def client(base):
            try:
                for round_ in range(200):
                    key = f"k{base + round_ % 50:04d}"
                    c.insert_point(key, "v")
                    got = c.get_point(key)
                    if got != "v":
                        errors.append((base, key, got))
            except Exception as exc:  # noqa: BLE001
                errors.append((base, repr(exc)))

        threads = [threading.Thread(target=client, args=(b,)) for b in (0, 100, 200, 300)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert c.used_bytes <= c.budget_bytes
