"""Range Cache: complete-interval semantics, eviction splits, coherence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.lru import LRUPolicy
from repro.cache.range_cache import RangeCache
from repro.errors import CacheError


def entries(lo, hi, step=1):
    return [(f"k{i:04d}", f"v{i}") for i in range(lo, hi, step)]


def cache_of(budget_entries=16):
    return RangeCache(budget_entries * 100, entry_charge=100)


class TestPointPath:
    def test_point_hit_after_point_insert(self):
        rc = cache_of()
        rc.insert_point("a", "1")
        assert rc.get_point("a") == "1"
        assert rc.stats.hits == 1

    def test_point_miss(self):
        rc = cache_of()
        assert rc.get_point("nope") is None
        assert rc.stats.misses == 1

    def test_point_hit_inside_scan_result(self):
        rc = cache_of()
        rc.insert_range("k0000", entries(0, 5))
        assert rc.get_point("k0003") == "v3"


class TestRangePath:
    def test_full_hit(self):
        rc = cache_of()
        rc.insert_range("k0000", entries(0, 8))
        assert rc.get_range("k0002", 4) == entries(2, 6)
        assert rc.stats.hits == 1

    def test_hit_from_scan_start_key(self):
        rc = cache_of()
        rc.insert_range("k0000", entries(0, 8))
        assert rc.get_range("k0000", 8) == entries(0, 8)

    def test_miss_beyond_interval_end(self):
        rc = cache_of()
        rc.insert_range("k0000", entries(0, 4))
        assert rc.get_range("k0002", 4) is None

    def test_miss_when_start_not_covered(self):
        rc = cache_of()
        rc.insert_range("k0005", entries(5, 10))
        assert rc.get_range("k0000", 2) is None

    def test_point_inserts_do_not_fake_completeness(self):
        """Adjacent point entries must not satisfy a range scan: the
        cache cannot know no DB key lies between them."""
        rc = cache_of()
        rc.insert_point("k0001", "v1")
        rc.insert_point("k0002", "v2")
        assert rc.get_range("k0001", 2) is None

    def test_overlapping_scan_results_merge(self):
        rc = cache_of(budget_entries=32)
        rc.insert_range("k0000", entries(0, 6))
        rc.insert_range("k0004", entries(4, 12))
        assert rc.get_range("k0000", 12) == entries(0, 12)
        assert rc.num_complete_intervals == 1

    def test_partial_admission_limits_footprint(self):
        rc = cache_of(budget_entries=32)
        admitted = rc.insert_range("k0000", entries(0, 16), admit_count=4)
        assert admitted == 4
        assert len(rc) == 4
        assert rc.get_range("k0000", 4) == entries(0, 4)
        assert rc.get_range("k0000", 8) is None

    def test_zero_admission_rejected(self):
        rc = cache_of()
        assert rc.insert_range("k0000", entries(0, 4), admit_count=0) == 0
        assert rc.stats.rejections == 1

    def test_nonpositive_length_is_an_empty_hit_inside_an_interval(self):
        rc = cache_of()
        rc.insert_range("k0000", entries(0, 4))
        assert rc.get_range("k0001", 0) == []
        assert rc.get_range("k0001", -3) == []
        assert rc.get_range("k0099", 0) is None  # not covered: still a miss
        assert (rc.stats.hits, rc.stats.misses) == (2, 1)

    def test_miss_when_interval_end_is_not_resident(self):
        rc = cache_of()
        rc.insert_range("k0000", entries(0, 4))
        rc.on_delete("k0003")  # the interval still ends at k0003
        rc.insert_point("k0005", "v5")  # resident, but outside the interval
        assert rc.complete_intervals() == [("k0000", "k0003")]
        assert rc.get_range("k0001", 2) == entries(1, 3)
        assert rc.get_range("k0001", 3) is None

    def test_scan_ending_exactly_on_interval_end_hits(self):
        rc = cache_of()
        rc.insert_range("k0000", entries(0, 4))
        rc.insert_point("k0004", "v4")
        assert rc.get_range("k0002", 2) == entries(2, 4)
        assert rc.get_range("k0002", 3) is None

    def test_oversized_scan_records_no_interval(self):
        """An entry charge above the whole budget admits nothing: an
        interval over keys that never became resident would later serve
        a scan that skips a live key."""
        rc = RangeCache(0, entry_charge=100)
        scan = [("k01", "a"), ("k02", "b"), ("k03", "c")]
        assert rc.insert_range("k01", scan) == 0
        assert rc.complete_intervals() == [] and len(rc) == 0
        assert rc.stats.rejections == 1 and rc.stats.insertions == 0
        rc.resize(10_000)
        rc.insert_point("k01", "a")
        rc.insert_point("k03", "c")
        assert rc.get_range("k01", 2) is None  # k02 is live but uncached


class TestEviction:
    def test_eviction_splits_interval(self):
        rc = RangeCache(5 * 100, entry_charge=100)
        rc.insert_range("k0000", entries(0, 5))
        # Touch later keys so k0000 becomes LRU, then overflow by one.
        rc.get_point("k0001")
        rc.get_point("k0002")
        rc.insert_point("k0099", "x")  # forces eviction of k0000
        assert len(rc) == 5
        assert rc.get_range("k0000", 2) is None  # left edge lost
        hit = rc.get_range("k0001", 2)
        assert hit is not None  # the surviving middle is still complete

    def test_budget_always_respected(self):
        rc = RangeCache(8 * 100, entry_charge=100)
        for i in range(0, 50, 5):
            rc.insert_range(f"k{i:04d}", entries(i, i + 5))
        assert rc.used_bytes <= rc.budget_bytes
        assert len(rc) <= 8

    def test_oversized_entry_rejected(self):
        rc = RangeCache(50, entry_charge=100)
        assert rc.insert_point("a", "1") is False
        assert rc.stats.rejections == 1

    def test_resize_down(self):
        rc = cache_of(budget_entries=8)
        rc.insert_range("k0000", entries(0, 8))
        rc.resize(3 * 100)
        assert len(rc) == 3
        assert rc.used_bytes <= rc.budget_bytes

    def test_resize_to_zero_empties(self):
        rc = cache_of()
        rc.insert_range("k0000", entries(0, 4))
        rc.resize(0)
        assert len(rc) == 0


class TestWriteCoherence:
    def test_overwrite_updates_value(self):
        rc = cache_of()
        rc.insert_point("a", "old")
        rc.on_write("a", "new")
        assert rc.get_point("a") == "new"

    def test_new_key_inside_interval_inserted(self):
        rc = cache_of()
        rc.insert_range("k0000", [("k0000", "0"), ("k0002", "2")])
        rc.on_write("k0001", "1")
        assert rc.get_range("k0000", 3) == [
            ("k0000", "0"),
            ("k0001", "1"),
            ("k0002", "2"),
        ]

    def test_new_key_outside_intervals_ignored(self):
        rc = cache_of()
        rc.insert_range("k0000", entries(0, 2))
        rc.on_write("k9999", "x")
        assert "k9999" not in rc

    def test_delete_keeps_interval_complete(self):
        rc = cache_of()
        rc.insert_range("k0000", entries(0, 4))
        rc.on_delete("k0001")
        result = rc.get_range("k0000", 3)
        assert result == [("k0000", "v0"), ("k0002", "v2"), ("k0003", "v3")]

    def test_delete_of_uncached_key_is_noop(self):
        rc = cache_of()
        rc.on_delete("ghost")
        assert rc.stats.invalidations == 0

    def test_rejected_write_is_cut_out_of_its_interval(self):
        rc = cache_of()
        rc.insert_range("k0000", [("k0000", "0"), ("k0002", "2"), ("k0004", "4")])
        for key in ("k0000", "k0002", "k0004"):
            rc.on_delete(key)
        rc.resize(0)  # no resident key, so the interval survives
        rc.on_write("k0002", "new")  # live, covered, and too big to admit
        assert rc.complete_intervals() == []
        rc.resize(16 * 100)
        rc.on_write("k0003", "3")  # no longer covered: not admitted
        assert rc.get_range("k0000", 1) is None


class TestMisc:
    def test_validation(self):
        with pytest.raises(CacheError):
            RangeCache(-1)
        with pytest.raises(CacheError):
            RangeCache(100, entry_charge=0)

    def test_clear(self):
        rc = cache_of()
        rc.insert_range("k0000", entries(0, 4))
        rc.clear()
        assert len(rc) == 0 and rc.num_complete_intervals == 0
        assert rc.used_bytes == 0

    def test_custom_policy_accepted(self):
        rc = RangeCache(400, entry_charge=100, policy=LRUPolicy())
        rc.insert_point("a", "1")
        assert rc.get_point("a") == "1"

    def test_policy_naming_a_non_resident_victim_raises(self):
        class Phantom(LRUPolicy):
            def select_victim(self):
                return "not-cached"

        rc = RangeCache(2 * 100, entry_charge=100, policy=Phantom())
        rc.insert_range("k0000", entries(0, 2))
        with pytest.raises(CacheError, match="non-resident victim"):
            rc.insert_point("k0009", "v9")


@pytest.mark.parametrize("policy", [None, LRUPolicy], ids=["builtin", "explicit"])
def test_container_mutators_keep_array_and_intervals_in_step(policy):
    """The inherited surface (put, get, remove, resize, clear) moves
    the key array and the intervals with the value map."""
    rc = RangeCache(6 * 100, entry_charge=100, policy=policy and policy())
    rc.insert_range("k0000", entries(0, 4))
    assert rc.put("k0010", "v10") is True
    rc.check_invariants()
    assert rc.get("k0011") is None
    assert rc.put("k0011", "filled") is True
    assert rc.get("k0011") == "filled"
    rc.check_invariants()
    assert rc.resident_keys() == [f"k{i:04d}" for i in (0, 1, 2, 3, 10, 11)]
    rc.put("k0012", "v12")  # evicts k0000, the least recent
    rc.check_invariants()
    assert "k0000" not in rc and rc.complete_intervals() == [("k0001", "k0003")]
    assert rc.remove("k0002") is True and rc.remove("k0002") is False
    rc.check_invariants()
    assert rc.get_range("k0001", 2) == [("k0001", "v1"), ("k0003", "v3")]
    assert rc.resize(2 * 100) == 3  # the scan hit made k0001/k0003 recent
    rc.check_invariants()
    assert rc.resident_keys() == ["k0001", "k0003"]
    assert rc.complete_intervals() == [("k0001", "k0003")]
    rc.clear()
    rc.check_invariants()
    assert len(rc) == 0 and rc.used_bytes == 0 and rc.resident_keys() == []
    assert rc.stats.invalidations == 1 + 2  # one remove, two cleared


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=1, max_value=10),
        ),
        min_size=1,
        max_size=25,
    ),
    st.integers(min_value=4, max_value=30),
)
def test_property_range_hits_are_correct(scans, budget_entries):
    """Whatever was admitted/evicted, any range *hit* must equal the
    true database contents for that window (keys 0..60, all present)."""
    db = {f"k{i:04d}": f"v{i}" for i in range(60)}
    db_keys = sorted(db)
    rc = RangeCache(budget_entries * 100, entry_charge=100)
    for start, length in scans:
        start_key = f"k{start:04d}"
        expected = [(k, db[k]) for k in db_keys if k >= start_key][:length]
        hit = rc.get_range(start_key, length)
        if hit is not None:
            assert hit == expected  # correctness of every hit
        elif expected:
            rc.insert_range(start_key, expected)
        assert rc.used_bytes <= rc.budget_bytes
