"""Range Cache storage against a ``dict`` + ``sorted()`` model.

The cache keeps its entries as one sorted key array beside the
container's value map.  These tests drive it through its public surface — point and batch
admissions, overwrites, scan admissions with partial ``admit_count``,
write/delete coherence and resizes — and compare what it holds with a
plain dict, sorted on demand.
"""

from __future__ import annotations

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.lru import LRUPolicy
from repro.cache.range_cache import RangeCache
from tests.reference_model import ReferenceModel

CHARGE = 100


class _EvictionLog(LRUPolicy):
    """LRU that remembers its victims, so a model can drop them too."""

    def __init__(self) -> None:
        super().__init__()
        self.evicted: List[str] = []

    def record_evict(self, key: str) -> None:
        super().record_evict(key)
        self.evicted.append(key)


def cache_of(budget_entries: int = 16) -> RangeCache:
    return RangeCache(budget_entries * CHARGE, entry_charge=CHARGE)


class TestBasics:
    def test_insert_get(self):
        rc = cache_of()
        assert rc.insert_point("b", "2") is True
        assert rc.get_point("b") == "2"
        assert rc.get_point("a") is None

    def test_overwrite_keeps_one_entry(self):
        rc = cache_of()
        rc.insert_point("a", "1")
        rc.insert_point("a", "2")
        assert rc.get_point("a") == "2"
        assert len(rc) == 1 and rc.resident_keys() == ["a"]
        assert rc.stats.insertions == 1
        assert rc.used_bytes == CHARGE

    def test_delete_removes_once(self):
        rc = cache_of()
        rc.insert_point("a", "1")
        rc.on_delete("a")
        rc.on_delete("a")
        assert len(rc) == 0 and rc.used_bytes == 0
        assert rc.stats.invalidations == 1

    def test_contains(self):
        rc = cache_of()
        rc.insert_point("x", "1")
        assert "x" in rc and "y" not in rc


class TestOrderedQueries:
    def _loaded(self) -> RangeCache:
        rc = cache_of()
        for k in ["d", "a", "c", "e", "b"]:
            rc.insert_point(k, k.upper())
        return rc

    def test_resident_keys_sorted(self):
        assert self._loaded().resident_keys() == list("abcde")

    def test_batch_admission_merges_in_order(self):
        rc = self._loaded()
        # Unsorted, with a duplicate: the last write wins, as it would
        # in a loop of single inserts.
        assert rc.insert_points([("f", "1"), ("aa", "2"), ("f", "3"), ("c", "4")]) == 4
        assert rc.resident_keys() == ["a", "aa", "b", "c", "d", "e", "f"]
        assert rc.get_point("f") == "3" and rc.get_point("c") == "4"
        assert rc.stats.insertions == 7

    def test_range_from_resident_key(self):
        rc = cache_of()
        rc.insert_range("a", [(k, k.upper()) for k in "abcde"])
        assert rc.get_range("c", 3) == [("c", "C"), ("d", "D"), ("e", "E")]

    def test_range_from_between_keys(self):
        rc = cache_of()
        rc.insert_point("a", "1")
        rc.insert_range("b", [("c", "2"), ("d", "3")])
        assert rc.get_range("b", 2) == [("c", "2"), ("d", "3")]

    def test_eviction_cuts_interval_at_neighbours(self):
        rc = RangeCache(5 * CHARGE, entry_charge=CHARGE)
        rc.insert_range("a", [(k, k) for k in "abcde"])
        for k in "abde":
            rc.get_point(k)  # "c" becomes the LRU victim
        rc.insert_point("z", "z")
        assert rc.resident_keys() == list("abdez")
        assert rc.complete_intervals() == [("a", "b"), ("d", "e")]

    def test_eviction_next_to_non_resident_bound(self):
        # The interval starts at a key the scan did not find: evicting
        # the first resident key leaves nothing resident in [start, c).
        rc = RangeCache(3 * CHARGE, entry_charge=CHARGE)
        rc.insert_range("a0", [("b", "1"), ("c", "2"), ("d", "3")])
        rc.resize(2 * CHARGE)
        assert rc.resident_keys() == ["c", "d"]
        assert rc.complete_intervals() == [("c", "d")]

    def test_victims_equal_but_not_identical_to_resident_keys(self):
        class CopyingLRU(LRUPolicy):
            def select_victim(self):
                victim = super().select_victim()
                return victim[:1] + victim[1:]  # an equal, distinct str

        rc = RangeCache(6 * CHARGE, entry_charge=CHARGE, policy=CopyingLRU())
        rc.insert_range("a", [(k, k) for k in "abcdef"])
        rc.insert_range("p", [(k, k) for k in "pqr"])
        assert rc.resident_keys() == list("defpqr")
        assert rc.complete_intervals() == [("d", "f"), ("p", "r")]
        rc.check_invariants()

    def test_empty_cache(self):
        rc = cache_of()
        assert rc.resident_keys() == [] and rc.get_range("a", 1) is None
        rc.insert_range("a", [("a", "1"), ("b", "2")])
        rc.clear()
        assert rc.resident_keys() == [] and rc.complete_intervals() == []
        assert rc.used_bytes == 0


KEYS = [f"k{i:02d}" for i in range(40)]

key_idx = st.integers(min_value=0, max_value=len(KEYS) - 1)
ops = st.one_of(
    st.tuples(st.just("point"), key_idx),
    st.tuples(st.just("points"), st.lists(key_idx, min_size=1, max_size=6)),
    st.tuples(
        st.just("scan"),
        key_idx,
        st.integers(min_value=0, max_value=10),
        st.one_of(st.none(), st.integers(min_value=-1, max_value=12)),
    ),
    st.tuples(st.just("put"), key_idx, st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("delete"), key_idx),
    st.tuples(st.just("resize"), st.integers(min_value=0, max_value=24)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(ops, max_size=60), st.integers(min_value=0, max_value=20))
def test_property_matches_sorted_dict(script, budget_entries):
    """Hits equal the database, and the cache holds exactly what was
    admitted and not since evicted, deleted or rejected."""
    db = ReferenceModel((k, f"v{k}") for k in KEYS[::2])  # odd keys absent
    policy = _EvictionLog()
    rc = RangeCache(budget_entries * CHARGE, entry_charge=CHARGE, policy=policy)
    model = ReferenceModel()  # what the cache must hold

    def admit(pairs):
        if CHARGE <= rc.budget_bytes:
            for key, value in pairs:
                model.put(key, value)

    for op in script:
        kind = op[0]
        if kind == "point":
            key = KEYS[op[1]]
            hit = rc.get_point(key)
            if hit is not None:
                assert hit == db.get(key)
            elif key in db:
                admit([(key, db.get(key))])
                rc.insert_point(key, db.get(key))
        elif kind == "points":
            pairs = [(KEYS[i], db.get(KEYS[i])) for i in op[1] if KEYS[i] in db]
            if pairs:
                admit(pairs)
                rc.insert_points(pairs)
        elif kind == "scan":
            _, idx, length, admit_count = op
            start = KEYS[idx]
            expected = db.scan(start, length)
            hit = rc.get_range(start, length)
            if hit is not None:
                assert hit == expected
            elif expected:
                n = len(expected) if admit_count is None else admit_count
                n = max(0, min(n, len(expected)))
                if n:
                    admit(expected[:n])
                assert rc.insert_range(start, expected, admit_count) == (
                    n if CHARGE <= rc.budget_bytes else 0
                )
        elif kind == "put":
            key, value = KEYS[op[1]], f"w{op[2]}"
            covered = any(a <= key <= b for a, b in rc.complete_intervals())
            db.put(key, value)
            if key in model or covered:
                admit([(key, value)])
            rc.on_write(key, value)
        elif kind == "delete":
            key = KEYS[op[1]]
            db.delete(key)
            model.delete(key)
            rc.on_delete(key)
        else:
            rc.resize(op[1] * CHARGE)
        for key in policy.evicted:
            model.delete(key)
        policy.evicted.clear()

        assert rc.resident_keys() == model.keys()
        assert rc._data == model.data
        assert len(rc) == len(model)
        assert rc.used_bytes == len(model) * CHARGE <= rc.budget_bytes
        for a, b in rc.complete_intervals():
            # Completeness: every live key inside an interval is cached.
            assert all(k in model for k in db.keys() if a <= k <= b), (a, b)
        rc.check_invariants()
