"""Built-in LRU orders against an explicit ``LRUPolicy``, step by step.

:class:`~repro.cache.base.BudgetedCache` and
:class:`~repro.cache.range_cache.RangeCache` built without a policy,
and a default :class:`~repro.cache.block_cache.BlockCache`, keep
recency in their own value map.  Each runs here in lock-step with the
same cache over an explicit :class:`~repro.cache.lru.LRUPolicy` on
random operation sequences; after every step the two must agree on the return value,
the stats, the resident entries and their recency order, the complete
intervals (range cache) and the ``on_evict`` feed (block caches).
"""

from __future__ import annotations

from typing import Any, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import BudgetedCache
from repro.cache.block_cache import BlockCache
from repro.cache.lru import LRUPolicy
from repro.cache.range_cache import RangeCache
from repro.lsm.block import BlockHandle

CHARGE = 10
KEY_SPACE = [f"k{i:02d}" for i in range(12)]
KEYS = st.sampled_from(KEY_SPACE)
VALUES = st.sampled_from(["a", "b", "c"])
BUDGETS = st.integers(min_value=0, max_value=8 * CHARGE)


def _run(a: Any, b: Any, op: Tuple[Any, ...]) -> Tuple[Any, Any]:
    name, *args = op
    return getattr(a, name)(*args), getattr(b, name)(*args)


# -- BudgetedCache() against BudgetedCache(LRUPolicy()) -----------------------

CONTAINER_OPS = st.one_of(
    st.tuples(st.just("get"), KEYS),
    st.tuples(st.just("peek"), KEYS),
    st.tuples(st.just("put"), KEYS, VALUES),
    st.tuples(st.just("remove"), KEYS),
    st.tuples(st.just("resize"), BUDGETS),
    st.tuples(st.just("clear")),
)


@settings(max_examples=200, deadline=None)
@given(budget=BUDGETS, ops=st.lists(CONTAINER_OPS, max_size=80))
def test_lru_cache_matches_budgeted_lru_policy(budget, ops):
    lru: BudgetedCache[str, str] = BudgetedCache(budget, CHARGE)
    ref: BudgetedCache[str, str] = BudgetedCache(budget, CHARGE, LRUPolicy())
    lru_evicted: List[Tuple[str, str]] = []
    ref_evicted: List[Tuple[str, str]] = []
    lru.on_evict = lambda key, value: lru_evicted.append((key, value))
    ref.on_evict = lambda key, value: ref_evicted.append((key, value))
    for op in ops:
        got, want = _run(lru, ref, op)
        assert got == want, op
        assert lru.stats == ref.stats, op
        assert lru_evicted == ref_evicted, op
        assert (lru.used_bytes, lru.budget_bytes) == (ref.used_bytes, ref.budget_bytes)
        assert list(lru.keys()) == list(ref._policy._order), op
        assert {key: lru.peek(key) for key in lru.keys()} == {
            key: ref.peek(key) for key in ref.keys()
        }
        lru.check_invariants()


# -- RangeCache() against RangeCache(policy=LRUPolicy()) ----------------------

RANGE_OPS = st.one_of(
    st.tuples(st.just("get_point"), KEYS),
    st.tuples(st.just("insert_point"), KEYS, VALUES),
    st.tuples(st.just("insert_points"), st.lists(st.tuples(KEYS, VALUES), max_size=5)),
    st.tuples(st.just("get_range"), KEYS, st.integers(min_value=0, max_value=5)),
    st.tuples(
        st.just("insert_range"),
        st.integers(min_value=0, max_value=len(KEY_SPACE) - 1),
        st.integers(min_value=0, max_value=6),
        VALUES,
        st.none() | st.integers(min_value=0, max_value=6),
    ),
    st.tuples(st.just("on_write"), KEYS, VALUES),
    st.tuples(st.just("on_delete"), KEYS),
    st.tuples(st.just("resize"), BUDGETS),
    st.tuples(st.just("clear")),
)


def _range_op(op: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """A scan result: ``length`` adjacent keys of the key space from ``start``."""
    if op[0] != "insert_range":
        return op
    _, lo, length, value, admit_count = op
    entries = [(key, value) for key in KEY_SPACE[lo : lo + length]]
    return ("insert_range", KEY_SPACE[lo], entries, admit_count)


@settings(max_examples=200, deadline=None)
@given(budget=BUDGETS, ops=st.lists(RANGE_OPS, max_size=60))
def test_builtin_lru_range_cache_matches_explicit_lru_policy(budget, ops):
    builtin = RangeCache(budget, entry_charge=CHARGE)
    explicit = RangeCache(budget, entry_charge=CHARGE, policy=LRUPolicy())
    for op in map(_range_op, ops):
        got, want = _run(builtin, explicit, op)
        assert got == want, op
        assert builtin.stats == explicit.stats, op
        assert builtin.used_bytes == explicit.used_bytes
        assert builtin.resident_keys() == explicit.resident_keys(), op
        assert builtin.complete_intervals() == explicit.complete_intervals(), op
        assert list(builtin._data) == list(explicit._policy._order), op
        assert dict(builtin._data) == dict(explicit._data)
        builtin.check_invariants()


# -- BlockCache() against BlockCache(policy=LRUPolicy()) ---------------------

HANDLES = st.builds(
    BlockHandle,
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=4),
)
BLOCK_OPS = st.one_of(
    st.tuples(st.just("fetch_through"), HANDLES),
    st.tuples(st.just("get"), HANDLES),
    st.tuples(st.just("put"), HANDLES, VALUES),
    st.tuples(st.just("purge_sst"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("resize"), st.integers(min_value=0, max_value=16 * CHARGE)),
    st.tuples(st.just("clear")),
)


def _backing(handle: BlockHandle) -> str:
    return f"block{handle.sst_id}.{handle.block_no}"


@settings(max_examples=200, deadline=None)
@given(
    budget=st.integers(min_value=0, max_value=16 * CHARGE),
    ops=st.lists(BLOCK_OPS, max_size=80),
)
def test_default_block_cache_matches_lru_policy(budget, ops):
    builtin = BlockCache(budget, CHARGE, _backing)
    explicit = BlockCache(budget, CHARGE, _backing, policy=LRUPolicy())
    builtin_evicted: List[Tuple[BlockHandle, Any]] = []
    explicit_evicted: List[Tuple[BlockHandle, Any]] = []
    builtin.on_evict = lambda h, block: builtin_evicted.append((h, block))
    explicit.on_evict = lambda h, block: explicit_evicted.append((h, block))
    for op in ops:
        got, want = _run(builtin, explicit, op)
        assert got == want, op
        assert builtin.stats == explicit.stats, op
        assert builtin_evicted == explicit_evicted, op
        assert (builtin.used_bytes, builtin.budget_bytes, len(builtin)) == (
            explicit.used_bytes,
            explicit.budget_bytes,
            len(explicit),
        )
        assert list(builtin.keys()) == list(explicit._policy._order), op
        builtin.check_invariants()
