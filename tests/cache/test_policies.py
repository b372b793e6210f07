"""Eviction policies: LRU, LFU, CLOCK, ARC behavioural contracts, replayed eviction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.arc import ARCPolicy
from repro.cache.base import BudgetedCache
from repro.cache.cacheus import CacheusPolicy
from repro.cache.clock import ClockPolicy
from repro.cache.lecar import LeCaRPolicy
from repro.cache.lfu import LFUPolicy
from repro.cache.lru import LRUPolicy
from repro.errors import CacheError


class TestLRU:
    def test_evicts_least_recent(self):
        p = LRUPolicy()
        for k in "abc":
            p.record_insert(k)
        p.record_access("a")
        assert p.select_victim() == "b"

    def test_insert_is_most_recent(self):
        p = LRUPolicy()
        p.record_insert("a")
        p.record_insert("b")
        assert p.select_victim() == "a"

    def test_empty_raises(self):
        with pytest.raises(CacheError):
            LRUPolicy().select_victim()

    def test_remove_and_evict_forget(self):
        p = LRUPolicy()
        p.record_insert("a")
        p.record_evict("a")
        assert "a" not in p and len(p) == 0


class TestLFU:
    def test_evicts_least_frequent(self):
        p = LFUPolicy()
        for k in "ab":
            p.record_insert(k)
        p.record_access("a")
        p.record_access("a")
        assert p.select_victim() == "b"

    def test_tie_broken_by_lru(self):
        p = LFUPolicy()
        p.record_insert("a")
        p.record_insert("b")
        assert p.select_victim() == "a"  # same freq, a is older

    def test_frequency_tracking(self):
        p = LFUPolicy()
        p.record_insert("a")
        p.record_access("a")
        assert p.frequency("a") == 2
        assert p.frequency("zz") == 0

    def test_min_freq_recovers_after_drop(self):
        p = LFUPolicy()
        p.record_insert("a")
        p.record_access("a")  # a:2
        p.record_insert("b")  # b:1
        p.record_evict("b")
        assert p.select_victim() == "a"

    def test_access_unknown_key_ignored(self):
        p = LFUPolicy()
        p.record_access("ghost")
        assert len(p) == 0


class TestClock:
    def test_second_chance(self):
        p = ClockPolicy()
        for k in "abc":
            p.record_insert(k)
        p.record_access("a")  # a gets a second chance
        assert p.select_victim() == "b"

    def test_all_referenced_eventually_yields(self):
        p = ClockPolicy()
        for k in "ab":
            p.record_insert(k)
        p.record_access("a")
        p.record_access("b")
        victim = p.select_victim()
        assert victim in "ab"

    def test_empty_raises(self):
        with pytest.raises(CacheError):
            ClockPolicy().select_victim()


class TestARC:
    def test_one_hit_wonders_evicted_first(self):
        p = ARCPolicy(capacity_hint=4)
        for k in "abcd":
            p.record_insert(k)
        p.record_access("a")  # promotes a to T2
        assert p.select_victim() == "b"  # T1's LRU

    def test_ghost_hit_reinserts_to_t2(self):
        p = ARCPolicy(capacity_hint=4)
        p.record_insert("a")
        p.record_evict("a")  # a -> B1 ghost
        p.record_insert("a")  # ghost hit: straight to T2
        p.record_insert("b")  # fresh: T1
        assert "a" in p._t2 and "b" in p._t1

    def test_p_adapts_on_ghost_hits(self):
        p = ARCPolicy(capacity_hint=8)
        p.record_insert("a")
        p.record_evict("a")
        before = p.p
        p.record_insert("a")  # B1 hit should raise p
        assert p.p > before

    def test_remove_erases_ghosts_too(self):
        p = ARCPolicy(capacity_hint=4)
        p.record_insert("a")
        p.record_evict("a")
        p.record_remove("a")
        before = p.p
        p.record_insert("a")  # no ghost left: p unchanged
        assert p.p == before

    def test_capacity_hint_validated(self):
        with pytest.raises(CacheError):
            ARCPolicy(capacity_hint=0)


@pytest.mark.parametrize(
    "policy_factory",
    [LRUPolicy, LFUPolicy, ClockPolicy, lambda: ARCPolicy(capacity_hint=8)],
    ids=["lru", "lfu", "clock", "arc"],
)
def test_policy_contract_under_budgeted_cache(policy_factory):
    """Any policy must keep a BudgetedCache within budget and consistent."""
    cache = BudgetedCache(8, 1, policy_factory())
    for i in range(50):
        cache.put(i, str(i))
        cache.get(i % 7)
    assert len(cache) <= 8
    assert cache.used_bytes == len(cache)
    assert cache.stats.evictions == cache.stats.insertions - len(cache)


def _replay(policy, history):
    """Drive ``policy`` the way a cache container does: a touch inserts
    an absent key and accesses a resident one; only residents leave, and
    an eviction takes one victim at a time.  Returns the victims."""
    victims = []
    for op, key in history:
        if op == "touch":
            if key in policy:
                policy.record_access(key)
            else:
                policy.record_insert(key)
        elif op == "remove":
            if key in policy:
                policy.record_remove(key)
        else:
            victims += _one_by_one(policy, min(key, len(policy)))
    return victims


def _one_by_one(policy, count):
    victims = []
    for _ in range(count):
        victim = policy.select_victim()
        policy.record_evict(victim)
        victims.append(victim)
    return victims


HISTORY = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["touch", "touch", "remove"]), st.integers(0, 30)),
        st.tuples(st.just("evict"), st.integers(1, 4)),
    ),
    max_size=80,
)

POLICIES = {
    "lru": LRUPolicy,
    "lfu": LFUPolicy,
    "clock": ClockPolicy,
    "arc": lambda: ARCPolicy(capacity_hint=8),
    "lecar": lambda: LeCaRPolicy(history_size=6, seed=3),
    "cacheus": lambda: CacheusPolicy(history_size=6, seed=3),
}


@pytest.mark.parametrize("name", sorted(POLICIES))
@settings(max_examples=60, deadline=None)
@given(history=HISTORY, data=st.data())
def test_evict_equals_rounds_of_select_and_record(name, history, data):
    """Eviction is rounds of ``select_victim`` + ``record_evict``, and two
    same-seeded replicas fed the same history choose the same victims in
    the same order and keep consistent state throughout."""
    first, second = POLICIES[name](), POLICIES[name]()
    assert _replay(first, history) == _replay(second, history)
    first.check_invariants()
    second.check_invariants()
    count = data.draw(st.integers(0, len(first)))
    assert _one_by_one(first, count) == _one_by_one(second, count)
    assert len(first) == len(second)
    first.check_invariants()
    assert _one_by_one(first, len(first)) == _one_by_one(second, len(second))
