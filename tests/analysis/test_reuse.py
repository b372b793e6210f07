"""Stack distances and Mattson curves — including cross-validation
against the actual LRU cache implementation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.reuse import (
    INFINITE,
    mattson_hit_rates,
    miss_ratio_curve,
    stack_distances,
)
from repro.cache.base import BudgetedCache
from repro.cache.lru import LRUPolicy
from repro.errors import ConfigError


class TestStackDistances:
    def test_first_accesses_are_infinite(self):
        assert stack_distances(["a", "b", "c"]) == [INFINITE] * 3

    def test_immediate_rereference_is_zero(self):
        assert stack_distances(["a", "a"]) == [INFINITE, 0]

    def test_classic_example(self):
        # a b c a : the re-access of a skipped over {b, c}.
        assert stack_distances(["a", "b", "c", "a"]) == [
            INFINITE,
            INFINITE,
            INFINITE,
            2,
        ]

    def test_duplicates_between_do_not_double_count(self):
        # a b b a : only one distinct key (b) between the two a's.
        assert stack_distances(["a", "b", "b", "a"])[-1] == 1

    def test_empty_trace(self):
        assert stack_distances([]) == []


class TestMattson:
    def test_known_trace(self):
        keys = ["a", "b", "a", "b", "c", "a"]
        # distances: inf inf 1 1 inf 2
        rates = mattson_hit_rates(keys, [1, 2, 3])
        assert rates[1] == 0.0  # no distance < 1
        assert rates[2] == pytest.approx(2 / 6)
        assert rates[3] == pytest.approx(3 / 6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            mattson_hit_rates(["a"], [0])

    def test_curve_monotone_nonincreasing(self):
        rng = np.random.default_rng(1)
        keys = [f"k{int(i)}" for i in rng.zipf(1.3, size=2000) % 200]
        curve = miss_ratio_curve(keys, max_size=100, num_points=10)
        misses = [m for _, m in curve]
        assert all(a >= b - 1e-12 for a, b in zip(misses, misses[1:]))

    def test_empty_trace_curve(self):
        assert mattson_hit_rates([], [4]) == {4: 0.0}


def simulate_lru_hits(keys, capacity):
    cache = BudgetedCache(capacity, 1, LRUPolicy())
    hits = 0
    for key in keys:
        if cache.get(key) is not None:
            hits += 1
        else:
            cache.put(key, "v")
    return hits / len(keys) if keys else 0.0


class TestCrossValidation:
    """Mattson's construction must predict the real LRU cache exactly."""

    def test_zipf_trace_matches_simulation(self):
        rng = np.random.default_rng(7)
        keys = [f"k{int(i) % 300}" for i in rng.zipf(1.2, size=3000)]
        for capacity in (4, 16, 64, 128):
            predicted = mattson_hit_rates(keys, [capacity])[capacity]
            simulated = simulate_lru_hits(keys, capacity)
            assert predicted == pytest.approx(simulated, abs=1e-12), capacity

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from([f"k{i}" for i in range(12)]), min_size=1, max_size=120),
        st.integers(min_value=1, max_value=12),
    )
    def test_property_prediction_equals_simulation(self, keys, capacity):
        predicted = mattson_hit_rates(keys, [capacity])[capacity]
        simulated = simulate_lru_hits(keys, capacity)
        assert predicted == pytest.approx(simulated, abs=1e-12)
