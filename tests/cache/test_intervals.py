"""Interval set: merging, covering queries, eviction splits."""

from __future__ import annotations

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.intervals import IntervalSet


def split(s, victims, resident):
    s.split_evicted(victims, [bisect.bisect_left(resident, v) for v in victims], resident)


class TestAdd:
    def test_disjoint_kept_separate(self):
        s = IntervalSet()
        s.add("a", "b")
        s.add("x", "y")
        assert s.intervals() == [("a", "b"), ("x", "y")]

    def test_overlap_merges(self):
        s = IntervalSet()
        s.add("a", "m")
        s.add("g", "z")
        assert s.intervals() == [("a", "z")]

    def test_touching_bounds_merge(self):
        s = IntervalSet()
        s.add("a", "g")
        s.add("g", "m")
        assert s.intervals() == [("a", "m")]

    def test_contained_interval_absorbed(self):
        s = IntervalSet()
        s.add("a", "z")
        s.add("c", "d")
        assert s.intervals() == [("a", "z")]

    def test_bridge_merges_three(self):
        s = IntervalSet()
        s.add("a", "c")
        s.add("j", "m")
        s.add("b", "k")
        assert s.intervals() == [("a", "m")]

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet().add("z", "a")

    def test_touching_and_adjacent_splice_keeps_invariants(self):
        # Micro-test for the batch splice: every add replaces the
        # absorbed span with one slice assignment, so a sequence of
        # touching (shared bound) and adjacent (non-touching) inserts
        # must leave the set sorted, disjoint, and well-formed.
        s = IntervalSet()
        s.add("d", "f")
        s.add("p", "r")
        s.check_invariants()
        s.add("f", "h")  # touches the first interval's end
        s.check_invariants()
        assert s.intervals() == [("d", "h"), ("p", "r")]
        s.add("j", "l")  # adjacent: between the two, touching neither
        s.check_invariants()
        assert s.intervals() == [("d", "h"), ("j", "l"), ("p", "r")]
        s.add("h", "p")  # touches both neighbours: one splice absorbs all three
        s.check_invariants()
        assert s.intervals() == [("d", "r")]


class TestCovering:
    def test_covering_hit_and_miss(self):
        s = IntervalSet()
        s.add("c", "g")
        assert s.covering("e") == ("c", "g")
        assert s.covering("c") == ("c", "g")
        assert s.covering("g") == ("c", "g")
        assert s.covering("b") is None
        assert s.covering("h") is None

    def test_index_covering(self):
        s = IntervalSet()
        s.add("a", "b")
        s.add("x", "z")
        assert s.index_covering("y") == 1
        assert s.index_covering("m") is None


class TestSplit:
    def test_split_middle(self):
        s = IntervalSet()
        s.add("a", "z")
        split(s, ["m"], ["l", "n"])
        assert s.intervals() == [("a", "l"), ("n", "z")]

    def test_split_at_left_edge_drops_left_piece(self):
        s = IntervalSet()
        s.add("c", "g")
        split(s, ["c"], ["a", "d"])
        assert s.intervals() == [("d", "g")]

    def test_split_at_right_edge_drops_right_piece(self):
        s = IntervalSet()
        s.add("c", "g")
        split(s, ["g"], ["f", "x"])
        assert s.intervals() == [("c", "f")]

    def test_split_without_neighbors_removes_interval(self):
        s = IntervalSet()
        s.add("c", "g")
        split(s, ["e"], [])
        assert s.intervals() == []

    def test_split_outside_any_interval_is_noop(self):
        s = IntervalSet()
        s.add("c", "g")
        split(s, ["z"], ["y"])
        assert s.intervals() == [("c", "g")]

    def test_split_many_victims_across_intervals(self):
        s = IntervalSet()
        s.add("a", "f")
        s.add("m", "q")
        s.add("x", "z")
        # "d" and "e" leave an empty gap; "b" stays; "o" splits [m, q]
        # around the resident "n" and "p"; "y" empties [x, z] entirely.
        split(s, ["c", "d", "e", "o", "y"], ["b", "n", "p"])
        assert s.intervals() == [("a", "b"), ("m", "n"), ("p", "q")]
        s.check_invariants()

    def test_clear(self):
        s = IntervalSet()
        s.add("a", "b")
        s.clear()
        assert len(s) == 0


bounds = st.tuples(
    st.text(alphabet="abcdef", min_size=1, max_size=2),
    st.text(alphabet="abcdef", min_size=1, max_size=2),
).map(lambda t: (min(t), max(t)))


@settings(max_examples=80, deadline=None)
@given(st.lists(bounds, max_size=20))
def test_property_disjoint_sorted_after_adds(intervals):
    s = IntervalSet()
    for a, b in intervals:
        s.add(a, b)
    out = s.intervals()
    assert out == sorted(out)
    for (a1, b1), (a2, b2) in zip(out, out[1:]):
        assert b1 < a2  # strictly disjoint, non-touching
    for a, b in intervals:
        assert s.covering(a) is not None and s.covering(b) is not None
