"""MemTable: sorted buffer semantics, tombstones, iteration."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.memtable import MemTable
from tests.reference_model import ReferenceModel


class TestBasics:
    def test_put_get(self):
        m = MemTable()
        m.put("a", "1")
        assert m.get("a") == (True, "1")

    def test_get_absent(self):
        assert MemTable().get("x") == (False, None)

    def test_overwrite(self):
        m = MemTable()
        m.put("a", "1")
        m.put("a", "2")
        assert m.get("a") == (True, "2")
        assert len(m) == 1

    def test_delete_records_tombstone(self):
        m = MemTable()
        m.put("a", "1")
        m.delete("a")
        assert m.get("a") == (True, None)

    def test_delete_of_absent_key_still_tombstones(self):
        m = MemTable()
        m.delete("ghost")
        assert m.get("ghost") == (True, None)
        assert len(m) == 1

    def test_bool_and_len(self):
        m = MemTable()
        assert not m
        m.put("a", "1")
        assert m and len(m) == 1


class TestIteration:
    def test_entries_sorted(self):
        m = MemTable()
        for k in ["c", "a", "b"]:
            m.put(k, k.upper())
        assert m.sorted_from("")[0] == ["a", "b", "c"]

    def test_sorted_from(self):
        m = MemTable()
        for k in ["e", "a", "c"]:
            m.put(k, k)
        m.delete("d")
        keys, values, pos = m.sorted_from("b")
        assert (keys[pos:], values[pos:]) == (["c", "d", "e"], ["c", None, "e"])
        m.put("c", "C")  # an overwrite refreshes the cached values
        keys, values, pos = m.sorted_from("c")
        assert values[pos:] == ["C", None, "e"]

    def test_entries_include_tombstones(self):
        m = MemTable()
        m.put("a", "1")
        m.delete("b")
        assert m.sorted_from("") == (["a", "b"], ["1", None], 0)

    def test_sorted_view_refreshes_after_mutation(self):
        m = MemTable()
        m.put("b", "1")
        m.sorted_from("")  # force sort
        m.put("a", "2")
        assert m.sorted_from("")[:2] == (["a", "b"], ["2", "1"])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.text(min_size=1, max_size=8), st.text(max_size=8)),
        max_size=60,
    )
)
def test_property_matches_dict_model(pairs):
    """MemTable behaves like a dict plus sortedness."""
    m = MemTable()
    model = ReferenceModel()
    for k, v in pairs:
        m.put(k, v)
        model.put(k, v)
    for k, v in model.items():
        assert m.get(k) == (True, v)
    assert m.sorted_from("")[0] == model.keys()
