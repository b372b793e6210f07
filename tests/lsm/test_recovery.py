"""WAL crash recovery: acknowledged writes survive a crash."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.options import LSMOptions
from repro.lsm.tree import LSMTree
from repro.workloads.keys import key_of, value_of
from tests.reference_model import ReferenceModel


def small_tree():
    return LSMTree(LSMOptions(memtable_entries=64, entries_per_sstable=128))


class TestRecovery:
    def test_memtable_writes_survive_crash(self):
        tree = small_tree()
        tree.put("a", "1")
        tree.put("b", "2")
        replayed = tree.simulate_crash_and_recover()
        assert replayed == 2
        assert tree.get("a") == "1" and tree.get("b") == "2"

    def test_tombstones_survive_crash(self):
        tree = small_tree()
        tree.put("a", "1")
        tree.flush()  # a is durable in an SSTable
        tree.delete("a")  # tombstone only in memtable + WAL
        tree.simulate_crash_and_recover()
        assert tree.get("a") is None

    def test_flushed_data_unaffected(self):
        tree = small_tree()
        for i in range(100):
            tree.put(key_of(i), value_of(i))
        tree.flush()
        tree.put(key_of(200), "volatile")
        tree.simulate_crash_and_recover()
        assert tree.get(key_of(50)) == value_of(50)
        assert tree.get(key_of(200)) == "volatile"

    def test_recovery_with_empty_wal(self):
        tree = small_tree()
        tree.put("a", "1")
        tree.flush()  # truncates the WAL
        assert tree.simulate_crash_and_recover() == 0
        assert tree.get("a") == "1"

    def test_overwrite_order_preserved(self):
        tree = small_tree()
        tree.put("k", "old")
        tree.put("k", "new")
        tree.simulate_crash_and_recover()
        assert tree.get("k") == "new"


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "delete", "flush"]),
            st.sampled_from([f"k{i}" for i in range(10)]),
            st.text(min_size=1, max_size=4),
        ),
        max_size=60,
    )
)
def test_property_crash_never_loses_acknowledged_writes(ops):
    tree = LSMTree(LSMOptions(memtable_entries=8, entries_per_sstable=16))
    model = ReferenceModel()
    for kind, key, value in ops:
        if kind == "put":
            tree.put(key, value)
            model.put(key, value)
        elif kind == "delete":
            tree.delete(key)
            model.delete(key)
        else:
            tree.flush()
    tree.simulate_crash_and_recover()
    for key in {k for _, k, _ in ops}:
        assert tree.get(key) == model.get(key)
