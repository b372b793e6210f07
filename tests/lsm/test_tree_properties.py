"""Model-based property tests: the LSM tree vs a plain dict.

Whatever sequence of puts/deletes/flushes happens, point lookups and
scans must agree with the dict model — across memtable, L0 overlap,
compactions, and tombstones.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.options import LSMOptions
from repro.lsm.tree import LSMTree
from tests.reference_model import ReferenceModel

KEYS = [f"k{i:03d}" for i in range(40)]

op_strategy = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS), st.text(min_size=1, max_size=4)),
    st.tuples(st.just("delete"), st.sampled_from(KEYS), st.none()),
    st.tuples(st.just("flush"), st.none(), st.none()),
)


def run_ops(tree, model, ops):
    for kind, key, value in ops:
        if kind == "put":
            tree.put(key, value)
            model.put(key, value)
        elif kind == "delete":
            tree.delete(key)
            model.delete(key)
        else:
            tree.flush()


@settings(max_examples=60, deadline=None)
@given(st.lists(op_strategy, max_size=120))
def test_point_lookups_match_dict_model(ops):
    tree = LSMTree(LSMOptions(memtable_entries=8, entries_per_sstable=16))
    model = ReferenceModel()
    run_ops(tree, model, ops)
    for key in KEYS:
        assert tree.get(key) == model.get(key)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(op_strategy, max_size=100),
    st.sampled_from(KEYS),
    st.integers(min_value=1, max_value=20),
)
def test_scans_match_dict_model(ops, start, length):
    tree = LSMTree(LSMOptions(memtable_entries=8, entries_per_sstable=16))
    model = ReferenceModel()
    run_ops(tree, model, ops)
    assert tree.scan(start, length) == model.scan(start, length)


@settings(max_examples=30, deadline=None)
@given(st.lists(op_strategy, min_size=30, max_size=150))
def test_structural_invariants_hold(ops):
    tree = LSMTree(LSMOptions(memtable_entries=8, entries_per_sstable=16))
    run_ops(tree, ReferenceModel(), ops)
    # Levels 1+ must hold non-overlapping, sorted files.
    for level in range(1, tree.options.max_levels):
        files = tree.levels.level_files(level)
        for left, right in zip(files, files[1:]):
            assert left.last_key < right.first_key
    # Every referenced file is live on disk and vice versa.
    referenced = {t.sst_id for t in tree.levels.all_files()}
    assert referenced == set(tree.disk.live_sst_ids())
    # Run accounting matches the level shape.
    assert tree.num_sorted_runs >= (1 if referenced else 0)
