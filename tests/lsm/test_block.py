"""Data blocks: lookup, bounds, handle identity."""

from __future__ import annotations

import pytest

from repro.lsm.block import BlockHandle, DataBlock


def make_block(keys, sst_id=1, block_no=0):
    return DataBlock(BlockHandle(sst_id, block_no), list(keys), [f"v-{k}" for k in keys])


class TestBlockHandle:
    def test_equality_and_hash(self):
        assert BlockHandle(1, 2) == BlockHandle(1, 2)
        assert hash(BlockHandle(1, 2)) == hash(BlockHandle(1, 2))
        assert BlockHandle(1, 2) != BlockHandle(2, 2)

    def test_ordering(self):
        assert BlockHandle(1, 5) < BlockHandle(2, 0)
        assert BlockHandle(1, 1) < BlockHandle(1, 2)


class TestDataBlock:
    def test_get_present(self):
        block = make_block(["a", "c", "e"])
        assert block.get("c") == (True, "v-c")

    def test_get_absent_between_keys(self):
        block = make_block(["a", "c", "e"])
        assert block.get("b") == (False, None)

    def test_get_tombstone_is_found(self):
        block = DataBlock(BlockHandle(1, 0), ["a", "b"], ["1", None])
        assert block.get("b") == (True, None)

    def test_first_last_key(self):
        block = make_block(["b", "d", "f"])
        assert block.first_key == "b"
        assert block.last_key == "f"

    def test_len(self):
        assert len(make_block(["a", "b", "c"])) == 3

