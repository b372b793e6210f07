"""Cost model: deterministic simulated time dominated by disk reads."""

from __future__ import annotations

import pytest

from repro.bench.simclock import ClockReading, CostModel, elapsed_us
from repro.bench.strategies import build_engine
from repro.lsm.options import BLOCK_SIZE, LSMOptions
from repro.lsm.tree import LSMTree
from repro.workloads.keys import key_of, value_of


def seeded_engine(strategy="block", num_keys=500):
    opts = LSMOptions(memtable_entries=32, entries_per_sstable=64)
    tree = LSMTree(opts)
    tree.bulk_load((key_of(i), value_of(i)) for i in range(num_keys))
    return build_engine(strategy, tree, cache_bytes=32 * BLOCK_SIZE, seed=1)


class TestClockReading:
    def test_capture_counts_activity(self):
        engine = seeded_engine()
        before = ClockReading.capture(engine)
        engine.get(key_of(10))
        engine.scan(key_of(20), 4)
        engine.put(key_of(30), "x")
        after = ClockReading.capture(engine)
        assert after.points == before.points + 1
        assert after.scans == before.scans + 1
        assert after.writes == before.writes + 1
        assert after.disk_reads > before.disk_reads

    def test_elapsed_positive_and_deterministic(self):
        engine = seeded_engine()
        before = ClockReading.capture(engine)
        for i in range(50):
            engine.get(key_of(i))
        after = ClockReading.capture(engine)
        t1 = elapsed_us(before, after)
        t2 = elapsed_us(before, after)
        assert t1 == t2 > 0

    def test_disk_reads_dominate(self):
        """A cold read costs far more than a cached one, as on NVMe."""
        engine = seeded_engine()
        b0 = ClockReading.capture(engine)
        engine.get(key_of(7))  # cold: disk read
        b1 = ClockReading.capture(engine)
        engine.get(key_of(7))  # warm: block-cache hit
        b2 = ClockReading.capture(engine)
        cold = elapsed_us(b0, b1)
        warm = elapsed_us(b1, b2)
        assert cold > 10 * warm

    def test_custom_cost_model(self):
        engine = seeded_engine()
        before = ClockReading.capture(engine)
        engine.get(key_of(3))
        after = ClockReading.capture(engine)

        class Cheap(CostModel):
            disk_block_read_us = 1.0

        class Expensive(CostModel):
            disk_block_read_us = 1000.0

        cheap = elapsed_us(before, after, Cheap())
        expensive = elapsed_us(before, after, Expensive())
        assert expensive > cheap

    def test_range_insert_cost_charged(self):
        engine = seeded_engine("range")
        before = ClockReading.capture(engine)
        engine.scan(key_of(0), 16)  # fills the skip list
        after = ClockReading.capture(engine)
        assert after.range_insertions - before.range_insertions == 16
