"""LSM-tree key-value store substrate.

A from-scratch, RocksDB-flavoured LSM-tree used as the storage engine
underneath AdCache.  It reproduces every mechanism the paper's caching
layer interacts with:

* a sorted in-memory MemTable flushed to immutable SSTables,
* SSTables made of fixed-fanout data blocks plus index and bloom filter,
* leveled ("1-leveling") compaction with a configurable size ratio and
  Level-0 slowdown / stop triggers,
* range scans that merge one block cursor per overlapping sorted run, and
* a simulated disk that counts every data-block read (the paper's
  "SST reads" metric).

Public entry point: :class:`~repro.lsm.tree.LSMTree`.
"""

from repro.lsm.options import LSMOptions
from repro.lsm.tree import LSMTree

__all__ = ["LSMOptions", "LSMTree"]
