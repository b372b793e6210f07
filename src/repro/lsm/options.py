"""Configuration for the LSM-tree substrate.

Defaults mirror the paper's experimental setup (Section 5.1) scaled to
simulator-friendly sizes: 1-leveling compaction with a size ratio of 10,
bloom filters at 10 bits per key, 4 KB data blocks holding ``B = 4``
entries of 24-byte keys and 1000-byte values, write slowdown at 4 L0
files and write stop at 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigError

# Key, value and block sizes are logical byte sizes used for cache
# accounting and the reward model; they do not change how much host
# memory the simulator uses.

#: Logical key size in bytes (paper Section 5.1).
KEY_SIZE = 24
#: Logical value size in bytes (paper Section 5.1).
VALUE_SIZE = 1000
#: Logical bytes one cached key-value entry is charged (24 B + 1000 B).
ENTRY_CHARGE = KEY_SIZE + VALUE_SIZE
#: Logical data-block size in bytes (paper Section 5.1).
BLOCK_SIZE = 4096
#: Capacity ratio between adjacent levels (paper: 10).
SIZE_RATIO = 10
#: Bloom filter budget (paper: 10 bits/key, FPR ~1%).
BLOOM_BITS_PER_KEY = 10


@dataclass
class LSMOptions:
    """Tunables for :class:`~repro.lsm.tree.LSMTree`.

    Attributes
    ----------
    entries_per_block:
        Number of key-value entries per data block (``B`` in the paper's
        reward model).  With 24 B keys and 1000 B values a 4 KB block
        holds 4 entries.
    entries_per_sstable:
        Capacity of one SSTable.  The paper uses 4 MB files of 4 KB
        blocks, i.e. 1024 blocks; we default to a smaller file so the
        simulator compacts at laptop scale while keeping many files per
        level.
    memtable_entries:
        Flush threshold for the MemTable.
    level0_file_num_compaction_trigger:
        Number of L0 files that triggers an L0->L1 compaction.
    level0_slowdown_writes_trigger:
        L0 file count at which writes are slowed (paper: 4).
    level0_stop_writes_trigger:
        L0 file count at which writes stop (paper: 8).
    max_levels:
        Upper bound on the number of levels.
    auto_compact:
        When True (default) compactions run synchronously as soon as a
        trigger fires.  Tests can disable this to exercise stall errors.
    max_read_retries:
        How many times a transiently failed block read is re-issued
        before the error escalates to the caller.
    retry_backoff_us:
        Simulated latency charged for the first retry; each further
        retry doubles it (exponential backoff).  Charged to the bench
        clock, not host time.
    max_corruption_repairs:
        How many corrupted-block repairs one logical read may attempt
        before escalating (guards against a fault storm re-corrupting
        the block as fast as it is repaired).
    seed:
        Seed for the bloom-filter hash salt; fixed for reproducibility.
    """

    entries_per_block: int = 4
    entries_per_sstable: int = 256
    memtable_entries: int = 256
    level0_file_num_compaction_trigger: int = 4
    level0_slowdown_writes_trigger: int = 4
    level0_stop_writes_trigger: int = 8
    max_levels: int = 7
    auto_compact: bool = True
    max_read_retries: int = 4
    retry_backoff_us: float = 50.0
    max_corruption_repairs: int = 3
    seed: int = field(default=0x5EED)

    def __post_init__(self) -> None:
        positive_fields = (
            "entries_per_block",
            "entries_per_sstable",
            "memtable_entries",
            "level0_file_num_compaction_trigger",
            "level0_slowdown_writes_trigger",
            "level0_stop_writes_trigger",
            "max_levels",
        )
        for name in positive_fields:
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.max_read_retries < 0:
            raise ConfigError("max_read_retries must be >= 0")
        if self.retry_backoff_us < 0 or not math.isfinite(self.retry_backoff_us):
            raise ConfigError("retry_backoff_us must be finite and >= 0")
        if self.max_corruption_repairs < 0:
            raise ConfigError("max_corruption_repairs must be >= 0")
        if self.entries_per_sstable % self.entries_per_block:
            raise ConfigError(
                "entries_per_sstable must be a multiple of entries_per_block"
            )
        if self.level0_stop_writes_trigger < self.level0_slowdown_writes_trigger:
            raise ConfigError(
                "level0_stop_writes_trigger must be >= level0_slowdown_writes_trigger"
            )

    @property
    def blocks_per_sstable(self) -> int:
        """Number of data blocks in a full SSTable."""
        return self.entries_per_sstable // self.entries_per_block

    def level_capacity_entries(self, level: int) -> int:
        """Target capacity of ``level`` in entries (L1 = one SSTable's worth
        times the compaction trigger, growing by ``SIZE_RATIO`` per level)."""
        if level <= 0:
            # L0 is bounded by file count, not entry count.
            return self.level0_file_num_compaction_trigger * self.entries_per_sstable
        base = self.entries_per_sstable * self.level0_file_num_compaction_trigger
        return base * (SIZE_RATIO ** (level - 1))
