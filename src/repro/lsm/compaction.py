"""Leveled compaction ("1-leveling", size ratio 10 by default).

Two triggers, mirroring RocksDB's leveled policy at the granularity the
caching experiments care about:

* **L0 -> L1** when the Level-0 file count reaches the compaction
  trigger: every L0 run plus all overlapping L1 files merge into fresh
  L1 files.
* **Ln -> Ln+1** (n >= 1) when a level exceeds its target capacity
  (base capacity times ``SIZE_RATIO`` per level): one victim file plus
  the overlapping files below merge downward.

A merge folds its input files' blocks, oldest first, into one dict
(newest version of each key wins), sorts the keys and hands the
key/value columns to :meth:`Compactor.write_run`, the one run writer:
it chunks sorted columns into ``entries_per_sstable`` tables, allocates
their ids in key order, installs them and adds them to a level.
:meth:`~repro.lsm.tree.LSMTree.bulk_load` writes its levels through it
too.

Compaction rewrites data into SSTables with *new ids*, which is what
invalidates block-cache entries keyed by ``(sst_id, block_no)`` — the
effect the paper's range cache is designed to survive.  Listeners are
notified with a :class:`CompactionEvent` per merge so the stats
collector can count compactions and invalidated blocks per window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.lsm.options import LSMOptions
from repro.lsm.sstable import SSTable
from repro.lsm.storage import SimulatedDisk
from repro.lsm.version import LevelState
from repro.obs import names as N
from repro.obs.recorder import NULL_RECORDER, Recorder


@dataclass
class CompactionEvent:
    """What one compaction did, for listeners and stats."""

    level_from: int
    level_to: int
    input_sst_ids: List[int] = field(default_factory=list)
    output_sst_ids: List[int] = field(default_factory=list)
    entries_in: int = 0
    entries_out: int = 0
    blocks_invalidated: int = 0


CompactionListener = Callable[[CompactionEvent], None]


class Compactor:
    """Runs compactions against a :class:`LevelState` and disk."""

    def __init__(
        self, options: LSMOptions, disk: SimulatedDisk, levels: LevelState
    ) -> None:
        self._options = options
        self._disk = disk
        self._levels = levels
        self._listeners: List[CompactionListener] = []
        # Round-robin victim cursor per level, RocksDB-style.
        self._cursor: Dict[int, str] = {}
        self.compactions_total = 0
        self.entries_compacted_total = 0
        self.recorder: Recorder = NULL_RECORDER

    def add_listener(self, listener: CompactionListener) -> None:
        """Register a callback fired after every compaction."""
        self._listeners.append(listener)

    # -- trigger loop --------------------------------------------------------

    def maybe_compact(self) -> int:
        """Run compactions until no trigger fires; returns how many ran."""
        ran = 0
        while True:
            if self._levels.level0_file_count >= self._options.level0_file_num_compaction_trigger:
                self._compact_level0()
                ran += 1
                continue
            level = self._find_oversized_level()
            if level is None:
                break
            self._compact_level(level)
            ran += 1
        return ran

    def _find_oversized_level(self) -> Optional[int]:
        for level in range(1, self._options.max_levels - 1):
            if self._levels.level_entry_count(level) > self._options.level_capacity_entries(level):
                return level
        return None

    # -- the two compaction shapes --------------------------------------------

    def _compact_level0(self) -> None:
        l0_files = self._levels.level_files(0)  # newest first
        start = min(t.first_key for t in l0_files)
        end = max(t.last_key for t in l0_files)
        l1_files = [
            t
            for t in self._levels.level_files(1)
            if not (t.last_key < start or t.first_key > end)
        ]
        # Priority order: L0 newest-first, then L1 (older than any L0 data).
        self._run_compaction(0, 1, l0_files, l1_files)

    def _compact_level(self, level: int) -> None:
        victim = self._pick_victim(level)
        below = [
            t
            for t in self._levels.level_files(level + 1)
            if not (t.last_key < victim.first_key or t.first_key > victim.last_key)
        ]
        self._run_compaction(level, level + 1, [victim], below)

    def _pick_victim(self, level: int) -> SSTable:
        """Round-robin over the level's key space (RocksDB's default)."""
        files = self._levels.level_files(level)
        cursor = self._cursor.get(level, "")
        for table in files:
            if table.first_key > cursor:
                self._cursor[level] = table.first_key
                return table
        # Wrapped around the key space.
        self._cursor[level] = files[0].first_key
        return files[0]

    # -- merge mechanics --------------------------------------------------------

    def _run_compaction(
        self,
        level_from: int,
        level_to: int,
        newer_files: List[SSTable],
        older_files: List[SSTable],
    ) -> None:
        resolved: Dict[str, Optional[str]] = {}
        # Oldest first so newer writes overwrite; newer_files is newest-first.
        for table in [*reversed(older_files), *reversed(newer_files)]:
            for block in table.blocks:
                resolved.update(zip(block.keys, block.values))
        keys = sorted(resolved)
        if self._is_bottom_output(level_to):
            keys = [key for key in keys if resolved[key] is not None]

        event = CompactionEvent(level_from=level_from, level_to=level_to)
        for table in newer_files:
            self._levels.remove(level_from, table.sst_id)
        for table in older_files:
            self._levels.remove(level_to, table.sst_id)
        for table in newer_files + older_files:
            event.input_sst_ids.append(table.sst_id)
            event.entries_in += table.num_entries
            event.blocks_invalidated += table.num_blocks
            self._disk.delete(table.sst_id)

        values = list(map(resolved.__getitem__, keys))
        event.output_sst_ids = self.write_run(level_to, keys, values)
        event.entries_out = len(keys)
        self.compactions_total += 1
        self.entries_compacted_total += event.entries_in
        recorder = self.recorder
        if recorder.enabled:
            recorder.inc(N.LSM_COMPACTIONS)
            recorder.inc(N.LSM_BLOCKS_INVALIDATED, event.blocks_invalidated)
            recorder.observe(N.H_COMPACTION_ENTRIES, event.entries_in)
            recorder.event(
                N.EV_COMPACTION,
                level_from=level_from,
                level_to=level_to,
                entries_in=event.entries_in,
                entries_out=event.entries_out,
                blocks_invalidated=event.blocks_invalidated,
            )
        for listener in self._listeners:
            listener(event)

    def _is_bottom_output(self, level_to: int) -> bool:
        """Tombstones may be dropped when nothing deeper could hold the key."""
        if level_to >= self._options.max_levels - 1:
            return True
        return all(
            not self._levels.level_files(lv)
            for lv in range(level_to + 1, self._options.max_levels)
        )

    def write_run(
        self, level: int, keys: List[str], values: List[Optional[str]]
    ) -> List[int]:
        """Write sorted key/value columns to ``level`` as a run of tables.

        Chunks the columns into ``entries_per_sstable`` tables, allocates
        their ids in key order, installs each on the disk and adds it to
        the level; returns the new ids.
        """
        options = self._options
        per_table = options.entries_per_sstable
        sst_ids = []
        for start in range(0, len(keys), per_table):
            table = SSTable.build(
                self._disk.allocate_sst_id(),
                keys[start : start + per_table],
                values[start : start + per_table],
                options.entries_per_block,
                options.seed,
            )
            self._disk.install(table)
            self._levels.add_to_level(level, table)
            sst_ids.append(table.sst_id)
        return sst_ids
