"""Level structure (the LSM-tree's "version" / manifest).

Tracks which SSTables live at which level:

* **Level 0** holds whole flushed MemTables; files may overlap and are
  ordered newest-first.
* **Levels 1+** each hold one sorted run: files are non-overlapping and
  kept sorted by first key.

The counts exposed here (``num_levels`` ``L`` and sorted-run totals
``r``/``r0``) feed the paper's reward model directly.
"""

from __future__ import annotations

import bisect
from typing import Callable, List, Optional, Tuple

from repro.errors import InvariantError, StorageError
from repro.lsm.sstable import SSTable


class LevelState:
    """Mutable view of the files at every level.

    Point lookups hit every level per query, so the per-level first-key
    arrays and key-range fences are cached and invalidated on the three
    mutation points (flush install, compaction install, detach) rather
    than rebuilt per lookup.
    """

    def __init__(self, max_levels: int) -> None:
        if max_levels < 2:
            raise StorageError("need at least levels 0 and 1")
        self.max_levels = max_levels
        self._levels: List[List[SSTable]] = [[] for _ in range(max_levels)]
        # Lazily rebuilt caches, one slot per level (None = stale).
        self._firsts: List[Optional[List[str]]] = [None] * max_levels
        self._fences: List[Optional[Tuple[str, str]]] = [None] * max_levels
        self._fence_fresh: List[bool] = [False] * max_levels

    def _invalidate(self, level: int) -> None:
        self._firsts[level] = None
        self._fences[level] = None
        self._fence_fresh[level] = False

    def _level_firsts(self, level: int) -> List[str]:  # hot-path
        """Cached sorted first keys of a sorted level (levels 1+)."""
        firsts = self._firsts[level]
        if firsts is None:
            firsts = [t.first_key for t in self._levels[level]]
            self._firsts[level] = firsts
        return firsts

    def level_fence(self, level: int) -> Optional[Tuple[str, str]]:  # hot-path
        """Cached ``(min first_key, max last_key)``; None when empty.

        A key outside the fence cannot be in any file at the level, so
        point lookups skip the per-file probing (and the bloom checks
        behind it) entirely.
        """
        if self._fence_fresh[level]:
            return self._fences[level]
        files = self._levels[level]
        if not files:
            fence = None
        elif level == 0:
            fence = (
                min(t.first_key for t in files),
                max(t.last_key for t in files),
            )
        else:
            fence = (files[0].first_key, files[-1].last_key)
        self._fences[level] = fence
        self._fence_fresh[level] = True
        return fence

    # -- structure queries ---------------------------------------------------

    def level_files(self, level: int) -> List[SSTable]:
        """Files at ``level`` (L0 newest-first, L1+ sorted by first key)."""
        return list(self._levels[level])

    def iter_level(self, level: int) -> List[SSTable]:  # hot-path
        """The internal file list at ``level`` — read-only, do not mutate.

        The read path iterates levels once per query; handing out the
        backing list (instead of the defensive copy ``level_files``
        makes) keeps that loop allocation-free.
        """
        return self._levels[level]

    def level_entry_count(self, level: int) -> int:
        """Total entries at ``level`` (tombstones included)."""
        return sum(t.num_entries for t in self._levels[level])

    @property
    def level0_file_count(self) -> int:
        """Number of (overlapping) runs in Level 0."""
        return len(self._levels[0])

    @property
    def num_levels(self) -> int:
        """``L``: index of the deepest non-empty level plus one (>= 1)."""
        deepest = 0
        for level in range(self.max_levels - 1, -1, -1):
            if self._levels[level]:
                deepest = level
                break
        return deepest + 1

    @property
    def num_sorted_runs(self) -> int:
        """``r``: L0 file count plus one run per non-empty deeper level."""
        runs = len(self._levels[0])
        runs += sum(1 for level in self._levels[1:] if level)
        return runs

    def total_entries(self) -> int:
        """Entries across all levels (tombstones included)."""
        return sum(self.level_entry_count(lv) for lv in range(self.max_levels))

    # -- file bookkeeping ------------------------------------------------------

    def add_level0(self, table: SSTable) -> None:
        """Install a freshly flushed file as the newest L0 run."""
        self._levels[0].insert(0, table)
        self._invalidate(0)

    def add_to_level(self, level: int, table: SSTable) -> None:
        """Install ``table`` into a sorted level, keeping first-key order.

        Raises if the file would overlap an existing file at that level.
        """
        if level == 0:
            raise StorageError("use add_level0 for level 0")
        files = self._levels[level]
        firsts = self._level_firsts(level)
        idx = bisect.bisect_left(firsts, table.first_key)
        left_ok = idx == 0 or files[idx - 1].last_key < table.first_key
        right_ok = idx == len(files) or table.last_key < files[idx].first_key
        if not (left_ok and right_ok):
            raise StorageError(
                f"file [{table.first_key}..{table.last_key}] overlaps level {level}"
            )
        files.insert(idx, table)
        self._invalidate(level)

    def remove(self, level: int, sst_id: int) -> SSTable:
        """Detach the file with ``sst_id`` from ``level`` and return it."""
        files = self._levels[level]
        for i, table in enumerate(files):
            if table.sst_id == sst_id:
                self._invalidate(level)
                return files.pop(i)
        raise StorageError(f"sst {sst_id} not found at level {level}")

    # -- read-path lookups -----------------------------------------------------

    def find_file(self, level: int, key: str) -> Optional[SSTable]:  # hot-path
        """In a sorted level, the single file whose range may hold ``key``."""
        if level == 0:
            raise StorageError("level 0 files overlap; iterate them instead")
        files = self._levels[level]
        if not files:
            return None
        firsts = self._level_firsts(level)
        idx = bisect.bisect_right(firsts, key) - 1
        if idx < 0:
            return None
        table = files[idx]
        return table if key <= table.last_key else None

    def scan_start(self, level: int, key: str) -> int:  # hot-path
        """In a sorted level, the index of the first file whose
        ``last_key >= key`` (the file count when none is): where a scan
        from ``key`` enters the level.  Bisects like :meth:`find_file`."""
        idx = bisect.bisect_right(self._level_firsts(level), key) - 1
        if idx < 0:
            return 0
        return idx if key <= self._levels[level][idx].last_key else idx + 1

    def all_files(self) -> List[SSTable]:
        """All live files, shallow copy."""
        out: List[SSTable] = []
        for files in self._levels:
            out.extend(files)
        return out

    # -- sanitizer protocol -----------------------------------------------------

    def check_invariants(self, is_live: Optional[Callable[[int], bool]] = None) -> None:
        """Manifest health: sorted non-overlapping runs, unique live ids.

        * every file's ``first_key <= last_key``; its bloom filter's
          prefix starts both keys and its stored states are the
          prefix's FNV-1a digests;
        * levels 1+ are sorted by first key with strictly disjoint key
          ranges (``prev.last_key < next.first_key``);
        * no SSTable id appears twice in the manifest;
        * with ``is_live`` (normally ``disk.has``), every manifest file
          must still exist on the simulated disk.
        """
        seen_ids: dict = {}
        for level, files in enumerate(self._levels):
            for table in files:
                if table.first_key > table.last_key:
                    raise InvariantError(
                        f"LevelState: sst {table.sst_id} at level {level} has "
                        f"inverted key range [{table.first_key!r}.."
                        f"{table.last_key!r}]"
                    )
                try:
                    table.bloom.check_invariants(table.first_key, table.last_key)
                except InvariantError as exc:
                    raise InvariantError(
                        f"LevelState: sst {table.sst_id} at level {level}: {exc}"
                    ) from exc
                if table.sst_id in seen_ids:
                    raise InvariantError(
                        f"LevelState: sst id {table.sst_id} appears at both "
                        f"level {seen_ids[table.sst_id]} and level {level}"
                    )
                seen_ids[table.sst_id] = level
                if is_live is not None and not is_live(table.sst_id):
                    raise InvariantError(
                        f"LevelState: manifest lists sst {table.sst_id} at "
                        f"level {level} but it is gone from disk"
                    )
            if level == 0:
                continue  # L0 runs may overlap by design
            for prev, cur in zip(files, files[1:]):
                if prev.first_key > cur.first_key:
                    raise InvariantError(
                        f"LevelState: level {level} out of order: sst "
                        f"{prev.sst_id} first key {prev.first_key!r} > sst "
                        f"{cur.sst_id} first key {cur.first_key!r}"
                    )
                if prev.last_key >= cur.first_key:
                    raise InvariantError(
                        f"LevelState: level {level} overlap: sst "
                        f"{prev.sst_id} ends at {prev.last_key!r} but sst "
                        f"{cur.sst_id} starts at {cur.first_key!r}"
                    )
