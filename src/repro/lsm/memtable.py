"""In-memory write buffer (MemTable).

A sorted dictionary over string keys.  We keep a plain dict for O(1)
point lookups plus a lazily re-sorted key list for range scans — at
simulator scale this outperforms a hand-rolled balanced tree while
behaving identically at the API level.

Deletes are recorded as tombstones (``value=None``), which must shadow
older values in SSTables during reads and be dropped only by a
bottom-level compaction.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple


class MemTable:
    """Mutable sorted buffer of the newest writes."""

    def __init__(self) -> None:
        self._data: Dict[str, Optional[str]] = {}
        self._sorted_keys: List[str] = []
        # Values aligned with _sorted_keys; None until a scan asks again
        # after a write.
        self._sorted_values: Optional[List[Optional[str]]] = None
        self._dirty = False

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def put(self, key: str, value: str) -> None:
        """Insert or overwrite ``key``."""
        if key not in self._data:
            self._dirty = True
        self._data[key] = value
        self._sorted_values = None

    def delete(self, key: str) -> None:
        """Record a tombstone for ``key``."""
        if key not in self._data:
            self._dirty = True
        self._data[key] = None
        self._sorted_values = None

    def get(self, key: str) -> Tuple[bool, Optional[str]]:
        """Look up ``key``; ``(found, value)`` with tombstones found=True."""
        if key in self._data:
            return True, self._data[key]
        return False, None

    def sorted_from(
        self, key: str
    ) -> Tuple[List[str], List[Optional[str]], int]:  # hot-path
        """All keys in order, their values (None = tombstone) and the index
        of the first key >= ``key``.

        Both lists are cached until the next write and are read-only: a
        scan walks them in place instead of copying the tail.
        """
        if self._dirty:
            self._sorted_keys = sorted(self._data)
            self._dirty = False
        keys = self._sorted_keys
        values = self._sorted_values
        if values is None:
            values = self._sorted_values = list(map(self._data.__getitem__, keys))
        return keys, values, bisect.bisect_left(keys, key)
