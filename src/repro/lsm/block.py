"""Data blocks: the unit of disk I/O and of block-cache residency.

A :class:`DataBlock` is an immutable, sorted run of key-value entries.
Blocks are identified globally by :class:`BlockHandle` —
``(sst_id, block_no)`` — which is exactly how RocksDB's block cache
keys entries (file number + offset).  Compaction writes new SSTables
with fresh ids, so handles of compacted-away files silently stop
matching: the cached blocks become dead weight until evicted, the
invalidation behaviour the paper's motivation hinges on.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

Entry = Tuple[str, Optional[str]]  # value None == tombstone


class BlockHandle(NamedTuple):
    """Global identity of a data block: which SSTable, which slot.

    A ``NamedTuple`` rather than a frozen dataclass: handles are hashed
    on every block-cache probe and dict operation, and the C tuple hash
    produces the same values as the generated dataclass hash (both hash
    the ``(sst_id, block_no)`` field tuple) at a fraction of the cost.
    Equality and ordering are likewise field-tuple lexicographic.
    """

    sst_id: int
    block_no: int


class DataBlock:
    """An immutable sorted sequence of entries within one SSTable.

    Entries are ``(key, value)`` pairs where ``value is None`` encodes a
    tombstone.  Keys within a block are strictly increasing.  The entries
    live in two parallel lists, ``_keys`` and ``_values``, which
    :meth:`~repro.lsm.tree.LSMTree.scan` reads in place: a block is never
    mutated after construction.
    """

    __slots__ = ("handle", "_keys", "_values", "_checksum", "first_key", "last_key")

    def __init__(self, handle: BlockHandle, entries: Sequence[Entry]) -> None:
        self.handle = handle
        if entries:
            # One C-level transpose instead of two per-entry list comps;
            # blocks are built in bulk during every flush and compaction.
            keys_t, values_t = zip(*entries)
            keys: List[str] = list(keys_t)
            self._keys = keys
            self._values: List[Optional[str]] = list(values_t)
            # Eager bounds: the point-lookup path reads these on every
            # probe, so they are plain attributes rather than properties.
            self.first_key: str = keys[0]
            self.last_key: str = keys[-1]
        else:
            self._keys = []
            self._values = []
        self._checksum: Optional[int] = None

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def checksum(self) -> int:
        """CRC32 over the block payload (computed once, then cached).

        The SSTable records this at build time; the disk re-checks it on
        every metered read so corrupted blocks are *detected* and raise
        instead of being silently served.
        """
        if self._checksum is None:
            # The \x00/\x01 tag keeps tombstones distinct from empty values.
            payload = "\x1f".join(
                key + "\x1e" + ("\x00" if value is None else "\x01" + value)
                for key, value in zip(self._keys, self._values)
            )
            self._checksum = zlib.crc32(payload.encode("utf-8"))
        return self._checksum

    def get(self, key: str) -> Tuple[bool, Optional[str]]:  # hot-path
        """Look up ``key``; returns ``(found, value)``.

        ``found`` is True for tombstones too — the caller must treat a
        ``(True, None)`` result as "deleted, stop searching older runs".
        """
        keys = self._keys
        idx = bisect.bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            return True, self._values[idx]
        return False, None

    def entries(self) -> List[Entry]:
        """All entries in key order (fresh list)."""
        return list(zip(self._keys, self._values))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DataBlock({self.handle.sst_id}:{self.handle.block_no}, "
            f"[{self.first_key}..{self.last_key}], n={len(self)})"
        )


#: Serves one data-block read: the disk, a block cache, or a batch memo.
BlockFetch = Callable[[BlockHandle], DataBlock]
