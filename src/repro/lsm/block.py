"""Data blocks: the unit of disk I/O and of block-cache residency.

A :class:`DataBlock` is an immutable, sorted run of key-value entries
held as two parallel columns, ``keys`` and ``values``: the one
sorted-run format of the write path, from the MemTable's sorted lists
through compaction's merge to each block.  Blocks are identified
globally by :class:`BlockHandle` — ``(sst_id, block_no)`` — which is
exactly how RocksDB's block cache keys entries (file number + offset).
Compaction writes new SSTables with fresh ids, so handles of
compacted-away files silently stop matching: the cached blocks become
dead weight until evicted, the invalidation behaviour the paper's
motivation hinges on.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Callable, List, NamedTuple, Optional, Tuple

#: A live key-value pair, as :meth:`~repro.lsm.tree.LSMTree.scan` returns it.
Entry = Tuple[str, str]


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

    ``keys[i]`` maps to ``values[i]``; a ``None`` value encodes a
    tombstone.  Keys are strictly increasing, and a block holds at least
    one entry.  Both lists are read-only: :meth:`~repro.lsm.tree.LSMTree.scan` and
    compaction read them in place, and a block is never mutated after
    construction.
    """

    __slots__ = ("handle", "keys", "values", "_checksum", "first_key", "last_key")

    def __init__(
        self, handle: BlockHandle, keys: List[str], values: List[Optional[str]]
    ) -> None:
        self.handle = handle
        self.keys = keys
        self.values = values
        # Eager bounds: the point-lookup path reads these on every
        # probe, so they are plain attributes rather than properties.
        self.first_key: str = keys[0]
        self.last_key: str = keys[-1]
        self._checksum: Optional[int] = None

    def __len__(self) -> int:
        return len(self.keys)

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
                for key, value in zip(self.keys, self.values)
            )
            self._checksum = zlib.crc32(payload.encode("utf-8"))
        return self._checksum

    def get(self, key: str) -> Tuple[bool, Optional[str]]:  # hot-path
        """Look up ``key``; returns ``(found, value)``.

        ``found`` is True for tombstones too — the caller must treat a
        ``(True, None)`` result as "deleted, stop searching older runs".
        """
        keys = self.keys
        idx = bisect.bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            return True, self.values[idx]
        return False, None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DataBlock({self.handle.sst_id}:{self.handle.block_no}, "
            f"[{self.first_key}..{self.last_key}], n={len(self)})"
        )


#: Serves one data-block read: the disk, a block cache, or a batch memo.
BlockFetch = Callable[[BlockHandle], DataBlock]
