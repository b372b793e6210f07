"""Merging iterators for range scans.

A scan must merge one cursor per *sorted run*: the MemTable, each Level-0
file, and one per non-empty deeper level.  Sources yield
``(key, priority, value)`` triples in key order, where a lower priority
number means a newer run; :meth:`~repro.lsm.tree.LSMTree.scan` merges
them, keeping the newest version of each key and dropping tombstones.

Block reads happen lazily through a ``fetch`` callable, so a block cache
can sit in front of the metered disk transparently.  The one eager cost
is the *seek*: initialising the merge pulls the first entry from every
source, forcing one block read per overlapping run — exactly the
``(L - 1) + r`` seek term in the paper's I/O model.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, List, Optional, Tuple

from repro.lsm.block import BlockHandle, DataBlock
from repro.lsm.memtable import MemTable
from repro.lsm.sstable import SSTable

BlockFetch = Callable[[BlockHandle], DataBlock]
MergeItem = Tuple[str, int, Optional[str]]  # (key, priority, value)


def memtable_source(memtable: MemTable, start: str, priority: int) -> Iterator[MergeItem]:
    """Merge source over the MemTable's entries >= ``start``."""
    for key, value in memtable.entries_from(start):
        yield key, priority, value


def sstable_source(
    table: SSTable, start: str, priority: int, fetch: BlockFetch
) -> Iterator[MergeItem]:  # hot-path
    """Merge source over one SSTable's entries >= ``start``.

    Reads blocks one at a time through ``fetch`` as the consumer
    advances; a table entirely before ``start`` yields nothing and
    costs no I/O.
    """
    block_no = table.first_block_no_for(start)
    if block_no is None:
        return
    handles = table.block_handles
    num_blocks = len(handles)
    first = True
    while block_no < num_blocks:
        block = fetch(handles[block_no])
        entries = block.entries_from(start) if first else block.entries_view()
        first = False
        for key, value in entries:
            yield key, priority, value
        block_no += 1


def level_source(
    files: List[SSTable], start: str, priority: int, fetch: BlockFetch
) -> Iterator[MergeItem]:  # hot-path
    """Merge source over a sorted (non-overlapping) level from ``start``.

    Walks the level's files in key order, opening each lazily, so a scan
    only touches the files it actually reaches.  Built with
    ``chain.from_iterable`` so consuming an item resumes the per-table
    generator directly instead of trampolining through an extra
    delegating frame per entry.
    """
    return itertools.chain.from_iterable(
        sstable_source(table, start, priority, fetch)
        for table in files
        if table.last_key >= start
    )
