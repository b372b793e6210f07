"""The LSM-tree facade: put / get / scan / delete over the substrate.

:class:`LSMTree` wires together the MemTable, WAL, level structure,
simulated disk and compactor, and exposes the two read paths the cache
layer intercepts:

* **point lookups** — MemTable, then L0 files newest-to-oldest, then one
  file per deeper level, with bloom filters pruning files and every
  surviving block access routed through a pluggable ``block_fetch``
  callable (the block cache's hook);
* **range scans** — a heap merge of one block cursor per overlapping
  sorted run (the MemTable, each L0 file, each deeper level), advancing
  a run's whole block below the next run's head at a time and fetching
  each next block through the hook only when the scan still needs it.

SST-read counts come from the underlying
:class:`~repro.lsm.storage.SimulatedDisk`; the tree itself never reads
a block except through ``block_fetch``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import sanitize
from repro.errors import (
    CorruptionError,
    StorageError,
    TransientIOError,
    WriteStallError,
)
from repro.lsm.block import BlockFetch, BlockHandle, DataBlock, Entry
from repro.lsm.bloom import GOLDEN_GAMMA, fnv1a_batch_multi
from repro.lsm.compaction import CompactionListener, Compactor
from repro.lsm.memtable import MemTable
from repro.lsm.options import LSMOptions
from repro.lsm.sstable import SSTable
from repro.lsm.storage import SimulatedDisk
from repro.lsm.version import LevelState
from repro.lsm.wal import WriteAheadLog
from repro.obs import names as N
from repro.obs.recorder import NULL_RECORDER, Recorder

#: Sub-batches at or below this size take the scalar probe loop in
#: :meth:`LSMTree.multi_get_from_sstables` — numpy's fixed per-call cost
#: beats its per-key savings under ~8 keys (measured crossover).
_SCALAR_PROBE_MAX = 7


class LSMTree(sanitize.Sanitized):
    """A RocksDB-flavoured LSM-tree key-value store (simulated disk).

    Parameters
    ----------
    options:
        Tunables; defaults reproduce the paper's configuration.

    Data-block reads go straight to the metered disk until
    :meth:`set_block_fetch` routes them elsewhere (the engine installs
    the block cache's fetch-through method).
    """

    def __init__(self, options: Optional[LSMOptions] = None) -> None:
        super().__init__()
        self.options = options or LSMOptions()
        self.disk = SimulatedDisk()
        self.levels = LevelState(self.options.max_levels)
        self.memtable = MemTable()
        self.wal = WriteAheadLog()
        self.compactor = Compactor(self.options, self.disk, self.levels)
        self._block_fetch: BlockFetch = self.disk.read_block
        # read-path counters
        self.gets_total = 0
        self.scans_total = 0
        self.bloom_negative_total = 0
        self.bloom_false_positive_total = 0
        self.flushes_total = 0
        self.write_slowdowns_total = 0
        # resilience counters (see fetch_block)
        self.read_retries_total = 0
        self.corruption_recoveries_total = 0
        self.retry_latency_us_total = 0.0
        #: Individual backoff stalls (us), for percentile reporting.
        self.retry_stalls_us: List[float] = []
        self.crash_recoveries_total = 0
        self.wal_records_lost_total = 0
        self.fault_injector = None
        self.recorder: Recorder = NULL_RECORDER

    # -- wiring -----------------------------------------------------------------

    def set_block_fetch(self, fetch: BlockFetch) -> None:
        """Route all data-block reads through ``fetch`` (e.g. a block cache)."""
        self._block_fetch = fetch

    def attach_fault_injector(self, injector) -> None:
        """Wire a :class:`~repro.faults.injector.FaultInjector` into the
        disk read path and the WAL append path (None detaches)."""
        self.fault_injector = injector
        self.disk.set_fault_injector(injector)
        self.wal.set_fault_injector(injector)
        if injector is not None and self.recorder.enabled:
            injector.recorder = self.recorder

    def attach_recorder(self, recorder: Recorder) -> None:
        """Propagate an observability recorder to the tree, its
        compactor, and any attached fault injector (attachment order
        between injector and recorder does not matter)."""
        self.recorder = recorder
        self.compactor.recorder = recorder
        if self.fault_injector is not None:
            self.fault_injector.recorder = recorder

    # -- resilient block reads ---------------------------------------------

    def fetch_block(self, handle: BlockHandle) -> DataBlock:
        """Fetch one data block through the configured ``block_fetch``,
        absorbing storage faults.

        * :class:`TransientIOError` — retried at most
          ``options.max_read_retries`` times, retry ``n`` (0-based)
          after a ``options.retry_backoff_us * 2**n`` stall; each stall
          is charged to :attr:`retry_latency_us_total` so the bench
          clock sees it without the host sleeping, and two same-seed
          runs reproduce it byte for byte.
        * :class:`CorruptionError` — the block failed checksum
          verification; the disk repairs it from its redundant clean
          copy and the read is re-issued (never serving bad payloads).

        Exhausting either budget re-raises, so genuinely unrecoverable
        faults still surface as :class:`StorageError` subclasses.
        """
        transient_attempts = 0
        repair_attempts = 0
        while True:
            try:
                return self._block_fetch(handle)
            except TransientIOError:
                if transient_attempts >= self.options.max_read_retries:
                    raise
                stall = self.options.retry_backoff_us * 2**transient_attempts
                self.retry_latency_us_total += stall
                self.retry_stalls_us.append(stall)
                transient_attempts += 1
                self.read_retries_total += 1
                recorder = self.recorder
                if recorder.enabled:
                    recorder.inc(N.FAULT_RETRIES)
                    recorder.observe(N.H_RETRY_STALL_US, stall)
                    recorder.event(
                        N.EV_RETRY,
                        sst=handle.sst_id,
                        block=handle.block_no,
                        attempt=transient_attempts,
                        stall_us=stall,
                    )
            except CorruptionError:
                if repair_attempts >= self.options.max_corruption_repairs:
                    raise
                self.disk.repair_block(handle)
                repair_attempts += 1
                self.corruption_recoveries_total += 1
                recorder = self.recorder
                if recorder.enabled:
                    recorder.inc(N.FAULT_REPAIRS)
                    recorder.event(
                        N.EV_REPAIR, sst=handle.sst_id, block=handle.block_no
                    )

    def add_compaction_listener(self, listener: CompactionListener) -> None:
        """Observe every compaction (used by the stats collector)."""
        self.compactor.add_listener(listener)

    # -- write path ----------------------------------------------------------------

    def put(self, key: str, value: str) -> None:
        """Insert or overwrite ``key``."""
        self._write(key, value)

    def delete(self, key: str) -> None:
        """Delete ``key`` (writes a tombstone)."""
        self._write(key, None)

    def _write(self, key: str, value: Optional[str]) -> None:
        self._maybe_stall()
        self.wal.append(key, value)
        if value is None:
            self.memtable.delete(key)
        else:
            self.memtable.put(key, value)
        if len(self.memtable) >= self.options.memtable_entries:
            self.flush()

    def _maybe_stall(self) -> None:
        l0 = self.levels.level0_file_count
        if l0 >= self.options.level0_slowdown_writes_trigger:
            self.write_slowdowns_total += 1
            recorder = self.recorder
            if recorder.enabled:
                recorder.inc(N.LSM_WRITE_SLOWDOWNS)
                recorder.event(N.EV_WRITE_STALL, level0_files=l0)
        if l0 >= self.options.level0_stop_writes_trigger:
            if self.options.auto_compact:
                self.compactor.maybe_compact()
            else:
                raise WriteStallError(
                    f"level 0 has {l0} files (stop trigger "
                    f"{self.options.level0_stop_writes_trigger})"
                )

    def flush(self) -> Optional[SSTable]:
        """Flush the MemTable into a new Level-0 SSTable."""
        if not self.memtable:
            return None
        keys, values, _ = self.memtable.sorted_from("")
        table = SSTable.build(
            self.disk.allocate_sst_id(),
            keys,
            values,
            self.options.entries_per_block,
            self.options.seed,
        )
        self.disk.install(table)
        self.levels.add_level0(table)
        self.memtable = MemTable()
        self.wal.truncate()
        self.flushes_total += 1
        recorder = self.recorder
        if recorder.enabled:
            recorder.inc(N.LSM_FLUSHES)
            recorder.event(N.EV_FLUSH, sst=table.sst_id, entries=len(keys))
        if self.options.auto_compact:
            self.compactor.maybe_compact()
        self._after_mutation()
        return table

    # -- point lookups -----------------------------------------------------------------

    def get(self, key: str) -> Optional[str]:
        """Point lookup; returns the value or None if absent/deleted."""
        self.gets_total += 1
        found, value = self.memtable.get(key)
        if found:
            return value
        return self.get_from_sstables(key)

    def get_from_memtable(self, key: str) -> Tuple[bool, Optional[str]]:
        """Probe only the MemTable: ``(found, value)``, tombstones found."""
        return self.memtable.get(key)

    def get_from_sstables(self, key: str) -> Optional[str]:
        """Probe only the on-disk runs (engine splits the lookup path)."""
        value, _ = self.get_from_sstables_with_origin(key)
        return value

    def get_from_sstables_with_origin(
        self, key: str
    ) -> Tuple[Optional[str], Optional[BlockHandle]]:  # hot-path
        """Like :meth:`get_from_sstables`, also reporting which block
        served the key.

        Each level's cached key-range fence is consulted before any
        per-file probing: a key outside the fence cannot be at that
        level, so the bloom checks (and their counters) are skipped
        exactly when no file's range would have admitted the key anyway
        — seeded bloom-counter fingerprints are unchanged.
        """
        levels = self.levels
        get_from_table = self._get_from_table
        fence = levels.level_fence(0)
        if fence is not None and fence[0] <= key <= fence[1]:
            for table in levels.iter_level(0):  # newest first
                found, value, handle = get_from_table(table, key)
                if found:
                    return value, handle
        for level in range(1, self.options.max_levels):
            fence = levels.level_fence(level)
            if fence is None or key < fence[0] or key > fence[1]:
                continue
            table = levels.find_file(level, key)
            if table is None:
                continue
            found, value, handle = get_from_table(table, key)
            if found:
                return value, handle
        return None, None

    def multi_get_from_sstables(
        self, keys: Sequence[str]
    ) -> List[Optional[str]]:  # hot-path
        """Batched :meth:`get_from_sstables` over ``keys``.

        Two amortizations over the scalar loop:

        * **table-major probing** — each table's bloom filter is
          consulted for its whole still-unresolved sub-batch, from
          digests hashed in one vectorized pass (see below) instead
          of one Python hash loop per key;
        * **duplicate-block coalescing** — a per-batch block memo means
          N keys served by one data block cost a single
          :meth:`fetch_block` (one block-cache probe, at most one
          metered disk read) instead of N.

        The set of (key, table) bloom probes — and therefore every
        bloom/counter *total* — is identical to the scalar loop's;
        only the interleaving across keys differs.  A batch of one
        takes the scalar path's exact execution order.  Element i of the
        returned list equals the scalar call's value for ``keys[i]``.

        Every base bloom digest the whole walk could need — level-0
        tables for every fenced key, plus each key's one candidate file
        per deeper level — comes out of a *single*
        :func:`fnv1a_batch_multi` pass per batch.  Planning hashes for
        keys that resolve before reaching a table is deliberate
        over-approximation: hashing is pure math, so it never perturbs
        which bloom *tests* run (the walk still probes exactly the
        scalar set, guarded by the resolution state) or any counter.
        """
        n = len(keys)
        if n <= _SCALAR_PROBE_MAX:
            # Tiny sub-batches (common when caches absorb most of a
            # batch): numpy's per-call overhead loses to the scalar
            # probe loop, and duplicate blocks are too rare to matter.
            # Per-key probe sets — and counters — match scalar exactly.
            return [self.get_from_sstables_with_origin(key)[0] for key in keys]
        values: List[Optional[str]] = [None] * n
        resolved = [False] * n
        block_memo: Dict[BlockHandle, DataBlock] = {}
        levels = self.levels
        find_file = levels.find_file
        fetch_block = self.fetch_block
        # ---- plan: the (key index, table) probes in walk order ----
        # Level 0 is table-major, newest first; each deeper level lists
        # its one candidate file per key.
        plan: List[Tuple[int, SSTable]] = []
        fence = levels.level_fence(0)
        if fence is not None:
            lo, hi = fence
            in_fence = [i for i in range(n) if lo <= keys[i] <= hi]
            if in_fence:
                for table in levels.iter_level(0):
                    first_key = table.first_key
                    last_key = table.last_key
                    plan.extend(
                        (i, table)
                        for i in in_fence
                        if first_key <= keys[i] <= last_key
                    )
        for level in range(1, self.options.max_levels):
            fence = levels.level_fence(level)
            if fence is None:
                continue
            lo, hi = fence
            for i in range(n):
                key = keys[i]
                if key < lo or key > hi:
                    continue
                candidate = find_file(level, key)
                if candidate is not None:
                    plan.append((i, candidate))
        if not plan:
            return values
        # ---- one vectorized digest pass for the whole walk ----
        uniq = list(dict.fromkeys(table.bloom.seed for _, table in plan))
        uniq += [seed ^ GOLDEN_GAMMA for seed in uniq]
        datas = [key.encode("utf-8") for key in keys]
        matrix = fnv1a_batch_multi(datas, uniq).tolist()
        rows: Dict[int, List[int]] = dict(zip(uniq, matrix))
        # ---- walk: a key stops at the first table that holds it ----
        current: Optional[SSTable] = None
        for i, table in plan:
            if resolved[i]:
                continue
            if table is not current:
                # Level-0 runs probe one table for many keys in a row.
                current = table
                bloom = table.bloom
                row1 = rows[bloom.seed]
                row2 = rows[bloom.seed ^ GOLDEN_GAMMA]
            if not bloom.may_contain_hashed(row1[i], row2[i]):
                self.bloom_negative_total += 1
                continue
            key = keys[i]
            block_no = table.find_block_no(key)
            if block_no is None:
                continue
            handle = table.block_handles[block_no]
            block = block_memo.get(handle)
            if block is None:
                block = fetch_block(handle)
                block_memo[handle] = block
            found, value = block.get(key)
            if found:
                values[i] = value
                resolved[i] = True
            else:
                self.bloom_false_positive_total += 1
        return values

    def _get_from_table(
        self, table: SSTable, key: str
    ) -> Tuple[bool, Optional[str], Optional[BlockHandle]]:  # hot-path
        if key < table.first_key or key > table.last_key:
            return False, None, None
        if not table.bloom.may_contain(key):
            self.bloom_negative_total += 1
            return False, None, None
        block_no = table.find_block_no(key)
        if block_no is None:
            return False, None, None
        handle = table.block_handles[block_no]
        block = self.fetch_block(handle)
        found, value = block.get(key)
        if not found:
            self.bloom_false_positive_total += 1
        return found, value, handle if found else None

    # -- range scans -----------------------------------------------------------------

    def scan(
        self, start: str, length: int, fetch: Optional[BlockFetch] = None
    ) -> List[Entry]:  # hot-path
        """Return up to ``length`` live entries with key >= ``start``.

        A merge over one cursor per sorted run — the MemTable, each
        Level-0 file, each non-empty deeper level — that keeps each
        key's newest version and drops tombstones.  A cursor sits on its
        run's current block (the ``keys``/``values`` lists of a
        :class:`DataBlock`, or the MemTable's :meth:`~MemTable.sorted_from`
        lists), and the heap holds one cell per run, ordered by
        ``(head key, priority)``; a lower priority is a newer run.  The
        winning cell consumes, in one pass, every entry of its block
        below the smaller head of ``heap[1]``/``heap[2]``, then takes
        one ``heapreplace``.  It stops *below* the next head, not at it:
        an equal key must go back through the heap so that the newest
        version wins, and inside the run no entry can repeat a key.

        **Fetch order.**  A run reads its next block right after its
        current block's last entry is consumed and only while the scan
        still needs entries; a Level-0 file or level is entered at the
        block the first-key index picks for ``start`` (a block with no
        key >= ``start`` is read and skipped).  That is exactly when the
        per-entry generator merge, ``merge_scan`` over the sources in
        ``tests/lsm/test_iterator.py``, reads, so the same handles are
        fetched in the same order and block-cache state and read counts
        match it; that merge is the oracle.

        ``fetch`` overrides the block-read callable; the batched scan
        executor passes a per-batch memoizing wrapper so scans in one
        batch that touch the same data block fetch it once (one block
        cache probe, at most one metered read).  ``None`` — every
        scalar caller — reads through :meth:`fetch_block` unchanged.
        """
        self.scans_total += 1
        if length <= 0:
            return []
        if fetch is None:
            fetch = self.fetch_block
        # Cell: [head key, priority, pos, keys, values, block_no,
        # handles, files, file_idx, file_end]; the run continues into
        # files[file_idx + 1 : file_end].  The MemTable is one block with
        # no handles and no further file.  Runs open newest first, so the
        # heap's length is the next run's priority.
        heap: List[list] = []
        keys, values, pos = self.memtable.sorted_from(start)
        if pos < len(keys):
            heap.append([keys[pos], 0, pos, keys, values, 0, (), None, 0, 0])
        levels = self.levels
        seek = self._seek
        files = levels.iter_level(0)  # newest first
        for file_idx in range(len(files)):
            if files[file_idx].last_key >= start:
                heap.append(seek(start, len(heap), files, file_idx, file_idx + 1, fetch))
        for level in range(1, self.options.max_levels):
            files = levels.iter_level(level)
            if files:
                file_idx = levels.scan_start(level, start)
                if file_idx < len(files):
                    heap.append(seek(start, len(heap), files, file_idx, len(files), fetch))
        heapq.heapify(heap)
        heapreplace = heapq.heapreplace
        out: List[Entry] = []
        append = out.append
        left = length
        last_key: Optional[str] = None  # an equal head is an older version
        while heap:
            cell = heap[0]
            pos = cell[2]
            keys = cell[3]
            end = len(keys)
            n = len(heap)
            if n > 2:
                bound = heap[1][0]
                other = heap[2][0]
                stop = bisect_left(keys, other if other < bound else bound, pos + 1, end)
            elif n == 2:
                stop = bisect_left(keys, heap[1][0], pos + 1, end)
            else:
                stop = end
            if keys[pos] == last_key:
                pos += 1
            values = cell[4]
            for i in range(pos, stop):
                value = values[i]
                if value is not None:
                    append((keys[i], value))
                    left -= 1
                    if not left:
                        return out
            last_key = keys[stop - 1]
            if stop < end:
                cell[0] = keys[stop]
                cell[2] = stop
                heapreplace(heap, cell)
                continue
            # The block is spent and the scan still needs entries: read
            # the run's next block, entering its next file if need be.
            block_no = cell[5] + 1
            handles = cell[6]
            if block_no >= len(handles):
                file_idx = cell[8] + 1
                if file_idx >= cell[9]:
                    heapq.heappop(heap)
                    continue
                handles = cell[6] = cell[7][file_idx].block_handles
                cell[8] = file_idx
                block_no = 0
            block = fetch(handles[block_no])
            keys = block.keys
            cell[0] = keys[0]
            cell[2] = 0
            cell[3] = keys
            cell[4] = block.values
            cell[5] = block_no
            heapreplace(heap, cell)
        return out

    @staticmethod
    def _seek(
        start: str,
        priority: int,
        files: List[SSTable],
        file_idx: int,
        file_end: int,
        fetch: BlockFetch,
    ) -> list:  # hot-path
        """A scan cell positioned at ``start`` in ``files[file_idx]``,
        whose last key is >= ``start``: one block read, or two when the
        first-key index picks a block whose keys all sort below
        ``start`` (the next block of the same file then starts above it).
        """
        table = files[file_idx]
        handles = table.block_handles
        block_no = table.first_block_no_for(start)
        block = fetch(handles[block_no])
        keys = block.keys
        pos = bisect_left(keys, start)
        if pos == len(keys):
            block_no += 1
            block = fetch(handles[block_no])
            keys = block.keys
            pos = 0
        return [keys[pos], priority, pos, keys, block.values, block_no, handles,
                files, file_idx, file_end]

    # -- crash recovery -----------------------------------------------------------------

    def simulate_crash_and_recover(self) -> int:
        """Drop volatile state and rebuild the MemTable from the WAL.

        Models a process crash: the MemTable (volatile) is lost, the
        WAL and SSTables (durable) survive.  Replaying the log restores
        every intact record; a torn tail (records whose checksum fails)
        is discarded and counted in :attr:`wal_records_lost_total`.
        Returns the number of records replayed.
        """
        records = self.wal.replay()
        self.memtable = MemTable()
        for key, value in records:
            if value is None:
                self.memtable.delete(key)
            else:
                self.memtable.put(key, value)
        self.crash_recoveries_total += 1
        self.wal_records_lost_total += self.wal.last_replay_dropped
        return len(records)

    # -- bulk loading -----------------------------------------------------------------

    def bulk_load(self, items: Iterable[Entry], seed: int = 7) -> None:
        """Pre-populate the tree with sorted unique ``(key, value)`` pairs.

        Spreads entries across levels proportionally to level capacity
        (deepest level holding the bulk), producing a realistic resident
        LSM shape without replaying millions of puts.  Only valid on an
        empty tree.
        """
        if self.levels.total_entries() or self.memtable:
            raise StorageError("bulk_load requires an empty tree")
        keys: List[str] = []
        values: List[Optional[str]] = []
        for key, value in items:
            keys.append(key)
            values.append(value)
        for i in range(1, len(keys)):
            if keys[i - 1] >= keys[i]:
                raise StorageError("bulk_load input must be sorted and unique")

        levels_used = self._bulk_levels_for(len(keys))
        weights = np.array(
            [self.options.level_capacity_entries(lv) for lv in levels_used],
            dtype=float,
        )
        probs = weights / weights.sum()
        rng = np.random.default_rng(seed)
        assignment = rng.choice(len(levels_used), size=len(keys), p=probs)
        for slot, level in enumerate(levels_used):
            mask = (assignment == slot).tolist()
            self.compactor.write_run(
                level, list(compress(keys, mask)), list(compress(values, mask))
            )

    def _bulk_levels_for(self, n: int) -> List[int]:
        """Deepest-first contiguous level span whose capacity covers ``n``."""
        for bottom in range(1, self.options.max_levels):
            capacity = sum(
                self.options.level_capacity_entries(lv) for lv in range(1, bottom + 1)
            )
            if capacity >= n:
                return list(range(1, bottom + 1))
        return list(range(1, self.options.max_levels))

    # -- reward-model inputs -----------------------------------------------------------------

    @property
    def num_levels(self) -> int:
        """``L`` in the paper's reward model."""
        return self.levels.num_levels

    @property
    def num_sorted_runs(self) -> int:
        """``r`` in the paper's reward model."""
        return self.levels.num_sorted_runs

    @property
    def level0_run_count(self) -> int:
        """Current number of Level-0 runs."""
        return self.levels.level0_file_count

    @property
    def sst_reads_total(self) -> int:
        """Data-block reads that reached the simulated disk."""
        return self.disk.block_reads_total

    # -- sanitizer protocol -----------------------------------------------------

    def check_invariants(self) -> None:
        """Manifest health cross-checked against the simulated disk.

        Delegates to :meth:`LevelState.check_invariants` with the disk's
        liveness predicate, so a manifest entry whose SSTable was
        dropped (or a compaction that forgot to unlink an input) trips
        here.
        """
        self.levels.check_invariants(is_live=self.disk.has)
