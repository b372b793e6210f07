"""The cached key-value engine: query handling and cache fill paths.

:class:`KVEngine` implements the paper's Figure 5 on top of any cache
composition:

* **Query handling path** — a request probes the range cache first,
  then the MemTable, then the SSTables (whose block reads flow through
  the block cache), and only then the simulated disk.
* **Cache fill path** — blocks read from disk populate the block cache;
  query *results* are admitted into the range/KV caches subject to the
  configured admission control.

Every baseline in the paper's evaluation is a composition of the same
engine: block cache only, KV cache only, range cache with some eviction
policy, or the full AdCache stack with a controller attached.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro import sanitize
from repro.cache.admission import FrequencyAdmission, PartialScanAdmission
from repro.cache.base import CacheStats
from repro.cache.block_cache import BlockCache
from repro.cache.kv_cache import KVCache
from repro.cache.range_cache import RangeCache
from repro.core.stats import StatsCollector, WindowStats
from repro.lsm.block import BlockHandle, DataBlock, Entry
from repro.lsm.tree import LSMTree
from repro.obs import names as N
from repro.obs.recorder import NULL_RECORDER, Recorder

if TYPE_CHECKING:  # bench.simclock imports this module; runtime import is local
    from repro.bench.simclock import ClockReading
    from repro.serve.tier2 import Tier2Client

#: :meth:`KVEngine._probe`'s "no cache could answer" (``None`` is an answer).
_TO_SSTABLES = object()
#: Controller callback: receives the sealed window's statistics.
WindowCallback = Callable[[WindowStats], None]


class KVEngine:
    """LSM-tree + cache composition + optional window controller.

    Parameters
    ----------
    tree:
        The LSM storage engine (its ``block_fetch`` is rewired when a
        block cache is supplied).
    block_cache / range_cache / kv_cache:
        Any subset; omitted components are skipped in both paths.
    freq_admission:
        Frequency gate for point-result admission (AdCache only).
    scan_admission:
        Partial-admission policy for scan results (AdCache only).
    window_size:
        Operations per control window; at each boundary the collector
        seals a :class:`WindowStats` and hands it to ``on_window``.
    on_window:
        The policy decision controller's entry point (may be None for
        static baselines — stats are still collected).
    """

    def __init__(
        self,
        tree: LSMTree,
        block_cache: Optional[BlockCache] = None,
        range_cache: Optional[RangeCache] = None,
        kv_cache: Optional[KVCache] = None,
        freq_admission: Optional[FrequencyAdmission] = None,
        scan_admission: Optional[PartialScanAdmission] = None,
        window_size: int = 1000,
        on_window: Optional[WindowCallback] = None,
    ) -> None:
        self.tree = tree
        self.block_cache = block_cache
        self.range_cache = range_cache
        self.kv_cache = kv_cache
        self.freq_admission = freq_admission
        self.scan_admission = scan_admission
        self.window_size = window_size
        self.on_window = on_window
        self.collector = StatsCollector()
        self.windows: List[WindowStats] = []

        if block_cache is not None:
            tree.set_block_fetch(block_cache.fetch_through)
        # The listener closes over the collector, not the engine: the
        # engine owns the tree that holds it, so ``self`` would be a cycle.
        collector = self.collector
        tree.add_compaction_listener(
            lambda event: collector.note_compaction(event.blocks_invalidated)
        )
        self._write_lock = threading.Lock()
        self._window_lock = threading.Lock()
        self._io_snapshot = tree.disk.block_reads_total
        self._block_stats_snapshot = (
            block_cache.stats if block_cache is not None else None
        )
        self.crashes_total = 0
        #: Shared-L2 hook; set by the serving layer's Tier2Coordinator
        #: when the fleet runs tiered (None keeps the flat read path).
        self.tier2_client: Optional["Tier2Client"] = None
        # Observability: a NullRecorder by default, so every instrumented
        # site costs one attribute read when observability is off.
        self.recorder: Recorder = NULL_RECORDER
        # Obs sim time: the reading at the last window boundary and the
        # simulated us charged up to it (None: no enabled recorder).  A
        # SimClock over ``self`` would make the engine a cycle.
        self._obs_last: Optional["ClockReading"] = None
        self._obs_charged_us = 0.0
        self._obs_block_stats: Optional[CacheStats] = None
        self._obs_range_stats: Optional[CacheStats] = None
        self._obs_admit_snapshot: Tuple[int, int] = (0, 0)
        self._obs_l2_snapshot: Tuple[int, int, int, int] = (0, 0, 0, 0)

    # -- observability ---------------------------------------------------------------

    def attach_recorder(self, recorder: Recorder) -> None:
        """Wire an observability recorder through the whole composition.

        Propagates to the LSM tree (and through it the compactor and any
        attached fault injector) and snapshots the cache/admission
        counters so window metrics report per-window deltas.  Timestamps
        are the simulated us this engine's metered counters cost — never
        wall time — charged at window boundaries.
        """
        self.recorder = recorder
        self.tree.attach_recorder(recorder)
        if self.range_cache is not None:
            self.range_cache.recorder = recorder
        if self.freq_admission is not None:
            self.freq_admission.recorder = recorder
        if self.scan_admission is not None:
            self.scan_admission.recorder = recorder
        if recorder.enabled:
            # Imported here: bench.simclock imports this module, so a
            # module-level import would be a cycle.
            from repro.bench.simclock import ClockReading

            self._obs_last = ClockReading.capture(self)
            self._obs_charged_us = 0.0
            self._obs_block_stats = (
                self.block_cache.stats if self.block_cache is not None else None
            )
            self._obs_range_stats = (
                self.range_cache.stats.snapshot()
                if self.range_cache is not None
                else None
            )
            fa = self.freq_admission
            self._obs_admit_snapshot = (
                (fa.admitted_total, fa.rejected_total) if fa is not None else (0, 0)
            )

    def _obs_window_metrics(self, window: WindowStats) -> None:
        """Fold one sealed window into the recorder (pre-``on_window``).

        Runs before the controller callback so it sees the window as the
        collector sealed it, ahead of any chaos-harness poisoning; the
        ``is_healthy`` guard keeps non-finite fields out of the integer
        counters regardless.
        """
        recorder = self.recorder
        last = self._obs_last
        if last is not None:
            from repro.bench.simclock import ClockReading, elapsed_us

            now = ClockReading.capture(self)
            self._obs_charged_us += elapsed_us(last, now)
            self._obs_last = now
            recorder.advance_to(self._obs_charged_us)
        if window.is_healthy():
            recorder.inc(N.WINDOW_OPS, window.ops)
            recorder.inc(N.WINDOW_POINTS, window.points)
            recorder.inc(N.WINDOW_SCANS, window.scans)
            recorder.inc(N.WINDOW_WRITES, window.writes)
            recorder.inc(N.WINDOW_DELETES, window.deletes)
            recorder.inc(N.WINDOW_IO_MISS, window.io_miss)
            recorder.inc(N.RANGE_HITS, window.range_point_hits + window.range_scan_hits)
            if self.kv_cache is not None:
                recorder.inc(N.KV_HITS, window.kv_hits)
            recorder.inc(N.BLOCK_HITS, window.block_hits)
            recorder.inc(N.BLOCK_MISSES, window.block_misses)
            recorder.observe(N.H_WINDOW_IO_MISS, window.io_miss)
        if self.block_cache is not None and self._obs_block_stats is not None:
            current = self.block_cache.stats
            delta = current.delta(self._obs_block_stats)
            self._obs_block_stats = current
            recorder.inc(N.BLOCK_EVICTIONS, delta.evictions)
            recorder.inc(N.BLOCK_REJECTIONS, delta.rejections)
        if self.range_cache is not None and self._obs_range_stats is not None:
            current = self.range_cache.stats.snapshot()
            delta = current.delta(self._obs_range_stats)
            self._obs_range_stats = current
            recorder.inc(N.RANGE_INSERTIONS, delta.insertions)
            recorder.inc(N.RANGE_EVICTIONS, delta.evictions)
            recorder.inc(N.RANGE_REJECTIONS, delta.rejections)
        fa = self.freq_admission
        if fa is not None:
            admitted, rejected = fa.admitted_total, fa.rejected_total
            prev_admitted, prev_rejected = self._obs_admit_snapshot
            recorder.inc(N.ADMIT_POINT_ACCEPTED, admitted - prev_admitted)
            recorder.inc(N.ADMIT_POINT_REJECTED, rejected - prev_rejected)
            self._obs_admit_snapshot = (admitted, rejected)
        client = self.tier2_client
        if client is not None:
            probes, hits = client.probes, client.hits
            demotions, admits = client.demotions, client.admits
            p0, h0, d0, a0 = self._obs_l2_snapshot
            recorder.inc(N.L2_HITS, hits - h0)
            recorder.inc(N.L2_MISSES, (probes - hits) - (p0 - h0))
            recorder.inc(N.L2_DEMOTIONS, demotions - d0)
            recorder.inc(N.L2_ADMITS, admits - a0)
            recorder.inc(N.L2_REJECTS, (demotions - admits) - (d0 - a0))
            self._obs_l2_snapshot = (probes, hits, demotions, admits)
        for gauge, value in (
            (N.G_RANGE_OCCUPANCY, window.range_occupancy),
            (N.G_BLOCK_OCCUPANCY, window.block_occupancy),
            (N.G_RANGE_RATIO, window.range_ratio),
            (N.G_NUM_LEVELS, float(window.num_levels)),
            (N.G_LEVEL0_RUNS, float(window.level0_runs)),
        ):
            if math.isfinite(value):
                recorder.set_gauge(gauge, value)

    # -- reads ---------------------------------------------------------------

    def _probe(self, key: str) -> object:  # hot-path
        """The cache half of the query handling path, one key at a time.

        Probes range cache -> KV cache -> MemTable, in that order, and
        notes the lookup where it is answered.  Returns the answer
        (``None`` for a MemTable tombstone), or :data:`_TO_SSTABLES`
        when only the SSTables can tell.
        """
        range_cache = self.range_cache
        if range_cache is not None:
            value = range_cache.get_point(key)
            if value is not None:
                self._note_point(True)
                return value
        kv_cache = self.kv_cache
        if kv_cache is not None:
            value = kv_cache.get(key)
            if value is not None:
                self._note_point(False, True)
                return value
        found, value = self.tree.get_from_memtable(key)
        if not found:
            return _TO_SSTABLES
        self._note_point(False)
        return value

    def _note_point(self, range_hit: bool, kv_hit: bool = False) -> None:  # hot-path
        """Count one point lookup, sealing the window it fills."""
        collector = self.collector
        collector.note_point(range_hit, kv_hit)
        if collector.current.ops >= self.window_size:
            self._maybe_end_window()

    def get(self, key: str) -> Optional[str]:  # hot-path
        """Point lookup via the query handling path."""
        value = self._probe(key)
        if value is not _TO_SSTABLES:
            return value  # type: ignore[return-value]
        value, _ = self.tree.get_from_sstables_with_origin(key)
        if value is not None:
            self._fill_point(key, value)
        self._note_point(False)
        return value

    def scan(self, start: str, length: int) -> List[Entry]:  # hot-path
        """Range scan via the query handling path."""
        collector = self.collector
        range_cache = self.range_cache
        if range_cache is not None:
            cached = range_cache.get_range(start, length)
            if cached is not None:
                collector.note_scan(length, True)
                if collector.current.ops >= self.window_size:
                    self._maybe_end_window()
                return cached
        result = self.tree.scan(start, length)
        if range_cache is not None and result:
            self._fill_scan(start, result)
        collector.note_scan(length, False)
        if collector.current.ops >= self.window_size:
            self._maybe_end_window()
        return result

    def multi_get(self, keys: Sequence[str]) -> List[Optional[str]]:  # hot-path
        """Batched point lookups through the query handling path.

        Three stages, each preserving the scalar path's per-key
        effects:

        1. :meth:`get`'s own cache probes (:meth:`_probe`) in arrival
           order — except that a key repeated within the batch is
           probed once: all requests see the same pre-batch snapshot,
           so later occurrences share the first's result and count as
           hits (no I/O happened for them);
        2. one table-major batched SSTable pass over the remaining
           misses — vectorized bloom probes and per-batch
           duplicate-block coalescing
           (:meth:`~repro.lsm.tree.LSMTree.multi_get_from_sstables`);
        3. fills for the found keys: KV puts in arrival order, one
           arrival-order admission loop over the batch
           (:meth:`~repro.cache.admission.FrequencyAdmission.observe_and_decide_batch`),
           and a sort-and-splice run into the range cache
           (:meth:`~repro.cache.range_cache.RangeCache.insert_points`).

        A batch of one is :meth:`get`.  Larger batches keep identical
        admission decisions and counter totals for the probe work but
        spend fewer block fetches; that saving is the point.
        """
        n = len(keys)
        if n == 1:
            return [self.get(keys[0])]
        range_cache = self.range_cache
        kv_cache = self.kv_cache
        out: List[Optional[str]] = [None] * n
        pending_idx: List[int] = []
        pending_keys: List[str] = []
        first_of: Dict[str, int] = {}
        dups: List[Tuple[int, int]] = []
        probe = self._probe
        for i, key in enumerate(keys):
            first = first_of.setdefault(key, i)
            if first != i:
                # Duplicate within the batch: same snapshot, same
                # answer; copied from the first occurrence after the
                # tree pass resolves it.
                dups.append((i, first))
                self._note_point(True)
                continue
            value = probe(key)
            if value is _TO_SSTABLES:
                pending_idx.append(i)
                pending_keys.append(key)
            else:
                out[i] = value  # type: ignore[assignment]
        if pending_idx:
            values = self.tree.multi_get_from_sstables(pending_keys)
            found_keys: List[str] = []
            found_values: List[str] = []
            for j, value in enumerate(values):
                if value is not None:
                    found_keys.append(pending_keys[j])
                    found_values.append(value)
            if found_keys:
                if kv_cache is not None:
                    for key, value in zip(found_keys, found_values):
                        kv_cache.put(key, value)
                if range_cache is not None:
                    if self.freq_admission is not None:
                        decisions = self.freq_admission.observe_and_decide_batch(
                            found_keys
                        )
                    else:
                        decisions = [True] * len(found_keys)
                    admitted = [
                        (key, value)
                        for key, value, admit in zip(
                            found_keys, found_values, decisions
                        )
                        if admit
                    ]
                    rejected = len(found_keys) - len(admitted)
                    if rejected:
                        range_cache.stats.rejections += rejected
                    if admitted:
                        range_cache.insert_points(admitted)
            for j, i in enumerate(pending_idx):
                out[i] = values[j]
                self._note_point(False)
        for i, first in dups:
            out[i] = out[first]
        return out

    def multi_put(self, pairs: Sequence[Entry]) -> None:  # hot-path
        """Batched inserts: :meth:`put` per pair, in order (WAL and
        MemTable work cannot coalesce without changing flush timing)."""
        put = self.put
        for key, value in pairs:
            put(key, value)

    def multi_scan(
        self, requests: Sequence[Tuple[str, int]]
    ) -> List[List[Entry]]:  # hot-path
        """Batched scan dispatch with within-batch block coalescing.

        All requests in one batch observe the same pre-batch snapshot
        (callers hand the engine read-only runs — see
        :func:`~repro.bench.harness.apply_batch` and the router's
        same-kind runs).  Requests execute in arrival order — cache
        admissions and evictions evolve exactly as the scalar loop's
        would — with two batch-only savings:

        * **coalesced block fetches** — tree scans in the batch share a
          block memo, so scans touching the same data block fetch it
          once (one block-cache probe, at most one metered read);
        * **covering-window reuse** — each tree scan's materialized
          result is the first ``length`` live entries >= ``start`` and
          lists *every* live entry of its window, so a later request
          whose window sits inside the most recent one is sliced out
          directly: no merge, no fetches, no re-admission.

        A batch of one runs the scalar :meth:`scan` verbatim — digests,
        fingerprints, and counters are bit-identical.  Larger batches
        return identical entries per request; window-served requests
        count as range hits (no I/O happened).
        """
        n = len(requests)
        if n == 1:
            start, length = requests[0]
            return [self.scan(start, length)]
        collector = self.collector
        window_size = self.window_size
        range_cache = self.range_cache
        out: List[List[Entry]] = [[] for _ in range(n)]
        memo_start: Optional[str] = None
        memo_keys: List[str] = []
        memo_entries: List[Entry] = []
        block_memo: Dict[BlockHandle, DataBlock] = {}
        tree_fetch = self.tree.fetch_block

        def fetch(handle: BlockHandle) -> DataBlock:
            block = block_memo.get(handle)
            if block is None:
                block = tree_fetch(handle)
                block_memo[handle] = block
            return block

        for i in range(n):
            start, length = requests[i]
            if range_cache is not None:
                cached = range_cache.get_range(start, length)
                if cached is not None:
                    out[i] = cached
                    collector.note_scan(length, True)
                    if collector.current.ops >= window_size:
                        self._maybe_end_window()
                    continue
            if memo_start is not None and start >= memo_start:
                lo = bisect.bisect_left(memo_keys, start)
                if len(memo_keys) - lo >= length:
                    out[i] = memo_entries[lo : lo + length]
                    collector.note_scan(length, True)
                    if collector.current.ops >= window_size:
                        self._maybe_end_window()
                    continue
            result = self.tree.scan(start, length, fetch)
            if range_cache is not None and result:
                self._fill_scan(start, result)
            collector.note_scan(length, False)
            if collector.current.ops >= window_size:
                self._maybe_end_window()
            out[i] = result
            memo_start = start
            memo_entries = result
            memo_keys = [key for key, _ in result]
        return out

    # -- cache fill path ---------------------------------------------------------------

    def _fill_point(self, key: str, value: str) -> None:
        if self.kv_cache is not None:
            self.kv_cache.put(key, value)
        if self.range_cache is not None:
            if self.freq_admission is not None:
                if self.freq_admission.observe_and_decide(key):
                    self.range_cache.insert_point(key, value)
                else:
                    self.range_cache.stats.rejections += 1
            else:
                self.range_cache.insert_point(key, value)

    def _fill_scan(self, start: str, result: List[Entry]) -> None:
        assert self.range_cache is not None
        if self.scan_admission is not None:
            admit = self.scan_admission.admit_count(len(result))
        else:
            admit = len(result)
        if admit > 0:
            self.range_cache.insert_range(start, result, admit)
        else:
            self.range_cache.stats.rejections += 1
        recorder = self.recorder
        if recorder.enabled:
            length = len(result)
            if admit >= length:
                recorder.inc(N.ADMIT_SCAN_FULL)
            elif admit > 0:
                recorder.inc(N.ADMIT_SCAN_PARTIAL)
            else:
                recorder.inc(N.ADMIT_SCAN_REJECTED)
                recorder.event(N.EV_CACHE_REJECT, cache="range", scan_length=length)
            if admit > 0:
                recorder.observe(N.H_SCAN_ADMITTED, admit)

    # -- writes ---------------------------------------------------------------

    def put(self, key: str, value: str) -> None:  # hot-path
        """Insert/overwrite; keeps every cache coherent."""
        with self._write_lock:
            self.tree.put(key, value)
        if self.range_cache is not None:
            self.range_cache.on_write(key, value)
        if self.kv_cache is not None:
            self.kv_cache.on_write(key, value)
        collector = self.collector
        collector.note_write()
        if collector.current.ops >= self.window_size:
            self._maybe_end_window()

    def delete(self, key: str) -> None:  # hot-path
        """Delete; removes the key from every cache."""
        with self._write_lock:
            self.tree.delete(key)
        if self.range_cache is not None:
            self.range_cache.on_delete(key)
        if self.kv_cache is not None:
            self.kv_cache.on_delete(key)
        collector = self.collector
        collector.note_delete()
        if collector.current.ops >= self.window_size:
            self._maybe_end_window()

    # -- crash recovery ---------------------------------------------------------------

    def crash_and_recover(self) -> int:
        """Simulate a process crash and bring the engine back up.

        The tree loses its MemTable and rebuilds it from the WAL
        (torn-tail records are discarded); every cache is volatile, so
        all of them are dropped — recovered reads repopulate them from
        durable state, which keeps cache contents trivially consistent
        with what survived the crash.  Returns the number of WAL records
        replayed.
        """
        with self._write_lock:
            replayed = self.tree.simulate_crash_and_recover()
            for cache in self._caches():
                if cache is not None:
                    cache.clear()
            if self.block_cache is not None:
                self._block_stats_snapshot = self.block_cache.stats
            self.crashes_total += 1
            recorder = self.recorder
            if recorder.enabled:
                recorder.inc(N.ENGINE_CRASHES)
                recorder.event(N.EV_CRASH_RECOVER, wal_records_replayed=replayed)
        return replayed

    # -- window machinery ---------------------------------------------------------------

    def _maybe_end_window(self) -> None:
        """Seal the window if full.

        Hot-path callers pre-check ``collector.current.ops`` inline so
        this is only entered near a boundary; the check repeats under
        the lock because another thread may have sealed it first.
        """
        if self.collector.current.ops < self.window_size:
            return
        with self._window_lock:
            if self.collector.current.ops < self.window_size:
                return  # another thread sealed it
            self._end_window()

    def _end_window(self) -> None:
        io_now = self.tree.disk.block_reads_total
        io_miss = io_now - self._io_snapshot
        self._io_snapshot = io_now
        if self.block_cache is not None and self._block_stats_snapshot is not None:
            current = self.block_cache.stats
            delta = current.delta(self._block_stats_snapshot)
            self._block_stats_snapshot = current
            block_hits, block_misses = delta.hits, delta.misses
            block_occ = self.block_cache.occupancy
        else:
            block_hits = block_misses = 0
            block_occ = 0.0
        range_occ = (
            self.range_cache.occupancy if self.range_cache is not None else 0.0
        )
        window = self.collector.end_window(
            io_miss=io_miss,
            block_hits=block_hits,
            block_misses=block_misses,
            num_levels=self.tree.num_levels,
            level0_runs=self.tree.level0_run_count,
            range_occupancy=range_occ,
            block_occupancy=block_occ,
            range_ratio=self.current_range_ratio,
        )
        self.windows.append(window)
        if sanitize.env_enabled():
            self.check_invariants()
        recorder = self.recorder
        if recorder.enabled:
            self._obs_window_metrics(window)
        if self.on_window is not None:
            self.on_window(window)
        if recorder.enabled:
            recorder.event(
                N.EV_WINDOW,
                index=window.window_index,
                ops=window.ops,
                range_ratio=window.range_ratio,
            )
            recorder.end_window(window.window_index)

    # -- sanitizer protocol -----------------------------------------------------

    def _caches(self):
        return (self.block_cache, self.range_cache, self.kv_cache)

    def check_invariants(self) -> None:
        """Sweep every attached cache and the LSM manifest."""
        for cache in self._caches():
            if cache is not None:
                cache.check_invariants()
        self.tree.check_invariants()

    # -- serving-layer surface ---------------------------------------------------

    @property
    def cache_budget_total(self) -> int:
        """Combined byte budget across every attached cache."""
        return sum(c.budget_bytes for c in self._caches() if c is not None)

    def set_cache_budget(self, total_bytes: int) -> int:
        """Re-split a new total budget across the attached caches.

        The serving layer's global arbiter moves budget *between* engine
        shards; each shard then re-splits its new total proportionally
        to the shares its caches currently hold (an AdCache engine
        instead re-splits at its controller's learned boundary — see
        :meth:`AdCacheEngine.set_cache_budget`).  Returns the evictions
        the resize forced.
        """
        if total_bytes < 0:
            raise ValueError("total_bytes must be >= 0")
        caches = [c for c in self._caches() if c is not None]
        if not caches:
            return 0
        old_total = sum(c.budget_bytes for c in caches)
        evicted = 0
        if old_total <= 0:
            # Nothing to be proportional to: give everything to the
            # first cache (composition order: block first).
            shares = [total_bytes if i == 0 else 0 for i in range(len(caches))]
        else:
            shares = [c.budget_bytes * total_bytes // old_total for c in caches]
            shares[0] += total_bytes - sum(shares)  # rounding remainder
        for cache, share in zip(caches, shares):
            evicted += cache.resize(share)
        return evicted

    # -- introspection ---------------------------------------------------------------

    @property
    def current_range_ratio(self) -> float:
        """Fraction of the combined cache budget held by the range cache."""
        range_budget = (
            self.range_cache.budget_bytes if self.range_cache is not None else 0
        )
        block_budget = (
            self.block_cache.budget_bytes if self.block_cache is not None else 0
        )
        total = range_budget + block_budget
        return range_budget / total if total else 0.0

    @property
    def sst_reads_total(self) -> int:
        """Query-path data-block reads that reached the simulated disk."""
        return self.tree.disk.block_reads_total

    def flush_window(self) -> Optional[WindowStats]:
        """Force-seal a partial window (end-of-run bookkeeping)."""
        if self.collector.ops_in_window == 0:
            return None
        with self._window_lock:
            self._end_window()
        return self.windows[-1]
