"""Per-window workload and I/O statistics (the Stats Collector).

The Background Tuning Module's first half: an engine-side collector
that tallies each operation as it happens and, at the end of every
window, folds in deltas from the disk counters, the cache stats, and
the compaction listener to produce one :class:`WindowStats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Tuple


@dataclass
class WindowStats:
    """Everything the controller sees about one window."""

    window_index: int = 0
    ops: int = 0
    points: int = 0
    scans: int = 0
    writes: int = 0
    deletes: int = 0
    scan_length_sum: int = 0
    # cache outcomes observed at the engine level
    range_point_hits: int = 0
    range_scan_hits: int = 0
    kv_hits: int = 0
    block_hits: int = 0
    block_misses: int = 0
    # I/O and structural churn
    io_miss: int = 0  # disk block reads in the window (query path)
    compactions: int = 0
    blocks_invalidated: int = 0
    # end-of-window snapshots
    num_levels: int = 1
    level0_runs: int = 0
    range_occupancy: float = 0.0
    block_occupancy: float = 0.0
    range_ratio: float = 0.0

    @property
    def reads(self) -> int:
        """Read operations (points + scans)."""
        return self.points + self.scans

    @property
    def point_ratio(self) -> float:
        """Fraction of operations that were point lookups."""
        return self.points / self.ops if self.ops else 0.0

    @property
    def scan_ratio(self) -> float:
        """Fraction of operations that were scans."""
        return self.scans / self.ops if self.ops else 0.0

    @property
    def write_ratio(self) -> float:
        """Fraction of operations that were writes/deletes."""
        return (self.writes + self.deletes) / self.ops if self.ops else 0.0

    @property
    def avg_scan_length(self) -> float:
        """Mean requested scan length over the window."""
        return self.scan_length_sum / self.scans if self.scans else 0.0

    @property
    def range_hit_rate(self) -> float:
        """Range-cache hits over read operations."""
        if not self.reads:
            return 0.0
        return (self.range_point_hits + self.range_scan_hits) / self.reads

    @property
    def block_hit_rate(self) -> float:
        """Block-cache hit fraction among block accesses."""
        total = self.block_hits + self.block_misses
        return self.block_hits / total if total else 0.0

    def is_healthy(self) -> bool:
        """Whether the window is safe to feed into the RL controller.

        A stats blackout (collector outage, counter wrap, poisoned
        feed) shows up as non-finite or impossible values; the
        controller's degraded-mode guard checks this before computing a
        reward, so degenerate stats can never reach the actor-critic.
        """
        fields = (
            self.ops,
            self.points,
            self.scans,
            self.writes,
            self.deletes,
            self.scan_length_sum,
            self.io_miss,
            self.block_hits,
            self.block_misses,
            self.num_levels,
            self.level0_runs,
            self.range_occupancy,
            self.block_occupancy,
            self.range_ratio,
        )
        if any(not math.isfinite(float(v)) for v in fields):
            return False
        if self.ops <= 0 or self.io_miss < 0:
            return False
        if self.points < 0 or self.scans < 0 or self.scan_length_sum < 0:
            return False
        return True

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready field dict (the obs audit log's window payload)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WindowStats":
        """Rebuild from :meth:`to_dict` output (or a shard export).

        Tolerant by design: missing fields take their dataclass
        defaults and unknown keys are ignored, so audit logs written by
        an older or newer schema still load — cross-version replay then
        fails loudly at verification, not at parse time.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


#: The counter fields of :class:`WindowStats`: per-window tallies that
#: sum across windows and shards (the rest are end-of-window snapshots).
COUNTERS: Tuple[str, ...] = (
    "ops",
    "points",
    "scans",
    "writes",
    "deletes",
    "scan_length_sum",
    "range_point_hits",
    "range_scan_hits",
    "kv_hits",
    "block_hits",
    "block_misses",
    "io_miss",
    "compactions",
    "blocks_invalidated",
)


def _add_counters(out: WindowStats, window: WindowStats) -> None:
    """Add ``window``'s :data:`COUNTERS` into ``out``."""
    for name in COUNTERS:
        setattr(out, name, getattr(out, name) + getattr(window, name))


def merge_windows(windows: list[WindowStats]) -> WindowStats:
    """Aggregate several windows into one (cross-shard reporting).

    Counters sum; the structural snapshots (``num_levels``,
    ``level0_runs``) take the maximum, because the fleet is as deep as
    its deepest shard.  The serving layer merges its shards' lifetime
    windows into the fleet-wide window; the other snapshots keep their
    defaults, and an empty list merges to the default window.
    """
    out = WindowStats()
    for w in windows:
        _add_counters(out, w)
        out.num_levels = max(out.num_levels, w.num_levels)
        out.level0_runs = max(out.level0_runs, w.level0_runs)
    return out


class StatsCollector:
    """Accumulates one window at a time; engine feeds it per-op events."""

    def __init__(self) -> None:
        #: The in-progress window.  Public so hot paths (engine per-op
        #: window checks, the simulated clock's counter captures) can
        #: read counters without a property hop; it is a *live* object
        #: that is replaced wholesale at every :meth:`end_window`, so
        #: never retain a reference across a window boundary.
        self.current = WindowStats()
        self._window_index = 0
        self._pending_compactions = 0
        self._pending_blocks_invalidated = 0
        #: Lifetime counters plus the last sealed window's structural
        #: snapshots (for end-of-run reports).
        self.lifetime = WindowStats()

    # -- per-op events ------------------------------------------------------------

    def note_point(self, range_hit: bool, kv_hit: bool = False) -> None:  # hot-path
        """Record one point lookup and where it was served."""
        cur = self.current
        cur.ops += 1
        cur.points += 1
        if range_hit:
            cur.range_point_hits += 1
        if kv_hit:
            cur.kv_hits += 1

    def note_scan(self, length: int, range_hit: bool) -> None:  # hot-path
        """Record one range scan of requested ``length``."""
        cur = self.current
        cur.ops += 1
        cur.scans += 1
        cur.scan_length_sum += length
        if range_hit:
            cur.range_scan_hits += 1

    def note_write(self) -> None:  # hot-path
        """Record one put."""
        cur = self.current
        cur.ops += 1
        cur.writes += 1

    def note_delete(self) -> None:  # hot-path
        """Record one delete."""
        cur = self.current
        cur.ops += 1
        cur.deletes += 1

    def note_compaction(self, blocks_invalidated: int) -> None:
        """Compaction-listener hook (may fire mid-window)."""
        self._pending_compactions += 1
        self._pending_blocks_invalidated += blocks_invalidated

    @property
    def ops_in_window(self) -> int:
        """Operations recorded since the last :meth:`end_window`."""
        return self.current.ops

    def totals(self) -> WindowStats:
        """Lifetime counters including the in-progress window.

        Read a few times per run, by the benchmark harness and the perf
        metrics; the serving simulator's clock reads :attr:`lifetime`
        and :attr:`current` directly.
        """
        out = WindowStats()
        _add_counters(out, self.lifetime)
        _add_counters(out, self.current)
        return out

    # -- window boundary ------------------------------------------------------------

    def end_window(
        self,
        io_miss: int,
        block_hits: int,
        block_misses: int,
        num_levels: int,
        level0_runs: int,
        range_occupancy: float,
        block_occupancy: float,
        range_ratio: float,
    ) -> WindowStats:
        """Seal the window with I/O deltas and snapshots; start the next."""
        window = self.current
        window.window_index = self._window_index
        window.io_miss = io_miss
        window.block_hits = block_hits
        window.block_misses = block_misses
        window.compactions = self._pending_compactions
        window.blocks_invalidated = self._pending_blocks_invalidated
        window.num_levels = num_levels
        window.level0_runs = level0_runs
        window.range_occupancy = range_occupancy
        window.block_occupancy = block_occupancy
        window.range_ratio = range_ratio

        life = self.lifetime
        _add_counters(life, window)
        life.num_levels = num_levels
        life.level0_runs = level0_runs
        self._window_index += 1
        self.current = WindowStats()
        self._pending_compactions = 0
        self._pending_blocks_invalidated = 0
        return window
