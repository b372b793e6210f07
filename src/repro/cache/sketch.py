"""Decaying Count-Min sketch for frequency-based admission.

The paper's point-lookup admission (Section 3.4) counts missed keys "in
a compact data structure (e.g., Count-Min Sketch)" and normalizes a
key's frequency against the global sum of missed-key frequencies.  To
stay responsive it halves everything once any key's count reaches a
saturation point (default 8), exactly the TinyLFU aging scheme.

Counters are ``depth`` plain-Python integer rows of ``width`` columns;
increments use the conservative-update variant, which tightens the
classic overestimate bound without changing the "never underestimates"
guarantee.  Plain ints beat a numpy table here because every operation
touches exactly ``depth`` (= 4) scalars: array fancy-indexing costs
more per call than the whole plain-int update.  Row hashes are memoized
per key in a bounded FIFO map, so the miss path (estimate + increment
of the same key) hashes each key once.  A memo miss folds only the bytes
after the running common prefix of every key hashed so far, resuming
each row's FNV-1a from its state after that prefix
(:func:`~repro.lsm.bloom.fnv1a_from`); the prefix only shrinks, so the
states are recomputed at most once per byte of the first key.

Invariant (relied on by :meth:`normalized`): conservative update raises
each touched counter to at most ``old_min + 1``, so every row's column
sum is bounded by ``total``; halving floors both sides in lockstep
(``sum(c_i // 2) <= total // 2``), so ``estimate(key) <= total`` holds
with or without decay.  A normalized frequency above 1.0 is therefore
always corrupted bookkeeping, never "decay skew", and is raised as
:class:`~repro.errors.CacheError` instead of being clamped away.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.errors import CacheError
from repro.lsm.bloom import fnv1a, fnv1a_from

#: Keys whose row columns are memoized before the FIFO starts evicting.
_MEMO_LIMIT = 8192


class CountMinSketch:
    """Conservative-update Count-Min sketch with saturation halving.

    Parameters
    ----------
    width:
        Counters per row; larger -> fewer collisions.
    depth:
        Number of hash rows.
    saturation:
        When a key's estimate reaches this after an increment, all
        counters and the global sum are halved (integer division).
    seed:
        Salt for the row hashes.
    """

    def __init__(
        self,
        width: int = 4096,
        depth: int = 4,
        saturation: int = 8,
        seed: int = 0,
    ) -> None:
        if width <= 0 or depth <= 0:
            raise CacheError("width and depth must be positive")
        if saturation < 2:
            raise CacheError("saturation must be >= 2")
        self.width = width
        self.depth = depth
        self.saturation = saturation
        self._salts = [seed ^ (0xA5A5_0000 + i * 0x1234_5677) for i in range(depth)]
        self._rows_tab: List[List[int]] = [[0] * width for _ in range(depth)]
        self._memo: Dict[str, Tuple[int, ...]] = {}
        # Running common prefix of every key hashed, and each row salt's
        # FNV-1a state after it (see :meth:`columns`).
        self._prefix: Optional[str] = None
        self._states: List[int] = []
        self.total = 0  # global sum of observed increments (decayed with counters)
        self.decays_total = 0

    def columns(self, key: str) -> Tuple[int, ...]:  # hot-path
        """Per-row column indices for ``key`` (memoized, FIFO-bounded).

        Decay does not move keys between columns, so memo entries stay
        valid for the sketch's lifetime; the FIFO bound only limits
        memory, not correctness.
        """
        memo = self._memo
        cols = memo.get(key)
        if cols is None:
            prefix = self._prefix
            if prefix is None or not key.startswith(prefix):
                # The first key sets the prefix; later ones only shrink it.
                prefix = key if prefix is None else os.path.commonprefix([prefix, key])
                head = prefix.encode("utf-8")
                self._prefix = prefix
                self._states = [fnv1a(head, salt) for salt in self._salts]
            data = key[len(prefix) :].encode("utf-8")
            width = self.width
            cols = tuple(fnv1a_from(state, data) % width for state in self._states)
            if len(memo) >= _MEMO_LIMIT:
                del memo[next(iter(memo))]
            memo[key] = cols
        return cols

    def estimate(self, key: str) -> int:  # hot-path
        """Frequency estimate for ``key`` (never an underestimate)."""
        rows_tab = self._rows_tab
        estimate = None
        for row, col in zip(rows_tab, self.columns(key)):
            count = row[col]
            if estimate is None or count < estimate:
                estimate = count
        return estimate or 0

    def increment(self, key: str) -> int:  # hot-path
        """Count one occurrence of ``key``; returns the new estimate.

        Triggers a global halving when the estimate reaches saturation.
        The columns are hashed once and shared with the estimate taken
        here — the admission miss path never hashes a key twice.
        """
        rows_tab = self._rows_tab
        cols = self.columns(key)
        current = None
        for row, col in zip(rows_tab, cols):
            count = row[col]
            if current is None or count < current:
                current = count
        new_min = (current or 0) + 1
        # Conservative update: only raise counters below the new minimum.
        for row, col in zip(rows_tab, cols):
            if row[col] < new_min:
                row[col] = new_min
        self.total += 1
        if new_min >= self.saturation:
            self._decay()
            new_min //= 2
        return new_min

    def normalized(self, key: str) -> float:
        """``estimate(key) / total`` in [0, 1]; 0 when nothing counted.

        Conservative update plus lockstep halving guarantee
        ``estimate <= total`` (see the module docstring), so a ratio
        above 1.0 — with or without decays — means the counters and the
        global sum have diverged and is raised instead of clamped.
        """
        if self.total == 0:
            return 0.0
        ratio = self.estimate(key) / self.total
        if ratio > 1.0:
            raise CacheError(
                f"sketch estimate for {key!r} exceeds the global total "
                f"({self.estimate(key)} > {self.total} after "
                f"{self.decays_total} decays): counter bookkeeping corrupted"
            )
        return ratio

    def _decay(self) -> None:
        for row in self._rows_tab:
            for col, count in enumerate(row):
                if count:
                    row[col] = count >> 1
        self.total //= 2
        self.decays_total += 1

    def reset(self) -> None:
        """Zero all counters and the global sum."""
        for row in self._rows_tab:
            for col in range(self.width):
                row[col] = 0
        self.total = 0

    @property
    def size_bytes(self) -> int:
        """Memory footprint of the counter table (8-byte counters)."""
        return self.width * self.depth * 8
