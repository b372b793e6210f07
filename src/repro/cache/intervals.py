"""Complete-interval bookkeeping for the Range Cache.

A *complete interval* ``[start, end]`` (inclusive string bounds) records
that every live database key within the bounds is currently resident in
the cache, so a range scan beginning inside it can be answered without
touching the LSM-tree.  Inserting a scan result adds (and merges)
intervals; evicting cached keys splits the intervals around them using
the evicted keys' cached neighbours as the new bounds.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

from repro.errors import InvariantError

Interval = Tuple[str, str]  # inclusive (start, end), start <= end


class IntervalSet:
    """Sorted, disjoint set of inclusive string-key intervals."""

    def __init__(self) -> None:
        self._starts: List[str] = []
        self._ends: List[str] = []

    def __len__(self) -> int:
        return len(self._starts)

    def intervals(self) -> List[Interval]:
        """All intervals in order."""
        return list(zip(self._starts, self._ends))

    def clear(self) -> None:
        """Drop all intervals."""
        self._starts.clear()
        self._ends.clear()

    # -- queries ----------------------------------------------------------------

    def covering(self, point: str) -> Optional[Interval]:
        """The interval containing ``point``, or None."""
        idx = bisect.bisect_right(self._starts, point) - 1
        if idx >= 0 and self._ends[idx] >= point:
            return self._starts[idx], self._ends[idx]
        return None

    def index_covering(self, point: str) -> Optional[int]:
        """Index of the interval containing ``point``, or None."""
        idx = bisect.bisect_right(self._starts, point) - 1
        if idx >= 0 and self._ends[idx] >= point:
            return idx
        return None

    # -- mutation ----------------------------------------------------------------

    def add(self, start: str, end: str) -> None:  # hot-path
        """Insert ``[start, end]``, merging any overlapping intervals.

        The absorbed span is replaced with one slice assignment — a
        single memmove — instead of a ``del`` + ``insert`` pair, each
        of which would shift the list tail separately.
        """
        if start > end:
            raise ValueError(f"interval start {start!r} > end {end!r}")
        # Find the span of existing intervals that overlap [start, end].
        lo = bisect.bisect_left(self._ends, start)
        hi = bisect.bisect_right(self._starts, end)
        if lo < hi:
            start = min(start, self._starts[lo])
            end = max(end, self._ends[hi - 1])
        self._starts[lo:hi] = (start,)
        self._ends[lo:hi] = (end,)

    def split_evicted(
        self, victims: List[str], cuts: List[int], resident: List[str]
    ) -> None:  # hot-path
        """Split the intervals around a batch of evicted keys, in one pass.

        ``victims`` are the evicted keys in ascending order, ``resident``
        the sorted keys still cached after their removal, and ``cuts[j]``
        the index ``victims[j]`` would take in ``resident``
        (``bisect_left(resident, victims[j])``).  An interval ``[a, b]``
        holding victims ``v1 < ... < vk`` keeps one piece per gap that
        still holds a resident key: ``[a, r]`` before ``v1`` (``r`` the
        last resident key below it), ``[r, r']`` between two victims (the
        first and last resident key there) and ``[r, b]`` after ``vk``.
        That is exactly what evicting the victims one at a time, in any
        order, and cutting the covering interval at each victim's
        surviving neighbours would leave.  Victims outside every interval
        change nothing.
        """
        starts, ends = self._starts, self._ends
        top = len(resident)
        j, n = 0, len(victims)
        while j < n:
            idx = self.index_covering(victims[j])
            if idx is None:
                j += 1
                continue
            a, b = starts[idx], ends[idx]
            k = bisect.bisect_right(victims, b, j)  # victims[j:k] lie in [a, b]
            # Victims with no resident key between them share a cut, so
            # each distinct cut closes one piece and opens the next.
            gaps = sorted(set(cuts[j:k]))
            new_starts: List[str] = []
            new_ends: List[str] = []
            first, last = gaps[0], gaps[-1]
            if first and resident[first - 1] >= a:
                new_starts.append(a)
                new_ends.append(resident[first - 1])
            for x, y in zip(gaps, gaps[1:]):
                new_starts.append(resident[x])
                new_ends.append(resident[y - 1])
            if last < top and resident[last] <= b:
                new_starts.append(resident[last])
                new_ends.append(b)
            starts[idx : idx + 1] = new_starts
            ends[idx : idx + 1] = new_ends
            j = k

    def check_invariants(self) -> None:
        """Intervals must be well-formed, sorted, and disjoint."""
        if len(self._starts) != len(self._ends):
            raise InvariantError(
                f"IntervalSet: {len(self._starts)} starts but "
                f"{len(self._ends)} ends"
            )
        for i, (start, end) in enumerate(zip(self._starts, self._ends)):
            if start > end:
                raise InvariantError(
                    f"IntervalSet: interval {i} inverted: [{start!r}, {end!r}]"
                )
            if i > 0 and self._ends[i - 1] >= start:
                raise InvariantError(
                    f"IntervalSet: intervals {i - 1} and {i} overlap or touch "
                    f"out of order: end {self._ends[i - 1]!r} >= start {start!r}"
                )
