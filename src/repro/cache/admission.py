"""Admission control: frequency gating for points, partial for scans.

Section 3.4 of the paper.  Two independent mechanisms, both with
RL-tunable parameters:

* :class:`FrequencyAdmission` — on every point-lookup miss the key's
  count in a decaying Count-Min sketch is incremented; the key is
  admitted only when its *normalized* frequency (count / global sum of
  missed-key counts) reaches a threshold.  The threshold is the RL
  action; 0 admits everything non-pathological, higher values admit
  only the persistently hot tail.
* :class:`PartialScanAdmission` — a scan of length ``l`` is fully
  admitted when ``l <= a``; otherwise only ``round(b * (l - a))``
  entries are admitted per access.  Overlapping scans accumulate
  coverage across accesses, so ``b`` sets how many repetitions it takes
  for a hot range to become fully resident.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cache.sketch import CountMinSketch
from repro.errors import CacheError
from repro.obs import names as N
from repro.obs.recorder import NULL_RECORDER, Recorder


class FrequencyAdmission:
    """TinyLFU-style frequency filter for point-lookup results.

    Parameters
    ----------
    sketch:
        Count-Min sketch used for frequency estimates (owns decay).
    threshold:
        Normalized-frequency admission bar in [0, 1].  Adjusted at
        runtime by the RL controller via :meth:`set_threshold`.
    """

    def __init__(self, sketch: CountMinSketch, threshold: float = 0.0) -> None:
        self._sketch = sketch
        self._threshold = 0.0
        self.recorder: Recorder = NULL_RECORDER
        self.set_threshold(threshold)
        self.admitted_total = 0
        self.rejected_total = 0

    @property
    def threshold(self) -> float:
        """Current normalized-frequency bar."""
        return self._threshold

    def set_threshold(self, threshold: float) -> None:
        """Clamp and apply a new admission bar."""
        if threshold != threshold:  # NaN guard
            raise CacheError("threshold must not be NaN")
        clamped = min(1.0, max(0.0, threshold))
        if clamped != self._threshold and self.recorder.enabled:
            self.recorder.event(
                N.EV_ADMISSION_RETUNE,
                policy="frequency",
                threshold=clamped,
                previous=self._threshold,
            )
        self._threshold = clamped

    def observe_and_decide(self, key: str) -> bool:  # hot-path
        """Count one miss of ``key`` and decide whether to admit it.

        Always admits when the bar is zero (but still counts, keeping
        the sketch warm for when the controller raises the bar).  The
        estimate-then-increment pair runs as one sketch pass — the
        sketch hashes the key's row columns once (and memoizes them),
        so a miss never pays the row hashes twice.
        """
        count = self._sketch.increment(key)
        total = max(1, self._sketch.total)
        admit = (count / total) >= self._threshold
        if admit:
            self.admitted_total += 1
        else:
            self.rejected_total += 1
        return admit

    def observe_and_decide_batch(self, keys: Sequence[str]) -> List[bool]:  # hot-path
        """Per-key :meth:`observe_and_decide` for a whole miss batch.

        The increments and decisions run in arrival order, because each
        decision divides by the sketch total *as of that key's update*
        and a mid-batch decay must halve the counters before later keys
        are judged.  The loop is inlined rather than calling
        :meth:`observe_and_decide` per key, so a traced run records one
        span per batch.  Decisions and admitted/rejected counters are
        bit-identical to a scalar loop over ``keys``.
        """
        sketch = self._sketch
        threshold = self._threshold
        increment = sketch.increment
        out: List[bool] = []
        admitted_count = 0
        for key in keys:
            count = increment(key)
            total = max(1, sketch.total)
            admit = (count / total) >= threshold
            if admit:
                admitted_count += 1
            out.append(admit)
        self.admitted_total += admitted_count
        self.rejected_total += len(keys) - admitted_count
        return out

    @property
    def sketch(self) -> CountMinSketch:
        """The underlying frequency sketch."""
        return self._sketch


class PartialScanAdmission:
    """The paper's ``a``/``b`` partial caching policy for scan results.

    Parameters
    ----------
    a:
        Full-admission length threshold (initialised to the workload's
        typical short-scan length; learned thereafter).
    b:
        Partial-admission aggressiveness in [0, 1].
    """

    def __init__(self, a: float = 16.0, b: float = 0.5) -> None:
        self._a = 0.0
        self._b = 0.0
        self.recorder: Recorder = NULL_RECORDER
        self.set_params(a, b)

    @property
    def a(self) -> float:
        """Full-admission length threshold."""
        return self._a

    @property
    def b(self) -> float:
        """Partial-admission slope."""
        return self._b

    def set_params(self, a: float, b: float) -> None:
        """Clamp and apply new (a, b)."""
        if a != a or b != b:  # NaN guard
            raise CacheError("a and b must not be NaN")
        new_a = max(0.0, a)
        new_b = min(1.0, max(0.0, b))
        if (new_a, new_b) != (self._a, self._b) and self.recorder.enabled:
            self.recorder.event(
                N.EV_ADMISSION_RETUNE, policy="partial_scan", a=new_a, b=new_b
            )
        self._a = new_a
        self._b = new_b

    def admit_count(self, scan_length: int) -> int:
        """How many of a ``scan_length`` result's entries to admit.

        ``l <= a`` admits everything; longer scans admit
        ``round(b * (l - a))`` entries, capped at ``l``.
        """
        if scan_length <= 0:
            return 0
        if scan_length <= self._a:
            return scan_length
        return min(scan_length, int(round(self._b * (scan_length - self._a))))
