"""The paper's I/O-estimate reward model (Section 3.5).

Result caches have no natural "block hit rate", so the paper estimates
the block I/Os a window *would* have cost with no cache at all:

    IO_estimate = p * (1 + FPR)                       (point lookups)
                + s * l / B                           (scan data blocks)
                + s * (L + r0max / 2 - 1)             (scan seek phase)

and scores the window as ``h_estimate = 1 - IO_miss / IO_estimate``,
where ``IO_miss`` is the window's *measured* disk block reads.  The RL
reward is the relative change of an exponentially smoothed
``h_estimate``; the actor learning rate then adapts as
``lr <- lr * (1 - reward)`` so workload shifts (negative reward) raise
exploration while stability anneals it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigError

#: Assumed bloom false-positive rate, the paper's ``FPR`` (~0 at 10
#: bits/key).
BLOOM_FPR = 0.0
#: Clamp of the adaptive actor learning rate.
LR_MIN = 1e-5
LR_MAX = 1e-2


@dataclass
class RewardOutput:
    """One window's reward computation, fully unpacked for logging.

    ``reward`` drives the actor-critic update; ``trend`` is always the
    paper's relative change of the smoothed hit rate and drives the
    adaptive learning rate (``lr *= 1 - trend``) regardless of mode.
    """

    io_estimate: float
    io_miss: int
    h_estimate: float
    h_smoothed: float
    reward: float
    trend: float = 0.0


def estimate_no_cache_io(
    points: int,
    scans: int,
    avg_scan_length: float,
    entries_per_block: int,
    num_levels: int,
    level0_max_runs: int,
) -> float:
    """``IO_estimate`` for one window (see module docstring).

    ``num_levels`` is ``L``, ``level0_max_runs`` is ``r0^max`` (the
    write-stop trigger), ``entries_per_block`` is ``B``.
    """
    if entries_per_block <= 0:
        raise ConfigError("entries_per_block must be positive")
    point_io = points * (1.0 + BLOOM_FPR)
    scan_data_io = scans * (avg_scan_length / entries_per_block)
    scan_seek_io = scans * (num_levels + level0_max_runs / 2.0 - 1.0)
    return point_io + scan_data_io + scan_seek_io


def h_estimate(
    points: int,
    scans: int,
    scan_length_sum: int,
    io_miss: int,
    entries_per_block: int,
    num_levels: int,
    level0_max_runs: int,
) -> Tuple[float, float]:
    """``(h_estimate, IO_estimate)`` for the reads any span of counters
    holds; ``(0.0, 0.0)`` when they hold none."""
    avg_scan = scan_length_sum / scans if scans else 0.0
    io_estimate = estimate_no_cache_io(
        points, scans, avg_scan, entries_per_block, num_levels, level0_max_runs
    )
    if io_estimate <= 0:
        return 0.0, 0.0
    return 1.0 - io_miss / io_estimate, io_estimate


class RewardCalculator:
    """Stateful smoothed-hit-rate reward (one instance per controller).

    Parameters
    ----------
    alpha:
        Exponential smoothing factor in [0, 1]; the paper's default 0.9
        weights history heavily, damping transient hit-rate noise.
    entries_per_block:
        ``B`` from the LSM configuration.
    """

    def __init__(
        self,
        alpha: float = 0.9,
        entries_per_block: int = 4,
        mode: str = "level",
    ) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError("alpha must be in [0, 1]")
        if mode not in ("delta", "level"):
            raise ConfigError("mode must be 'delta' or 'level'")
        self.alpha = alpha
        self.entries_per_block = entries_per_block
        self.mode = mode
        self._h_smoothed: float = 0.0
        self._initialized = False

    @property
    def h_smoothed(self) -> float:
        """Current smoothed estimated hit rate."""
        return self._h_smoothed

    def compute(
        self,
        points: int,
        scans: int,
        scan_length_sum: int,
        io_miss: int,
        num_levels: int,
        level0_max_runs: int,
    ) -> RewardOutput:
        """Score one window and update the smoothed state."""
        hit, io_estimate = h_estimate(
            points,
            scans,
            scan_length_sum,
            io_miss,
            self.entries_per_block,
            num_levels,
            level0_max_runs,
        )
        if not io_estimate:
            # Pure-write window: no read traffic to score; hold state.
            reward = self._h_smoothed if self.mode == "level" else 0.0
            return RewardOutput(
                0.0, io_miss, self._h_smoothed, self._h_smoothed, reward, 0.0
            )
        if not self._initialized:
            self._h_smoothed = hit
            self._initialized = True
            reward = hit if self.mode == "level" else 0.0
            return RewardOutput(
                io_estimate, io_miss, hit, self._h_smoothed, reward, 0.0
            )
        previous = self._h_smoothed
        self._h_smoothed = self.alpha * previous + (1.0 - self.alpha) * hit
        if abs(self._h_smoothed) < 1e-9:
            trend = 0.0
        else:
            trend = (self._h_smoothed - previous) / abs(self._h_smoothed)
        if self.mode == "level":
            # Smoothed hit-rate level: the critic's state-value baseline
            # turns this into an advantage, and unlike the pure relative
            # change it keeps a gradient at plateaus (a suboptimal stable
            # configuration still scores below a better one).
            reward = self._h_smoothed
        else:
            reward = trend
        return RewardOutput(
            io_estimate, io_miss, hit, self._h_smoothed, reward, trend
        )

    def reset(self) -> None:
        """Forget smoothing state (fresh deployment)."""
        self._h_smoothed = 0.0
        self._initialized = False


def adapt_learning_rate(lr: float, reward: float) -> float:
    """The paper's adaptive actor rate: ``lr * (1 - reward)``, clamped.

    Negative rewards (hit-rate drops, i.e. workload shifts) raise the
    rate to explore; positive rewards anneal it toward convergence.
    A non-finite reward (degenerate window statistics) leaves the rate
    unchanged — a NaN would otherwise propagate through the
    multiplicative update and stick forever.
    """
    if not math.isfinite(reward):
        return float(min(LR_MAX, max(LR_MIN, lr)))
    return float(min(LR_MAX, max(LR_MIN, lr * (1.0 - reward))))
