"""The Policy Decision Controller (Background Tuning Module).

At every window boundary the controller:

1. computes the window's reward from the I/O-estimate model
   (:mod:`repro.rl.reward`), smoothing included;
2. performs one actor-critic update with the *previous* window's
   (state, action) and this window's reward — the one-window delay the
   paper describes in Section 4.2;
3. adapts the actor learning rate (``lr *= 1 - reward``);
4. samples the next action and applies it: moves the block/range
   boundary and retunes the admission thresholds.

Every step is recorded in :attr:`history` so the paper's Figure 10
(parameter-evolution and convergence plots) can be regenerated.
"""

from __future__ import annotations

import math
from random import Random
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.cache.admission import FrequencyAdmission, PartialScanAdmission
from repro.cache.block_cache import BlockCache
from repro.cache.range_cache import RangeCache
from repro.core.config import AdCacheConfig
from repro.core.stats import WindowStats
from repro.obs import names as N
from repro.obs.recorder import NULL_RECORDER, ObsRecorder, Recorder
from repro.rl.actor_critic import ActorCriticAgent
from repro.rl.features import state_vector
from repro.rl.reward import RewardCalculator, RewardOutput, adapt_learning_rate

#: The point-admission action is scaled into [0, this]; normalized key
#: frequencies live in that range for realistic skews.
POINT_THRESHOLD_MAX = 0.05
#: The scan parameter ``a`` action is scaled into [0, this].
A_MAX = 128.0
#: Starting partial-admission parameters; the paper initialises ``a``
#: near the workload's short-scan length.
INITIAL_A = 16.0
INITIAL_B = 0.5
#: Rate limit on how far the applied block/range boundary may move per
#: window.  A full-budget jump evicts a window's worth of entries at
#: once — the transition hit-rate drop the paper observes at the C->D
#: phase switch — so the boundary walks toward the agent's target
#: instead of teleporting.
MAX_RATIO_STEP = 0.05
#: The background trainer keeps recent window transitions and replays a
#: few per window on top of the fresh one.  The paper trains over tens
#: of millions of operations; replay recovers comparable sample
#: efficiency at simulator-scale run lengths while keeping all
#: computation off the serving path.
REPLAY_CAPACITY = 256
UPDATES_PER_WINDOW = 8
#: Windows of critic-only training before policy updates start, so the
#: value baseline exists before any action gets credit.
ACTOR_WARMUP_WINDOWS = 10
#: Consecutive healthy windows required before a degraded controller
#: resumes RL control.
DEGRADED_RECOVERY_WINDOWS = 2


@dataclass
class ControlRecord:
    """One window's controller activity (for analysis and Figure 10)."""

    window_index: int
    reward: float
    trend: float
    h_estimate: float
    h_smoothed: float
    actor_lr: float
    range_ratio: float
    point_threshold: float
    scan_a: float
    scan_b: float
    degraded: bool = False


class PolicyDecisionController:
    """Actor-critic in, cache boundary and admission parameters out.

    Parameters
    ----------
    config:
        AdCache configuration (budgets, learning setup, ablations).
    agent:
        The actor-critic agent (possibly pretrained).
    block_cache / range_cache:
        The two partitions the dynamic boundary moves between.
    freq_admission / scan_admission:
        Admission mechanisms retuned each window.
    entries_per_block / level0_max_runs:
        LSM constants for the I/O-estimate reward.

    Every window's statistics are validated before they reach the RL
    update.  On degenerate stats (non-finite values, negative counters
    — a stats blackout) the controller pins the applied parameters to
    the safe static defaults (the paper's static split, admission wide
    open) and skips training until the window stream recovers.
    """

    def __init__(
        self,
        config: AdCacheConfig,
        agent: ActorCriticAgent,
        block_cache: Optional[BlockCache],
        range_cache: Optional[RangeCache],
        freq_admission: Optional[FrequencyAdmission],
        scan_admission: Optional[PartialScanAdmission],
        entries_per_block: int,
        level0_max_runs: int,
    ) -> None:
        self.config = config
        self.agent = agent
        self.block_cache = block_cache
        self.range_cache = range_cache
        self.freq_admission = freq_admission
        self.scan_admission = scan_admission
        self.entries_per_block = entries_per_block
        self.level0_max_runs = level0_max_runs
        self.reward_calc = RewardCalculator(
            alpha=config.alpha,
            entries_per_block=entries_per_block,
            mode=config.reward_mode,
        )
        self.history: List[ControlRecord] = []
        self._prev_state: Optional[np.ndarray] = None
        self._prev_action: Optional[np.ndarray] = None
        self._replay: Deque[Tuple[np.ndarray, np.ndarray, float, np.ndarray]] = deque(
            maxlen=REPLAY_CAPACITY
        )
        self._replay_rng = Random(config.seed + 17)
        # Currently applied parameters (actions are normalized to [0,1]).
        self._range_ratio = config.initial_range_ratio
        self._point_threshold = 0.0
        self._a = INITIAL_A
        self._b = INITIAL_B
        # Degraded-mode guard state (see on_window).
        self._degraded = False
        self._healthy_streak = 0
        self.degraded_windows_total = 0
        self.degraded_activations_total = 0
        self.degraded_recoveries_total = 0
        self.recorder: Recorder = NULL_RECORDER

    # -- observability ------------------------------------------------

    def attach_recorder(
        self, recorder: Recorder, agent_init: Optional[Dict[str, Any]] = None
    ) -> None:
        """Start auditing decisions on ``recorder``.

        ``agent_init`` is the agent's construction record (seeds and
        dimensions); with it the audit log replays bit-for-bit offline
        (see :mod:`repro.obs.audit`).  ``None`` means the agent was
        supplied externally, so the log documents but cannot rebuild it.
        """
        self.recorder = recorder
        if isinstance(recorder, ObsRecorder):
            recorder.audit.set_header(
                asdict(self.config),
                agent_init,
                self.entries_per_block,
                self.level0_max_runs,
            )

    def _record(
        self, window: WindowStats, reward_out: Optional[RewardOutput], degraded: bool
    ) -> ControlRecord:
        """Log one window's decision: the applied parameters with the
        window's reward (zeros without one) go to :attr:`history` and
        the recorder (metrics, trace, audit)."""
        record = ControlRecord(
            window_index=window.window_index,
            reward=reward_out.reward if reward_out is not None else 0.0,
            trend=reward_out.trend if reward_out is not None else 0.0,
            h_estimate=reward_out.h_estimate if reward_out is not None else 0.0,
            h_smoothed=reward_out.h_smoothed if reward_out is not None else 0.0,
            actor_lr=self.agent.actor_lr,
            range_ratio=self._range_ratio,
            point_threshold=self._point_threshold,
            scan_a=self._a,
            scan_b=self._b,
            degraded=degraded,
        )
        self.history.append(record)
        recorder = self.recorder
        if not isinstance(recorder, ObsRecorder):
            return record
        recorder.inc(N.CTRL_DECISIONS)
        if record.degraded:
            recorder.inc(N.CTRL_DEGRADED_WINDOWS)
        for gauge, value in (
            (N.G_REWARD, record.reward),
            (N.G_ACTOR_LR, record.actor_lr),
            (N.G_POINT_THRESHOLD, record.point_threshold),
            (N.G_SCAN_A, record.scan_a),
            (N.G_SCAN_B, record.scan_b),
        ):
            recorder.set_gauge(gauge, value)
        recorder.event(
            N.EV_DECISION,
            window=record.window_index,
            reward=record.reward,
            range_ratio=record.range_ratio,
            degraded=record.degraded,
        )
        recorder.audit.record(window, record, recorder.now_us)
        return record

    # -- current applied parameters ------------------------------------------------

    @property
    def range_ratio(self) -> float:
        """Currently applied range-cache share of the budget."""
        return self._range_ratio

    @property
    def point_threshold(self) -> float:
        """Currently applied frequency-admission bar."""
        return self._point_threshold

    @property
    def scan_params(self) -> tuple:
        """Currently applied partial-admission ``(a, b)``."""
        return self._a, self._b

    @property
    def degraded(self) -> bool:
        """Whether the controller is currently pinned to safe defaults."""
        return self._degraded

    # -- window entry point ------------------------------------------------

    def on_window(self, window: WindowStats) -> ControlRecord:
        """Process one sealed window (the engine's ``on_window`` hook).

        Degenerate windows (non-finite or impossible statistics — a
        stats blackout) never reach the RL machinery: the controller
        enters degraded mode, pins the applied parameters to the safe
        static defaults, and only resumes learning after
        ``DEGRADED_RECOVERY_WINDOWS`` consecutive healthy windows.
        """
        if not window.is_healthy():
            return self._degrade(window)
        reward_out = self.reward_calc.compute(
            points=window.points,
            scans=window.scans,
            scan_length_sum=window.scan_length_sum,
            io_miss=window.io_miss,
            num_levels=window.num_levels,
            level0_max_runs=self.level0_max_runs,
        )
        state = self._featurize(window, reward_out.h_smoothed)
        if not (
            math.isfinite(reward_out.reward)
            and math.isfinite(reward_out.trend)
            and bool(np.all(np.isfinite(state)))
        ):
            # The smoothing state may have absorbed the bad value; clear
            # it so recovery starts from fresh statistics.
            self.reward_calc.reset()
            return self._degrade(window)
        if self._degraded:
            self._healthy_streak += 1
            if self._healthy_streak < DEGRADED_RECOVERY_WINDOWS:
                self.degraded_windows_total += 1
                self._apply_safe_defaults()
                return self._record(window, reward_out, degraded=True)
            self._degraded = False
            self.degraded_recoveries_total += 1
            if self.recorder.enabled:
                self.recorder.event(
                    N.EV_DEGRADED_EXIT,
                    window=window.window_index,
                    healthy_streak=self._healthy_streak,
                )

        if (
            self.config.online_learning
            and self._prev_state is not None
            and self._prev_action is not None
        ):
            transition = (self._prev_state, self._prev_action, reward_out.reward, state)
            self._replay.append(transition)
            train_actor = window.window_index >= ACTOR_WARMUP_WINDOWS
            self.agent.update(*transition, update_actor=train_actor)
            # Replay a few recent transitions: the paper's asynchronous
            # trainer runs these extra passes off the serving path; the
            # simulator runs them inline, on the host clock of the op
            # that sealed the window (~0.6 ms per update, ~5 ms per
            # default window; see docs/performance.md, "Controller window").
            for _ in range(UPDATES_PER_WINDOW - 1):
                s, a, r, s2 = self._replay_rng.choice(self._replay)
                self.agent.update(s, a, r, s2, update_actor=train_actor)
            # A non-finite trend must not poison the multiplicative lr
            # update (lr * (1 - trend) would go NaN and stick).
            if math.isfinite(reward_out.trend):
                self.agent.set_actor_lr(
                    adapt_learning_rate(self.agent.actor_lr, reward_out.trend)
                )

        action = self.agent.act(state, explore=self.config.online_learning)
        applied = self._apply(self.agent.clip_action(action))
        self._prev_state = state
        # Learn from the action that actually ran: the rate limiter may
        # clamp the sampled boundary move, and crediting the raw sample
        # with the clamped execution's reward would drag the policy
        # toward whatever extreme the noise proposed.
        self._prev_action = applied
        return self._record(window, reward_out, degraded=False)

    # -- degraded mode ------------------------------------------------

    def _degrade(self, window: WindowStats) -> ControlRecord:
        """Handle one degenerate window: pin safe defaults, skip RL."""
        if not self._degraded:
            self._degraded = True
            self.degraded_activations_total += 1
            if self.recorder.enabled:
                self.recorder.event(
                    N.EV_DEGRADED_ENTER, window=window.window_index
                )
        self._healthy_streak = 0
        self.degraded_windows_total += 1
        # Any pending transition may span the blackout; never train on it.
        self._prev_state = None
        self._prev_action = None
        self._apply_safe_defaults()
        return self._record(window, None, degraded=True)

    def _apply_safe_defaults(self) -> None:
        """Walk the applied parameters to the paper's static defaults.

        The boundary moves at most ``MAX_RATIO_STEP`` per window (same
        rate limit as RL actions, so degrading cannot flush a cache);
        admission opens fully so no result is rejected while blind.
        """
        if self.config.enable_partitioning:
            self._move_boundary(self.config.initial_range_ratio, announce=False)
        if self.config.enable_admission:
            self._set_admission(0.0, INITIAL_A, INITIAL_B)

    # -- internals ------------------------------------------------

    def _move_boundary(self, target: float, announce: bool) -> None:
        """Walk the range/block boundary toward ``target`` and resize both
        caches to it.

        The walk is rate-limited to ``MAX_RATIO_STEP`` per window, so a
        single exploratory action cannot flush either cache.
        ``announce`` emits the boundary move (RL actions only), before
        the resizes' eviction events.
        """
        old_ratio = self._range_ratio
        ratio = min(old_ratio + MAX_RATIO_STEP, max(old_ratio - MAX_RATIO_STEP, target))
        self._range_ratio = ratio
        if announce and ratio != old_ratio and self.recorder.enabled:
            self.recorder.event(N.EV_BOUNDARY_MOVE, range_ratio=ratio, previous=old_ratio)
        self._resize()

    def set_total_budget(self, total_bytes: int) -> int:
        """Adopt a new total cache budget, split at the applied boundary;
        returns the evictions the resize forced."""
        if total_bytes < 0:
            raise ValueError("total_bytes must be >= 0")
        self.config.total_cache_bytes = total_bytes
        return self._resize()

    def _resize(self) -> int:
        """Split the total budget at the applied boundary and resize both
        caches to it, range first; returns the evictions."""
        total = self.config.total_cache_bytes
        range_budget = int(total * self._range_ratio)
        evicted = 0
        if self.range_cache is not None:
            evicted += self.range_cache.resize(range_budget)
        if self.block_cache is not None:
            evicted += self.block_cache.resize(total - range_budget)
        return evicted

    def _set_admission(self, point_threshold: float, a: float, b: float) -> None:
        """Apply the admission parameters to both admission filters."""
        self._point_threshold = point_threshold
        self._a = a
        self._b = b
        if self.freq_admission is not None:
            self.freq_admission.set_threshold(point_threshold)
        if self.scan_admission is not None:
            self.scan_admission.set_params(a, b)

    def _featurize(self, window: WindowStats, h_smoothed: float) -> np.ndarray:
        return state_vector(
            point_ratio=window.point_ratio,
            scan_ratio=window.scan_ratio,
            write_ratio=window.write_ratio,
            avg_scan_length=window.avg_scan_length,
            range_hit_rate=window.range_hit_rate,
            block_hit_rate=window.block_hit_rate,
            h_smoothed=h_smoothed,
            range_occupancy=window.range_occupancy,
            block_occupancy=window.block_occupancy,
            compactions=window.compactions,
            current_range_ratio=self._range_ratio,
            current_point_threshold_norm=self._point_threshold / POINT_THRESHOLD_MAX,
            current_a_norm=self._a / A_MAX,
            current_b=self._b,
        )

    def _apply(self, action: np.ndarray) -> np.ndarray:
        """Execute an action; returns the normalized action as applied."""
        ratio, thr_norm, a_norm, b = action.tolist()
        if self.config.enable_partitioning:
            self._move_boundary(ratio, announce=True)
        if self.config.enable_admission:
            self._set_admission(thr_norm * POINT_THRESHOLD_MAX, a_norm * A_MAX, b)
        return np.array(
            [
                self._range_ratio,
                self._point_threshold / POINT_THRESHOLD_MAX,
                self._a / A_MAX,
                self._b,
            ],
            dtype=np.float32,
        )
