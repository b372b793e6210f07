"""Configuration for AdCache (cache budget, RL hyper-parameters).

Defaults reproduce the paper's Section 5.1 setup: windows of 1000
operations, smoothing factor alpha = 0.9, actor/critic learning rates
of 1e-3, and a 50/50 initial boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigError


@dataclass
class AdCacheConfig:
    """Tunables for :class:`~repro.core.adcache.AdCacheEngine`.

    Attributes
    ----------
    total_cache_bytes:
        The single memory budget split between block and range cache.
    initial_range_ratio:
        Starting fraction of the budget given to the range cache.
    window_size:
        Operations per control window (paper: 1000).
    alpha:
        Reward smoothing factor.  The paper uses 0.9 over runs three
        orders of magnitude longer; at simulator scale a lighter EMA
        (default 0.3) keeps credit within a few windows of the action
        that earned it.  Figure 10's alpha sweep still reproduces by
        setting this explicitly.
    actor_lr / critic_lr:
        Initial Adam learning rates (paper: 1e-3 / 1e-3 at 50k-window
        scale; defaults are 1e-2 for simulator-length runs).
    gamma:
        TD discount.  0 (default) scores each window's action against
        the critic's state baseline directly; positive values recover
        multi-window credit as in classic actor-critic.
    hidden_dim:
        Width of the actor/critic hidden layers (paper: 256).
    enable_partitioning:
        Ablation switch: let the RL agent move the cache boundary.
    enable_admission:
        Ablation switch: apply frequency/partial admission control.
    online_learning:
        When False the agent only infers (the paper's "pretrained"
        frozen configuration in Figure 10).
    point_threshold_max:
        The point-admission action is scaled into [0, this]; normalized
        key frequencies live in that range for realistic skews.
    a_max:
        The scan parameter ``a`` action is scaled into [0, this].
    initial_a / initial_b:
        Starting partial-admission parameters; the paper initialises
        ``a`` near the workload's short-scan length.
    max_ratio_step:
        Rate limit on how far the applied block/range boundary may move
        per window.  A full-budget jump evicts a window's worth of
        entries at once — the transition hit-rate drop the paper
        observes at the C->D phase switch — so the boundary walks
        toward the agent's target instead of teleporting.
    replay_capacity / updates_per_window:
        The background trainer keeps recent window transitions and
        replays a few per window on top of the fresh one.  The paper
        trains over tens of millions of operations; replay recovers
        comparable sample efficiency at simulator-scale run lengths
        while keeping all computation off the serving path.
    reward_mode:
        ``"delta"`` is the paper's relative-change reward; ``"level"``
        (default) rewards the smoothed hit-rate level itself, letting
        the critic's baseline supply the difference signal.  Level mode
        keeps a learning gradient at plateaus, which matters at
        simulator-scale run lengths.
    actor_warmup_windows:
        Windows of critic-only training before policy updates start, so
        the value baseline exists before any action gets credit.
    enable_block_scan_admission:
        Apply the partial-admission policy to block-cache fills during
        scans too (the paper's "can also be applied to the block cache"
        note), with the learned (a, b) scaled to block counts.
        Single-client only.
    enable_degraded_guard:
        Validate every window's statistics before they reach the RL
        update.  On degenerate stats (non-finite values, negative
        counters — a stats blackout) the controller pins the applied
        parameters to the safe static defaults (the paper's static
        split, admission wide open) and skips training until the window
        stream recovers.
    degraded_recovery_windows:
        Consecutive healthy windows required before a degraded
        controller resumes RL control.
    sketch_width / sketch_depth / sketch_saturation:
        Count-Min sketch geometry for frequency admission (saturation 8
        per the paper's decay example).
    num_shards:
        Shards for the block cache (multi-client support).
    range_shard_boundaries:
        When set, the range cache becomes a key-range-partitioned
        :class:`~repro.cache.sharded_range.ShardedRangeCache` with these
        split keys (Section 4.4's sharded architecture).  None keeps a
        single lock-guarded range cache.
    exploration_log_std:
        Initial Gaussian exploration (log scale).
    seed:
        Master seed for the agent, sketch, and range-cache sanitizers.
    sanitize:
        Run runtime invariant checks (:mod:`repro.sanitize`) on the
        block and range caches after a deterministic random sample of
        mutations, and a full sweep at every window boundary.  The
        ``REPRO_SANITIZE`` environment variable enables the same checks
        without touching configs.
    """

    total_cache_bytes: int = 4 << 20
    initial_range_ratio: float = 0.5
    window_size: int = 1000
    alpha: float = 0.3
    actor_lr: float = 1e-2
    critic_lr: float = 1e-2
    gamma: float = 0.0
    hidden_dim: int = 256
    enable_partitioning: bool = True
    enable_admission: bool = True
    online_learning: bool = True
    point_threshold_max: float = 0.05
    a_max: float = 128.0
    initial_a: float = 16.0
    initial_b: float = 0.5
    max_ratio_step: float = 0.05
    replay_capacity: int = 256
    updates_per_window: int = 8
    reward_mode: str = "level"
    actor_warmup_windows: int = 10
    enable_block_scan_admission: bool = False
    enable_degraded_guard: bool = True
    degraded_recovery_windows: int = 2
    sketch_width: int = 4096
    sketch_depth: int = 4
    sketch_saturation: int = 8
    num_shards: int = 1
    range_shard_boundaries: Optional[Tuple[str, ...]] = None
    exploration_log_std: float = -1.2
    seed: int = 0
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.total_cache_bytes < 0:
            raise ConfigError("total_cache_bytes must be >= 0")
        if not 0.0 <= self.initial_range_ratio <= 1.0:
            raise ConfigError("initial_range_ratio must be in [0, 1]")
        if self.window_size <= 0:
            raise ConfigError("window_size must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must be in [0, 1]")
        if self.actor_lr <= 0 or self.critic_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must be in [0, 1]")
        if self.a_max <= 0:
            raise ConfigError("a_max must be positive")
        if not 0.0 < self.point_threshold_max <= 1.0:
            raise ConfigError("point_threshold_max must be in (0, 1]")
        if self.num_shards <= 0:
            raise ConfigError("num_shards must be positive")
        if self.degraded_recovery_windows <= 0:
            raise ConfigError("degraded_recovery_windows must be positive")
