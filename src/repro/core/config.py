"""Configuration for AdCache (cache budget, RL setup, ablations).

Defaults reproduce the paper's Section 5.1 setup: windows of 1000
operations and a 50/50 initial boundary.  The learning hyper-parameters
the paper does not vary are module constants next to the code that
reads them: :mod:`repro.core.adcache` (learning rates, TD discount,
exploration, sketch geometry) and :mod:`repro.core.controller`
(action scales, initial scan parameters, boundary rate limit, replay,
actor warm-up and degraded-mode recovery).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    hidden_dim:
        Width of the actor/critic hidden layers (paper: 256).
    enable_partitioning:
        Ablation switch: let the RL agent move the cache boundary.
    enable_admission:
        Ablation switch: apply frequency/partial admission control.
    online_learning:
        When False the agent only infers (the paper's "pretrained"
        frozen configuration in Figure 10).
    reward_mode:
        ``"delta"`` is the paper's relative-change reward; ``"level"``
        (default) rewards the smoothed hit-rate level itself, letting
        the critic's baseline supply the difference signal.  Level mode
        keeps a learning gradient at plateaus, which matters at
        simulator-scale run lengths.
    seed:
        Master seed for the agent, the admission sketch and the
        controller's replay sampling.
    """

    total_cache_bytes: int = 4 << 20
    initial_range_ratio: float = 0.5
    window_size: int = 1000
    alpha: float = 0.3
    hidden_dim: int = 256
    enable_partitioning: bool = True
    enable_admission: bool = True
    online_learning: bool = True
    reward_mode: str = "level"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_cache_bytes < 0:
            raise ConfigError("total_cache_bytes must be >= 0")
        if not 0.0 <= self.initial_range_ratio <= 1.0:
            raise ConfigError("initial_range_ratio must be in [0, 1]")
        if self.window_size <= 0:
            raise ConfigError("window_size must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must be in [0, 1]")
