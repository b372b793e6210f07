"""AdCacheEngine: the fully wired adaptive caching system (Figure 4).

Composes the LSM tree with a block cache and a range cache under a
dynamic memory boundary, frequency admission for point results,
partial admission for scan results, and the actor-critic policy
decision controller running at window boundaries.

Ablation variants (Figure 11b) are one-flag configurations:

* ``enable_partitioning=False`` — admission control only; the boundary
  stays at ``initial_range_ratio``.
* ``enable_admission=False`` — adaptive partitioning only; every result
  is admitted.
* ``online_learning=False`` with a pretrained agent — the "pretrained"
  frozen configuration of Figure 10.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.cache.admission import FrequencyAdmission, PartialScanAdmission
from repro.cache.block_cache import BlockCache
from repro.cache.range_cache import RangeCache
from repro.cache.sketch import CountMinSketch
from repro.core.config import AdCacheConfig
from repro.core.controller import A_MAX, INITIAL_A, INITIAL_B, PolicyDecisionController
from repro.core.engine import KVEngine
from repro.lsm.options import BLOCK_SIZE
from repro.lsm.tree import LSMTree
from repro.obs.recorder import Recorder
from repro.rl.actor_critic import ActorCriticAgent
from repro.rl.features import STATE_DIM

#: Actions: range ratio, point threshold, scan ``a``, scan ``b``.
ACTION_DIM = 4

#: Initial Adam learning rates (paper: 1e-3 / 1e-3 at 50k-window scale;
#: 1e-2 suits simulator-length runs).
ACTOR_LR = 1e-2
CRITIC_LR = 1e-2
#: TD discount.  0 scores each window's action against the critic's
#: state baseline directly; positive values recover multi-window credit
#: as in classic actor-critic.
GAMMA = 0.0
#: Initial Gaussian exploration (log scale).
EXPLORATION_LOG_STD = -1.2
#: Count-Min sketch geometry for frequency admission (saturation 8 per
#: the paper's decay example).
SKETCH_WIDTH = 4096
SKETCH_DEPTH = 4
SKETCH_SATURATION = 8


class AdCacheEngine(KVEngine):
    """The AdCache system: adaptive partitioning + admission + RL.

    Parameters
    ----------
    tree:
        The LSM-tree storage engine to manage caching for.
    config:
        All tunables; ``config.total_cache_bytes`` is the unified
        budget the dynamic boundary splits.
    agent:
        Optionally a pre-built (e.g. pretrained) actor-critic agent;
        a fresh one is created otherwise.
    """

    def __init__(
        self,
        tree: LSMTree,
        config: Optional[AdCacheConfig] = None,
        agent: Optional[ActorCriticAgent] = None,
    ) -> None:
        config = config or AdCacheConfig()
        self.config = config
        opts = tree.options

        range_budget = int(config.total_cache_bytes * config.initial_range_ratio)
        block_budget = config.total_cache_bytes - range_budget
        block_cache = BlockCache(
            block_budget,
            block_size=BLOCK_SIZE,
            backing_fetch=tree.disk.read_block,
        )
        range_cache = RangeCache(range_budget)

        sketch = CountMinSketch(
            width=SKETCH_WIDTH,
            depth=SKETCH_DEPTH,
            saturation=SKETCH_SATURATION,
            seed=config.seed,
        )
        freq_admission = (
            FrequencyAdmission(sketch, threshold=0.0)
            if config.enable_admission
            else None
        )
        scan_admission = (
            PartialScanAdmission(a=INITIAL_A, b=INITIAL_B)
            if config.enable_admission
            else None
        )

        self._agent_init: Optional[Dict[str, Any]] = None
        if agent is None:
            # The agent's full construction record: with it, an audit
            # log replays the decision stream bit-for-bit offline (see
            # repro.obs.audit).  Externally supplied agents carry state
            # the log cannot reconstruct, so they record None.  The
            # initial policy is the paper's initial configuration — the
            # configured boundary, admission wide open, (a, b) at their
            # initial values — instead of an arbitrary mid-scale point.
            self._agent_init = {
                "state_dim": STATE_DIM,
                "action_dim": ACTION_DIM,
                "hidden_dim": config.hidden_dim,
                "actor_lr": ACTOR_LR,
                "critic_lr": CRITIC_LR,
                "gamma": GAMMA,
                "initial_log_std": EXPLORATION_LOG_STD,
                "seed": config.seed,
                "initial_policy": [
                    config.initial_range_ratio,
                    0.0,  # point-admission bar: admit everything
                    INITIAL_A / A_MAX,
                    INITIAL_B,
                ],
            }
            agent = ActorCriticAgent.from_record(self._agent_init)
        self.agent = agent
        self.controller = PolicyDecisionController(
            config=config,
            agent=agent,
            block_cache=block_cache,
            range_cache=range_cache,
            freq_admission=freq_admission,
            scan_admission=scan_admission,
            entries_per_block=opts.entries_per_block,
            level0_max_runs=opts.level0_stop_writes_trigger,
        )

        super().__init__(
            tree=tree,
            block_cache=block_cache,
            range_cache=range_cache,
            kv_cache=None,
            freq_admission=freq_admission,
            scan_admission=scan_admission,
            window_size=config.window_size,
            on_window=self.controller.on_window,
        )

    def attach_recorder(self, recorder: Recorder) -> None:
        """Wire observability through the engine *and* the controller.

        On top of the base engine wiring, starts the controller's
        decision audit with this engine's agent construction record, so
        the exported log is replayable when the agent was built here.
        """
        super().attach_recorder(recorder)
        self.controller.attach_recorder(recorder, agent_init=self._agent_init)

    def set_cache_budget(self, total_bytes: int) -> int:
        """Adopt a new total budget, split at the learned boundary.

        The serving layer's global arbiter moves budget between shards;
        an AdCache shard re-splits its new total at the controller's
        *current* range ratio (not the raw cache shares, which drift
        with rounding), so every subsequent controller decision scales
        from the new total (see
        :meth:`PolicyDecisionController.set_total_budget`).  Returns
        the evictions the resize forced.
        """
        return self.controller.set_total_budget(total_bytes)
