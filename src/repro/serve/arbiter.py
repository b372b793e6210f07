"""Global cache-budget arbiter across serving shards.

Each shard runs its own engine (its own block/range caches, its own
controller when the strategy is AdCache); the arbiter owns the *fleet*
budget and re-splits it at window-scale boundaries using the shards'
exported :class:`~repro.core.stats.WindowStats`.

The split follows a marginal-utility heuristic: the shards paying the
most disk reads since the last rebalance are the ones whose next byte
of cache is worth the most, so target shares are proportional to each
shard's recent ``io_miss`` mass (plus one, so idle shards never zero
out).  Two stabilisers keep the arbiter from thrashing the caches:

* a **min-share floor** guarantees every shard a working set, and
* a **max-step** limit rate-limits per-rebalance share movement, since
  every downsize forcibly evicts hot entries.

When the fleet runs tiered, the arbiter also owns the L1/L2 boundary:
the shared :class:`~repro.serve.tier2.Tier2Coordinator`'s budget is
carved out of the same fleet total, and its fraction is learned at each
rebalance by weighing the shared tier's recent reuse signal (hits plus
ghost hits — bytes L2 did or would have served) against the fleet's
recent L1 miss mass, clamped and rate-limited like the per-shard
shares.  The shard engines then split the remaining L1 pool.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.engine import KVEngine
from repro.errors import ConfigError, InvariantError
from repro.sanitize import Sanitized
from repro.serve.tier2 import Tier2Coordinator

#: Floor every shard keeps of the L1 pool; the fleet needs
#: ``MIN_SHARE * num_shards <= 1``.
MIN_SHARE = 0.05
#: Largest share a shard (or the shared tier) may move per rebalance.
MAX_STEP = 0.25
#: Clamp of the shared tier's fraction of the fleet budget.
MIN_L2_SHARE = 0.05
MAX_L2_SHARE = 0.5


class BudgetArbiter(Sanitized):
    """Re-splits one total cache budget across shard engines."""

    __slots__ = (
        "_engines",
        "total_budget_bytes",
        "shares",
        "_miss_marks",
        "rebalances",
        "evictions_forced",
        "history",
        "_tier2",
        "l2_share",
        "_l2_reuse_mark",
        "l2_history",
    )

    def __init__(
        self,
        engines: Sequence[KVEngine],
        total_budget_bytes: int,
        tier2: Optional[Tier2Coordinator] = None,
    ) -> None:
        n = len(engines)
        if n == 0:
            raise ConfigError("arbiter needs at least one engine")
        if total_budget_bytes < 0:
            raise ConfigError("total budget must be >= 0")
        if MIN_SHARE > 1.0 / n:
            raise ConfigError(
                f"{n} shards cannot each keep the {MIN_SHARE} min share"
            )
        super().__init__()
        self._engines = list(engines)
        self.total_budget_bytes = total_budget_bytes
        self._tier2 = tier2
        if tier2 is not None:
            if tier2.budget_bytes >= total_budget_bytes:
                raise ConfigError(
                    f"tier2 budget {tier2.budget_bytes} must leave L1 room "
                    f"inside the {total_budget_bytes}-byte fleet budget"
                )
            self.l2_share = tier2.budget_bytes / total_budget_bytes
            self._l2_reuse_mark = tier2.reuse_signal
        else:
            self.l2_share = 0.0
            self._l2_reuse_mark = 0
        #: ``(time_us, l2_share)`` after each rebalance (tiered only).
        self.l2_history: List[Tuple[float, float]] = []
        #: Current per-shard budget fractions (sum to 1).
        self.shares: List[float] = [1.0 / n] * n
        # Window-sourced miss totals at the last rebalance: the
        # collector's lifetime WindowStats accumulates io_miss from every
        # sealed window, which is exactly the shards' window export.
        self._miss_marks = [e.collector.lifetime.io_miss for e in self._engines]
        self.rebalances = 0
        self.evictions_forced = 0
        #: ``(time_us, shares)`` after each rebalance, for reporting.
        self.history: List[Tuple[float, Tuple[float, ...]]] = []
        self._apply_shares()

    def budgets(self) -> List[int]:
        """Integer per-shard budgets for the current shares, splitting the
        L1 pool left after the shared tier's carve-out."""
        tier2 = self._tier2
        pool = self.total_budget_bytes - (tier2.budget_bytes if tier2 else 0)
        budgets = [int(pool * s) for s in self.shares]
        budgets[0] += pool - sum(budgets)
        return budgets

    def _apply_shares(self) -> int:
        evicted = 0
        for engine, budget in zip(self._engines, self.budgets()):
            evicted += engine.set_cache_budget(budget)
        return evicted

    def replace_engine(self, index: int, engine: KVEngine) -> None:
        """Swap in a promoted replica engine at ``index``.

        The newcomer inherits the dead primary's current budget share
        (its caches are resized to realise it exactly, keeping the
        fleet-budget invariant) and its miss mark is re-based so the
        next rebalance sees only post-promotion misses.
        """
        if not 0 <= index < len(self._engines):
            raise ConfigError(
                f"replace_engine index {index} out of range "
                f"[0, {len(self._engines)})"
            )
        self._engines[index] = engine
        self._miss_marks[index] = engine.collector.lifetime.io_miss
        engine.set_cache_budget(self.budgets()[index])
        self._after_mutation()

    def rebalance(self, now_us: float = 0.0) -> int:
        """One arbitration round; returns evictions the moves forced."""
        marks = [e.collector.lifetime.io_miss for e in self._engines]
        deltas = [max(0, m - old) for m, old in zip(marks, self._miss_marks)]
        self._miss_marks = marks
        evicted_l2 = self._rebalance_tier(sum(deltas), now_us)
        # Marginal utility ~ recent miss mass; +1 keeps idle shards alive.
        weights = [float(d) + 1.0 for d in deltas]
        total_weight = sum(weights)
        targets = [w / total_weight for w in weights]
        stepped = [
            share + max(-MAX_STEP, min(MAX_STEP, target - share))
            for share, target in zip(self.shares, targets)
        ]
        # Guarantee the floor exactly: every shard keeps MIN_SHARE, and
        # only the mass above the floors is redistributed proportionally.
        n = len(stepped)
        free = 1.0 - MIN_SHARE * n
        excess = [max(0.0, s - MIN_SHARE) for s in stepped]
        total_excess = sum(excess)
        if free <= 0.0 or total_excess <= 0.0:
            self.shares = [1.0 / n] * n
        else:
            self.shares = [
                MIN_SHARE + e / total_excess * free for e in excess
            ]
        evicted = evicted_l2 + self._apply_shares()
        self.rebalances += 1
        self.evictions_forced += evicted
        self.history.append((now_us, tuple(self.shares)))
        self._after_mutation()
        return evicted

    def _rebalance_tier(self, fleet_miss_delta: int, now_us: float) -> int:
        """Move the L1/L2 boundary from recent reuse vs miss evidence."""
        tier2 = self._tier2
        if tier2 is None:
            return 0
        reuse = tier2.reuse_signal
        reuse_delta = max(0, reuse - self._l2_reuse_mark)
        self._l2_reuse_mark = reuse
        # Marginal utility of the shared tier ~ blocks it served or
        # ghost-proved it would have served; of the L1 pool ~ the disk
        # reads the shards still paid.  +1 on each side keeps a cold
        # start from slamming the boundary to a clamp.
        w_l2 = float(reuse_delta) + 1.0
        w_l1 = float(fleet_miss_delta) + 1.0
        target = w_l2 / (w_l2 + w_l1)
        target = max(MIN_L2_SHARE, min(MAX_L2_SHARE, target))
        step = max(-MAX_STEP, min(MAX_STEP, target - self.l2_share))
        self.l2_share = self.l2_share + step
        evicted = tier2.set_budget(
            max(1, int(self.total_budget_bytes * self.l2_share))
        )
        self.l2_history.append((now_us, self.l2_share))
        return evicted

    # -- sanitizer protocol -----------------------------------------------------

    def check_invariants(self) -> None:
        """Shares form a distribution; engine budgets realise it exactly."""
        n = len(self._engines)
        if len(self.shares) != n or len(self._miss_marks) != n:
            raise InvariantError(
                f"BudgetArbiter bookkeeping drift: {len(self.shares)} shares "
                f"/ {len(self._miss_marks)} marks for {n} engines"
            )
        if any(s < 0.0 or s > 1.0 for s in self.shares):
            raise InvariantError(
                f"BudgetArbiter share out of [0, 1]: {self.shares}"
            )
        if abs(sum(self.shares) - 1.0) > 1e-9:
            raise InvariantError(
                f"BudgetArbiter shares sum to {sum(self.shares)!r}, not 1"
            )
        fleet = sum(e.cache_budget_total for e in self._engines)
        if self._tier2 is not None:
            fleet += self._tier2.budget_bytes
        if fleet != self.total_budget_bytes:
            raise InvariantError(
                f"BudgetArbiter budget leak: engines + shared tier hold "
                f"{fleet} bytes of a {self.total_budget_bytes}-byte fleet "
                f"budget"
            )
        if self.rebalances != len(self.history):
            raise InvariantError(
                f"BudgetArbiter history drift: {len(self.history)} entries "
                f"for {self.rebalances} rebalances"
            )
        if self._tier2 is not None:
            if not 0.0 <= self.l2_share < 1.0:
                raise InvariantError(
                    f"BudgetArbiter l2_share out of [0, 1): {self.l2_share}"
                )
            if len(self.l2_history) != self.rebalances:
                raise InvariantError(
                    f"BudgetArbiter l2 history drift: {len(self.l2_history)} "
                    f"entries for {self.rebalances} rebalances"
                )
