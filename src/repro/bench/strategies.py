"""Factory for the paper's evaluated cache-management strategies.

Section 5.1's lineup, each built over a caller-supplied LSM tree and a
single cache budget:

* ``block``          — RocksDB's default block cache (LRU).
* ``kv``             — KV (row) cache: point results only.
* ``range``          — Range Cache with LRU eviction.
* ``range-lecar``    — Range Cache with LeCaR eviction.
* ``range-cacheus``  — Range Cache with Cacheus eviction.
* ``adcache``        — the full system.

Plus the ablations of Figure 11(b) and the frozen pretrained variant of
Figure 10:

* ``adcache-admission``  — admission control only (fixed boundary).
* ``adcache-partition``  — adaptive partitioning only (no admission).
* ``adcache-pretrained`` — pretrained actor, no online learning.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.cache.arc import ARCPolicy
from repro.cache.base import EvictionPolicy
from repro.cache.block_cache import BlockCache
from repro.cache.cacheus import CacheusPolicy
from repro.cache.clock import ClockPolicy
from repro.cache.kv_cache import KVCache
from repro.cache.lecar import LeCaRPolicy
from repro.cache.range_cache import RangeCache
from repro.core.adcache import ACTION_DIM, ACTOR_LR, CRITIC_LR, AdCacheEngine
from repro.core.config import AdCacheConfig
from repro.core.engine import KVEngine
from repro.errors import ConfigError
from repro.lsm.block import BlockHandle
from repro.lsm.options import BLOCK_SIZE, ENTRY_CHARGE
from repro.lsm.tree import LSMTree
from repro.rl.actor_critic import ActorCriticAgent
from repro.rl.features import STATE_DIM
from repro.rl.pretrain import generate_supervised_dataset, pretrain_actor_supervised


def _block_engine(
    tree: LSMTree,
    cache_bytes: int,
    seed: int,
    policy: Optional[EvictionPolicy[BlockHandle]] = None,
    prefetch: bool = False,
) -> KVEngine:
    cache = BlockCache(
        cache_bytes,
        block_size=BLOCK_SIZE,
        backing_fetch=tree.disk.read_block,
        policy=policy,
    )
    if prefetch:
        from repro.cache.prefetcher import CompactionPrefetcher

        CompactionPrefetcher.attach(tree, cache)
    return KVEngine(tree, block_cache=cache)


def _kv_engine(tree: LSMTree, cache_bytes: int, seed: int) -> KVEngine:
    cache = KVCache(cache_bytes)
    return KVEngine(tree, kv_cache=cache)


def _range_engine_with(policy_factory) -> Callable[..., KVEngine]:
    def build(tree: LSMTree, cache_bytes: int, seed: int) -> KVEngine:
        capacity_entries = max(16, cache_bytes // ENTRY_CHARGE)
        policy = policy_factory(capacity_entries, seed)
        cache = RangeCache(cache_bytes, policy=policy)
        return KVEngine(tree, range_cache=cache)

    return build


def _adcache_engine(
    tree: LSMTree,
    cache_bytes: int,
    seed: int,
    *,
    enable_partitioning: bool = True,
    enable_admission: bool = True,
    pretrained_frozen: bool = False,
) -> AdCacheEngine:
    config = AdCacheConfig(
        total_cache_bytes=cache_bytes,
        enable_partitioning=enable_partitioning,
        enable_admission=enable_admission,
        online_learning=not pretrained_frozen,
        seed=seed,
    )
    agent = None
    if pretrained_frozen:
        agent = ActorCriticAgent(
            STATE_DIM,
            ACTION_DIM,
            hidden_dim=config.hidden_dim,
            actor_lr=ACTOR_LR,
            critic_lr=CRITIC_LR,
            seed=seed,
        )
        dataset = generate_supervised_dataset(256, seed=seed)
        pretrain_actor_supervised(agent, dataset, epochs=30, lr=1e-3, seed=seed)
    return AdCacheEngine(tree, config=config, agent=agent)


STRATEGIES: Dict[str, Callable[..., KVEngine]] = {
    "block": _block_engine,
    "block-clock": lambda tree, cache_bytes, seed: _block_engine(
        tree, cache_bytes, seed, policy=ClockPolicy()
    ),
    "block-arc": lambda tree, cache_bytes, seed: _block_engine(
        tree,
        cache_bytes,
        seed,
        policy=ARCPolicy(capacity_hint=max(8, cache_bytes // BLOCK_SIZE)),
    ),
    "block-prefetch": lambda tree, cache_bytes, seed: _block_engine(
        tree, cache_bytes, seed, prefetch=True
    ),
    "kv": _kv_engine,
    "range": _range_engine_with(lambda _cap, _seed: None),
    "range-lecar": _range_engine_with(
        lambda cap, seed: LeCaRPolicy(history_size=cap, seed=seed)
    ),
    "range-cacheus": _range_engine_with(
        lambda cap, seed: CacheusPolicy(history_size=cap, seed=seed)
    ),
    "adcache": _adcache_engine,
    "adcache-admission": lambda tree, cache_bytes, seed: _adcache_engine(
        tree, cache_bytes, seed, enable_partitioning=False
    ),
    "adcache-partition": lambda tree, cache_bytes, seed: _adcache_engine(
        tree, cache_bytes, seed, enable_admission=False
    ),
    "adcache-pretrained": lambda tree, cache_bytes, seed: _adcache_engine(
        tree, cache_bytes, seed, pretrained_frozen=True
    ),
}

#: Display names matching the paper's legends.
DISPLAY_NAMES: Dict[str, str] = {
    "block": "RocksDB (Block Cache)",
    "block-clock": "Block Cache (CLOCK)",
    "block-arc": "Block Cache (ARC)",
    "block-prefetch": "Block Cache + Leaper-style prefetch",
    "kv": "KV Cache",
    "range": "Range Cache",
    "range-lecar": "Range Cache + LeCaR",
    "range-cacheus": "Range Cache + Cacheus",
    "adcache": "AdCache",
    "adcache-admission": "AdCache (admission only)",
    "adcache-partition": "AdCache (partitioning only)",
    "adcache-pretrained": "AdCache (pretrained, frozen)",
}


def build_engine(
    strategy: str,
    tree: LSMTree,
    cache_bytes: int,
    seed: int = 0,
) -> KVEngine:
    """Instantiate one of the evaluated strategies over ``tree``."""
    try:
        factory = STRATEGIES[strategy]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {strategy!r}; choose from {sorted(STRATEGIES)}"
        ) from None
    return factory(tree, cache_bytes, seed)
