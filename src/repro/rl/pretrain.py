"""Pretraining the actor before deployment (paper Section 3.6).

Two modes, as described:

* **Supervised** — the actor regresses onto ``(state, target-action)``
  pairs.  Targets come either from controlled experiments or from the
  rule-of-thumb expert in :func:`heuristic_target`, which encodes the
  paper's own findings (block cache for stable read/scan phases, range
  cache under update pressure, partial admission for long scans).
* **Unsupervised** — the ordinary online actor-critic loop run against
  recorded or synthetic workloads before deployment: build an
  :class:`~repro.core.adcache.AdCacheEngine` around the agent and drive
  it with the operations (for example a replayed trace).  It needs no
  helper here.

A pretrained agent can be saved with ``agent.save(path)`` and shipped to
other machines, reproducing the paper's portability argument.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.rl.actor_critic import ActorCriticAgent
from repro.rl.features import SCAN_LEN_SCALE, STATE_DIM, state_vector
from repro.rl.nn import sigmoid
from repro.rl.optim import Adam

Array = np.ndarray
Sample = Tuple[Array, Array]  # (state, target action in [0,1]^d)

#: Samples per supervised pretraining step.
BATCH_SIZE = 32


def heuristic_target(
    point_ratio: float,
    scan_ratio: float,
    write_ratio: float,
    avg_scan_length: float,
) -> np.ndarray:
    """Expert rule mapping a workload mix to a sensible action.

    Encodes the paper's observed best choices: short-scan phases favour
    the block cache (low range ratio), update-heavy phases favour the
    range cache, long infrequent scans get partial admission, and
    point-heavy skewed traffic benefits from a mild frequency bar.
    """
    # Range/block split: updates push toward range cache (compaction
    # resilience); scans with short lengths push toward block cache.
    range_ratio = 0.3 + 0.6 * write_ratio + 0.3 * point_ratio - 0.4 * scan_ratio
    if scan_ratio > 0.3 and avg_scan_length <= 24:
        range_ratio -= 0.3  # short scans: block layout wins
    range_ratio = float(min(1.0, max(0.0, range_ratio)))

    # Frequency bar: meaningful only for point-heavy mixes.
    point_threshold = 0.1 if point_ratio > 0.6 else 0.0

    # Scan admission: full for short scans, partial beyond ~16.
    a_norm = min(1.0, max(0.1, 20.0 / SCAN_LEN_SCALE))
    b = 0.5 if avg_scan_length > 24 else 0.9
    return np.array([range_ratio, point_threshold, a_norm, b], dtype=np.float32)


def generate_supervised_dataset(
    num_samples: int = 512, seed: int = 0
) -> List[Sample]:
    """Synthesize representative workload states with expert targets.

    Samples random operation mixes (Dirichlet over point/scan/write),
    scan lengths, and plausible hit/occupancy values, then labels each
    with :func:`heuristic_target`.
    """
    if num_samples <= 0:
        raise ConfigError("num_samples must be positive")
    rng = np.random.default_rng(seed)
    samples: List[Sample] = []
    for _ in range(num_samples):
        mix = rng.dirichlet([1.0, 1.0, 1.0])
        point_ratio, scan_ratio, write_ratio = (float(x) for x in mix)
        avg_scan_length = float(rng.choice([0.0, 8.0, 16.0, 32.0, 64.0]))
        if scan_ratio < 0.05:
            avg_scan_length = 0.0
        target = heuristic_target(point_ratio, scan_ratio, write_ratio, avg_scan_length)
        state = state_vector(
            point_ratio=point_ratio,
            scan_ratio=scan_ratio,
            write_ratio=write_ratio,
            avg_scan_length=avg_scan_length,
            range_hit_rate=float(rng.uniform(0.0, 1.0)),
            block_hit_rate=float(rng.uniform(0.0, 1.0)),
            h_smoothed=float(rng.uniform(0.0, 1.0)),
            range_occupancy=float(rng.uniform(0.0, 1.0)),
            block_occupancy=float(rng.uniform(0.0, 1.0)),
            compactions=int(rng.integers(0, 5)),
            current_range_ratio=float(rng.uniform(0.0, 1.0)),
            current_point_threshold_norm=float(rng.uniform(0.0, 0.5)),
            current_a_norm=float(rng.uniform(0.0, 1.0)),
            current_b=float(rng.uniform(0.0, 1.0)),
        )
        samples.append((state, target))
    return samples


def pretrain_actor_supervised(
    agent: ActorCriticAgent,
    dataset: List[Sample],
    epochs: int = 50,
    lr: float = 1e-3,
    seed: int = 0,
) -> List[float]:
    """Regress the actor's mean onto expert targets; returns loss curve.

    Uses a dedicated Adam instance so pretraining does not disturb the
    online optimizer's moment estimates.
    """
    if not dataset:
        raise ConfigError("dataset must not be empty")
    states = np.stack([s for s, _ in dataset]).astype(np.float32)
    targets = np.stack([t for _, t in dataset]).astype(np.float32)
    if states.shape[1] != STATE_DIM:
        raise ConfigError(f"states must have {STATE_DIM} features")
    opt = Adam(agent.actor.parameters(), lr=lr)
    rng = np.random.default_rng(seed)
    losses: List[float] = []
    n = len(dataset)
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            x, y = states[idx], targets[idx]
            pre = agent.actor.forward(x, remember=True)
            mu = sigmoid(pre)
            err = mu - y
            epoch_loss += float((err**2).mean()) * len(idx)
            # d(MSE)/dpre through the sigmoid; mean over batch and dims.
            grad = (2.0 * err * mu * (1.0 - mu)) / (len(idx) * y.shape[1])
            opt.step(agent.actor.backward(grad, out=opt.grads))
        losses.append(epoch_loss / n)
    return losses
