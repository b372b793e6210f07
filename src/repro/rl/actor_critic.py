"""Gaussian-policy actor-critic for continuous cache control.

The actor maps the window's workload-state vector to action means in
``[0, 1]^d`` (sigmoid-squashed); exploration adds state-independent
Gaussian noise with a learnable per-dimension log-std.  The critic
estimates the state value; a one-step TD error drives both updates:

* critic minimises ``0.5 * delta^2``,
* actor ascends ``delta * log pi(a | s)``.

Action dimensions are interpreted by the AdCache controller
(:mod:`repro.core.controller`): range/block split, point-admission
threshold, and the scan-admission parameters ``a`` and ``b``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.errors import ConfigError
from repro.rl.nn import MLP, sigmoid
from repro.rl.optim import Adam

Array = np.ndarray

_LOG_STD_MIN, _LOG_STD_MAX = -4.0, 0.0


class ActorCriticAgent:
    """Online actor-critic with sigmoid-bounded continuous actions.

    Parameters
    ----------
    state_dim / action_dim:
        Dimensions of the observation and action vectors.
    hidden_dim:
        Width of the two hidden layers (paper: 256).
    actor_lr / critic_lr:
        Initial Adam rates (paper: 1e-3 each).  The actor rate is the
        one the paper adapts online (``lr *= 1 - reward``).
    gamma:
        TD discount.
    initial_log_std:
        Starting exploration noise (log scale).
    seed:
        Init + exploration RNG seed.
    """

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        hidden_dim: int = 256,
        actor_lr: float = 1e-3,
        critic_lr: float = 1e-3,
        gamma: float = 0.9,
        initial_log_std: float = -1.6,
        seed: int = 0,
    ) -> None:
        if state_dim <= 0 or action_dim <= 0:
            raise ConfigError("state_dim and action_dim must be positive")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.gamma = gamma
        self.actor = MLP([state_dim, hidden_dim, hidden_dim, action_dim], seed=seed)
        self.critic = MLP([state_dim, hidden_dim, hidden_dim, 1], seed=seed + 1)
        self.log_std = np.full(action_dim, initial_log_std, dtype=np.float32)
        # The critic's step finishes before the actor's backward begins,
        # so the two optimizers share one gradient/scratch workspace.
        workspace = np.empty(
            (2, max(self.actor.num_parameters + action_dim, self.critic.num_parameters)),
            dtype=np.float32,
        )
        self._actor_opt = Adam(
            self.actor.parameters() + [self.log_std], lr=actor_lr, workspace=workspace
        )
        self._critic_opt = Adam(
            self.critic.parameters(), lr=critic_lr, workspace=workspace
        )
        self._rng = np.random.default_rng(seed + 2)
        self.updates_total = 0

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "ActorCriticAgent":
        """Build the agent an audit ``agent_init`` record describes.

        The record holds every constructor argument by name, plus an
        ``initial_policy`` (action means for :meth:`set_initial_policy`,
        or None to keep the random initial policy).
        """
        params = dict(record)
        initial_policy = params.pop("initial_policy", None)
        agent = cls(**params)
        if initial_policy is not None:
            agent.set_initial_policy(np.asarray(initial_policy, dtype=np.float32))
        return agent

    def set_initial_policy(self, action_means: Array) -> None:
        """Pin the untrained policy's mean to ``action_means``.

        Scales the final layer's weights down and sets its biases to the
        logit of each target, so the initial policy reproduces a chosen
        configuration (e.g. the paper's 50/50 boundary with admission
        wide open) instead of an arbitrary mid-scale point.
        """
        targets = np.clip(np.asarray(action_means, dtype=np.float32), 1e-4, 1 - 1e-4)
        if targets.shape != (self.action_dim,):
            raise ConfigError(f"expected {self.action_dim} action means")
        self.actor.weights[-1] *= 0.01
        self.actor.biases[-1][...] = np.log(targets / (1.0 - targets))

    # -- acting ---------------------------------------------------------------

    def action_mean(self, state: Array) -> Array:
        """Deterministic policy output in [0, 1]^d."""
        return sigmoid(self.actor.forward(state))

    def act(self, state: Array, explore: bool = True) -> Array:
        """Sample an action; deterministic when ``explore`` is False.

        The returned action is clipped to [0, 1] for execution; the
        unclipped sample is what :meth:`update` expects back.
        """
        mean = self.action_mean(state)
        if not explore:
            return mean
        std = np.exp(self.log_std)
        sample = mean + std * self._rng.standard_normal(self.action_dim).astype(
            np.float32
        )
        return sample

    @staticmethod
    def clip_action(action: Array) -> Array:
        """Executable version of a possibly-out-of-range sample."""
        return np.clip(action, 0.0, 1.0)

    # -- learning ---------------------------------------------------------------

    def value(self, state: Array) -> float:
        """Critic estimate V(s)."""
        return float(self.critic.forward(state)[0])

    def update(  # hot-path
        self,
        state: Array,
        action: Array,
        reward: float,
        next_state: Array,
        done: bool = False,
        update_actor: bool = True,
        delta_clip: Optional[float] = 0.2,
    ) -> float:
        """One TD(0) actor-critic step; returns the TD error ``delta``.

        ``update_actor=False`` trains only the critic (used to warm the
        value baseline before policy updates begin).  ``delta_clip``
        bounds the advantage fed to the actor so a still-cold critic
        cannot imprint arbitrary early actions onto the policy.
        """
        # float32 like mu, or the gradient arithmetic below widens.
        action = np.asarray(action, dtype=np.float32)

        v_next = 0.0 if done else self.value(next_state)
        v = float(self.critic.forward(state, remember=True)[0])
        delta = reward + self.gamma * v_next - v

        # Critic: minimise 0.5 * delta^2  =>  dL/dv = -(delta).
        critic_opt = self._critic_opt
        critic_opt.step(self.critic.backward(-delta, out=critic_opt.grads))
        if not update_actor:
            self.updates_total += 1
            return float(delta)
        if delta_clip is not None:
            # NaN compares false both ways and passes through, as np.clip did.
            if delta > delta_clip:
                delta = delta_clip
            elif delta < -delta_clip:
                delta = -delta_clip

        # Actor: maximise delta * log pi(a|s) with pi = N(mu(s), sigma^2).
        pre = self.actor.forward(state, remember=True)
        mu = sigmoid(pre)
        std = np.exp(self.log_std)
        var = std * std
        # d(-delta * logpi)/dmu = -delta * (a - mu) / var
        dmu = (-delta) * (action - mu) / var
        dpre = dmu * mu * (1.0 - mu)  # through the sigmoid
        actor_opt = self._actor_opt
        actor_grads = self.actor.backward(dpre, out=actor_opt.grads)
        # d(-delta * logpi)/dlog_std = -delta * ((a - mu)^2 / var - 1)
        actor_grads[-1][...] = (-delta) * (((action - mu) ** 2) / var - 1.0)
        actor_opt.step(actor_grads)
        np.maximum(self.log_std, _LOG_STD_MIN, out=self.log_std)
        np.minimum(self.log_std, _LOG_STD_MAX, out=self.log_std)

        self.updates_total += 1
        return float(delta)

    # -- learning-rate control (paper's adaptive actor rate) ---------------------

    @property
    def actor_lr(self) -> float:
        """Current actor learning rate."""
        return self._actor_opt.lr

    def set_actor_lr(self, lr: float) -> None:
        """Set the actor learning rate (clamped to a sane range)."""
        self._actor_opt.lr = float(min(1e-1, max(1e-6, lr)))

    # -- introspection / persistence -----------------------------------------------

    def memory_overhead_bytes(self) -> Dict[str, int]:
        """Reproduce Table 2: weights, gradients, optimizer states."""
        weight_bytes = self.actor.size_bytes + self.critic.size_bytes + self.log_std.nbytes
        # Backprop holds one gradient per parameter at peak.
        gradient_bytes = weight_bytes
        optimizer_bytes = self._actor_opt.state_bytes + self._critic_opt.state_bytes
        return {
            "model_weights": weight_bytes,
            "gradients": gradient_bytes,
            "optimizer_states": optimizer_bytes,
            "total": weight_bytes + gradient_bytes + optimizer_bytes,
        }

    @property
    def num_parameters(self) -> int:
        """Total scalar parameters across actor + critic (+ log_std)."""
        return (
            self.actor.num_parameters
            + self.critic.num_parameters
            + self.log_std.size
        )

    def state_dict(self) -> Dict[str, Array]:
        """Serializable snapshot of all learnable parameters."""
        out = {f"actor_{k}": v for k, v in self.actor.state_dict().items()}
        out.update({f"critic_{k}": v for k, v in self.critic.state_dict().items()})
        out["log_std"] = self.log_std.copy()
        return out

    def load_state_dict(self, state: Dict[str, Array]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self.actor.load_state_dict(
            {k[len("actor_") :]: v for k, v in state.items() if k.startswith("actor_")}
        )
        self.critic.load_state_dict(
            {k[len("critic_") :]: v for k, v in state.items() if k.startswith("critic_")}
        )
        self.log_std[:] = state["log_std"].astype(np.float32)

    def save(self, path: str) -> None:
        """Persist parameters to an ``.npz`` file (pretraining hand-off)."""
        np.savez(path, **self.state_dict())

    def load(self, path: str) -> None:
        """Load parameters from :meth:`save` output."""
        with np.load(path) as data:
            self.load_state_dict({k: data[k] for k in data.files})
