"""Differential tests: the arena-backed RL stack against textbook oracles.

The oracles below are the implementations the arena code replaced: a
per-parameter Adam that allocates every temporary, and an MLP that
allocates every activation and gradient.  The production code must
agree with them under ``np.array_equal`` — not a tolerance — because
the golden digests and fleet fingerprints depend on every bit.
"""

from __future__ import annotations

import tracemalloc
import warnings
from typing import List, Optional

import numpy as np
import pytest

from repro.rl.actor_critic import ActorCriticAgent
from repro.rl.features import STATE_DIM
from repro.rl.nn import MLP, sigmoid
from repro.rl.optim import Adam
from repro.rl.pretrain import generate_supervised_dataset, pretrain_actor_supervised


# -- oracles --------------------------------------------------------------


def oracle_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class OracleAdam:
    """Textbook Adam: one loop iteration and ~10 temporaries per parameter."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self._params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._m = [np.zeros_like(p, dtype=np.float32) for p in params]
        self._v = [np.zeros_like(p, dtype=np.float32) for p in params]
        self._t = 0

    def step(self, grads):
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for p, g, m, v in zip(self._params, grads, self._m, self._v):
            g = g.astype(np.float32).reshape(p.shape)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class OracleMLP:
    """Allocate-everything forward/backward over separately owned arrays."""

    def __init__(self, layer_sizes, seed=0):
        rng = np.random.default_rng(seed)
        self.weights, self.biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(
                (rng.standard_normal((fan_in, fan_out)) * scale).astype(np.float32)
            )
            self.biases.append(np.zeros(fan_out, dtype=np.float32))
        self._cache = None

    def forward(self, x, remember=False):
        single = x.ndim == 1
        h = np.atleast_2d(np.asarray(x, dtype=np.float32))
        activations = [h]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < last:
                h = np.maximum(h, 0.0)
            activations.append(h)
        if remember:
            self._cache = activations
        return h[0] if single else h

    def backward(self, grad_out):
        activations, self._cache = self._cache, None
        grad = np.atleast_2d(np.asarray(grad_out, dtype=np.float32))
        grads = [None] * (2 * len(self.weights))
        for i in range(len(self.weights) - 1, -1, -1):
            inputs = activations[i]
            grads[2 * i] = inputs.T @ grad
            grads[2 * i + 1] = grad.sum(axis=0)
            if i > 0:
                grad = grad @ self.weights[i].T
                grad = grad * (activations[i] > 0)
        return grads

    def parameters(self):
        return [a for pair in zip(self.weights, self.biases) for a in pair]


class OracleAgent:
    """The pre-arena ``ActorCriticAgent.update``, conversions and all."""

    def __init__(self, state_dim, action_dim, hidden_dim, seed, initial_log_std=-1.6):
        self.gamma = 0.9
        self.actor = OracleMLP([state_dim, hidden_dim, hidden_dim, action_dim], seed)
        self.critic = OracleMLP([state_dim, hidden_dim, hidden_dim, 1], seed + 1)
        self.log_std = np.full(action_dim, initial_log_std, dtype=np.float32)
        self.actor_opt = OracleAdam(self.actor.parameters() + [self.log_std])
        self.critic_opt = OracleAdam(self.critic.parameters())

    def value(self, state):
        return float(self.critic.forward(np.asarray(state, dtype=np.float32))[0])

    def update(self, state, action, reward, next_state, done=False,
               update_actor=True, delta_clip: Optional[float] = 0.2):
        state = np.asarray(state, dtype=np.float32)
        next_state = np.asarray(next_state, dtype=np.float32)
        action = np.asarray(action, dtype=np.float32)
        v_next = 0.0 if done else self.value(next_state)
        v = float(self.critic.forward(state, remember=True)[0])
        delta = reward + self.gamma * v_next - v
        self.critic_opt.step(self.critic.backward(np.array([-delta], dtype=np.float32)))
        if not update_actor:
            return float(delta)
        if delta_clip is not None:
            delta = float(np.clip(delta, -delta_clip, delta_clip))
        mu = oracle_sigmoid(self.actor.forward(state, remember=True))
        std = np.exp(self.log_std)
        var = std * std
        dmu = (-delta) * (action - mu) / var
        dpre = dmu * mu * (1.0 - mu)
        actor_grads = self.actor.backward(dpre.astype(np.float32))
        dlog_std = (-delta) * (((action - mu) ** 2) / var - 1.0)
        self.actor_opt.step(actor_grads + [dlog_std.astype(np.float32)])
        np.clip(self.log_std, -4.0, 0.0, out=self.log_std)
        return float(delta)


def assert_all_equal(got, want, where=""):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert np.array_equal(a, b), f"array {i} differs {where}"


# -- sigmoid ----------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bit_identical_to_masked_form(dtype):
    edge = [0.0, -0.0, 50.0, -50.0, 1e4, -1e4, 88.7, -88.7, 103.9, -103.9, 1e-30]
    grid = np.concatenate(
        [np.array(edge), np.linspace(-30.0, 30.0, 4001),
         np.random.default_rng(0).standard_normal(4000) * 8.0]
    ).astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = sigmoid(grid)
        # The controller calls it on 4-element vectors.
        short = np.concatenate([sigmoid(grid[i : i + 4]) for i in range(0, 44, 4)])
    want = oracle_sigmoid(grid)
    assert got.dtype == dtype
    assert np.array_equal(got, want) and not np.signbit(got).any()
    assert np.array_equal(short, want[:44])


# -- Adam --------------------------------------------------------------------


SHAPES = [(14, 32), (32,), (32, 32), (32,), (32, 4), (4,), (4,)]


def _param_sets(seed=0):
    rng = np.random.default_rng(seed)
    base = [rng.standard_normal(s).astype(np.float32) for s in SHAPES]
    return [p.copy() for p in base], [p.copy() for p in base]


class TestAdamDifferential:
    def test_matches_oracle_over_300_steps(self):
        """External gradients (float32 and float64), sparse entries, an lr change."""
        new_p, old_p = _param_sets()
        new, old = Adam(new_p, lr=1e-3), OracleAdam(old_p, lr=1e-3)
        rng = np.random.default_rng(1)
        for step in range(300):
            if step == 120:
                new.lr = old.lr = 3.7e-4  # the controller's adaptive actor rate
            grads = []
            for shape in SHAPES:
                g = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 2)
                g[rng.random(shape) < 0.4] = 0.0  # ReLU-dead units
                grads.append(g if step % 3 else g.astype(np.float32))
            new.step(grads)
            old.step(grads)
            assert_all_equal(new_p, old_p, f"at step {step}")
        assert new.steps_taken == 300

    def test_gradients_written_into_views_match(self):
        new_p, old_p = _param_sets(2)
        new, old = Adam(new_p), OracleAdam(old_p)
        rng = np.random.default_rng(3)
        for step in range(200):
            grads = [rng.standard_normal(s).astype(np.float32) for s in SHAPES]
            for view, g in zip(new.grads, grads):
                view[...] = g
            new.step(new.grads)
            old.step(grads)
            assert_all_equal(new_p, old_p, f"at step {step}")

    def test_shared_workspace_matches_private(self):
        """Two optimizers that alternate may share gradient/scratch rows."""
        (a_new, a_old), (b_new, b_old) = _param_sets(4), _param_sets(5)
        b_new, b_old = b_new[:4], b_old[:4]
        workspace = np.empty((2, sum(p.size for p in a_new) + 7), dtype=np.float32)
        shared = [Adam(a_new, workspace=workspace), Adam(b_new, workspace=workspace)]
        private = [OracleAdam(a_old), OracleAdam(b_old)]
        rng = np.random.default_rng(6)
        for step in range(200):
            for new, old, shapes in zip(shared, private, (SHAPES, SHAPES[:4])):
                grads = [rng.standard_normal(s).astype(np.float32) for s in shapes]
                new.step(grads)
                old.step(grads)
        assert_all_equal(a_new, a_old)
        assert_all_equal(b_new, b_old)

    def test_state_bytes_excludes_workspace(self):
        """Table 2 counts two moments per parameter; scratch is not state."""
        params, _ = _param_sets()
        assert Adam(params).state_bytes == 2 * sum(p.nbytes for p in params)


# -- MLP --------------------------------------------------------------------


SIZES = [14, 32, 32, 4]


def _mlp_pair(seed=0):
    new, old = MLP(SIZES, seed=seed), OracleMLP(SIZES, seed=seed)
    assert_all_equal(new.parameters(), old.parameters(), "after init")
    return new, old


class TestMLPDifferential:
    @pytest.mark.parametrize("rows", [None, 1, 2, 32])
    def test_forward_backward_match_oracle(self, rows):
        new, old = _mlp_pair(7)
        rng = np.random.default_rng(8)
        for trial in range(60):
            shape = (14,) if rows is None else (rows, 14)
            x = rng.standard_normal(shape).astype(np.float32)
            assert np.array_equal(new.forward(x), old.forward(x))
            out_new = new.forward(x, remember=True)
            out_old = old.forward(x, remember=True)
            assert np.array_equal(out_new, out_old) and out_new.shape == out_old.shape
            g = rng.standard_normal(out_old.shape).astype(np.float32)
            assert_all_equal(new.backward(g), old.backward(g), f"trial {trial}")

    def test_training_matches_oracle_over_240_steps(self):
        """Alternating single-sample and batch steps, gradients via ``out=``."""
        new, old = _mlp_pair(9)
        new_opt, old_opt = Adam(new.parameters()), OracleAdam(old.parameters())
        rng = np.random.default_rng(10)
        for step in range(240):
            shape = (14,) if step % 4 else (int(rng.integers(2, 40)), 14)
            x = rng.random(shape).astype(np.float32)
            pre_new, pre_old = new.forward(x, remember=True), old.forward(x, remember=True)
            assert np.array_equal(pre_new, pre_old)
            g = (pre_old - 0.5).astype(np.float32)
            new_opt.step(new.backward(g, out=new_opt.grads))
            old_opt.step(old.backward(g))
            assert_all_equal(new.parameters(), old.parameters(), f"at step {step}")

    def test_returned_outputs_are_not_buffer_views(self):
        net = MLP(SIZES, seed=1)
        first = net.forward(np.ones(14, dtype=np.float32))
        kept = first.copy()
        net.forward(np.zeros(14, dtype=np.float32))
        net.forward(np.zeros(14, dtype=np.float32), remember=True)
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("rows", [None, 8])
    def test_plain_forward_between_remember_and_backward(self, rows):
        """``update`` evaluates ``value(next_state)`` around the remembered
        pass and audit replay interleaves the same way; the shared buffers
        must keep the remembered activations intact."""
        rng = np.random.default_rng(11)
        shape = (14,) if rows is None else (rows, 14)
        x = rng.standard_normal(shape).astype(np.float32)
        net = MLP(SIZES, seed=2)
        out = net.forward(x, remember=True)
        g = rng.standard_normal(out.shape).astype(np.float32)
        clean = [a.copy() for a in net.backward(g)]
        net.forward(x, remember=True)
        for other in ((14,), (8, 14), (3, 14)):  # same and different batch sizes
            net.forward(rng.standard_normal(other).astype(np.float32))
        assert_all_equal(net.backward(g), clean)

    def test_parameters_are_views_of_one_arena(self):
        net = MLP(SIZES, seed=3)
        for p in net.parameters():
            assert p.base is not None and np.shares_memory(p, net.parameters()[0].base)
        assert net.size_bytes == 4 * net.num_parameters
        assert net.num_parameters == sum(p.size for p in net.parameters())


# -- agent and pretraining ------------------------------------------------


def _transition(rng):
    state, nxt = (rng.random(STATE_DIM).astype(np.float32) for _ in range(2))
    action = (rng.random(4) * 1.4 - 0.2).astype(np.float32)
    return state, action, float(rng.normal()), nxt


class TestAgentDifferential:
    def test_update_matches_oracle_over_250_transitions(self):
        # The paper's width: the BLAS kernels the controller really runs.
        new = ActorCriticAgent(STATE_DIM, 4, hidden_dim=256, seed=5)
        old = OracleAgent(STATE_DIM, 4, hidden_dim=256, seed=5)
        rng = np.random.default_rng(12)
        for step in range(250):
            s, a, r, s2 = _transition(rng)
            if step == 100:
                new.set_actor_lr(4.2e-4)
                old.actor_opt.lr = new.actor_lr
            kwargs = dict(done=step % 17 == 0, update_actor=step >= 10)
            if step % 29 == 0:
                kwargs["delta_clip"] = None
            assert new.update(s, a, r, s2, **kwargs) == old.update(s, a, r, s2, **kwargs)
            if step % 5 == 0:  # act()/value() between updates, as the controller does
                assert new.value(s2) == old.value(s2)
            assert_all_equal(
                new.actor.parameters() + new.critic.parameters() + [new.log_std],
                old.actor.parameters() + old.critic.parameters() + [old.log_std],
                f"at step {step}",
            )

    def test_pretrain_loss_curve_matches_oracle(self):
        dataset = generate_supervised_dataset(100, seed=2)  # 32+32+32+4 per epoch
        agent = ActorCriticAgent(STATE_DIM, 4, hidden_dim=32, seed=1)
        losses = pretrain_actor_supervised(agent, dataset, epochs=8, lr=2e-3, seed=3)

        actor = OracleMLP([STATE_DIM, 32, 32, 4], seed=1)
        opt = OracleAdam(actor.parameters(), lr=2e-3)
        states = np.stack([s for s, _ in dataset]).astype(np.float32)
        targets = np.stack([t for _, t in dataset]).astype(np.float32)
        rng = np.random.default_rng(3)
        want: List[float] = []
        for _ in range(8):
            order = rng.permutation(len(dataset))
            epoch_loss = 0.0
            for start in range(0, len(dataset), 32):
                idx = order[start : start + 32]
                x, y = states[idx], targets[idx]
                mu = oracle_sigmoid(actor.forward(x, remember=True))
                err = mu - y
                epoch_loss += float((err**2).mean()) * len(idx)
                grad = (2.0 * err * mu * (1.0 - mu)) / (len(idx) * y.shape[1])
                opt.step(actor.backward(grad.astype(np.float32)))
            want.append(epoch_loss / len(dataset))
        assert losses == want
        assert_all_equal(agent.actor.parameters(), actor.parameters())


# -- allocation and accounting ------------------------------------------------


class TestSteadyStateAllocation:
    def test_update_holds_under_64kb_of_new_memory(self):
        """A reintroduced 256 KB temporary (one hidden-layer matrix) fails this."""
        agent = ActorCriticAgent(STATE_DIM, 4, seed=0)
        rng = np.random.default_rng(13)
        transitions = [_transition(rng) for _ in range(53)]
        for t in transitions[:3]:
            agent.update(*t)
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for t in transitions[3:]:
                agent.update(*t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - baseline <= 64 * 1024

    def test_table2_accounting_is_pinned(self):
        """Weights, gradients and two moments per parameter; buffers excluded."""
        agent = ActorCriticAgent(STATE_DIM, 4, seed=0)
        assert agent.num_parameters == 140553
        assert agent.memory_overhead_bytes() == {
            "model_weights": 562212,
            "gradients": 562212,
            "optimizer_states": 1124424,
            "total": 2248848,
        }
        assert agent._actor_opt.state_bytes == 565312
        assert agent._critic_opt.state_bytes == 559112
