"""Adam optimizer: convergence, state accounting, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.rl.optim import Adam


class TestAdam:
    def test_minimises_quadratic(self):
        x = np.array([5.0, -3.0], dtype=np.float32)
        opt = Adam([x], lr=0.1)
        for _ in range(500):
            opt.step([2.0 * x])  # d/dx of x^2
        assert np.all(np.abs(x) < 0.05)

    def test_updates_in_place(self):
        x = np.ones(3, dtype=np.float32)
        ref = x
        Adam([x], lr=0.1).step([np.ones(3)])
        assert ref is x and not np.allclose(x, 1.0)

    def test_state_bytes(self):
        x = np.zeros((10, 10), dtype=np.float32)
        opt = Adam([x])
        assert opt.state_bytes == 2 * x.nbytes

    def test_steps_counted(self):
        x = np.zeros(2, dtype=np.float32)
        opt = Adam([x])
        opt.step([np.ones(2)])
        opt.step([np.ones(2)])
        assert opt.steps_taken == 2

    def test_gradient_count_validated(self):
        opt = Adam([np.zeros(2, dtype=np.float32)])
        with pytest.raises(ConfigError):
            opt.step([np.ones(2), np.ones(2)])

    def test_gradient_size_validated(self):
        """A wrong-sized gradient names its parameter, not a numpy reshape."""
        params = [np.zeros((2, 3), dtype=np.float32), np.zeros(3, dtype=np.float32)]
        opt = Adam(params)
        with pytest.raises(ConfigError, match="gradient 1 has 4 elements"):
            opt.step([np.ones((3, 2)), np.ones(4)])
        assert opt.steps_taken == 0 and not params[0].any()

    def test_workspace_validated(self):
        params = [np.zeros(8, dtype=np.float32)]
        for bad in (np.empty((2, 7), np.float32), np.empty((2, 8)), np.empty(16, np.float32)):
            with pytest.raises(ConfigError):
                Adam(params, workspace=bad)

    def test_lr_validated(self):
        with pytest.raises(ConfigError):
            Adam([np.zeros(1)], lr=0.0)

    def test_lr_mutable_at_runtime(self):
        """The paper adapts the actor lr every window."""
        x = np.array([10.0], dtype=np.float32)
        opt = Adam([x], lr=1e-3)
        opt.lr = 1.0
        opt.step([np.array([1.0])])
        assert abs(float(x[0]) - 10.0) > 0.1  # big lr took a big step
