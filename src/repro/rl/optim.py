"""Adam optimizer (Kingma & Ba) over lists of numpy arrays.

Maintains first/second moment estimates per parameter — the "optimizer
states" line of the paper's Table 2 memory accounting.  The moments and
the gradients live in flat arenas, so one step is a fixed number of
elementwise passes over the whole parameter set and allocates nothing.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError

Array = np.ndarray

#: Decay rates of the first and second moment estimates (Kingma & Ba).
BETA1 = 0.9
BETA2 = 0.999
#: Added to the second-moment root so the update never divides by zero.
EPS = 1e-8


class Adam:
    """Adam with bias correction; updates parameters in place.

    Parameters
    ----------
    params:
        The live parameter arrays (shared with the model).
    lr:
        Learning rate; mutable via :attr:`lr` for the paper's adaptive
        actor rate.
    workspace:
        Optional float32 array of shape ``(2, >= total parameters)``
        holding the gradient arena and the scratch row.  Optimizers
        that never step concurrently (an agent's actor and critic) may
        share one; it is working memory, not optimizer state.

    Attributes
    ----------
    grads:
        Per-parameter views into the gradient arena, shaped like the
        parameters.  A producer that writes its gradients here and
        passes the same list to :meth:`step` skips the gather copy.
        :meth:`step` consumes them: their contents are undefined after.
    """

    def __init__(
        self,
        params: Sequence[Array],
        lr: float = 1e-3,
        workspace: Optional[Array] = None,
    ) -> None:
        if lr <= 0:
            raise ConfigError("lr must be positive")
        self._params = list(params)
        self.lr = lr
        total = sum(p.size for p in self._params)
        if workspace is None:
            workspace = np.empty((2, total), dtype=np.float32)
        elif (
            workspace.dtype != np.float32
            or workspace.ndim != 2
            or workspace.shape[0] != 2
            or workspace.shape[1] < total
        ):
            raise ConfigError(
                f"workspace must be float32 of shape (2, >= {total})"
            )
        self._m = np.zeros(total, dtype=np.float32)
        self._v = np.zeros(total, dtype=np.float32)
        self._g = workspace[0, :total]
        self._scratch = workspace[1, :total]
        self.grads: List[Array] = []
        offset = 0
        for p in self._params:
            self.grads.append(self._g[offset : offset + p.size].reshape(p.shape))
            offset += p.size
        self._t = 0

    def step(self, grads: Sequence[Array]) -> None:  # hot-path
        """Apply one update given gradients aligned with the parameters."""
        views = self.grads
        if len(grads) != len(views):
            raise ConfigError(
                f"expected {len(views)} gradients, got {len(grads)}"
            )
        for i, (view, grad) in enumerate(zip(views, grads)):
            if grad is view:
                continue
            if grad.size != view.size:
                raise ConfigError(
                    f"gradient {i} has {grad.size} elements, "
                    f"parameter {i} has {view.size}"
                )
            view[...] = grad.reshape(view.shape)
        self._t += 1
        bc1 = 1.0 - BETA1**self._t
        bc2 = 1.0 - BETA2**self._t
        m, v, g, s = self._m, self._v, self._g, self._scratch
        # m = m*b1 + (1-b1)*g ; v = v*b2 + (1-b2)*(g*g), one pass each.
        np.multiply(m, BETA1, out=m)
        np.multiply(g, 1.0 - BETA1, out=s)
        np.add(m, s, out=m)
        np.multiply(v, BETA2, out=v)
        np.multiply(g, g, out=s)
        np.multiply(s, 1.0 - BETA2, out=s)
        np.add(v, s, out=v)
        # The gradient is spent: its arena now carries the update,
        # lr*(m/bc1) / (sqrt(v/bc2) + eps).
        np.divide(m, bc1, out=g)
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        np.add(s, EPS, out=s)
        np.multiply(g, self.lr, out=g)
        np.divide(g, s, out=g)
        for p, update in zip(self._params, views):
            np.subtract(p, update, out=p)

    @property
    def state_bytes(self) -> int:
        """Bytes held in moment estimates (2 tensors per parameter)."""
        return self._m.nbytes + self._v.nbytes

    @property
    def steps_taken(self) -> int:
        """Number of optimizer steps applied so far."""
        return self._t
