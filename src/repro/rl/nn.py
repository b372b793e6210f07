"""Minimal fully connected network with manual backprop (numpy).

Supports the two-hidden-layer, 256-unit, float32 architecture the paper
reports (Section 4.3) and exposes the parameter/byte counts needed to
reproduce its Table 2 memory-overhead numbers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigError

Array = np.ndarray


def relu(x: Array) -> Array:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def sigmoid(x: Array) -> Array:
    """Numerically stable logistic sigmoid."""
    e = np.exp(-np.abs(x))  # never overflows: the exponent is <= 0
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


class _Buffers:
    """One batch size's per-layer working arrays, reused across calls.

    ``acts[i]`` is layer ``i``'s activation (``acts[0]`` the input),
    ``deltas[i]`` is dLoss/d``acts[i]`` and ``masks[i]`` its ReLU mask.
    Indexed by layer throughout, so the small entries no pass touches
    (the input's delta, the end layers' masks, everything but ``acts``
    in the inference set) are allocated anyway.
    """

    __slots__ = ("rows", "acts", "deltas", "masks")

    def __init__(self, rows: int, layer_sizes: Sequence[int]) -> None:
        def per_layer(dtype: type) -> List[Array]:
            return [np.empty((rows, s), dtype=dtype) for s in layer_sizes]

        self.rows = rows
        self.acts = per_layer(np.float32)
        self.deltas = per_layer(np.float32)
        self.masks = per_layer(np.bool_)


class MLP:
    """Feed-forward net: Linear -> ReLU (hidden layers) -> Linear.

    The output layer is linear; squashing (sigmoid for the actor's
    bounded actions) is applied by the caller so the same class serves
    actor and critic.

    All parameters live in one float32 arena; ``weights[i]`` and
    ``biases[i]`` are views into it.  Forward and backward reuse
    per-batch-size buffers, so a steady stream of same-shaped calls
    (the controller's single-sample updates) allocates only the small
    output copy.

    Parameters
    ----------
    layer_sizes:
        e.g. ``[state_dim, 256, 256, action_dim]``.
    seed:
        He-initialisation seed.
    """

    def __init__(self, layer_sizes: Sequence[int], seed: int = 0) -> None:
        if len(layer_sizes) < 2:
            raise ConfigError("need at least input and output sizes")
        if any(s <= 0 for s in layer_sizes):
            raise ConfigError("layer sizes must be positive")
        rng = np.random.default_rng(seed)
        self.layer_sizes = list(layer_sizes)
        shapes = list(zip(layer_sizes[:-1], layer_sizes[1:]))
        self._arena = np.zeros(
            sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes),
            dtype=np.float32,
        )
        self.weights: List[Array] = []
        self.biases: List[Array] = []
        offset = 0
        for fan_in, fan_out in shapes:
            w = self._arena[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
            offset += w.size
            w[...] = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
            self.weights.append(w)
            self.biases.append(self._arena[offset : offset + fan_out])
            offset += fan_out
        # Inference and remembered passes keep separate buffers: a plain
        # forward() between forward(remember=True) and backward() must
        # not disturb the activations backward() reads.
        self._bufs = {
            remember: _Buffers(1, self.layer_sizes) for remember in (False, True)
        }
        self._remembered = False

    # -- inference ------------------------------------------------------------

    def forward(self, x: Array, remember: bool = False) -> Array:  # hot-path
        """Compute outputs for ``x`` of shape ``(d,)`` or ``(n, d)``.

        With ``remember=True`` the per-layer activations are stored for
        a subsequent :meth:`backward`.  The result is the caller's own
        copy, never a view of the reused buffers.
        """
        single = np.ndim(x) == 1
        rows = 1 if single else len(x)
        bufs = self._bufs[remember]
        if bufs.rows != rows:
            bufs = self._bufs[remember] = _Buffers(rows, self.layer_sizes)
        acts = bufs.acts
        np.copyto(acts[0], x)  # casts to float32; (d,) broadcasts to (1, d)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = acts[i + 1]
            # 2-D operands on purpose: (1, d) @ (d, n) and (d,) @ (d, n)
            # differ in the last bit (gemm vs gemv).
            np.matmul(acts[i], w, out=h)
            np.add(h, b, out=h)
            if i < last:
                np.maximum(h, 0.0, out=h)
        if remember:
            self._remembered = True
        return h[0].copy() if single else h.copy()

    # -- training ------------------------------------------------------------

    def backward(  # hot-path
        self, grad_out: Union[Array, float], out: Optional[Sequence[Array]] = None
    ) -> Sequence[Array]:
        """Backprop ``dLoss/dOutput`` through the remembered forward pass.

        Returns gradients interleaved ``[dW0, db0, dW1, db1, ...]``
        matching :meth:`parameters`.  ``out`` names where to write them
        (e.g. :attr:`repro.rl.optim.Adam.grads`; entries past the
        network's own are left alone) and is returned; without it fresh
        arrays are allocated.
        """
        if not self._remembered:
            raise ConfigError("backward() requires a forward(remember=True) first")
        self._remembered = False
        if out is None:
            out = [np.empty_like(p) for p in self.parameters()]
        bufs = self._bufs[True]
        acts, deltas, masks = bufs.acts, bufs.deltas, bufs.masks
        last = len(self.weights) - 1
        grad = deltas[last + 1]
        np.copyto(grad, grad_out)
        for i in range(last, -1, -1):
            inputs = acts[i]
            if bufs.rows == 1:
                # Rank-1: einsum's outer-product loop is bit-equal to the
                # gemm below (zero signs included) at a fifth of its cost.
                # Over more rows it may sum in another order, so gemm stays.
                np.einsum("ni,nj->ij", inputs, grad, out=out[2 * i])
            else:
                np.matmul(inputs.T, grad, out=out[2 * i])
            grad.sum(axis=0, out=out[2 * i + 1])
            if i > 0:
                prev = deltas[i]
                np.matmul(grad, self.weights[i].T, out=prev)
                np.greater(inputs, 0, out=masks[i])  # ReLU mask
                np.multiply(prev, masks[i], out=prev)
                grad = prev
        return out

    # -- parameter plumbing ------------------------------------------------------------

    def parameters(self) -> List[Array]:
        """Live parameter arrays interleaved ``[W0, b0, W1, b1, ...]``."""
        params: List[Array] = []
        for w, b in zip(self.weights, self.biases):
            params.append(w)
            params.append(b)
        return params

    @property
    def num_parameters(self) -> int:
        """Total scalar parameters."""
        return self._arena.size

    @property
    def size_bytes(self) -> int:
        """Bytes of float32 weight storage (Table 2's 'model weights')."""
        return self._arena.nbytes

    def state_dict(self) -> Dict[str, Array]:
        """Copy of all parameters, keyed for (de)serialisation."""
        out: Dict[str, Array] = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"w{i}"] = w.copy()
            out[f"b{i}"] = b.copy()
        return out

    def load_state_dict(self, state: Dict[str, Array]) -> None:
        """Load parameters saved by :meth:`state_dict` (shape-checked)."""
        for i in range(len(self.weights)):
            w, b = state[f"w{i}"], state[f"b{i}"]
            if w.shape != self.weights[i].shape or b.shape != self.biases[i].shape:
                raise ConfigError("state dict shape mismatch")
            # Copy in place: optimizers hold references to these arrays.
            self.weights[i][...] = w.astype(np.float32)
            self.biases[i][...] = b.astype(np.float32)
