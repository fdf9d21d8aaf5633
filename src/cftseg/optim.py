"""AdamW with decoupled weight decay and the poly learning-rate schedule."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .checkpoint import _restore_arrays
from .errors import ConfigError
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


def adamw_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray,
               v: np.ndarray, step: int, lr: float,
               betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
               weight_decay: float = 0.0) -> None:
    """One in-place AdamW update; step counts from 1 for bias correction."""
    beta1, beta2 = betas
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    param -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * param)


class AdamW:
    """Tracks first/second moments per named parameter; decay is decoupled."""

    def __init__(self, params: Mapping[str, Tensor],
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = dict(params)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self, grads: Mapping[Tensor, np.ndarray], lr: float) -> None:
        self.step_count += 1
        for name, p in self.params.items():
            adamw_step(p.data, grads[p], self.m[name], self.v[name],
                       self.step_count, lr, self.betas, self.eps,
                       self.weight_decay)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Moment buffers keyed for checkpointing."""
        out: dict[str, np.ndarray] = {}
        for name in self.params:
            out[f"adam_m/{name}"] = self.m[name]
            out[f"adam_v/{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: Mapping[str, np.ndarray],
                          step_count: int) -> None:
        _restore_arrays(arrays, "adam_m", self.m)
        _restore_arrays(arrays, "adam_v", self.v)
        self.step_count = step_count
