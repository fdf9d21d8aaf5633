"""Finite-difference gradient checking.

The checker is the package's independent oracle for every backward
rule: it re-evaluates the forward function at perturbed points and
never consults the tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .tensor import Array, Tensor, backward, no_grad


def finite_diff_grad(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-4,
                     coords: Sequence[int] | None = None) -> Array:
    """Central-difference gradient of a scalar-valued function at x.

    Evaluates f twice per probed coordinate with the coordinate displaced
    by +/- h, temporarily rewriting x's storage and restoring it exactly,
    also when f raises. `coords` lists the flat indices, in C order, to
    probe (all by default); entries left unprobed are zero.
    """
    flat = x.data.flat  # writes through to x's storage whatever its layout
    grad = np.zeros(x.size)
    with no_grad():
        for j in range(x.size) if coords is None else coords:
            saved = flat[j]
            try:
                flat[j] = saved + h
                up = f(x).item()
                flat[j] = saved - h
                down = f(x).item()
            finally:
                flat[j] = saved
            grad[j] = (up - down) / (2.0 * h)
    return grad.reshape(x.shape)


# magnitude below which max_rel_error divides by this floor instead
_REL_FLOOR = 1e-3


def max_rel_error(analytic: Array, numeric: Array) -> float:
    """Worst relative disagreement, with a floor so near-zero pairs compare sanely."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), _REL_FLOOR)
    return float((np.abs(a - b) / denom).max())


@dataclass
class GradCheckRow:
    """Result of checking one named parameter group."""
    name: str
    n_coords: int
    max_rel_error: float

    def passed(self, tol: float = 1e-4) -> bool:
        return self.max_rel_error < tol


def check_gradients(loss_fn: Callable[[], Tensor],
                    params: Mapping[str, Tensor],
                    coords_per_tensor: int = 4,
                    seed: int = 0) -> list[GradCheckRow]:
    """Compare taped gradients against finite differences, group by group.

    `loss_fn` rebuilds the scalar loss from the current parameter
    values. For each parameter a deterministic subsample of coordinates
    is probed (all of them when the tensor is small).
    """
    rng = np.random.default_rng(seed)
    tensors = list(params.values())
    grads = backward(loss_fn(), leaves=tensors)
    rows = []
    for name, p in params.items():
        analytic = grads[p].reshape(-1)
        n = p.size if p.size <= coords_per_tensor else coords_per_tensor
        coords = (np.arange(p.size) if p.size <= coords_per_tensor
                  else rng.choice(p.size, size=n, replace=False))
        numeric = finite_diff_grad(lambda _: loss_fn(), p, coords=coords).reshape(-1)
        rows.append(GradCheckRow(name, int(n),
                                 max_rel_error(analytic[coords], numeric[coords])))
    return rows
