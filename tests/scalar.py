"""Scalar losses for probing gradients in tests.

The package has no reduction op: its losses are closed forms. To take the
gradient of a map y, a test differentiates the weighted sum <y, w>, built
as a `bmm` of the flattened map as a (1, 1, n) row and the weights as a
(1, n, 1) column, which `backward` accepts as a loss.
"""

import numpy as np

from cftseg import Tensor
from cftseg.tensor import bmm, reshape


def dot(a: Tensor, b=None) -> Tensor:
    """sum(a * b) as a (1, 1, 1) tensor; `b` is a tensor, an array or, by
    default, all ones."""
    n = a.size
    if not isinstance(b, Tensor):
        b = Tensor(np.ones(n) if b is None else b)
    return bmm(reshape(a, (1, 1, n)), reshape(b, (1, n, 1)))
