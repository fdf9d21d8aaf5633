"""Dense float64 tensors with reverse-mode differentiation.

Operations execute eagerly on numpy arrays; only the ops the model and its
objective use live here, the fused layers in functional.py and the
closed-form losses in losses.py. With gradients enabled every op leaves an
`OpRecord` on its output; `backward` replays the records reachable from a
scalar loss in reverse topological order, adding up gradients in a fixed
order so results are bit-reproducible per graph.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

Array = np.ndarray

_GRAD_ENABLED = True

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the context; forward values only."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class OpRecord:
    """One recorded operation: its inputs and backward rule.

    `backward` maps the output gradient to one gradient array per input,
    aligned with `inputs` and shaped like each; only the sweep in
    `backward` drops those of inputs that need none. The record holds no
    reference to its output, so a graph only points from outputs to inputs
    and reference counting frees it as soon as its last tensor is dropped.
    """

    __slots__ = ("op", "inputs", "backward")

    def __init__(self, op: str, inputs: tuple,
                 backward: Callable[[Array], Sequence[Array]]):
        self.op = op
        self.inputs = inputs
        self.backward = backward

    def __repr__(self):
        return f"OpRecord({self.op}, n_inputs={len(self.inputs)})"


class Tensor:
    """A dense n-d array of float64 values, optionally tracked on the tape.

    Tensors are treated as immutable once created. Parameter storage is
    rewritten only between backward passes: `AdamW` rebinds each
    parameter's `data` to a view of its flat vector when it is built and
    updates it in place, and loading a checkpoint copies values into it.
    """

    __slots__ = ("data", "requires_grad", "op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.op = None

    @classmethod
    def _result(cls, data: Array, inputs: tuple, op: str,
                backward: Callable[[Array], Sequence[Array]]) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = _GRAD_ENABLED and any(t.requires_grad for t in inputs)
        out.op = OpRecord(op, inputs, backward) if out.requires_grad else None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # arithmetic sugar; the module-level functions hold the real rules
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# elementwise


def add(a: Tensor, b: Tensor) -> Tensor:
    """Sum of two tensors of one shape."""
    if not isinstance(b, Tensor):
        raise TypeError(f"add takes two tensors, got {type(b).__name__}")
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return Tensor._result(a.data + b.data, (a, b), "add", lambda g: (g, g))


def mul(a: Tensor, s) -> Tensor:
    """`a` scaled by a real scalar."""
    if not isinstance(s, (int, float, np.integer, np.floating)):
        raise TypeError(f"mul scales by a real scalar, got {type(s).__name__}")
    s = float(s)
    return Tensor._result(a.data * s, (a,), "scale", lambda g: (g * s,))


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh form (the fixed choice everywhere)."""
    x = a.data
    # t = tanh(x (C + C A x^2)) in one buffer. Not x ** 3: numpy sends that
    # to libm pow, which costs about ten times the rest of the op.
    t = np.multiply(x, x, out=np.empty_like(x))
    t *= _GELU_C * _GELU_A
    t += _GELU_C
    t *= x
    np.tanh(t, out=t)
    # y = 0.5 x (1 + t), written over t unless the backward needs t; both
    # paths run the same operations, so they give the same bits
    y = np.add(t, 1.0, out=np.empty_like(t) if _GRAD_ENABLED and a.requires_grad else t)
    y *= x
    y *= 0.5

    def bwd(g):
        # d = 0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3A x^2), evaluated in the
        # order of that expression but in three buffers; about half the time
        # of one temporary per operation
        d = 1.0 + t
        d *= 0.5
        u = np.multiply(t, t, out=np.empty_like(t))
        np.subtract(1.0, u, out=u)
        v = 0.5 * x
        v *= u
        v *= _GELU_C
        np.multiply(3.0 * _GELU_A, x, out=u)
        u *= x
        u += 1.0
        v *= u
        d += v
        d *= g
        return (d,)

    return Tensor._result(y, (a,), "gelu", bwd)


def sigmoid_parts(x: Array) -> tuple[Array, Array, Array]:
    """sigmoid(x), sigmoid(-x) and exp(-|x|), for the closed-form losses.

    Only non-positive values are exponentiated, so both tails stay finite;
    log(sigmoid(x)) is min(x, 0) - log1p(exp(-|x|)).
    """
    exp_neg = np.exp(-np.abs(x))
    denom = 1.0 + exp_neg
    pos = x >= 0
    p = np.where(pos, 1.0, exp_neg)
    p /= denom
    q = np.where(pos, exp_neg, 1.0)
    q /= denom
    return p, q, exp_neg


# ---------------------------------------------------------------------------
# matrix products


def bmm(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """Batched matmul over a shared leading axis: (G,m,k) @ (G,k,n).

    `transpose_b` takes `b` as stored (G,n,k); matmul reads the transposed
    view without a copy, and `b`'s gradient comes back in its stored layout.
    """
    if a.ndim != 3 or b.ndim != 3:
        raise ShapeError(f"bmm expects 3-d operands, got {a.shape} @ {b.shape}")
    ad = a.data
    bd = b.data.transpose(0, 2, 1) if transpose_b else b.data
    if ad.shape[0] != bd.shape[0] or ad.shape[2] != bd.shape[1]:
        raise ShapeError(f"bmm: incompatible shapes {ad.shape} @ {bd.shape}")

    def bwd(g):
        ga = g @ bd.transpose(0, 2, 1)
        gb = g.transpose(0, 2, 1) @ ad if transpose_b else ad.transpose(0, 2, 1) @ g
        return ga, gb

    return Tensor._result(ad @ bd, (a, b), "bmm", bwd)


# ---------------------------------------------------------------------------
# shape movement


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} into {shape}")
    old = a.shape
    return Tensor._result(a.data.reshape(shape), (a,), "reshape",
                          lambda g: (g.reshape(old),))


def columns(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a 2-d tensor, as a view."""
    if a.ndim != 2 or not 0 <= start < stop <= a.shape[1]:
        raise ShapeError(f"columns [{start}, {stop}) do not lie in shape {a.shape}")
    shape = a.shape

    def bwd(g):
        full = np.zeros(shape)
        full[:, start:stop] = g
        return (full,)

    return Tensor._result(a.data[:, start:stop], (a,), "columns", bwd)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Stack tensors along the first axis; the other axes must agree."""
    tensors = tuple(tensors)
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    for t in tensors[1:]:
        if t.shape[1:] != tensors[0].shape[1:]:
            raise ShapeError(f"concat: shape {t.shape} does not match {tensors[0].shape} "
                             "past the first axis")
    splits = np.cumsum([t.shape[0] for t in tensors])[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(part) for part in np.split(g, splits))

    return Tensor._result(np.concatenate([t.data for t in tensors]), tensors, "concat", bwd)


# ---------------------------------------------------------------------------
# backward


def trace(loss: Tensor) -> list[Tensor]:
    """Collect the recorded tensors reachable from `loss` in topological
    order: every tensor comes after the recorded tensors among its inputs."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in seen or t.op is None or not t.requires_grad:
            continue
        seen.add(id(t))
        stack.append((t, True))
        for inp in reversed(t.op.inputs):
            stack.append((inp, False))
    return order


def backward(loss: Tensor, leaves: Sequence[Tensor] | None = None) -> dict[Tensor, Array]:
    """Differentiate a scalar loss through the recorded tape.

    Returns a map from each grad-enabled leaf tensor reached by the
    sweep to its gradient array. If `leaves` is given, the map contains
    exactly those tensors, with zero arrays for any the loss does not
    touch. Accumulation walks the tape in a fixed reverse order, so the
    result is deterministic for a given graph.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = trace(loss)
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    # keys whose gradient is a sum this function allocated; only those are
    # added into, since a rule may return its output gradient, or a view
    # of it, for an input (add, reshape)
    owned: set[int] = set()
    for t in reversed(tape):
        # every recorded tensor has its gradient by now: the loss's is seeded,
        # and each other one feeds a later record whose rule has run
        for inp, gi in zip(t.op.inputs, t.op.backward(grads.pop(id(t)))):
            if not inp.requires_grad:
                continue
            key = id(inp)
            if key not in grads:
                grads[key] = gi
            elif key in owned:
                grads[key] += gi
            else:
                grads[key] = grads[key] + gi
                owned.add(key)
    # what is left in `grads` belongs to leaves: recorded tensors were popped
    if leaves is None:
        reached = (loss, *(inp for t in tape for inp in t.op.inputs))
        leaves = [t for t in reached if t.op is None and t.requires_grad and id(t) in grads]
    return {t: grads.get(id(t), np.zeros(t.shape)) for t in leaves}
