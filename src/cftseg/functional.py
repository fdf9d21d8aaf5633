"""Neural-net ops on top of the tensor engine.

Feature maps are B x C x H x W and key/value sets B x C x M: channels
come first throughout. Interpolation and pooling are expressed as fixed
row/column mixing matrices, which keeps both directions of each op a
pair of matmuls and makes the same-size case an exact identity.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Array, Tensor

__all__ = [
    "linear", "conv1x1", "depthwise_conv3x3", "softmax", "attention",
    "layer_norm", "bilinear_resize", "adaptive_avg_pool",
]


def _channel_mix(x: Tensor, w: Tensor, bias: Tensor, op: str) -> Tensor:
    """y[:, o, ...] = sum_c w[o, c] x[:, c, ...] + b[o] over a (B, C, ...) array."""
    if w.ndim != 2 or w.shape[1] != x.shape[1]:
        raise ShapeError(f"{op}: weight {w.shape} does not match input {x.shape}")
    b_, c_in = x.shape[:2]
    c_out = w.shape[0]
    if bias.shape != (c_out,):
        raise ShapeError(f"{op} bias must have shape ({c_out},), got {bias.shape}")
    xd = x.data.reshape(b_, c_in, -1)
    y = np.matmul(w.data, xd)
    y += bias.data[:, None]

    def bwd(g):
        g3 = g.reshape(b_, c_out, -1)
        return (np.matmul(w.data.T, g3).reshape(x.shape),
                np.matmul(g3, xd.transpose(0, 2, 1)).sum(axis=0),
                g3.sum(axis=(0, 2)))

    return Tensor._result(y.reshape((b_, c_out) + x.shape[2:]), (x, w, bias), op, bwd)


def linear(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Channel mix of a B x C x M set (the key/value projection): w @ x + b."""
    if x.ndim != 3:
        raise ShapeError(f"linear expects a 3-d set, got {x.shape}")
    return _channel_mix(x, w, bias, "linear")


def conv1x1(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Pointwise convolution: a per-position channel mix of a B x C x H x W map."""
    if x.ndim != 4:
        raise ShapeError(f"conv1x1 expects a 4-d map, got {x.shape}")
    return _channel_mix(x, w, bias, "conv1x1")


# Elements per block of whole (image, channel) planes in depthwise_conv3x3:
# a block's padded input, output and product buffers stay in cache.
_DW_BLOCK = 32768
_workspace = threading.local()


def _block_buffers(step: int, h: int, w: int) -> tuple[Array, Array, Array]:
    """Padded-input, product and padded-gradient buffers for `step` planes.

    They are views of one array per thread that every call reuses. Fresh
    block-sized buffers on each call fragment the heap between the large
    activations; that raised the peak RSS of 128 px naive training runs by
    2-10%. The padded input's border is zeroed here, since a call with
    another shape may have written it.
    """
    n_pad, n_tmp = step * (h + 2) * (w + 2), step * h * w
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < 2 * n_pad + n_tmp:
        buf = _workspace.buf = np.empty(2 * n_pad + n_tmp)
    pad = buf[:n_pad].reshape(step, h + 2, w + 2)
    pad[:, 0] = pad[:, -1] = pad[:, :, 0] = pad[:, :, -1] = 0.0
    tmp = buf[n_pad:n_pad + n_tmp].reshape(step, h, w)
    gpad = buf[n_pad + n_tmp:2 * n_pad + n_tmp].reshape(step, h + 2, w + 2)
    return pad, tmp, gpad


def depthwise_conv3x3(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Per-channel 3x3 convolution, stride 1, zero padding 1.

    Both directions run the nine taps over blocks of whole (image, channel)
    planes, zero-padding one block at a time, so the working set stays in
    cache and no padded copy of the whole map is made or kept.
    """
    if x.ndim != 4:
        raise ShapeError(f"depthwise_conv3x3 expects a 4-d map, got {x.shape}")
    b_, c_, h_, w_ = x.shape
    if w.shape != (c_, 3, 3):
        raise ShapeError(f"depthwise weight must have shape ({c_}, 3, 3), got {w.shape}")
    if bias.shape != (c_,):
        raise ShapeError(f"depthwise bias must have shape ({c_},), got {bias.shape}")
    planes = b_ * c_
    x3 = x.data.reshape(planes, h_, w_)
    # per-plane taps, (planes, 3, 3, 1, 1), and biases, (planes, 1, 1), to
    # broadcast over one plane
    w3 = np.broadcast_to(w.data, (b_, c_, 3, 3)).reshape(planes, 3, 3, 1, 1)
    b3 = np.broadcast_to(bias.data, (b_, c_)).reshape(planes, 1, 1)
    step = max(1, min(planes, _DW_BLOCK // max(1, h_ * w_)))
    blocks = [slice(i, min(i + step, planes)) for i in range(0, planes, step)]

    def padded(pad: Array, s: slice) -> Array:
        xp = pad[:s.stop - s.start]
        xp[:, 1:-1, 1:-1] = x3[s]
        return xp

    pad, tmp, _ = _block_buffers(step, h_, w_)
    y = np.empty((b_, c_, h_, w_))
    y3 = y.reshape(planes, h_, w_)
    for s in blocks:
        xp, yb, tb, wb = padded(pad, s), y3[s], tmp[:s.stop - s.start], w3[s]
        # the first tap writes the block; the bias joins after all nine taps
        np.multiply(wb[:, 0, 0], xp[:, :h_, :w_], out=yb)
        for tap in range(1, 9):
            di, dj = divmod(tap, 3)
            np.multiply(wb[:, di, dj], xp[:, di:di + h_, dj:dj + w_], out=tb)
            yb += tb
        yb += b3[s]

    def bwd(g):
        g3 = g.reshape(planes, h_, w_)
        gx3 = np.empty((planes, h_, w_))
        gw3 = np.empty((planes, 3, 3))
        pad, tmp, gpad = _block_buffers(step, h_, w_)
        for s in blocks:
            n = s.stop - s.start
            gy = g3[s]
            # scatter each tap's contribution into a padded gradient
            gp, wb, tb = gpad[:n], w3[s], tmp[:n]
            gp.fill(0.0)
            for di in range(3):
                for dj in range(3):
                    np.multiply(wb[:, di, dj], gy, out=tb)
                    gp[:, di:di + h_, dj:dj + w_] += tb
            gx3[s] = gp[:, 1:-1, 1:-1]
            # one plane-wise dot product per tap, summed over images below
            xp = padded(pad, s)
            for di in range(3):
                for dj in range(3):
                    np.einsum("nij,nij->n", gy, xp[:, di:di + h_, dj:dj + w_],
                              out=gw3[s, di, dj])
        return (gx3.reshape(x.shape), gw3.reshape(b_, c_, 3, 3).sum(axis=0),
                g.sum(axis=(0, 2, 3)))

    return Tensor._result(y, (x, w, bias), "depthwise_conv3x3", bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis."""
    axis = axis % x.ndim
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def bwd(g):
        # y (g - sum(g y)) in one buffer, with the bits of that expression
        gx = np.multiply(g, y)
        r = gx.sum(axis=axis, keepdims=True)
        np.subtract(g, r, out=gx)
        gx *= y
        return (gx,)

    return Tensor._result(y, (x,), "softmax", bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of a query map over a key/value set.

    `q` is a (B, C, H, W) map and `k` and `v` are (B, C, M) sets; the
    result is the (B, C, H, W) context map, before any output projection.
    Heads own contiguous channel slices, so each operand splits into
    (B*heads, C/heads, positions) with one reshape. The (B*heads, M, H*W)
    scores, keys x queries with the softmax over the keys, live in one
    buffer that becomes the attention weights in place, kept for the
    backward only when recording; the backward never forms the weights'
    own gradient.
    """
    if q.ndim != 4 or k.ndim != 3:
        raise ShapeError(f"attention takes a 4-d query map and 3-d key/value sets, "
                         f"got q {q.shape}, k {k.shape}")
    b, c, h, w = q.shape
    if heads < 1 or c % heads:
        raise ConfigError(f"query width {c} must divide into a positive number "
                          f"of heads, got {heads}")
    if k.shape != v.shape or k.shape[:2] != (b, c):
        raise ShapeError(f"attention operands disagree: q {q.shape}, k {k.shape}, "
                         f"v {v.shape}")
    groups, dh, m, n = b * heads, c // heads, k.shape[2], h * w
    qh = q.data.reshape(groups, dh, n)
    kh = k.data.reshape(groups, dh, m)
    vh = v.data.reshape(groups, dh, m)
    scale = 1.0 / math.sqrt(dh)
    weights = np.matmul(kh.transpose(0, 2, 1), qh)
    weights *= scale
    weights -= weights.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    ctx = np.matmul(vh, weights)

    def bwd(grad):
        g = grad.reshape(groups, dh, n)
        # the score gradient weights * (vh^T g - r) * scale, with r the
        # per-query sum over keys of weights * vh^T g, which equals the
        # sum over channels of g * ctx (FlashAttention's identity)
        r = (g * ctx).sum(axis=1, keepdims=True)
        gs = np.matmul(vh.transpose(0, 2, 1), g)
        gs -= r
        gs *= weights
        gs *= scale
        return (np.matmul(kh, gs).reshape(q.shape),
                np.matmul(qh, gs.transpose(0, 2, 1)).reshape(k.shape),
                np.matmul(g, weights.transpose(0, 2, 1)).reshape(v.shape))

    return Tensor._result(ctx.reshape(q.shape), (q, k, v), "attention", bwd)


# added to the channel variance in layer_norm
_LN_EPS = 1e-6


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the channels of a B x C x H x W map per position, then affine."""
    if x.ndim != 4:
        raise ShapeError(f"layer_norm expects a 4-d map, got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"layer_norm affine params must have shape ({c},), "
                         f"got {gamma.shape} and {beta.shape}")
    gd = gamma.data.reshape(1, c, 1, 1)
    bd = beta.data.reshape(1, c, 1, 1)
    # two full-size buffers: xhat, and y, which first holds the squares
    xhat = x.data - x.data.mean(axis=1, keepdims=True)
    y = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(y.mean(axis=1, keepdims=True) + _LN_EPS)
    xhat *= inv
    np.multiply(xhat, gd, out=y)
    y += bd

    def bwd(g):
        # inv (gxh - mean(gxh) - xhat mean(gxh xhat)) with gxh = g gamma,
        # in the order of that expression but in two buffers
        gx = np.multiply(g, gd)
        tmp = np.multiply(gx, xhat)
        m2 = tmp.mean(axis=1, keepdims=True)
        gx -= gx.mean(axis=1, keepdims=True)
        np.multiply(xhat, m2, out=tmp)
        gx -= tmp
        gx *= inv
        gg = np.multiply(g, xhat, out=tmp).sum(axis=(0, 2, 3))
        return gx, gg, g.sum(axis=(0, 2, 3))

    return Tensor._result(y, (x, gamma, beta), "layer_norm", bwd)


@functools.lru_cache(maxsize=256)
def _resize_matrix(in_len: int, out_len: int) -> Array:
    """Row-mixing matrix for 1-d bilinear resampling, half-pixel centers."""
    m = np.zeros((out_len, in_len))
    if out_len == in_len:
        np.fill_diagonal(m, 1.0)
        return m
    src = (np.arange(out_len) + 0.5) * (in_len / out_len) - 0.5
    src = np.clip(src, 0.0, in_len - 1.0)
    lo = np.floor(src).astype(np.int64)
    frac = src - lo
    hi = np.minimum(lo + 1, in_len - 1)
    rows = np.arange(out_len)
    np.add.at(m, (rows, lo), 1.0 - frac)
    np.add.at(m, (rows, hi), frac)
    return m


@functools.lru_cache(maxsize=256)
def _pool_matrix(in_len: int, out_len: int) -> Array:
    """Row-averaging matrix with floor/ceil window bounds per output cell."""
    m = np.zeros((out_len, in_len))
    for o in range(out_len):
        start = (o * in_len) // out_len
        end = -(-((o + 1) * in_len) // out_len)  # ceil division
        m[o, start:end] = 1.0 / (end - start)
    return m


def _separable_apply(x: Tensor, row_m: Array, col_m: Array, op: str) -> Tensor:
    xd = x.data

    def bwd(g):
        return (np.matmul(row_m.T, np.matmul(g, col_m)),)

    y = np.matmul(np.matmul(row_m, xd), col_m.T)
    return Tensor._result(y, (x,), op, bwd)


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resample of a B x C x H x W map, half-pixel alignment.

    Same-size calls reproduce the input exactly; edges clamp to the
    nearest source pixel.
    """
    if x.ndim != 4:
        raise ShapeError(f"bilinear_resize expects a 4-d map, got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"bilinear_resize target must be positive, got ({out_h}, {out_w})")
    _, _, h, w = x.shape
    return _separable_apply(x, _resize_matrix(h, out_h), _resize_matrix(w, out_w),
                            "bilinear_resize")


def adaptive_avg_pool(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Average pooling onto an arbitrary smaller (or equal) grid.

    Window o covers input rows [floor(o*H/out), ceil((o+1)*H/out)), the
    usual adaptive partition; same-size calls are an exact identity.
    """
    if x.ndim != 4:
        raise ShapeError(f"adaptive_avg_pool expects a 4-d map, got {x.shape}")
    _, _, h, w = x.shape
    if not (1 <= out_h <= h) or not (1 <= out_w <= w):
        raise ShapeError(f"adaptive_avg_pool target ({out_h}, {out_w}) must lie in "
                         f"[1, {h}] x [1, {w}]")
    return _separable_apply(x, _pool_matrix(h, out_h), _pool_matrix(w, out_w),
                            "adaptive_avg_pool")
