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
from . import tensor as _tape
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


# Window elements per block of whole channels in depthwise_conv3x3: a
# block's padded rows, windows and product rows stay in cache.
_DW_BLOCK = 9 * 8192
_workspace = threading.local()


def _tap_windows(src: Array):
    """Yield (channels, windows, rows) per block of whole channels of a
    (B, C, H, W) map: its nine taps' (k, 9, B*H*P) windows and a (k, 1,
    B*H*P) buffer for a product with them, for a row pitch P >= W+2.

    Each (channel, image) plane is copied once into a flat row of
    (H+2)P+2 values, the zero-padded plane and two zeros, so the window
    of tap (di, dj) is the slice of length HP at offset di*P+dj of every
    row. Columns W to P-1 of a window line cross the border: scratch. HP
    is a multiple of 8 because a BLAS gemv sums its last outputs in
    another order (the last N mod 4 on OpenBLAS's Haswell kernels), and no
    pixel may fall there, or an image would get other bits alone than in
    a batch.

    The buffers are views of one array per thread that every call reuses:
    fresh ones per call fragmented the heap and raised the peak RSS of
    128 px naive training runs by 2-10%. The padding is zeroed on each
    call, since a call with another shape may have written it.
    """
    b, c, h, w = src.shape
    q = 8 // math.gcd(h, 8)
    p = -(-(w + 2) // q) * q
    n_row, n_out = (h + 2) * p + 2, b * h * p
    step = max(1, min(c, _DW_BLOCK // max(1, 9 * n_out)))
    n_pad, n_win = step * b * n_row, 9 * step * n_out
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < n_pad + n_win + step * n_out:
        buf = _workspace.buf = np.empty(n_pad + n_win + step * n_out)
    pad = buf[:n_pad].reshape(step, b, n_row)
    pad[:, :, -2:] = 0.0
    planes = pad[:, :, :-2].reshape(step, b, h + 2, p)
    planes[:, :, 0] = planes[:, :, -1] = planes[:, :, :, 0] = planes[:, :, :, w + 1:] = 0.0
    windows = buf[n_pad:n_pad + n_win].reshape(step, 3, 3, b, h * p)
    rows = buf[n_pad + n_win:n_pad + n_win + step * n_out].reshape(step, 1, n_out)
    for start in range(0, c, step):
        s = slice(start, min(start + step, c))
        k = s.stop - start
        planes[:k, :, 1:-1, 1:w + 1] = src[:, s].transpose(1, 0, 2, 3)
        for di in range(3):
            for dj in range(3):
                windows[:k, di, dj] = pad[:k, :, di * p + dj:di * p + dj + h * p]
        yield s, windows[:k].reshape(k, 9, n_out), rows[:k]


def depthwise_conv3x3(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Per-channel 3x3 convolution, stride 1, zero padding 1.

    Both directions run over blocks of whole channels: one batched matmul
    of the per-channel taps with a block's tap windows (im2col, blocked so
    the working set stays in cache) sums the nine taps of its pixels.
    """
    if x.ndim != 4:
        raise ShapeError(f"depthwise_conv3x3 expects a 4-d map, got {x.shape}")
    b_, c_, h_, w_ = x.shape
    if w.shape != (c_, 3, 3):
        raise ShapeError(f"depthwise weight must have shape ({c_}, 3, 3), got {w.shape}")
    if bias.shape != (c_,):
        raise ShapeError(f"depthwise bias must have shape ({c_},), got {bias.shape}")

    def lines(rows: Array) -> Array:
        """(k, B, H, P) view of (k, 1, B*H*P) rows; columns W on are scratch."""
        return rows.reshape(-1, b_, h_, rows.shape[-1] // (b_ * h_))

    taps = w.data.reshape(c_, 1, 9)
    y = np.empty((b_, c_, h_, w_))
    for s, windows, rows in _tap_windows(x.data):
        np.matmul(taps[s], windows, out=rows)
        y.transpose(1, 0, 2, 3)[s] = lines(rows)[..., :w_]
    y += bias.data[:, None, None]

    def bwd(g):
        gx = np.empty((b_, c_, h_, w_))
        gw = np.empty((c_, 9))
        # the input gradient is the forward with the taps turned half a circle
        turned = taps[:, :, ::-1].copy()
        for s, windows, rows in _tap_windows(g):
            np.matmul(turned[s], windows, out=rows)
            gx.transpose(1, 0, 2, 3)[s] = lines(rows)[..., :w_]
            # tap t of the weight gradient pairs x, zero in the scratch
            # columns, with g's window of the turned tap 8 - t
            xs = lines(rows)
            xs[..., :w_] = x.data[:, s].transpose(1, 0, 2, 3)
            xs[..., w_:] = 0.0
            gw[s] = np.matmul(windows, rows.transpose(0, 2, 1))[:, ::-1, 0]
        return gx, gw.reshape(c_, 3, 3), g.sum(axis=(0, 2, 3))

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


# Score elements per head in one block of queries in attention: a
# block's scores stay in cache. The width depends on the key count alone,
# so an image gets the same bits alone as in a batch.
_ATTN_BLOCK = 16384


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of a query map over a key/value set.

    `q` is a (B, C, H, W) map and `k` and `v` are (B, C, M) sets; the
    result is the (B, C, H, W) context map, before any output projection.
    Heads own contiguous channel slices, so each operand splits into
    (B*heads, C/heads, positions) with one reshape. The queries run in
    blocks of _ATTN_BLOCK // M, whose (B*heads, M, width) scores, keys x
    queries, stay in cache. The scale is applied to the keys and the
    softmax normalisation to the context, so the scores are only shifted
    and exponentiated. The blocks are kept for the backward only when
    recording; the backward never forms the weights' own gradient.
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
    scale = 1.0 / math.sqrt(dh)
    ks = k.data.reshape(groups, dh, m) * scale
    vh = v.data.reshape(groups, dh, m)
    width = max(1, min(n, _ATTN_BLOCK // m))
    spans = [slice(i, min(i + width, n)) for i in range(0, n, width)]
    # recorded, the blocks lie one after another in one array for the
    # backward; otherwise one block's room serves them all
    records = _tape._GRAD_ENABLED and (q.requires_grad or k.requires_grad
                                       or v.requires_grad)
    store = np.empty(groups * m * (n if records else width))
    blocks = []
    ctx = np.empty((groups, dh, n))
    # inv first holds each query's sum of weights, taken as a product with
    # ones: BLAS sums a block faster than a reduction over its middle axis
    inv = np.empty((groups, 1, n))
    ones = np.ones((1, 1, m))
    for s in spans:
        start = groups * m * s.start if records else 0
        e = store[start:start + groups * m * (s.stop - s.start)].reshape(groups, m, -1)
        np.matmul(ks.transpose(0, 2, 1), qh[:, :, s], out=e)
        e -= e.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        np.matmul(ones, e, out=inv[:, :, s])
        np.matmul(vh, e, out=ctx[:, :, s])
        blocks.append(e)
    np.divide(1.0, inv, out=inv)
    ctx *= inv

    def bwd(grad):
        g = grad.reshape(groups, dh, n)
        # with the weights e * inv, the score gradient is e * (vh^T gi - r)
        # for gi = g * inv and r the per-query sum over channels of g * ctx,
        # times inv (FlashAttention's identity). One buffer holds g * ctx,
        # then gi, then block by block the query gradient.
        gq = np.multiply(g, ctx)
        r = gq.sum(axis=1, keepdims=True)
        r *= inv
        np.multiply(g, inv, out=gq)
        a = np.empty(groups * m * width)
        for i, (s, e) in enumerate(zip(spans, blocks)):
            gi = gq[:, :, s]
            gs = a[:e.size].reshape(e.shape)
            np.matmul(vh.transpose(0, 2, 1), gi, out=gs)
            pv = np.matmul(gi, e.transpose(0, 2, 1))
            gs -= r[:, :, s]
            gs *= e
            np.matmul(ks, gs, out=gi)
            pk = np.matmul(qh[:, :, s], gs.transpose(0, 2, 1))
            if i:
                gk += pk
                gv += pv
            else:
                gk, gv = pk, pv
        gk *= scale
        return gq.reshape(q.shape), gk.reshape(k.shape), gv.reshape(v.shape)

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
