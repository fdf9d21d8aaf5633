"""NN ops against independent loop oracles, plus per-op gradient checks."""

import contextlib
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from cftseg import Tensor, backward, finite_diff_grad
from cftseg.errors import ConfigError, ShapeError
import cftseg.functional as F
import cftseg.losses as L
import cftseg.tensor as T
from scalar import dot


# --------------------------------------------------------------------------
# oracles: plain numpy loops, no shared code with the implementation


def conv1x1_oracle(x, w, b):
    B, C, H, W = x.shape
    O = w.shape[0]
    out = np.zeros((B, O, H, W))
    for n in range(B):
        out[n] = (w @ x[n].reshape(C, H * W)).reshape(O, H, W)
    return out + b[None, :, None, None]


def depthwise_oracle(x, w, b):
    B, C, H, W = x.shape
    out = np.zeros_like(x)
    for n in range(B):
        for c in range(C):
            for i in range(H):
                for j in range(W):
                    acc = 0.0
                    for di in range(3):
                        for dj in range(3):
                            si, sj = i + di - 1, j + dj - 1
                            if 0 <= si < H and 0 <= sj < W:
                                acc += w[c, di, dj] * x[n, c, si, sj]
                    out[n, c, i, j] = acc + b[c]
    return out


def depthwise_grad_oracle(x, w, g):
    """(gx, gw, gb) of depthwise_oracle under upstream gradient g, pixel by pixel."""
    B, C, H, W = x.shape
    gx, gw, gb = np.zeros_like(x), np.zeros((C, 3, 3)), np.zeros(C)
    for n in range(B):
        for c in range(C):
            for i in range(H):
                for j in range(W):
                    gb[c] += g[n, c, i, j]
                    for di in range(3):
                        for dj in range(3):
                            si, sj = i + di - 1, j + dj - 1
                            if 0 <= si < H and 0 <= sj < W:
                                gx[n, c, si, sj] += w[c, di, dj] * g[n, c, i, j]
                                gw[c, di, dj] += g[n, c, i, j] * x[n, c, si, sj]
    return gx, gw, gb


def layer_norm_oracle(x, gamma, beta, eps):
    moved = np.moveaxis(x, 1, -1).copy()
    flat = moved.reshape(-1, moved.shape[-1])
    out = np.empty_like(flat)
    for r in range(flat.shape[0]):
        row = flat[r]
        m = row.mean()
        v = ((row - m) ** 2).mean()
        out[r] = (row - m) / np.sqrt(v + eps) * gamma + beta
    return np.moveaxis(out.reshape(moved.shape), -1, 1)


def bilinear_oracle(x, out_h, out_w):
    B, C, H, W = x.shape
    out = np.zeros((B, C, out_h, out_w))
    for oi in range(out_h):
        sy = min(max((oi + 0.5) * H / out_h - 0.5, 0.0), H - 1.0)
        y0 = int(np.floor(sy)); y1 = min(y0 + 1, H - 1); fy = sy - y0
        for oj in range(out_w):
            sx = min(max((oj + 0.5) * W / out_w - 0.5, 0.0), W - 1.0)
            x0 = int(np.floor(sx)); x1 = min(x0 + 1, W - 1); fx = sx - x0
            out[:, :, oi, oj] = ((1 - fy) * (1 - fx) * x[:, :, y0, x0]
                                 + (1 - fy) * fx * x[:, :, y0, x1]
                                 + fy * (1 - fx) * x[:, :, y1, x0]
                                 + fy * fx * x[:, :, y1, x1])
    return out


def pool_oracle(x, out_h, out_w):
    B, C, H, W = x.shape
    out = np.zeros((B, C, out_h, out_w))
    for oi in range(out_h):
        r0, r1 = (oi * H) // out_h, int(np.ceil((oi + 1) * H / out_h))
        for oj in range(out_w):
            c0, c1 = (oj * W) // out_w, int(np.ceil((oj + 1) * W / out_w))
            out[:, :, oi, oj] = x[:, :, r0:r1, c0:c1].mean(axis=(2, 3))
    return out


# --------------------------------------------------------------------------
# conv1x1


def test_conv1x1_matches_flatten_matmul_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 4, 4))
    w = rng.standard_normal((2, 3))
    b = rng.standard_normal(2)
    got = F.conv1x1(Tensor(x), Tensor(w), Tensor(b)).data
    np.testing.assert_array_equal(got, conv1x1_oracle(x, w, b))


def test_conv1x1_single_position_equals_matmul():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 5, 1, 1))
    w = rng.standard_normal((4, 5))
    got = F.conv1x1(Tensor(x), Tensor(w), Tensor(np.zeros(4))).data[:, :, 0, 0]
    np.testing.assert_allclose(got, x[:, :, 0, 0] @ w.T, rtol=0, atol=1e-14)


def test_conv1x1_equals_reshape_matmul_reshape_exactly():
    rng = np.random.default_rng(2)
    xd = rng.standard_normal((2, 6, 5, 3))
    wd = rng.standard_normal((4, 6))
    via_conv = F.conv1x1(Tensor(xd), Tensor(wd), Tensor(np.zeros(4))).data
    for n in range(2):
        via_mm = np.matmul(wd, xd[n].reshape(6, 15)).reshape(4, 5, 3)
        np.testing.assert_array_equal(via_conv[n], via_mm)


def test_conv1x1_gradients():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 3, 3, 2)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    proj = Tensor(rng.standard_normal((2, 4, 3, 2)))

    def loss_fn(_=None):
        return dot(F.conv1x1(x, w, b), proj)

    grads = backward(loss_fn())
    for p in (x, w, b):
        np.testing.assert_allclose(grads[p], finite_diff_grad(loss_fn, p), atol=1e-8)


def test_conv1x1_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        F.conv1x1(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 3))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):
        F.conv1x1(Tensor(np.ones((1, 3, 2, 2))), Tensor(np.ones((2, 5))), Tensor(np.zeros(2)))


# --------------------------------------------------------------------------
# depthwise 3x3


def test_depthwise_matches_six_loop_oracle():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 5, 4))
    w = rng.standard_normal((3, 3, 3))
    b = rng.standard_normal(3)
    got = F.depthwise_conv3x3(Tensor(x), Tensor(w), Tensor(b)).data
    np.testing.assert_allclose(got, depthwise_oracle(x, w, b), atol=1e-12)


def test_depthwise_identity_kernel():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 2, 4, 4))
    w = np.zeros((2, 3, 3))
    w[:, 1, 1] = 1.0
    got = F.depthwise_conv3x3(Tensor(x), Tensor(w), Tensor(np.zeros(2))).data
    np.testing.assert_array_equal(got, x)


def test_depthwise_gradients():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((2, 2, 4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    proj = Tensor(rng.standard_normal((2, 2, 4, 3)))

    def loss_fn(_=None):
        return dot(F.depthwise_conv3x3(x, w, b), proj)

    grads = backward(loss_fn())
    for p in (x, w, b):
        np.testing.assert_allclose(grads[p], finite_diff_grad(loss_fn, p), atol=1e-8)


def dw_block(channels, shape):
    """_DW_BLOCK that gives blocks of `channels` channels of a (B, C, H, W) map.

    A block holds 9 windows of B*H*P values per channel, for the row pitch
    P >= W+2 that makes H*P a multiple of 8.
    """
    b, _, h, w = shape
    pitch = next(p for p in range(w + 2, w + 10) if h * p % 8 == 0)
    return channels * 9 * b * h * pitch


@pytest.mark.parametrize("shape,block", [
    ((1, 3, 5, 4), None),     # one image, H != W
    ((2, 3, 1, 1), None),     # 1x1 maps: every tap but the centre is padding
    # blocks of 2 channels (2 * 9 windows of 3*4*8 values): 3 channels end
    # in a partial block
    ((3, 3, 4, 5), dw_block(2, (3, 3, 4, 5))),
    # blocks of 2 channels (2 * 9 windows of 1*8*10 values): 5 channels end
    # in a partial block
    ((1, 5, 8, 8), dw_block(2, (1, 5, 8, 8))),
], ids=["batch1", "1x1", "partial-block-9", "partial-block-5"])
def test_depthwise_backward_matches_loop_oracle(shape, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(F, "_DW_BLOCK", block)
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    w = Tensor(rng.standard_normal((shape[1], 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(shape[1]), requires_grad=True)
    g = rng.standard_normal(shape)
    grads = backward(dot(F.depthwise_conv3x3(x, w, b), g))
    for got, want in zip((grads[x], grads[w], grads[b]),
                         depthwise_grad_oracle(x.data, w.data, g)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_depthwise_on_a_transposed_view_matches_loop_oracles(monkeypatch):
    # blocks of 2 channels (2 * 9 windows of 2*5*8 values): 3 channels end
    # in a partial block
    monkeypatch.setattr(F, "_DW_BLOCK", dw_block(2, (2, 3, 5, 6)))
    rng = np.random.default_rng(8)
    # Tensor keeps the stride order of what it copies, so x is stored transposed
    x = Tensor(rng.standard_normal((2, 3, 6, 5)).transpose(0, 1, 3, 2), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    assert not x.data.flags.c_contiguous
    g = rng.standard_normal(x.shape)
    y = F.depthwise_conv3x3(x, w, b)
    np.testing.assert_allclose(y.data, depthwise_oracle(x.data, w.data, b.data),
                               rtol=0, atol=1e-12)
    grads = backward(dot(y, g))
    gx, gw, gb = depthwise_grad_oracle(x.data, w.data, g)
    np.testing.assert_allclose(grads[x], gx, rtol=0, atol=1e-10)
    np.testing.assert_allclose(grads[w], gw, rtol=0, atol=1e-10)
    np.testing.assert_allclose(grads[b], gb, rtol=0, atol=1e-10)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 7), st.integers(1, 7),
       st.data())
def test_depthwise_of_drawn_shapes_matches_loop_oracles(b, c, h, w, data):
    # 1x1, 1xN and Nx1 planes, blocks of 1 to C channels; consecutive
    # examples change shape, so the shared workspace's padding is re-zeroed
    shape = (b, c, h, w)
    channels = data.draw(st.integers(1, c), label="channels per block")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    wt = Tensor(rng.standard_normal((c, 3, 3)), requires_grad=True)
    bias = Tensor(rng.standard_normal(c), requires_grad=True)
    g = rng.standard_normal(shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "_DW_BLOCK", dw_block(channels, shape))
        y = F.depthwise_conv3x3(x, wt, bias)
        grads = backward(dot(y, g))
        for n in range(b):
            # evaluate may forward an image alone or in a batch
            alone = F.depthwise_conv3x3(Tensor(x.data[n:n + 1]), wt, bias)
            assert alone.data.tobytes() == y.data[n:n + 1].tobytes()
    np.testing.assert_allclose(y.data, depthwise_oracle(x.data, wt.data, bias.data),
                               rtol=0, atol=1e-12)
    for got, want in zip((grads[x], grads[wt], grads[bias]),
                         depthwise_grad_oracle(x.data, wt.data, g)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_depthwise_peak_memory_stays_near_the_map_size():
    # the 3x3 windows of the whole map, copied in one unblocked pass, and
    # the output need more than 10x its bytes
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((2, 32, 48, 48)), requires_grad=True)
    w = Tensor(rng.standard_normal((32, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(32), requires_grad=True)
    g = rng.standard_normal(x.shape)
    tracemalloc.start()
    try:
        y = F.depthwise_conv3x3(x, w, b)
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()  # the backward's peak includes what the forward holds
        grads = y.op.backward(g)
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grads[0].shape == x.shape
    # the output alone is one map: a smaller peak would mean nothing was traced
    assert x.data.nbytes <= forward_peak <= 4 * x.data.nbytes
    assert x.data.nbytes <= backward_peak <= 5 * x.data.nbytes


# --------------------------------------------------------------------------
# allocations and inputs of the forward kernels


def _peak_bytes(fn) -> int:
    """Peak bytes allocated while `fn` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("record,maps", [(False, 1), (True, 2)], ids=["no_grad", "grad"])
def test_gelu_peak_memory_is_its_buffers(record, maps):
    # t and y share one buffer unless the backward keeps t; three temporaries
    # (t, 0.5 x and 1 + t) peak at three maps in either mode
    x = Tensor(np.random.default_rng(10).standard_normal((2, 32, 48, 48)), requires_grad=True)
    with contextlib.nullcontext() if record else T.no_grad():
        peak = _peak_bytes(lambda: T.gelu(x))
    assert maps * x.data.nbytes <= peak <= (maps + 0.1) * x.data.nbytes


def test_forward_kernels_peak_near_their_outputs():
    # no_grad; the output is one map for each op
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((2, 32, 48, 48)))
    w, vec = Tensor(rng.standard_normal((32, 32))), Tensor(rng.standard_normal(32))
    n = x.data.nbytes
    with T.no_grad():
        # xhat and y, which holds the squares first; centering, squaring and
        # the affine in fresh arrays peak at four maps
        assert 2 * n <= _peak_bytes(lambda: F.layer_norm(x, vec, vec)) <= 2.25 * n
        # exp and the division in the shifted copy; a fresh array per pass is three
        for axis in (1, -1):
            assert n <= _peak_bytes(lambda: F.softmax(x, axis)) <= 1.25 * n
        # the bias goes into the product; a fresh sum is two maps
        assert n <= _peak_bytes(lambda: F.conv1x1(x, w, vec)) <= 1.25 * n


def _read_only(*tensors):
    for t in tensors:
        t.data.flags.writeable = False
    return tensors


def test_forward_kernels_never_write_into_their_inputs():
    # every input, parameter and output gradient is read-only, so a write
    # into any of them raises, forward or backward
    rng = np.random.default_rng(12)
    shape = (2, 3, 5, 4)

    def param(*s):
        return Tensor(rng.standard_normal(s), requires_grad=True)

    x, kv_set = param(*shape), param(2, 4, 3)
    cases = {
        "gelu": (T.gelu, (x,)),
        "layer_norm": (F.layer_norm, (x, param(3), param(3))),
        "softmax": (F.softmax, (x,)),
        "softmax_last": (lambda t: F.softmax(t, axis=-1), (x,)),
        "conv1x1": (F.conv1x1, (x, param(4, 3), param(4))),
        "linear": (F.linear, (kv_set, param(2, 4), param(2))),
        "bmm": (T.bmm, (param(3, 2, 4), param(3, 4, 5))),
        "bmm_transpose_b": (lambda a, b: T.bmm(a, b, transpose_b=True),
                            (param(3, 2, 4), param(3, 5, 4))),
        "depthwise_conv3x3": (F.depthwise_conv3x3, (x, param(3, 3, 3), param(3))),
        "columns": (lambda w: T.columns(w, 1, 3), (param(2, 4),)),
        "attention": (lambda q, k, v: F.attention(q, k, v, 2),
                      (param(2, 4, 3, 5), param(2, 4, 6), param(2, 4, 6))),
    }
    for name, (fn, inputs) in cases.items():
        _read_only(*inputs)
        with T.no_grad():
            plain = fn(*inputs)
        y = fn(*inputs)
        assert plain.data.tobytes() == y.data.tobytes(), name
        (g,) = _read_only(Tensor(rng.standard_normal(y.shape)))
        assert all(gi is not None for gi in y.op.backward(g.data)), name


# --------------------------------------------------------------------------
# linear


def test_linear_matches_matmul_plus_bias():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 6, 5))
    w = rng.standard_normal((4, 6))
    b = rng.standard_normal(4)
    got = F.linear(Tensor(x), Tensor(w), Tensor(b)).data
    np.testing.assert_allclose(got, w @ x + b[:, None], atol=1e-12)


def test_linear_gradients():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal(5), requires_grad=True)
    proj = Tensor(rng.standard_normal((2, 5, 3)))

    def loss_fn(_=None):
        return dot(F.linear(x, w, b), proj)

    grads = backward(loss_fn())
    for p in (x, w, b):
        np.testing.assert_allclose(grads[p], finite_diff_grad(loss_fn, p), atol=1e-8)


def test_linear_of_a_set_equals_conv1x1_of_its_map_exactly():
    # one channel mix under both names: the (B, C, M) set of a map's pixels
    # projects to the same bits as the map itself
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 6, 3, 4))
    w, b = Tensor(rng.standard_normal((5, 6))), Tensor(rng.standard_normal(5))
    via_set = F.linear(Tensor(x.reshape(2, 6, 12)), w, b).data
    np.testing.assert_array_equal(via_set, F.conv1x1(Tensor(x), w, b).data.reshape(2, 5, 12))


def test_linear_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        F.linear(Tensor(np.ones((1, 3, 2, 2))), Tensor(np.ones((2, 3))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):
        F.linear(Tensor(np.ones((1, 3, 4))), Tensor(np.ones((2, 4))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):
        F.linear(Tensor(np.ones((1, 3, 4))), Tensor(np.ones((2, 3))), Tensor(np.zeros(3)))


# --------------------------------------------------------------------------
# softmax family


def test_softmax_rows_sum_to_one_and_lie_in_unit_interval():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 7)) * 10
    y = F.softmax(Tensor(x), axis=1).data
    np.testing.assert_allclose(y.sum(axis=1), np.ones(5), atol=1e-6)
    assert np.all(y > 0) and np.all(y < 1)


def test_softmax_handles_huge_logits():
    y = F.softmax(Tensor(np.array([[1000.0, 0.0]])), axis=1).data[0]
    np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 6))
    a = F.softmax(Tensor(x), axis=1).data
    b = F.softmax(Tensor(x + 123.0), axis=1).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_gradients():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
    proj = Tensor(rng.standard_normal((3, 4, 5)))

    def loss_fn(_=None):
        return dot(F.softmax(x, axis=2), proj)

    grads = backward(loss_fn())
    np.testing.assert_allclose(grads[x], finite_diff_grad(loss_fn, x), atol=1e-7)


def test_finite_diff_matches_softmax_jacobian_row():
    # pick one output of a softmax; its gradient is a known Jacobian row
    x = Tensor(np.array([0.2, -0.4, 0.9]), requires_grad=True)

    def pick(t):
        return dot(F.softmax(t, axis=0), np.array([0.0, 1.0, 0.0]))

    s = F.softmax(x, axis=0).data
    expected = -s[1] * s
    expected[1] = s[1] * (1 - s[1])
    np.testing.assert_allclose(finite_diff_grad(pick, x), expected, atol=1e-9)


# --------------------------------------------------------------------------
# attention

# (B, C, H, W, M, heads): a general case, a single key, one channel per head
# (dh = 1, heads = C), and a single query
ATTENTION_SHAPES = [(1, 6, 2, 3, 5, 2), (2, 4, 3, 2, 1, 2), (1, 3, 2, 2, 4, 3),
                    (2, 4, 1, 1, 3, 2)]


def _attention_operands(b, c, h, w, m, seed):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.standard_normal((b, c, h, w)), requires_grad=True),
            Tensor(rng.standard_normal((b, c, m)), requires_grad=True),
            Tensor(rng.standard_normal((b, c, m)), requires_grad=True))


def _composed_attention(q, k, v, heads):
    """Attention from generic records; the keys enter as a transposed
    (G, M, dh) layout, which matmul reads as the op reads its own view.
    Returns the context map and the key leaf, whose gradient is k's
    transposed."""
    b, c, h, w = q.shape
    g, dh, m = b * heads, c // heads, k.shape[2]
    kt = Tensor(k.data.reshape(g, dh, m).transpose(0, 2, 1), requires_grad=True)
    scores = T.bmm(kt, T.reshape(q, (g, dh, h * w))) * (1.0 / np.sqrt(dh))
    ctx = T.bmm(T.reshape(v, (g, dh, m)), F.softmax(scores, axis=1))
    return T.reshape(ctx, q.shape), kt


@pytest.mark.parametrize("dims", ATTENTION_SHAPES, ids=lambda d: "x".join(map(str, d)))
def test_attention_matches_the_composed_records(dims):
    b, c, h, w, m, heads = dims
    q, k, v = _attention_operands(b, c, h, w, m, seed=sum(dims))
    y = F.attention(q, k, v, heads)
    ref, kt = _composed_attention(q, k, v, heads)
    # the op scales the keys and normalises the context, where the records
    # scale the scores and normalise the weights: equal up to ulps
    np.testing.assert_allclose(y.data, ref.data, rtol=1e-13, atol=1e-15)
    assert [t.op.op for t in T.trace(y)] == ["attention"]
    proj = np.random.default_rng(1).standard_normal(y.shape)
    got, want = backward(dot(y, proj)), backward(dot(ref, proj))
    want_k = want[kt].transpose(0, 2, 1).reshape(k.shape)
    for t, ref_g in ((q, want[q]), (k, want_k), (v, want[v])):
        np.testing.assert_allclose(got[t], ref_g, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("dims", ATTENTION_SHAPES, ids=lambda d: "x".join(map(str, d)))
def test_attention_gradients_match_finite_differences(dims):
    b, c, h, w, m, heads = dims
    q, k, v = _attention_operands(b, c, h, w, m, seed=sum(dims) + 1)
    proj = np.random.default_rng(2).standard_normal((b, c, h, w))

    def loss_fn(_=None):
        return dot(F.attention(q, k, v, heads), proj)

    grads = backward(loss_fn())
    for t in (q, k, v):
        assert grads[t].shape == t.shape
        np.testing.assert_allclose(grads[t], finite_diff_grad(loss_fn, t), rtol=0, atol=1e-8)


def test_attention_without_the_tape_gives_the_same_bits():
    q, k, v = _attention_operands(2, 4, 3, 5, 6, seed=3)
    with T.no_grad():
        plain = F.attention(q, k, v, 2)
    assert plain.op is None
    assert plain.data.tobytes() == F.attention(q, k, v, 2).data.tobytes()


def attention_oracle(q, k, v, heads):
    """Per image, head and query: softmax of scaled dot products over the keys."""
    b, c, h, w = q.shape
    dh, m = c // heads, k.shape[2]
    out = np.zeros((b, c, h * w))
    for n in range(b):
        for hh in range(heads):
            sl = slice(hh * dh, (hh + 1) * dh)
            qs, ks, vs = q[n, sl].reshape(dh, h * w), k[n, sl], v[n, sl]
            for i in range(h * w):
                scores = np.array([qs[:, i] @ ks[:, j] for j in range(m)]) / np.sqrt(dh)
                weights = np.exp(scores - scores.max())
                weights /= weights.sum()
                out[n, sl, i] = sum(weights[j] * vs[:, j] for j in range(m))
    return out.reshape(q.shape)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 6),
       st.integers(1, 6), st.integers(1, 7), st.data())
def test_attention_of_drawn_shapes_matches_loop_oracles(b, heads, dh, h, w, m, data):
    # a single key, a single query, one channel per head, and blocks of 1
    # to H*W queries, so the last block may be partial
    width = data.draw(st.integers(1, h * w), label="queries per block")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    q, k, v = (Tensor(rng.standard_normal(shape), requires_grad=True)
               for shape in ((b, heads * dh, h, w), (b, heads * dh, m), (b, heads * dh, m)))
    proj = rng.standard_normal(q.shape)

    def loss_fn(_=None):
        return dot(F.attention(q, k, v, heads), proj)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "_ATTN_BLOCK", width * m)
        y = F.attention(q, k, v, heads)
        with T.no_grad():
            assert F.attention(q, k, v, heads).data.tobytes() == y.data.tobytes()
            for n in range(b):
                # evaluate may forward an image alone or in a batch
                alone = F.attention(*(Tensor(t.data[n:n + 1]) for t in (q, k, v)), heads)
                assert alone.data.tobytes() == y.data[n:n + 1].tobytes()
        grads = backward(loss_fn())
        # drawn scores can be steep enough that the default step's
        # truncation error reaches 1e-8; at 1e-5 it is near 1e-10
        numeric = [finite_diff_grad(loss_fn, t, h=1e-5) for t in (q, k, v)]
    np.testing.assert_allclose(y.data, attention_oracle(q.data, k.data, v.data, heads),
                               rtol=0, atol=1e-12)
    for t, want in zip((q, k, v), numeric):
        np.testing.assert_allclose(grads[t], want, rtol=0, atol=1e-8)


def test_attention_backward_never_forms_a_full_score_array(monkeypatch):
    # 8 blocks of 128 queries over 64 keys: the backward's working set is
    # one block, where a score gradient for all queries at once is
    # (B*heads, M, H*W)
    monkeypatch.setattr(F, "_ATTN_BLOCK", 64 * 128)
    q, k, v = _attention_operands(2, 8, 32, 32, 64, seed=5)
    g = np.random.default_rng(6).standard_normal(q.shape)
    scores_bytes = 2 * 2 * 64 * 32 * 32 * 8
    tracemalloc.start()
    try:
        y = F.attention(q, k, v, 2)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]  # what the forward holds
        grads = y.op.backward(g)
        backward_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert [gr.shape for gr in grads] == [q.shape, k.shape, v.shape]
    # the query gradient alone is one map: a smaller peak would mean nothing was traced
    assert q.data.nbytes <= backward_peak < scores_bytes


def test_attention_checks_its_operands():
    q, k, v = _attention_operands(1, 4, 2, 2, 3, seed=4)
    with pytest.raises(ConfigError):
        F.attention(q, k, v, 3)
    with pytest.raises(ShapeError):
        F.attention(q, k, Tensor(np.zeros((1, 4, 2))), 2)
    with pytest.raises(ShapeError):
        F.attention(q, Tensor(np.zeros((2, 4, 3))), Tensor(np.zeros((2, 4, 3))), 2)
    with pytest.raises(ShapeError):
        F.attention(k, k, v, 2)


@pytest.mark.parametrize("heads", [0, -2])
def test_attention_refuses_fewer_than_one_head(heads):
    q, k, v = _attention_operands(1, 4, 2, 2, 3, seed=4)
    with pytest.raises(ConfigError, match="positive number of heads"):
        F.attention(q, k, v, heads)


# --------------------------------------------------------------------------
# layer norm


def test_layer_norm_matches_per_position_oracle():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 6, 3, 4))
    g = rng.standard_normal(6)
    b = rng.standard_normal(6)
    got = F.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
    np.testing.assert_allclose(got, layer_norm_oracle(x, g, b, 1e-6), atol=1e-12)


def test_layer_norm_output_is_standardized():
    rng = np.random.default_rng(14)
    c = 16
    x = rng.standard_normal((3, c, 5, 1)) * 4 + 7
    y = F.layer_norm(Tensor(x), Tensor(np.ones(c)), Tensor(np.zeros(c))).data
    np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-4)


@pytest.mark.parametrize("shape", [(6,), (2, 6), (2, 6, 3), (2, 6, 3, 4, 1)])
def test_layer_norm_accepts_only_4d_maps(shape):
    with pytest.raises(ShapeError, match="4-d map"):
        F.layer_norm(Tensor(np.ones(shape)), Tensor(np.ones(6)), Tensor(np.zeros(6)))


def test_layer_norm_gradients():
    rng = np.random.default_rng(15)
    x = Tensor(rng.standard_normal((2, 5, 4, 1)), requires_grad=True)
    g = Tensor(rng.standard_normal(5), requires_grad=True)
    b = Tensor(rng.standard_normal(5), requires_grad=True)
    proj = Tensor(rng.standard_normal((2, 5, 4, 1)))

    def loss_fn(_=None):
        return dot(F.layer_norm(x, g, b), proj)

    grads = backward(loss_fn())
    for p in (x, g, b):
        np.testing.assert_allclose(grads[p], finite_diff_grad(loss_fn, p), atol=1e-7)


# --------------------------------------------------------------------------
# bilinear resize


def test_bilinear_same_size_is_exact_identity():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2, 3, 5, 7))
    got = F.bilinear_resize(Tensor(x), 5, 7).data
    np.testing.assert_array_equal(got, x)


def test_bilinear_matches_closed_form_weights_oracle():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((1, 2, 2, 2))
    got = F.bilinear_resize(Tensor(x), 4, 4).data
    np.testing.assert_allclose(got, bilinear_oracle(x, 4, 4), atol=1e-12)


def test_bilinear_downsample_matches_oracle():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((2, 3, 6, 5))
    got = F.bilinear_resize(Tensor(x), 3, 2).data
    np.testing.assert_allclose(got, bilinear_oracle(x, 3, 2), atol=1e-12)


def test_bilinear_preserves_constant_maps():
    x = np.full((1, 2, 3, 3), 2.75)
    for hw in ((6, 9), (2, 2), (5, 4)):
        got = F.bilinear_resize(Tensor(x), *hw).data
        np.testing.assert_allclose(got, 2.75, atol=1e-12)


def test_bilinear_gradients():
    rng = np.random.default_rng(19)
    x = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
    proj = Tensor(rng.standard_normal((1, 2, 5, 4)))

    def loss_fn(_=None):
        return dot(F.bilinear_resize(x, 5, 4), proj)

    grads = backward(loss_fn())
    np.testing.assert_allclose(grads[x], finite_diff_grad(loss_fn, x), atol=1e-8)


def test_bilinear_rejects_empty_target():
    with pytest.raises(ShapeError):
        F.bilinear_resize(Tensor(np.ones((1, 1, 2, 2))), 0, 3)


# --------------------------------------------------------------------------
# adaptive average pooling


def test_pool_same_size_is_exact_identity():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((2, 2, 4, 6))
    np.testing.assert_array_equal(F.adaptive_avg_pool(Tensor(x), 4, 6).data, x)


def test_pool_matches_window_partition_oracle():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((1, 3, 5, 5))
    got = F.adaptive_avg_pool(Tensor(x), 2, 2).data
    np.testing.assert_allclose(got, pool_oracle(x, 2, 2), atol=1e-12)


def test_pool_windows_cover_uneven_splits():
    x = np.arange(5.0).reshape(1, 1, 5, 1).repeat(1, axis=3)
    got = F.adaptive_avg_pool(Tensor(x), 2, 1).data[0, 0, :, 0]
    # windows are rows [0,3) and [2,5)
    np.testing.assert_allclose(got, [np.mean([0, 1, 2]), np.mean([2, 3, 4])], atol=1e-12)


def test_pool_preserves_constants():
    x = np.full((1, 1, 7, 5), -1.5)
    got = F.adaptive_avg_pool(Tensor(x), 3, 2).data
    np.testing.assert_allclose(got, -1.5, atol=1e-12)


def test_pool_gradients():
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((2, 2, 5, 4)), requires_grad=True)
    proj = Tensor(rng.standard_normal((2, 2, 2, 2)))

    def loss_fn(_=None):
        return dot(F.adaptive_avg_pool(x, 2, 2), proj)

    grads = backward(loss_fn())
    np.testing.assert_allclose(grads[x], finite_diff_grad(loss_fn, x), atol=1e-8)


def test_pool_rejects_upsampling():
    with pytest.raises(ShapeError):
        F.adaptive_avg_pool(Tensor(np.ones((1, 1, 2, 2))), 4, 2)


# --------------------------------------------------------------------------
# randomized gradient sweep over every op, shapes up to 4x8x6x6


@pytest.mark.parametrize("trial", range(3))
def test_randomized_op_gradients(trial):
    rng = np.random.default_rng(100 + trial)
    B = int(rng.integers(1, 5))
    C = int(rng.integers(2, 9))
    H = int(rng.integers(2, 7))
    W = int(rng.integers(2, 7))
    x = Tensor(rng.standard_normal((B, C, H, W)), requires_grad=True)
    taps = np.random.default_rng(200 + trial)
    dw_w, dw_b = Tensor(taps.standard_normal((C, 3, 3))), Tensor(taps.standard_normal(C))
    cases = {
        "softmax": lambda t: F.softmax(t, axis=1),
        "resize": lambda t: F.bilinear_resize(t, H + 2, max(1, W - 1)),
        "pool": lambda t: F.adaptive_avg_pool(t, max(1, H // 2), max(1, W // 2)),
        "gelu": T.gelu,
        "depthwise": lambda t: F.depthwise_conv3x3(t, dw_w, dw_b),
    }
    for name, fn in cases.items():
        out_shape = fn(Tensor(x.data)).shape
        proj = Tensor(rng.standard_normal(out_shape))

        def loss_fn(_=None, fn=fn, proj=proj):
            return dot(fn(x), proj)

        grads = backward(loss_fn())
        numeric = finite_diff_grad(loss_fn, x)
        from cftseg import max_rel_error
        assert max_rel_error(grads[x], numeric) < 1e-4, name


# --------------------------------------------------------------------------
# one fixed-shape gradient case per op name the tape records; the registry
# test in test_model.py fails when a traced training step records an op
# this table has no case for


def _mask_case(loss):
    def make(rng):
        target = (rng.random((2, 3, 2, 2)) < 0.5).astype(float)
        valid = rng.random((2, 2, 2)) < 0.8
        return (lambda z: loss(z, target, valid)), [rng.standard_normal((2, 3, 2, 2))]
    return make


def _cross_entropy_case(rng):
    labels = rng.integers(0, 3, size=(2, 2, 2))
    labels[0, 0, 1] = 255
    return (lambda z: L.cross_entropy(z, labels)), [rng.standard_normal((2, 3, 2, 2))]


# op name -> make(rng) giving (fn, arrays): fn maps one tensor per array,
# every one differentiable, to the output of a single record of that op
OP_CASES = {
    "add": lambda rng: (T.add, [rng.standard_normal((2, 3)),
                                rng.standard_normal((2, 3))]),
    "scale": lambda rng: (lambda a: a * 1.5, [rng.standard_normal((2, 3))]),
    "reshape": lambda rng: (lambda a: T.reshape(a, (3, 4)),
                            [rng.standard_normal((2, 6))]),
    "columns": lambda rng: (lambda a: T.columns(a, 1, 3),
                            [rng.standard_normal((3, 4))]),
    "concat": lambda rng: (lambda a, b: T.concat([a, b]),
                           [rng.standard_normal((1, 2, 3)),
                            rng.standard_normal((2, 2, 3))]),
    "gelu": lambda rng: (T.gelu, [rng.standard_normal((2, 3, 2, 2)) * 2.0]),
    "bmm": lambda rng: (lambda a, b: T.bmm(a, b, transpose_b=True),
                        [rng.standard_normal((2, 3, 4)),
                         rng.standard_normal((2, 5, 4))]),
    "softmax": lambda rng: (lambda a: F.softmax(a, axis=2),
                            [rng.standard_normal((2, 3, 4))]),
    "linear": lambda rng: (F.linear, [rng.standard_normal((2, 3, 4)),
                                      rng.standard_normal((5, 3)),
                                      rng.standard_normal(5)]),
    "conv1x1": lambda rng: (F.conv1x1, [rng.standard_normal((2, 3, 2, 3)),
                                        rng.standard_normal((4, 3)),
                                        rng.standard_normal(4)]),
    "depthwise_conv3x3": lambda rng: (F.depthwise_conv3x3,
                                      [rng.standard_normal((2, 3, 3, 4)),
                                       rng.standard_normal((3, 3, 3)),
                                       rng.standard_normal(3)]),
    "attention": lambda rng: (lambda q, k, v: F.attention(q, k, v, heads=2),
                              [rng.standard_normal((1, 4, 2, 3)),
                               rng.standard_normal((1, 4, 3)),
                               rng.standard_normal((1, 4, 3))]),
    "layer_norm": lambda rng: (F.layer_norm, [rng.standard_normal((2, 3, 2, 2)),
                                              rng.standard_normal(3),
                                              rng.standard_normal(3)]),
    "bilinear_resize": lambda rng: (lambda a: F.bilinear_resize(a, 4, 5),
                                    [rng.standard_normal((1, 2, 3, 3))]),
    "adaptive_avg_pool": lambda rng: (lambda a: F.adaptive_avg_pool(a, 2, 3),
                                      [rng.standard_normal((1, 2, 5, 4))]),
    "cross_entropy": _cross_entropy_case,
    "dice": _mask_case(L.dice_loss),
    "focal": _mask_case(L.focal_loss),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_every_recorded_op_gradient_matches_finite_differences(name):
    rng = np.random.default_rng(sorted(OP_CASES).index(name))
    fn, arrays = OP_CASES[name](rng)
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*inputs)
    assert out.op.op == name and out.op.inputs == tuple(inputs)
    proj = rng.standard_normal(out.shape)

    def loss_fn(_=None):
        return dot(fn(*inputs), proj)

    grads = backward(loss_fn(), leaves=inputs)
    for i, t in enumerate(inputs):
        np.testing.assert_allclose(grads[t], finite_diff_grad(loss_fn, t),
                                   rtol=1e-6, atol=1e-8, err_msg=f"input {i}")
