"""NN ops against independent loop oracles, plus one drawn-shape gradient
check per recorded op."""

from collections.abc import Callable
import contextlib
import tracemalloc
from typing import NamedTuple

from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
import numpy as np
import pytest

from cftseg import Tensor, backward, finite_diff_grad
from cftseg.errors import ConfigError, ShapeError
import cftseg.functional as F
import cftseg.losses as L
import cftseg.tensor as T
import oracles as O
from scalar import dot


# --------------------------------------------------------------------------
# conv1x1


def test_conv1x1_matches_flatten_matmul_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 4, 4))
    w = rng.standard_normal((2, 3))
    b = rng.standard_normal(2)
    got = F.conv1x1(Tensor(x), Tensor(w), Tensor(b)).data
    np.testing.assert_array_equal(got, O.conv1x1_o(x, w, b))


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


def test_conv1x1_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        F.conv1x1(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 3))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):
        F.conv1x1(Tensor(np.ones((1, 3, 2, 2))), Tensor(np.ones((2, 5))), Tensor(np.zeros(2)))


# (B, C, H, W) -> the op at channels C, keys (B, C, 3) for attention
MAP_OPS = {
    "conv1x1": lambda x: F.conv1x1(x, Tensor(np.ones((2, x.shape[1]))), Tensor(np.zeros(2))),
    "depthwise_conv3x3": lambda x: F.depthwise_conv3x3(x, Tensor(np.ones((x.shape[1], 3, 3))),
                                                       Tensor(np.zeros(x.shape[1]))),
    "layer_norm": lambda x: F.layer_norm(x, Tensor(np.ones(x.shape[1])),
                                         Tensor(np.zeros(x.shape[1]))),
    "bilinear_resize": lambda x: F.bilinear_resize(x, 2, 2),
    "adaptive_avg_pool": lambda x: F.adaptive_avg_pool(x, 1, 1),
    "attention": lambda x: F.attention(x, *[Tensor(np.ones(x.shape[:2] + (3,)))] * 2, 1),
}


@pytest.mark.parametrize("shape", [(0, 2, 3, 3), (1, 2, 0, 3), (1, 2, 3, 0)],
                         ids=["zero-batch", "zero-height", "zero-width"])
@pytest.mark.parametrize("op", sorted(MAP_OPS))
def test_map_ops_refuse_empty_maps(op, shape):
    with pytest.raises(ShapeError, match="non-empty 4-d map"):
        MAP_OPS[op](Tensor(np.zeros(shape)))


SET_OPS = {
    "linear": lambda x: F.linear(x, Tensor(np.ones((2, x.shape[1]))), Tensor(np.zeros(2))),
    "softmax": lambda x: F.softmax(x, 1),
}


@pytest.mark.parametrize("shape", [(0, 2, 3), (2, 0, 3), (2, 2, 0)],
                         ids=["zero-batch", "zero-channels", "zero-positions"])
@pytest.mark.parametrize("op", sorted(SET_OPS))
def test_set_ops_refuse_empty_inputs(op, shape):
    with pytest.raises(ShapeError, match="non-empty"):
        SET_OPS[op](Tensor(np.zeros(shape)))


def test_softmax_refuses_a_scalar():
    with pytest.raises(ShapeError, match="with an axis"):
        F.softmax(Tensor(np.array(1.0)), 0)


@pytest.mark.parametrize("axis", [2, -3, 5])
def test_softmax_refuses_an_axis_out_of_range(axis):
    # a wrapped axis would run over another axis: 2 % 2 is axis 0
    with pytest.raises(ShapeError, match="out of range"):
        F.softmax(Tensor(np.zeros((2, 3))), axis)


# --------------------------------------------------------------------------
# depthwise 3x3


def test_depthwise_matches_six_loop_oracle():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 5, 4))
    w = rng.standard_normal((3, 3, 3))
    b = rng.standard_normal(3)
    got = F.depthwise_conv3x3(Tensor(x), Tensor(w), Tensor(b)).data
    np.testing.assert_allclose(got, O.depthwise_o(x, w, b), atol=1e-12)


def test_depthwise_identity_kernel():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 2, 4, 4))
    w = np.zeros((2, 3, 3))
    w[:, 1, 1] = 1.0
    got = F.depthwise_conv3x3(Tensor(x), Tensor(w), Tensor(np.zeros(2))).data
    np.testing.assert_array_equal(got, x)


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
                         O.depthwise_grad_o(x.data, w.data, g)):
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
    np.testing.assert_allclose(y.data, O.depthwise_o(x.data, w.data, b.data),
                               rtol=0, atol=1e-12)
    grads = backward(dot(y, g))
    gx, gw, gb = O.depthwise_grad_o(x.data, w.data, g)
    np.testing.assert_allclose(grads[x], gx, rtol=0, atol=1e-10)
    np.testing.assert_allclose(grads[w], gw, rtol=0, atol=1e-10)
    np.testing.assert_allclose(grads[b], gb, rtol=0, atol=1e-10)


@settings(max_examples=100)
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
    np.testing.assert_allclose(y.data, O.depthwise_o(x.data, wt.data, bias.data),
                               rtol=0, atol=1e-12)
    for got, want in zip((grads[x], grads[wt], grads[bias]),
                         O.depthwise_grad_o(x.data, wt.data, g)):
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


def test_attention_without_the_tape_gives_the_same_bits():
    q, k, v = _attention_operands(2, 4, 3, 5, 6, seed=3)
    with T.no_grad():
        plain = F.attention(q, k, v, 2)
    assert plain.op is None
    assert plain.data.tobytes() == F.attention(q, k, v, 2).data.tobytes()


@settings(max_examples=100)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 6),
       st.integers(1, 6), st.integers(1, 7), st.data())
def test_attention_of_drawn_shapes_matches_loop_oracles(b, heads, dh, h, w, m, data):
    # a single key, a single query, one channel per head, and blocks of 1
    # to H*W queries, so the last block may be partial
    width = data.draw(st.integers(1, h * w), label="queries per block")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    attend, arrays = OP_CASES["attention"].build(rng, b, heads, dh, h, w, m, width)
    q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
    y = attend(q, k, v)
    with T.no_grad():
        assert attend(q, k, v).data.tobytes() == y.data.tobytes()
        for n in range(b):
            # evaluate may forward an image alone or in a batch
            alone = attend(*(Tensor(t.data[n:n + 1]) for t in (q, k, v)))
            assert alone.data.tobytes() == y.data[n:n + 1].tobytes()
    want = O.attention_o(q.data.reshape(b, heads * dh, h * w), k.data, v.data, heads)
    np.testing.assert_allclose(y.data, want.reshape(q.shape), rtol=0, atol=1e-12)


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


def test_recorded_attention_holds_less_than_its_scores(monkeypatch):
    # the same 8 blocks: between the forward and the backward a record
    # holds its output, one block and per-query maxima and sums, where all
    # the blocks' weights are one (B*heads, M, H*W) score array
    monkeypatch.setattr(F, "_ATTN_BLOCK", 64 * 128)
    q, k, v = _attention_operands(2, 8, 32, 32, 64, seed=5)
    scores_bytes = 2 * 2 * 64 * 32 * 32 * 8
    tracemalloc.start()
    try:
        y = F.attention(q, k, v, 2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert y.op is not None
    # the output alone is one map: less would mean nothing was traced
    assert q.data.nbytes <= held < scores_bytes


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
    with pytest.raises(ShapeError, match="non-empty"):
        F.attention(q, Tensor(np.zeros((1, 4, 0))), Tensor(np.zeros((1, 4, 0))), 2)


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
    np.testing.assert_allclose(got, O.layer_norm_map_o(x, g, b), atol=1e-12)


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
    np.testing.assert_allclose(got, O.bilinear_o(x, 4, 4), atol=1e-12)


def test_bilinear_downsample_matches_oracle():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((2, 3, 6, 5))
    got = F.bilinear_resize(Tensor(x), 3, 2).data
    np.testing.assert_allclose(got, O.bilinear_o(x, 3, 2), atol=1e-12)


def test_bilinear_preserves_constant_maps():
    x = np.full((1, 2, 3, 3), 2.75)
    for hw in ((6, 9), (2, 2), (5, 4)):
        got = F.bilinear_resize(Tensor(x), *hw).data
        np.testing.assert_allclose(got, 2.75, atol=1e-12)


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
    np.testing.assert_allclose(got, O.pool_o(x, 2, 2), atol=1e-12)


def test_pool_windows_cover_uneven_splits():
    x = np.arange(5.0).reshape(1, 1, 5, 1).repeat(1, axis=3)
    got = F.adaptive_avg_pool(Tensor(x), 2, 1).data[0, 0, :, 0]
    # windows are rows [0,3) and [2,5)
    np.testing.assert_allclose(got, [np.mean([0, 1, 2]), np.mean([2, 3, 4])], atol=1e-12)


def test_pool_preserves_constants():
    x = np.full((1, 1, 7, 5), -1.5)
    got = F.adaptive_avg_pool(Tensor(x), 3, 2).data
    np.testing.assert_allclose(got, -1.5, atol=1e-12)


def test_pool_rejects_upsampling():
    with pytest.raises(ShapeError):
        F.adaptive_avg_pool(Tensor(np.ones((1, 1, 2, 2))), 4, 2)




# --------------------------------------------------------------------------
# one finite-difference check per op name the tape records, at drawn
# shapes; the registry test in test_model.py fails when a traced training
# step records an op this table has no case for

# (B, C, H, W) maps, and for the elementwise ops those or smaller ranks
MAPS = st.tuples(st.integers(1, 4), st.integers(1, 8), st.integers(1, 6), st.integers(1, 6))
SHAPES = MAPS | hnp.array_shapes(min_dims=1, max_dims=3, max_side=8)
# 1x1 and 1xN planes and a single channel
FLAT_MAPS = [(2, 3, 1, 1), (1, 2, 1, 5), (2, 1, 3, 4)]
# the maps of three earlier randomized sweeps
SWEEP_MAPS = [(4, 7, 2, 4), (2, 8, 5, 3), (2, 3, 4, 4)]


class Case(NamedTuple):
    """`build(rng, *dims)` gives (fn, arrays): fn maps one tensor per array,
    every one differentiable, to the output of a single record of the op.
    `dims` draws the build's arguments; every run also checks `examples`.
    Every gradient is held to `rtol`, a number or a function of the dims,
    and to `atol` against central differences of step `h`."""
    dims: st.SearchStrategy
    build: Callable
    examples: list = []
    h: float = 1e-4
    rtol: float | Callable = 1e-7
    atol: float = 1e-8


def _shape_case(build, examples=()):
    """A case over one drawn shape of any rank."""
    return Case(SHAPES.map(lambda s: (s,)), build, [(s,) for s in examples])


def _map_case(build, extra=lambda shape: st.tuples(), examples=(), **kw):
    """A case over a drawn (B, C, H, W) map and `extra(shape)`'s draws."""
    dims = MAPS.flatmap(lambda s: extra(s).map(lambda e: (s, *e)))
    return Case(dims, build, list(examples), **kw)


@st.composite
def _column_spans(draw):
    """A (rows, cols) shape and a non-empty span [start, stop) of its columns."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    start = draw(st.integers(0, cols - 1))
    return (rows, cols), start, draw(st.integers(start + 1, cols))


def _bmm(rng, g, m, k, n, a_transposed, transpose_b):
    # `b` is stored as its flag says and read transposed by bmm; `a` holds
    # either a C-ordered array or a transposed (G,k,m) layout, which matmul
    # reads as it lies and whose gradient still comes back shaped (G,m,k)
    a = rng.standard_normal((g, k, m) if a_transposed else (g, m, k))
    return ((lambda x, y: T.bmm(x, y, transpose_b=transpose_b)),
            [a.transpose(0, 2, 1) if a_transposed else a,
             rng.standard_normal((g, n, k) if transpose_b else (g, k, n))])


def _attention(rng, b, heads, dh, h, w, m, width):
    def fn(q, k, v):
        with pytest.MonkeyPatch.context() as mp:  # queries in blocks of `width`
            mp.setattr(F, "_ATTN_BLOCK", width * m)
            return F.attention(q, k, v, heads)
    c = heads * dh
    return fn, [rng.standard_normal(s) for s in ((b, c, h, w), (b, c, m), (b, c, m))]


def _loss_case(loss):
    """(shape, bound, share): (B, L, H, W) logits drawn in [-bound, bound],
    out to saturation at 50, and a (B, H, W) label map with a share of its
    pixels labelled 255, from none to all but one; a share of None labels
    every pixel. A kept pixel labels some category, so dice never drops to
    its constant 0."""
    def build(rng, shape, bound, share):
        b, l, h, w = shape
        kept = rng.random((b, h, w)) >= (share or 0.0)
        kept[0, 0, 0] = True
        labels = np.where(kept, rng.integers(0, l, (b, h, w)), L.IGNORE_INDEX)
        return (lambda z: loss(z, labels)), [rng.uniform(-bound, bound, shape)]
    return Case(st.tuples(MAPS, st.floats(1.0, 50.0), st.none() | st.floats(0.0, 1.0)),
                build, [((2, 3, 2, 2), 50.0, None), ((2, 3, 2, 2), 50.0, 1.0),
                        *((s, 3.0, 0.25) for s in FLAT_MAPS)], atol=5e-10)


def _layer_norm(rng, shape, constant):
    x = rng.standard_normal(shape)
    if constant:  # variance 0 at every position
        x[:] = x[:, :1]
    c = shape[1]
    return F.layer_norm, [x, rng.standard_normal(c), rng.standard_normal(c)]


OP_CASES = {
    "add": _shape_case(lambda rng, s: (T.add, [rng.standard_normal(s),
                                               rng.standard_normal(s)]), [(2, 3)]),
    "scale": _shape_case(lambda rng, s: ((lambda a: a * 1.5), [rng.standard_normal(s)]),
                         [(2, 3)]),
    "reshape": _shape_case(lambda rng, s: ((lambda a: T.reshape(a, s[::-1])),
                                           [rng.standard_normal(s)]),
                           [(2, 3, 4), (2, 6)]),
    "columns": Case(_column_spans(),
                    lambda rng, s, start, stop: ((lambda a: T.columns(a, start, stop)),
                                                 [rng.standard_normal(s)]),
                    [((3, 4), 1, 3)]),
    "concat": Case(st.tuples(st.lists(st.integers(1, 3), min_size=1, max_size=3),
                             hnp.array_shapes(min_dims=0, max_dims=2, max_side=4)),
                   lambda rng, rows, rest: ((lambda *parts: T.concat(parts)),
                                            [rng.standard_normal((r, *rest)) for r in rows]),
                   [([1, 2], (2, 3))]),
    "gelu": _shape_case(lambda rng, s: (T.gelu, [rng.standard_normal(s) * 2.0]),
                        [(2, 3, 2, 2), *SWEEP_MAPS]),
    # (G, m, k, n, a_transposed, transpose_b); the product is bilinear, so
    # central differences are exact up to rounding
    "bmm": Case(st.tuples(*[st.integers(1, 5)] * 4, st.booleans(), st.booleans()),
                _bmm, [(2, 3, 4, 5, True, True)], rtol=0.0, atol=1e-9),
    "softmax": Case(SHAPES.flatmap(lambda s: st.tuples(st.just(s),
                                                       st.integers(-len(s), len(s) - 1))),
                    lambda rng, s, axis: ((lambda a: F.softmax(a, axis)),
                                          [rng.standard_normal(s)]),
                    [((2, 3, 4), 2), *((s, 1) for s in SWEEP_MAPS)]),
    "linear": Case(st.tuples(st.integers(1, 4), st.integers(1, 8), st.integers(1, 6),
                             st.integers(1, 8)),
                   lambda rng, b, c, m, o: (F.linear, [rng.standard_normal((b, c, m)),
                                                       rng.standard_normal((o, c)),
                                                       rng.standard_normal(o)]),
                   [(2, 3, 4, 5)]),
    "conv1x1": _map_case(lambda rng, s, o: (F.conv1x1, [rng.standard_normal(s),
                                                        rng.standard_normal((o, s[1])),
                                                        rng.standard_normal(o)]),
                         lambda s: st.tuples(st.integers(1, 8)),
                         [((2, 3, 2, 3), 4), *((s, 2) for s in FLAT_MAPS)]),
    "depthwise_conv3x3": _map_case(
        lambda rng, s: (F.depthwise_conv3x3, [rng.standard_normal(s),
                                              rng.standard_normal((s[1], 3, 3)),
                                              rng.standard_normal(s[1])]),
        examples=[((2, 3, 3, 4),), *((s,) for s in FLAT_MAPS + SWEEP_MAPS)]),
    # drawn scores can be steep enough that the default step's truncation
    # error reaches 1e-8; at 1e-5 it is near 1e-10
    "attention": Case(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
                                st.integers(1, 6), st.integers(1, 6), st.integers(1, 7))
                      .flatmap(lambda d: st.integers(1, d[3] * d[4]).map(lambda n: (*d, n))),
                      _attention,
                      # (B, heads, C/heads, H, W, M, queries per block): one
                      # block, blocks of one query, a partial last block
                      [(1, 2, 2, 2, 3, 3, 6), (1, 2, 2, 2, 3, 3, 1), (1, 2, 2, 2, 3, 3, 4)],
                      h=1e-5, rtol=0.0),
    # the default step's truncation error reaches 5e-5 relative; at variance
    # 0 the gradients reach 1/sqrt(eps) = 1000, and at a step of 1e-6 the
    # error still reaches 1.3e-6 relative
    "layer_norm": _map_case(_layer_norm, lambda s: st.tuples(st.booleans()),
                            [((2, 3, 2, 2), False),
                             ((2, 4, 3, 3), True), *((s, False) for s in FLAT_MAPS)],
                            h=1e-6, rtol=lambda shape, constant: 2e-6 if constant else 1e-7),
    "bilinear_resize": _map_case(
        lambda rng, s, oh, ow: ((lambda a: F.bilinear_resize(a, oh, ow)),
                                [rng.standard_normal(s)]),
        lambda s: st.tuples(st.integers(1, 8), st.integers(1, 8)),
        [((1, 2, 3, 3), 4, 5), ((2, 3, 4, 5), 4, 5),
         ((2, 3, 1, 1), 3, 2), ((1, 2, 1, 5), 1, 3), ((2, 1, 3, 4), 6, 2),
         *((s, s[2] + 2, max(1, s[3] - 1)) for s in SWEEP_MAPS)]),
    "adaptive_avg_pool": _map_case(
        lambda rng, s, oh, ow: ((lambda a: F.adaptive_avg_pool(a, oh, ow)),
                                [rng.standard_normal(s)]),
        lambda s: st.tuples(st.integers(1, s[2]), st.integers(1, s[3])),
        [((1, 2, 5, 4), 2, 3), ((2, 3, 4, 5), 4, 5),
         ((2, 3, 1, 1), 1, 1), ((1, 2, 1, 5), 1, 2), ((2, 1, 3, 4), 2, 3),
         *((s, max(1, s[2] // 2), max(1, s[3] // 2)) for s in SWEEP_MAPS)]),
    "cross_entropy": _loss_case(L.cross_entropy),
    "dice": _loss_case(L.dice_loss),
    "focal": _loss_case(L.focal_loss),
}


def check_op_gradient(name, dims, seed=0):
    """Hold every input's gradient of one `OP_CASES[name]` record at `dims`
    to central differences of its scalar output or of a random projection
    of any other output."""
    case = OP_CASES[name]
    rng = np.random.default_rng(seed)
    fn, arrays = case.build(rng, *dims)
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*inputs)
    assert out.op.op == name and out.op.inputs == tuple(inputs)
    # a loss is differenced as it is, so its bounds hold unscaled
    proj = rng.standard_normal(out.shape) if out.ndim else None

    def loss_fn(_=None):
        return dot(fn(*inputs), proj)

    grads = backward(loss_fn(), leaves=inputs)
    rtol = case.rtol(*dims) if callable(case.rtol) else case.rtol
    for i, t in enumerate(inputs):
        np.testing.assert_allclose(grads[t], finite_diff_grad(loss_fn, t, h=case.h),
                                   rtol=rtol, atol=case.atol, err_msg=f"input {i}")


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_every_recorded_op_gradient_matches_finite_differences(name):
    check = given(OP_CASES[name].dims, st.integers(0, 2**32 - 1))(
        lambda dims, seed: check_op_gradient(name, dims, seed))
    for dims in OP_CASES[name].examples:
        check = example(dims, 0)(check)
    settings(max_examples=25)(check)()


# the registry check at fixed shapes, one test per op; the attention shapes
# include one key, one channel per head and one query


def test_conv1x1_gradients():
    check_op_gradient("conv1x1", ((2, 3, 3, 2), 4))


def test_depthwise_gradients():
    check_op_gradient("depthwise_conv3x3", ((2, 2, 4, 3),))


def test_linear_gradients():
    check_op_gradient("linear", (2, 4, 3, 5))


def test_softmax_gradients():
    check_op_gradient("softmax", ((3, 4, 5), 2))


def test_layer_norm_gradients():
    check_op_gradient("layer_norm", ((2, 5, 4, 1), False))


def test_bilinear_gradients():
    check_op_gradient("bilinear_resize", ((1, 2, 3, 3), 5, 4))


def test_pool_gradients():
    check_op_gradient("adaptive_avg_pool", ((2, 2, 5, 4), 2, 2))


@pytest.mark.parametrize("dims", ATTENTION_SHAPES, ids=lambda d: "x".join(map(str, d)))
def test_attention_gradients_match_finite_differences(dims):
    # blocks of H*W - 1 queries: the last block holds one query
    b, c, h, w, m, heads = dims
    check_op_gradient("attention", (b, heads, c // heads, h, w, m, max(1, h * w - 1)))
