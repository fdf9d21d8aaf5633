"""Core tensor engine: forward values, tape structure, backward sweep."""

import numpy as np
import pytest

from cftseg import Tensor, backward, no_grad
from cftseg.errors import ShapeError
from cftseg import tensor as T
import cftseg.functional as F
from oracles import GELU_C, gelu_o


def test_tensor_wraps_float64_copy():
    src = np.arange(6, dtype=np.float32).reshape(2, 3)
    t = Tensor(src)
    assert t.data.dtype == np.float64
    assert t.shape == (2, 3)
    src[0, 0] = 99.0
    assert t.data[0, 0] == 0.0


def test_data_length_matches_shape():
    t = Tensor(np.zeros((3, 4, 5)))
    assert t.size == 3 * 4 * 5 == t.data.size


def test_sum_backward_is_ones():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    grads = backward(x.sum())
    np.testing.assert_array_equal(grads[x], np.ones((3, 4)))


def test_elementwise_square_backward():
    # loss = sum(x * x) has gradient 2x
    x = Tensor(np.linspace(-2, 2, 10), requires_grad=True)
    grads = backward((x * x).sum())
    np.testing.assert_allclose(grads[x], 2.0 * x.data, rtol=0, atol=1e-15)


def test_mul_skips_the_gradient_of_a_constant_operand():
    x = Tensor(np.linspace(-2, 2, 6), requires_grad=True)
    c = Tensor(np.arange(6.0))
    for y, x_slot in ((x * c, 0), (c * x, 1)):
        grads = y.op.backward(np.ones(6))
        assert grads[1 - x_slot] is None
        np.testing.assert_array_equal(grads[x_slot], c.data)
    np.testing.assert_array_equal(backward((x * c).sum())[x], c.data)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(x * 2.0)


def test_shape_mismatch_raises():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        a * b


def test_bmm_matches_per_slice_matmul():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 3, 4))
    b = rng.standard_normal((6, 4, 2))
    got = T.bmm(Tensor(a), Tensor(b)).data
    for g in range(6):
        np.testing.assert_allclose(got[g], a[g] @ b[g], atol=1e-12)


def test_concat_backward_splits_gradient():
    rng = np.random.default_rng(10)
    parts = [Tensor(rng.standard_normal((2, k, 3)), requires_grad=True) for k in (1, 2, 4)]
    joined = T.concat(parts, axis=1)
    assert joined.shape == (2, 7, 3)
    np.testing.assert_array_equal(joined.data[:, 1:3], parts[1].data)
    w = rng.standard_normal((2, 7, 3))
    grads = backward((joined * Tensor(w)).sum())
    for part, cols in zip(parts, (slice(0, 1), slice(1, 3), slice(3, 7))):
        np.testing.assert_array_equal(grads[part], w[:, cols])


def test_transpose_reshape_backward():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    w = rng.standard_normal((4, 3, 2))
    y = T.transpose(x, (2, 1, 0))
    loss = (y * Tensor(w)).sum()
    grads = backward(loss)
    np.testing.assert_array_equal(grads[x], w.transpose(2, 1, 0))

    z = T.reshape(x, (6, 4))
    grads = backward(z.sum())
    np.testing.assert_array_equal(grads[x], np.ones((2, 3, 4)))


def test_reduce_mean_axis_backward():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    m = x.mean(axis=(0, 2))
    assert m.shape == (3,)
    grads = backward(m.sum())
    np.testing.assert_allclose(grads[x], np.full((2, 3, 4), 1.0 / 8.0))


def test_gradient_accumulates_across_uses():
    # x feeds two branches; contributions must add
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = (x * 3.0).sum() + (x * x).sum()
    grads = backward(loss)
    np.testing.assert_allclose(grads[x], 3.0 + 2.0 * x.data)


def test_no_grad_suppresses_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2.0).sum()
    assert y.op is None and not y.requires_grad


def test_tape_is_topological_and_visits_once():
    x = Tensor(np.ones(4), requires_grad=True)
    y = x * 2.0
    z = y + y  # diamond: y consumed twice
    loss = z.sum()
    tape = T.trace(loss)
    seen = set()
    order = {}
    for pos, t in enumerate(tape):
        assert id(t) not in seen
        seen.add(id(t))
        order[id(t)] = pos
        for inp in t.op.inputs:
            if inp.op is not None:
                assert order[id(inp)] < pos
    grads = backward(loss)
    np.testing.assert_allclose(grads[x], np.full(4, 4.0))


def test_leaves_argument_returns_zero_for_untouched():
    x = Tensor(np.ones(2), requires_grad=True)
    unused = Tensor(np.ones(5), requires_grad=True)
    grads = backward(x.sum(), leaves=[x, unused])
    np.testing.assert_array_equal(grads[unused], np.zeros(5))


def test_replay_same_graph_is_bit_identical():
    rng = np.random.default_rng(12)
    data = rng.standard_normal((3, 5))
    w = rng.standard_normal((5, 5))

    def run():
        x = Tensor(data, requires_grad=True)
        y = T.gelu(F.linear(x, Tensor(w.T)))
        loss = (y * y).mean()
        return loss.item(), backward(loss)[x]

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


class TestElementwiseGradients:
    """Each rule against central differences on smooth random points."""

    def _check(self, fn, x_data, atol=1e-8):
        x = Tensor(x_data, requires_grad=True)
        w = np.random.default_rng(0).standard_normal(x_data.shape)
        loss_fn = lambda t: (fn(t) * Tensor(w)).sum()
        grads = backward(loss_fn(x))
        from cftseg import finite_diff_grad
        numeric = finite_diff_grad(loss_fn, x)
        np.testing.assert_allclose(grads[x], numeric, atol=atol)

    def test_sigmoid(self):
        self._check(T.sigmoid, np.linspace(-4, 4, 9))

    def test_logsigmoid(self):
        self._check(T.logsigmoid, np.linspace(-4, 4, 9))

    def test_gelu(self):
        self._check(T.gelu, np.linspace(-3, 3, 13))

    def test_div(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal(6), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 2.0, 6), requires_grad=True)
        grads = backward((a / b).sum())
        np.testing.assert_allclose(grads[a], 1.0 / b.data, atol=1e-12)
        np.testing.assert_allclose(grads[b], -a.data / b.data ** 2, atol=1e-12)


def test_sigmoid_saturates_without_overflow():
    x = Tensor(np.array([-800.0, 0.0, 800.0]))
    y = T.sigmoid(x).data
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y, [0.0, 0.5, 1.0], atol=1e-12)
    ls = T.logsigmoid(x).data
    assert np.all(np.isfinite(ls))
    np.testing.assert_allclose(ls[2], 0.0, atol=1e-12)
    np.testing.assert_allclose(ls[0], -800.0, atol=1e-12)


def test_gelu_matches_the_oracle_and_its_closed_form_derivative():
    x = np.linspace(-10.0, 10.0, 20001)
    t = np.tanh(GELU_C * (x + 0.044715 * x ** 3))
    slope = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3 * 0.044715 * x * x)
    g = np.random.default_rng(7).standard_normal(x.shape)
    xt = Tensor(x, requires_grad=True)
    y = T.gelu(xt)
    # 1 + tanh cancels in the negative tail, so both forms are only exact
    # to an ulp of the function's scale there, not of its tiny value
    np.testing.assert_allclose(y.data, gelu_o(x), rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(backward((y * Tensor(g)).sum())[xt], g * slope,
                               rtol=1e-14, atol=1e-14)


def test_gelu_saturates_exactly():
    x = Tensor(np.array([1e3, -1e3]), requires_grad=True)
    y = T.gelu(x)
    assert y.data[0] == 1e3 and y.data[1] == 0.0
    grad = backward(y.sum())[x]
    assert np.all(np.isfinite(grad))
    np.testing.assert_array_equal(grad, [1.0, 0.0])
