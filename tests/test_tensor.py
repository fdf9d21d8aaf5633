"""Core tensor engine: forward values, tape structure, backward sweep."""

import weakref

import numpy as np
import pytest

from cftseg import Tensor, backward, no_grad
from cftseg.errors import GraphError, ShapeError
from cftseg import tensor as T
import cftseg.functional as F
from oracles import GELU_C, gelu_o
from scalar import dot
from test_functional import OP_CASES, check_op_gradient


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


def test_elementwise_square_backward():
    # loss = sum(x * x) has gradient 2x
    x = Tensor(np.linspace(-2, 2, 10), requires_grad=True)
    grads = backward(dot(x, x))
    np.testing.assert_allclose(grads[x], 2.0 * x.data, rtol=0, atol=1e-15)


def test_mul_scales_and_add_sums_tensors_only():
    x = Tensor(np.linspace(-2, 2, 6), requires_grad=True)
    c = Tensor(np.arange(6.0))
    for other in (c, c.data):
        with pytest.raises(TypeError):
            x * other
    for other in (1.0, 2, np.float64(1.0), c.data):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            other + x
    np.testing.assert_array_equal((2 * x).data, 2.0 * x.data)
    np.testing.assert_array_equal((x + c).data, x.data + c.data)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(x * 2.0)


def test_shape_mismatch_raises():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        a + b


def test_bmm_matches_per_slice_matmul():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 3, 4))
    b = rng.standard_normal((6, 4, 2))
    got = T.bmm(Tensor(a), Tensor(b)).data
    for g in range(6):
        np.testing.assert_allclose(got[g], a[g] @ b[g], atol=1e-12)


# (G, m, k, n) of a (G, m, k) @ (G, k, n) product. Scores are (M, dh) @
# (dh, HW) and values (dh, M) @ (M, HW), so m = 1 and k = 1 each stand for a
# single key in one product and dh = 1 in the other; n = 1 is one query
BMM_SHAPES = [(4, 3, 5, 2), (2, 1, 3, 4), (2, 3, 1, 4), (3, 4, 2, 1)]


@pytest.mark.parametrize("a_transposed", [False, True])
@pytest.mark.parametrize("transpose_b", [False, True])
@pytest.mark.parametrize("dims", BMM_SHAPES, ids=lambda d: "x".join(map(str, d)))
def test_bmm_flags_match_numpy_and_finite_differences(dims, a_transposed, transpose_b):
    # the registry's operands: `a` C-ordered or a transposed (G,k,m) layout,
    # `b` stored as its flag says
    rng = np.random.default_rng(0)
    fn, arrays = OP_CASES["bmm"].build(rng, *dims, a_transposed, transpose_b)
    a, b = (Tensor(x, requires_grad=True) for x in arrays)
    bm = b.data.transpose(0, 2, 1) if transpose_b else b.data
    y = fn(a, b)
    np.testing.assert_array_equal(y.data, np.matmul(a.data, bm))
    grads = backward(dot(y, rng.standard_normal(y.shape)))
    assert [grads[t].shape for t in (a, b)] == [a.shape, b.shape]
    check_op_gradient("bmm", (*dims, a_transposed, transpose_b))


def test_bmm_flags_check_the_read_shapes():
    a, b = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 5, 4)))
    with pytest.raises(ShapeError):
        T.bmm(a, b)
    assert T.bmm(a, b, transpose_b=True).shape == (2, 3, 5)
    with pytest.raises(ShapeError):
        T.bmm(a, Tensor(np.ones((2, 4, 5))), transpose_b=True)


def test_repeated_gradients_add_up_without_touching_shared_arrays():
    # `add` hands one array to both inputs and `reshape` a view of it, so
    # x's four contributions arrive as aliases of the gradients that w and
    # u also receive; summing x's in place must leave theirs alone
    rng = np.random.default_rng(13)
    x, w, u = (Tensor(rng.standard_normal((2, 3)), requires_grad=True) for _ in range(3))
    proj = rng.standard_normal((2, 3))
    y = T.add(T.add(x, w), T.add(x, T.reshape(T.reshape(x, (3, 2)), (2, 3))))
    grads = backward(dot(T.add(T.add(y, x), u), proj))
    np.testing.assert_array_equal(grads[x], proj + proj + proj + proj)
    for t in (w, u):
        np.testing.assert_array_equal(grads[t], proj)


def test_concat_backward_splits_gradient():
    rng = np.random.default_rng(10)
    parts = [Tensor(rng.standard_normal((k, 2, 3)), requires_grad=True) for k in (1, 2, 4)]
    joined = T.concat(parts)
    assert joined.shape == (7, 2, 3)
    np.testing.assert_array_equal(joined.data[1:3], parts[1].data)
    w = rng.standard_normal((7, 2, 3))
    grads = backward(dot(joined, w))
    for part, rows in zip(parts, (slice(0, 1), slice(1, 3), slice(3, 7))):
        np.testing.assert_array_equal(grads[part], w[rows])


def test_concat_refuses_parts_that_differ_past_the_first_axis():
    with pytest.raises(ShapeError, match="past the first axis"):
        T.concat([Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 3, 2)))])
    with pytest.raises(ShapeError, match="past the first axis"):
        T.concat([Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 2)))])


def test_reshape_backward():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    z = T.reshape(x, (6, 4))
    grads = backward(dot(z))
    np.testing.assert_array_equal(grads[x], np.ones((2, 3, 4)))


def test_gradient_accumulates_across_uses():
    # x feeds two branches; contributions must add
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = dot(x * 3.0) + dot(x, x)
    grads = backward(loss)
    np.testing.assert_allclose(grads[x], 3.0 + 2.0 * x.data)


def test_no_grad_suppresses_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = dot(x * 2.0)
    assert y.op is None and not y.requires_grad


def test_tape_is_topological_and_visits_once():
    x = Tensor(np.ones(4), requires_grad=True)
    y = x * 2.0
    z = y + y  # diamond: y consumed twice
    loss = dot(z)
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
    grads = backward(dot(x), leaves=[x, unused])
    np.testing.assert_array_equal(grads[unused], np.zeros(5))


def test_replay_same_graph_is_bit_identical():
    rng = np.random.default_rng(12)
    data = rng.standard_normal((3, 5))
    w = rng.standard_normal((5, 5))

    def run():
        x = Tensor(data.T[None], requires_grad=True)
        y = T.gelu(F.linear(x, Tensor(w.T), Tensor(np.zeros(5))))
        loss = dot(y, y) * (1.0 / y.size)
        return loss.item(), backward(loss)[x]

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


def test_a_graph_is_differentiated_once():
    # the sweep consumes the records it runs: the same loss again, or a new
    # loss over an intermediate already swept, raises instead of repeating
    # the first result or giving zeros; the leaves go on into new graphs
    x = Tensor(np.linspace(-1.5, 1.5, 5), requires_grad=True)

    def square_of_gelu():
        y = T.gelu(x)
        return y, dot(y, y)

    y, loss = square_of_gelu()
    first = backward(loss)[x]
    with pytest.raises(GraphError):
        backward(loss)
    with pytest.raises(GraphError):
        backward(dot(y * 2.0), leaves=[x])
    assert backward(square_of_gelu()[1])[x].tobytes() == first.tobytes()


def test_backward_releases_what_its_records_held():
    # the caller still holds the loss; its record would keep every tensor
    # and every array a rule saved alive, the gelu output among them
    x = Tensor(np.linspace(-1.5, 1.5, 6), requires_grad=True)
    y = T.gelu(x)
    held = weakref.ref(y.data)
    loss = dot(y, y)
    del y
    assert held() is not None
    grads = backward(loss)
    assert held() is None
    assert loss.op.inputs == () and set(grads) == {x}


def test_leaf_map_holds_exactly_the_grad_enabled_leaves_reached():
    x = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.arange(3.0))  # reached, but needs no gradient
    assert list(backward(dot(x + c, x))) == [x]
    # a loss without a record is its own leaf, if it needs a gradient
    leaf = Tensor(np.full((1, 1, 1), 2.0), requires_grad=True)
    grads = backward(leaf)
    assert list(grads) == [leaf] and grads[leaf].tolist() == [[[1.0]]]
    assert backward(Tensor(np.ones(1))) == {}


class TestElementwiseGradients:
    """Each rule against central differences on smooth random points."""

    @staticmethod
    def _numeric(fn, x, h=1e-5):
        return (fn(x + h) - fn(x - h)) / (2.0 * h)

    def test_sigmoid(self):
        # the dice backward takes sigmoid'(x) as sigmoid(x) * sigmoid(-x)
        x = np.linspace(-4, 4, 9)
        p, q, _ = T.sigmoid_parts(x)
        numeric = self._numeric(lambda t: T.sigmoid_parts(t)[0], x)
        np.testing.assert_allclose(p * q, numeric, atol=1e-9)

    def test_logsigmoid(self):
        # the focal backward takes (log sigmoid)'(x) as sigmoid(-x)
        x = np.linspace(-4, 4, 9)
        numeric = self._numeric(
            lambda t: np.minimum(t, 0.0) - np.log1p(T.sigmoid_parts(t)[2]), x)
        np.testing.assert_allclose(T.sigmoid_parts(x)[1], numeric, atol=1e-9)

    def test_gelu(self):
        check_op_gradient("gelu", ((13,),))


def test_sigmoid_saturates_without_overflow():
    x = np.array([-800.0, 0.0, 800.0])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        p, q, exp_neg = T.sigmoid_parts(x)
        ls = np.minimum(x, 0.0) - np.log1p(exp_neg)
    np.testing.assert_array_equal(p, [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(q, [1.0, 0.5, 0.0])
    np.testing.assert_allclose(ls, [-800.0, -np.log(2.0), 0.0], atol=1e-12)


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_item_reads_every_one_element_shape(shape):
    assert Tensor(np.full(shape, 2.5)).item() == 2.5


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
    np.testing.assert_allclose(backward(dot(y, g))[xt], g * slope,
                               rtol=1e-14, atol=1e-14)


def test_gelu_saturates_exactly():
    x = Tensor(np.array([1e3, -1e3]), requires_grad=True)
    y = T.gelu(x)
    assert y.data[0] == 1e3 and y.data[1] == 0.0
    grad = backward(dot(y))[x]
    assert np.all(np.isfinite(grad))
    np.testing.assert_array_equal(grad, [1.0, 0.0])
