"""The finite-difference oracle itself, plus a deliberately broken rule."""

import numpy as np
import pytest

from cftseg import Tensor, backward, finite_diff_grad, max_rel_error
from cftseg.gradcheck import check_gradients
import cftseg.functional as F
import cftseg.tensor as T
from scalar import dot


def test_gradient_of_sum_is_ones():
    x = Tensor(np.arange(5.0))
    np.testing.assert_allclose(finite_diff_grad(dot, x),
                               np.ones(5), atol=1e-9)


def test_gradient_of_half_norm_squared_is_x():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((3, 3)))
    g = finite_diff_grad(lambda t: dot(t, t) * 0.5, x)
    np.testing.assert_allclose(g, x.data, atol=1e-8)


def test_perturbation_is_restored_exactly():
    data = np.array([0.1, -0.7, 2.3])
    x = Tensor(data)
    before = x.data.copy()
    finite_diff_grad(lambda t: dot(t, t), x)
    np.testing.assert_array_equal(x.data, before)


def test_gradient_on_non_c_ordered_storage():
    # Tensor keeps an F-ordered array's layout; the probes must still reach it
    x = Tensor(np.arange(12.0).reshape(3, 4).T)
    assert not x.data.flags.c_contiguous
    w = np.random.default_rng(3).standard_normal(x.shape)
    np.testing.assert_allclose(finite_diff_grad(lambda t: dot(t, w), x), w, atol=1e-9)


def test_input_is_restored_when_f_raises():
    x = Tensor(np.array([0.1, -0.7, 2.3]))
    before = x.data.copy()
    calls = []

    def f(t):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("fails partway")
        return dot(t)

    with pytest.raises(RuntimeError, match="partway"):
        finite_diff_grad(f, x)
    np.testing.assert_array_equal(x.data, before)


def test_check_gradients_reports_per_group():
    rng = np.random.default_rng(1)
    w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    x = Tensor(rng.standard_normal((6, 4)))

    def loss_fn():
        # x @ w as one (1, 6, 4) product; row i is picked by a one-hot row
        h = T.bmm(Tensor(x.data[None]), T.reshape(w, (1, 4, 4)))
        rows = [T.reshape(T.bmm(Tensor(np.eye(6)[None, i:i + 1]), h), (4,)) + b
                for i in range(6)]
        return dot(T.gelu(T.concat(rows)))

    rows = check_gradients(loss_fn, {"w": w, "b": b}, coords_per_tensor=6, seed=7)
    assert {r.name for r in rows} == {"w", "b"}
    for r in rows:
        assert r.passed(1e-4), (r.name, r.max_rel_error)


def test_linear_only_model_is_exact_to_1e10():
    # a purely linear chain: finite differences are exact up to rounding
    rng = np.random.default_rng(2)
    w = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
    x = Tensor(rng.standard_normal((5,)))
    proj = Tensor(rng.standard_normal((5,)))

    def loss_fn():
        y = F.linear(T.reshape(x, (1, 5, 1)), w, Tensor(np.zeros(5)))
        return dot(T.reshape(y, (5,)), proj)

    grads = backward(loss_fn())
    numeric = finite_diff_grad(lambda _: loss_fn(), w, h=1e-3)
    assert max_rel_error(grads[w], numeric) < 1e-10


def test_broken_backward_rule_is_flagged():
    # an op whose backward returns 1.1x the true gradient must fail the check
    def leaky_double(t: Tensor) -> Tensor:
        return Tensor._result(t.data * 2.0, (t,), "leaky_double",
                              lambda g: (g * 2.2,))

    x = Tensor(np.linspace(-1.0, 1.0, 8), requires_grad=True)

    def loss_fn():
        return dot(leaky_double(x), x.data)

    rows = check_gradients(loss_fn, {"x": x}, coords_per_tensor=8)
    assert not rows[0].passed(1e-4)


def test_max_rel_error_floor_handles_near_zero_pairs():
    assert max_rel_error(np.zeros(3), np.full(3, 1e-9)) < 1e-4
    assert max_rel_error(np.ones(3), np.full(3, 1.1)) > 1e-2
