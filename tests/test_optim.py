"""Schedule endpoints and AdamW update rules, including the scalar quadratic."""

import numpy as np
import pytest

from cftseg import Tensor
from cftseg.errors import ConfigError, DivergedError
import cftseg.optim as O
import cftseg.tensor as T
from scalar import dot


def adamw_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray,
               v: np.ndarray, step: int, lr: float,
               weight_decay: float = 0.0) -> None:
    """One in-place AdamW update of one parameter, the oracle of the flat
    `AdamW`; step counts from 1 for bias correction."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    param -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * param)


class TestPolyLr:
    def test_endpoints_exact(self):
        assert O.poly_lr(6e-5, 0, 500) == 6e-5
        assert O.poly_lr(6e-5, 500, 500) == 0.0

    def test_linear_midpoint(self):
        assert O.poly_lr(1e-3, 250, 500, power=1.0) == 0.5e-3

    def test_power_bends_the_curve(self):
        np.testing.assert_allclose(O.poly_lr(1.0, 250, 500, power=2.0), 0.25)
        assert O.poly_lr(1.0, 100, 500, power=0.5) == (0.8) ** 0.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            O.poly_lr(0.0, 0, 10)
        with pytest.raises(ConfigError):
            O.poly_lr(1e-3, 0, 0)
        with pytest.raises(ValueError):
            O.poly_lr(1e-3, 11, 10)


class TestAdamWStep:
    def test_first_step_matches_hand_formula(self):
        param = np.array([1.0, -2.0])
        grad = np.array([0.3, -0.1])
        m = np.zeros(2)
        v = np.zeros(2)
        adamw_step(param, grad, m, v, step=1, lr=0.01)
        m_hat = grad  # (1-b1)g / (1-b1)
        v_hat = grad * grad
        want = np.array([1.0, -2.0]) - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_array_equal(param, want)

    def test_zero_grads_fresh_moments_leave_params_alone(self):
        param = np.array([0.5])
        m, v = np.zeros(1), np.zeros(1)
        adamw_step(param, np.zeros(1), m, v, step=1, lr=0.1)
        np.testing.assert_array_equal(param, [0.5])

    def test_zero_grads_with_decay_shrink_by_lr_wd(self):
        param = np.array([2.0])
        m, v = np.zeros(1), np.zeros(1)
        adamw_step(param, np.zeros(1), m, v, step=1, lr=0.1, weight_decay=0.05)
        np.testing.assert_allclose(param, [2.0 * (1.0 - 0.1 * 0.05)], rtol=1e-15)

    def test_moments_decay_under_zero_grads(self):
        m, v = np.array([1.0]), np.array([1.0])
        adamw_step(np.zeros(1), np.zeros(1), m, v, step=5, lr=0.0)
        np.testing.assert_allclose(m, [0.9])
        np.testing.assert_allclose(v, [0.999])

    def test_quadratic_converges_within_200_steps(self):
        x = np.array([1.0])
        m, v = np.zeros(1), np.zeros(1)
        for step in range(1, 201):
            adamw_step(x, 2.0 * x.copy(), m, v, step=step, lr=0.1)
        assert abs(x[0]) < 1e-3


class TestAdamWClass:
    @staticmethod
    def driver(seed=0):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        return {"a": a, "b": b}

    def test_matches_functional_core(self):
        params = self.driver()
        shadow = {k: p.data.copy() for k, p in params.items()}
        sm = {k: np.zeros(4) for k in params}
        sv = {k: np.zeros(4) for k in params}
        opt = O.AdamW(params, weight_decay=0.01)
        rng = np.random.default_rng(1)
        for step in range(1, 4):
            grads = {p: rng.standard_normal(4) for p in params.values()}
            opt.step(grads, lr=0.05)
            for k, p in params.items():
                adamw_step(shadow[k], grads[p], sm[k], sv[k], step,
                             lr=0.05, weight_decay=0.01)
                np.testing.assert_array_equal(p.data, shadow[k])

    def test_drives_a_loss_downhill(self):
        params = self.driver(seed=2)
        opt = O.AdamW(params)
        target = np.arange(4.0)

        def loss_value():
            diff = params["a"] + params["b"] + Tensor(-target)
            return dot(diff, diff)

        first = loss_value().item()
        for _ in range(50):
            loss = loss_value()
            opt.step(T.backward(loss, leaves=list(params.values())), lr=0.05)
        assert loss_value().item() < first * 0.05


class TestFlatAdamW:
    """Parameters and moments live in flat vectors; results match
    `adamw_step` applied per parameter, bit for bit."""

    @staticmethod
    def model_params(seed=0):
        from cftseg.model import ModelConfig, SegModel
        config = ModelConfig(num_categories=3, embed_channels=8, num_heads=2,
                             ffn_ratio=2, backbone_channels=(4, 6, 8, 10))
        model = SegModel(config, rng=np.random.default_rng(seed),
                         zero_residual_paths=False)
        return model.named_parameters()

    def test_every_parameter_and_moment_is_a_view_of_a_flat_buffer(self):
        params = self.model_params()
        before = {name: p.data.copy() for name, p in params.items()}
        opt = O.AdamW(params)
        flat = (opt._param, opt._m, opt._v)
        assert all(buf.ndim == 1 and buf.flags.c_contiguous for buf in flat)
        assert opt._param.size == sum(p.size for p in params.values())
        for name, p in params.items():
            np.testing.assert_array_equal(p.data, before[name])
            assert np.shares_memory(p.data, opt._param), name
            assert np.shares_memory(opt.m[name], opt._m), name
            assert np.shares_memory(opt.v[name], opt._v), name
        opt._param[:] = 0.0
        assert all(not p.data.any() for p in params.values())

    def test_steps_match_per_parameter_adamw_step_bit_for_bit(self):
        params = self.model_params(seed=1)
        shadow = {k: p.data.copy() for k, p in params.items()}
        sm = {k: np.zeros_like(a) for k, a in shadow.items()}
        sv = {k: np.zeros_like(a) for k, a in shadow.items()}
        opt = O.AdamW(params, weight_decay=0.01)
        rng = np.random.default_rng(2)
        for step in range(1, 6):
            lr = 1e-3 / step
            grads = {p: rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 2)
                     for p in params.values()}
            opt.step(grads, lr=lr)
            for k, p in params.items():
                adamw_step(shadow[k], grads[p], sm[k], sv[k], step,
                             lr=lr, weight_decay=0.01)
                np.testing.assert_array_equal(p.data, shadow[k], err_msg=k)
                np.testing.assert_array_equal(opt.m[k], sm[k], err_msg=k)
                np.testing.assert_array_equal(opt.v[k], sv[k], err_msg=k)

    def test_state_array_keys_and_shapes_are_per_parameter(self):
        from cftseg.checkpoint import model_state
        params = self.model_params()
        opt = O.AdamW(params)
        state = {k: a for k, a in model_state(params, opt).items()
                 if k.startswith("adam_")}
        want = [f"adam_{which}/{name}" for name in params for which in "mv"]
        assert list(state) == want
        for name, p in params.items():
            assert state[f"adam_m/{name}"].shape == p.shape
            assert state[f"adam_v/{name}"].shape == p.shape

    def test_non_finite_gradient_updates_nothing(self):
        params = TestAdamWClass.driver(seed=4)
        opt = O.AdamW(params)
        before = {k: p.data.copy() for k, p in params.items()}
        grads = {p: np.ones(4) for p in params.values()}
        grads[params["b"]][2] = np.inf
        with pytest.raises(DivergedError, match="non-finite gradient in b") as err:
            opt.step(grads, lr=0.01)
        assert err.value.diagnostics == {"reason": "non-finite gradient",
                                         "parameter": "b"}
        assert opt.step_count == 0
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, before[k])
        assert not opt._m.any() and not opt._v.any()

    def test_non_finite_parameter_after_the_update_is_named(self):
        params = TestAdamWClass.driver(seed=5)
        opt = O.AdamW(params)
        params["b"].data[1] = np.nan
        grads = {p: np.ones(4) for p in params.values()}
        with pytest.raises(DivergedError, match="non-finite parameter in b") as err:
            opt.step(grads, lr=0.01)
        assert err.value.diagnostics["parameter"] == "b"
