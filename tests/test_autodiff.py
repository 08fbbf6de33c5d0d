"""Tests for the autodiff engine (repro.autodiff)."""

import numpy as np
import pytest

from repro.autodiff import Adam, Linear, Tensor, concatenate
from repro.autodiff.functional import (
    info_nce_loss,
    l2_normalize,
    log_softmax,
    margin_ranking_loss,
    mse_loss,
    softmax,
)


def numeric_grad(fn, x, eps=1e-6):
    """Central finite differences of a scalar function of an ndarray."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = x.copy()
        plus[idx] += eps
        minus = x.copy()
        minus[idx] -= eps
        grad[idx] = (fn(plus) - fn(minus)) / (2 * eps)
        it.iternext()
    return grad


def check_gradient(build_loss, shape, seed=0, atol=1e-5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    t = Tensor(x, requires_grad=True)
    loss = build_loss(t)
    loss.backward()
    numeric = numeric_grad(lambda arr: build_loss(Tensor(arr)).item(), x)
    np.testing.assert_allclose(t.grad, numeric, atol=atol)


class TestElementwiseGradients:
    def test_add_mul(self):
        check_gradient(lambda t: ((t * 3.0) + 1.0).sum(), (3, 4))

    def test_sub_div(self):
        check_gradient(lambda t: ((t - 2.0) / 4.0).sum(), (2, 5))

    def test_pow(self):
        check_gradient(lambda t: (t**3).sum(), (4,), seed=1)

    def test_exp_log(self):
        check_gradient(lambda t: (t.exp() + (t * t + 1.0).log()).sum(), (3, 3), seed=2)

    def test_relu(self):
        check_gradient(lambda t: (t.relu() * t.relu()).sum(), (5, 2), seed=3)

    def test_sigmoid_tanh(self):
        check_gradient(lambda t: (t.sigmoid() * t.tanh()).sum(), (4, 3), seed=4)

    def test_abs(self):
        # keep away from the kink at 0
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 3)) + np.sign(rng.standard_normal((3, 3))) * 0.5
        t = Tensor(x, requires_grad=True)
        t.abs().sum().backward()
        np.testing.assert_allclose(t.grad, np.sign(x))

    def test_maximum(self):
        check_gradient(
            lambda t: t.maximum(Tensor(np.zeros((3, 3)))).sum(), (3, 3), seed=6
        )


class TestMatmulAndShape:
    def test_matmul_gradients_both_sides(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)))

    def test_transpose(self):
        check_gradient(lambda t: (t.T @ t).sum(), (3, 4), seed=8)

    def test_reshape(self):
        check_gradient(lambda t: (t.reshape(6) * np.arange(6)).sum(), (2, 3), seed=9)

    def test_getitem_accumulates(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        idx = np.array([0, 0, 3])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0, 0, 1.0, 0])

    def test_broadcasting_bias(self):
        rng = np.random.default_rng(10)
        w = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        (w + b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full(3, 4.0))

    def test_concatenate(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = concatenate([a, b], axis=0)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, 2.0)
        np.testing.assert_allclose(b.grad, 2.0)

    def test_mean_axis(self):
        check_gradient(lambda t: t.mean(axis=1).sum(), (3, 5), seed=11)


class TestEngine:
    def test_diamond_graph_grad_accumulation(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        z = y + y  # y used twice
        z.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_detach_cuts_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x.detach() * x).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(3))

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_no_grad_when_not_required(self):
        x = Tensor(np.ones(3))
        y = (x * 2).sum()
        assert y._backward is None


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        out = softmax(Tensor(np.random.default_rng(12).standard_normal((4, 5))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0)

    def test_log_softmax_consistent(self):
        x = Tensor(np.random.default_rng(13).standard_normal((3, 4)))
        np.testing.assert_allclose(
            log_softmax(x).data, np.log(softmax(x).data), atol=1e-10
        )

    def test_log_softmax_gradient(self):
        check_gradient(lambda t: log_softmax(t, axis=1).sum(), (3, 4), seed=14)

    def test_l2_normalize(self):
        out = l2_normalize(Tensor(np.random.default_rng(15).standard_normal((4, 6))))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-9)

    def test_mse_loss(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = mse_loss(pred, np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)

    def test_margin_ranking_loss_zero_when_separated(self):
        pos = Tensor(np.array([5.0, 5.0]))
        neg = Tensor(np.array([0.0, 0.0]))
        assert margin_ranking_loss(pos, neg, margin=1.0).item() == 0.0

    def test_margin_ranking_loss_positive_when_violated(self):
        pos = Tensor(np.array([0.0]))
        neg = Tensor(np.array([0.5]))
        assert margin_ranking_loss(pos, neg, margin=1.0).item() == pytest.approx(1.5)

    def test_info_nce_prefers_matched_pairs(self):
        rng = np.random.default_rng(16)
        anchor = rng.standard_normal((6, 4))
        aligned = info_nce_loss(Tensor(anchor), Tensor(anchor.copy()))
        shuffled = info_nce_loss(Tensor(anchor), Tensor(anchor[::-1].copy()))
        assert aligned.item() < shuffled.item()

    def test_info_nce_invalid_temperature(self):
        with pytest.raises(ValueError):
            info_nce_loss(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))), 0.0)


class TestModulesAndOptim:
    def test_linear_learns_regression(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((50, 3))
        true_w = np.array([[1.0], [-2.0], [0.5]])
        y = x @ true_w
        model = Linear(3, 1, seed=0)
        optim = Adam(model.parameters(), lr=0.05)
        for _ in range(300):
            pred = model(Tensor(x))
            loss = mse_loss(pred, y)
            model.zero_grad()
            loss.backward()
            optim.step()
        np.testing.assert_allclose(model.weight.data, true_w, atol=0.05)

    def test_optimizer_rejects_empty(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_adam_rejects_bad_lr(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError):
            Adam([x], lr=-1.0)
