"""Tests for unbalanced OT (repro.ot.unbalanced)."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.ot import (
    sinkhorn_log,
    sinkhorn_unbalanced,
    sinkhorn_unbalanced_log_kernel,
)


def random_problem(n, m, seed=0):
    rng = np.random.default_rng(seed)
    cost = rng.random((n, m))
    mu = rng.dirichlet(np.ones(n))
    nu = rng.dirichlet(np.ones(m))
    return cost, mu, nu


class TestUnbalancedSinkhorn:
    def test_plan_nonnegative_finite(self):
        cost, mu, nu = random_problem(6, 8)
        result = sinkhorn_unbalanced(cost, mu, nu, epsilon=0.1, rho=1.0)
        assert np.all(result.plan >= 0)
        assert np.all(np.isfinite(result.plan))

    def test_large_rho_approaches_balanced(self):
        cost, mu, nu = random_problem(5, 5, seed=1)
        balanced = sinkhorn_log(cost, mu, nu, epsilon=0.1, max_iter=5000).plan
        relaxed = sinkhorn_unbalanced(
            cost, mu, nu, epsilon=0.1, rho=1000.0, max_iter=5000
        ).plan
        np.testing.assert_allclose(relaxed, balanced, atol=5e-3)

    def test_small_rho_sheds_mass_from_expensive_rows(self):
        """A row whose every target is expensive should lose mass."""
        cost = np.full((3, 3), 0.1)
        cost[0, :] = 10.0  # node 0 has no cheap partner
        mu = nu = np.full(3, 1 / 3)
        plan = sinkhorn_unbalanced(cost, mu, nu, epsilon=0.05, rho=0.1).plan
        assert plan[0].sum() < 0.5 * plan[1].sum()

    def test_accepts_unnormalised_marginals(self):
        cost, _, _ = random_problem(4, 4, seed=2)
        mu = np.array([1.0, 2.0, 1.0, 0.5])
        nu = np.array([0.5, 0.5, 2.0, 1.0])
        result = sinkhorn_unbalanced(cost, mu, nu, epsilon=0.1, rho=0.5)
        assert result.plan.sum() > 0

    def test_convergence_checked_on_final_iteration(self):
        """Regression: ``max_iter % 10 != 0`` used to skip the last
        convergence check, reporting converged=False after converging."""
        cost, mu, nu = random_problem(5, 5, seed=6)
        long = sinkhorn_unbalanced(
            cost, mu, nu, epsilon=0.1, rho=1.0, max_iter=1000, tol=1e-9
        )
        assert long.converged
        # rerun with a budget ending past the converged iterate but off
        # the every-10th grid: the final-iteration check must fire
        odd_budget = long.n_iterations + 1
        if odd_budget % 10 == 0:
            odd_budget += 1
        clipped = sinkhorn_unbalanced(
            cost, mu, nu, epsilon=0.1, rho=1.0, max_iter=odd_budget, tol=1e-9
        )
        assert clipped.converged

    def test_err_is_relaxed_fixed_point_residual(self):
        """A converged small-rho run must report a small residual: the
        balanced row-marginal error is large by design there."""
        cost, mu, nu = random_problem(6, 6, seed=7)
        result = sinkhorn_unbalanced(
            cost, mu, nu, epsilon=0.1, rho=0.05, max_iter=5000, tol=1e-12
        )
        assert result.converged
        assert result.marginal_error < 1e-8
        # the balanced residual really is large for this run — the old
        # reporting would have called this "error"
        balanced_residual = float(
            np.abs(result.plan.sum(axis=1) - mu).sum()
        )
        assert balanced_residual > 1e-2

    def test_parameter_validation(self):
        cost, mu, nu = random_problem(3, 3)
        with pytest.raises(ValueError):
            sinkhorn_unbalanced(cost, mu, nu, epsilon=-1.0)
        with pytest.raises(ValueError):
            sinkhorn_unbalanced(cost, mu, nu, rho=0.0)
        with pytest.raises(ShapeError):
            sinkhorn_unbalanced(cost, mu[:2], nu)


class TestUnbalancedLogKernel:
    """The log-domain scaling behind the partial-unbalanced backend."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_linear_domain_on_moderate_kernels(self, seed):
        """Same fixed point as :func:`sinkhorn_unbalanced` when the
        kernel is small enough for the linear domain to survive."""
        cost, mu, nu = random_problem(6, 7, seed=seed)
        eps, rho = 0.1, 1.0
        linear = sinkhorn_unbalanced(
            cost, mu, nu, epsilon=eps, rho=rho, max_iter=5000, tol=1e-13
        )
        log_kernel = -cost / eps + np.log(np.outer(mu, nu))
        logd = sinkhorn_unbalanced_log_kernel(
            log_kernel, mu, nu, epsilon=eps, rho=rho, max_iter=5000, tol=1e-13
        )
        np.testing.assert_allclose(logd.plan, linear.plan, atol=1e-12)

    def test_fixed_point_residual_decreases_with_iterations(self):
        """The generalised scaling (exponent < 1) is a contraction: the
        reported residual must shrink monotonically to ~0."""
        rng = np.random.default_rng(5)
        log_kernel = rng.normal(scale=30.0, size=(8, 8))
        log_kernel -= log_kernel.max()
        mu = rng.dirichlet(np.ones(8))
        nu = rng.dirichlet(np.ones(8))
        residuals = [
            sinkhorn_unbalanced_log_kernel(
                log_kernel, mu, nu, epsilon=0.5, rho=1.0,
                max_iter=budget, tol=0.0,
            ).marginal_error
            for budget in (5, 20, 80)
        ]
        assert residuals[1] <= residuals[0]
        assert residuals[2] <= residuals[1]
        assert residuals[-1] < 1e-8

    def test_kernel_shift_rescales_mass_by_the_documented_law(self):
        """The unbalanced fixed point is NOT shift-invariant: adding a
        constant ``c`` to the log kernel multiplies the plan's total
        mass by ``exp(c(1−x)/(1+x))`` for scaling exponent
        ``x = ρ/(ρ+ε)``.  This is exactly why the partial-unbalanced
        backend pins ``max(log_kernel) = 0`` before projecting — a pin
        on the rationale, not just the workaround."""
        rng = np.random.default_rng(7)
        log_kernel = rng.normal(scale=20.0, size=(6, 6))
        log_kernel -= log_kernel.max()
        mu = rng.dirichlet(np.ones(6))
        nu = rng.dirichlet(np.ones(6))
        eps, rho, shift = 0.5, 1.0, 2.0
        base = sinkhorn_unbalanced_log_kernel(
            log_kernel, mu, nu, epsilon=eps, rho=rho, max_iter=5000, tol=1e-14
        )
        shifted = sinkhorn_unbalanced_log_kernel(
            log_kernel + shift, mu, nu,
            epsilon=eps, rho=rho, max_iter=5000, tol=1e-14,
        )
        exponent = rho / (rho + eps)
        predicted = np.exp(shift * (1.0 - exponent) / (1.0 + exponent))
        assert shifted.plan.sum() / base.plan.sum() == pytest.approx(
            predicted, rel=1e-10
        )

    def test_survives_log_scales_that_underflow_linear_kernels(self):
        """A kernel hundreds of nats deep (the proximal π-update's
        reality) must still produce a finite, massive plan."""
        rng = np.random.default_rng(9)
        log_kernel = rng.normal(scale=200.0, size=(7, 7))
        log_kernel -= log_kernel.max()
        mu = rng.dirichlet(np.ones(7))
        nu = rng.dirichlet(np.ones(7))
        result = sinkhorn_unbalanced_log_kernel(
            log_kernel, mu, nu, epsilon=1.0, rho=1.0, max_iter=500, tol=1e-12
        )
        assert np.all(np.isfinite(result.plan))
        assert np.all(result.plan >= 0)
        assert result.plan.sum() > 0

    def test_parameter_validation(self):
        rng = np.random.default_rng(3)
        log_kernel = rng.normal(size=(4, 4))
        mu = rng.dirichlet(np.ones(4))
        nu = rng.dirichlet(np.ones(4))
        with pytest.raises(ValueError):
            sinkhorn_unbalanced_log_kernel(log_kernel, mu, nu, epsilon=0.0)
        with pytest.raises(ValueError):
            sinkhorn_unbalanced_log_kernel(
                log_kernel, mu, nu, epsilon=1.0, rho=-1.0
            )
        with pytest.raises(ShapeError):
            sinkhorn_unbalanced_log_kernel(
                log_kernel[0], mu, nu, epsilon=1.0
            )
