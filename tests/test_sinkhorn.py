"""Tests for Sinkhorn solvers (repro.ot.sinkhorn)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConvergenceError, ShapeError
from repro.ot import (
    emd,
    sinkhorn_log,
    sinkhorn_log_kernel_fast,
    transport_cost,
)
from repro.ot.sinkhorn import _SUBNORMAL_FLUSH, SinkhornResult


def random_problem(n, m, seed=0):
    rng = np.random.default_rng(seed)
    cost = rng.random((n, m))
    mu = rng.dirichlet(np.ones(n))
    nu = rng.dirichlet(np.ones(m))
    return cost, mu, nu


class TestSinkhornLog:
    def test_stable_at_tiny_epsilon(self):
        cost, mu, nu = random_problem(6, 6, seed=4)
        result = sinkhorn_log(cost, mu, nu, epsilon=1e-3, max_iter=5000)
        assert np.all(np.isfinite(result.plan))
        np.testing.assert_allclose(result.plan.sum(axis=1), mu, atol=1e-5)

    def test_approaches_emd_as_epsilon_shrinks(self):
        cost, mu, nu = random_problem(5, 5, seed=5)
        exact_plan = emd(cost, mu, nu)
        exact_cost = transport_cost(exact_plan, cost)
        loose = transport_cost(
            sinkhorn_log(cost, mu, nu, epsilon=0.5, max_iter=2000).plan, cost
        )
        tight = transport_cost(
            sinkhorn_log(cost, mu, nu, epsilon=0.005, max_iter=20000).plan, cost
        )
        assert abs(tight - exact_cost) < abs(loose - exact_cost)
        assert abs(tight - exact_cost) < 1e-2

    def test_log_kernel_entry_point(self):
        _, mu, nu = random_problem(4, 6, seed=6)
        log_kernel = np.zeros((4, 6))
        result = sinkhorn_log(None, mu, nu, log_kernel=log_kernel)
        # projecting the uniform kernel gives the independent coupling
        np.testing.assert_allclose(result.plan, np.outer(mu, nu), atol=1e-8)

    def test_nan_kernel_rejected(self):
        _, mu, nu = random_problem(3, 3)
        log_kernel = np.full((3, 3), np.nan)
        with pytest.raises(ConvergenceError):
            sinkhorn_log(None, mu, nu, log_kernel=log_kernel)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=2, max_value=10))
    def test_marginals_property(self, n, m):
        cost, mu, nu = random_problem(n, m, seed=n * 31 + m)
        result = sinkhorn_log(cost, mu, nu, epsilon=0.1, max_iter=2000)
        np.testing.assert_allclose(result.plan.sum(axis=1), mu, atol=1e-5)
        np.testing.assert_allclose(result.plan.sum(axis=0), nu, atol=1e-5)


def _reference_kernel_fast(log_kernel, mu, nu, max_iter=50, tol=0.0):
    """Straightforward serial loop: the bitwise anchor for the
    buffer-reusing implementation.

    Pins the loop restructuring (reused matvec buffers, recycled
    convergence-check products) and the skipped exponentials (this
    reference exponentiates every entry) — the subnormal flush is a
    documented semantic change shared with this reference, not covered
    by the pin (see DESIGN.md, "Bitwise policy")."""
    log_k = np.asarray(log_kernel, dtype=np.float64)
    row_max = log_k.max(axis=1, keepdims=True)
    kernel = np.exp(log_k - row_max)
    kernel[kernel < _SUBNORMAL_FLUSH] = 0.0  # shared flush semantics
    tiny = 1e-300
    u = np.ones_like(mu)
    v = np.ones_like(nu)
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        u = mu / np.maximum(kernel @ v, tiny)
        v = nu / np.maximum(kernel.T @ u, tiny)
        if tol > 0 and iteration % 10 == 0:
            err = float(np.abs(u * (kernel @ v) - mu).sum())
            if err < tol:
                converged = True
                break
    u = mu / np.maximum(kernel @ v, tiny)
    plan = u[:, None] * kernel * v[None, :]
    plan[plan < _SUBNORMAL_FLUSH] = 0.0
    # the closing u-update makes the rows exact: report the columns,
    # and converge only through the in-loop tolerance check
    err = float(np.abs(plan.sum(axis=0) - nu).sum())
    return SinkhornResult(plan, iteration, err, converged)


class TestKernelFastBitwise:
    """The optimised scaling loop (reused matvec buffers, recycled
    convergence-check products) must match the serial reference bit for
    bit — iteration counts, marginal errors and every plan entry."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 120))
        m = int(rng.integers(5, 120))
        sharpness = rng.uniform(0.5, 40.0)
        log_kernel = rng.standard_normal((n, m)) * sharpness
        mu = np.full(n, 1.0 / n)
        nu = np.full(m, 1.0 / m)
        for tol in (0.0, 1e-9, 1e-4):
            for max_iter in (7, 30, 100):
                fast = sinkhorn_log_kernel_fast(
                    log_kernel, mu, nu, max_iter=max_iter, tol=tol
                )
                ref = _reference_kernel_fast(
                    log_kernel, mu, nu, max_iter=max_iter, tol=tol
                )
                np.testing.assert_array_equal(fast.plan, ref.plan)
                assert fast.n_iterations == ref.n_iterations
                assert fast.marginal_error == ref.marginal_error
                assert fast.converged == ref.converged

    def test_subnormal_kernel_entries_flushed(self):
        """Entries hundreds of nats below their row maximum become
        exact zeros instead of subnormals (the denormal-arithmetic
        hot-path fix), without disturbing the marginals."""
        rng = np.random.default_rng(99)
        log_kernel = rng.standard_normal((40, 40)) * 250.0
        mu = np.full(40, 1.0 / 40)
        result = sinkhorn_log_kernel_fast(log_kernel, mu, mu, max_iter=100, tol=1e-9)
        tiny_entries = (result.plan > 0) & (result.plan < _SUBNORMAL_FLUSH)
        assert not tiny_entries.any()
        np.testing.assert_allclose(result.plan.sum(axis=1), mu, atol=1e-12)

    def test_capped_call_reports_not_converged(self):
        """A call that exhausts ``max_iter`` is not converged, and its
        error is the column violation the closing row update leaves."""
        rng = np.random.default_rng(5)
        log_kernel = rng.standard_normal((30, 25)) * 40.0
        mu = np.full(30, 1.0 / 30)
        nu = np.full(25, 1.0 / 25)
        result = sinkhorn_log_kernel_fast(
            log_kernel, mu, nu, max_iter=10, tol=1e-9
        )
        assert result.n_iterations == 10
        assert not result.converged
        # rows are exact, so the row error alone would look converged
        assert np.abs(result.plan.sum(axis=1) - mu).sum() < 1e-9
        column_error = np.abs(result.plan.sum(axis=0) - nu).sum()
        assert result.marginal_error == column_error
        assert result.marginal_error > 1e-9

    def test_converged_call_stops_early(self):
        _, mu, nu = random_problem(6, 7, seed=8)
        log_kernel = np.zeros((6, 7))
        result = sinkhorn_log_kernel_fast(
            log_kernel, mu, nu, max_iter=100, tol=1e-9
        )
        assert result.converged
        assert result.n_iterations < 100
        assert result.marginal_error < 1e-9


class TestTransportCost:
    def test_value(self):
        plan = np.eye(2) / 2
        cost = np.array([[1.0, 5.0], [5.0, 3.0]])
        assert transport_cost(plan, cost) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            transport_cost(np.eye(2), np.eye(3))
