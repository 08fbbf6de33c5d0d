"""Tests for GW solvers (repro.ot.gromov) and fused GW."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ShapeError
from repro.graphs import erdos_renyi_graph, permute_graph
from repro.ot import (
    feature_cost_matrix,
    fused_gromov_wasserstein,
    gw_constant_term,
    gw_gradient,
    gw_objective,
    proximal_gromov_wasserstein,
)


def ring_distance_matrix(n):
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :])
    return np.minimum(d, n - d).astype(np.float64)


class TestTensorAlgebra:
    def test_constant_term_shape(self):
        ds, dt = np.ones((3, 3)), np.ones((4, 4))
        mu, nu = np.full(3, 1 / 3), np.full(4, 0.25)
        assert gw_constant_term(ds, dt, mu, nu).shape == (3, 4)

    def test_objective_zero_for_identical_spaces(self):
        d = ring_distance_matrix(6)
        mu = np.full(6, 1 / 6)
        plan = np.eye(6) / 6
        assert gw_objective(d, d, plan, mu=mu, nu=mu) == pytest.approx(0.0, abs=1e-12)

    def test_objective_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        n, m = 4, 5
        ds = rng.random((n, n))
        ds = (ds + ds.T) / 2
        dt = rng.random((m, m))
        dt = (dt + dt.T) / 2
        mu = np.full(n, 1 / n)
        nu = np.full(m, 1 / m)
        plan = np.outer(mu, nu)
        brute = sum(
            (ds[i, j] - dt[k, l]) ** 2 * plan[i, k] * plan[j, l]
            for i in range(n)
            for j in range(n)
            for k in range(m)
            for l in range(m)
        )
        fast = gw_objective(ds, dt, plan, mu=mu, nu=nu)
        assert fast == pytest.approx(brute, rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        """∇ of the full tensor objective E(π) = Σ (Ds_ij − Dt_kl)² π_ik π_jl.

        Note: ``gw_objective`` fixes the marginal constant, so its naive
        FD differs from ``gw_gradient`` by a rank-one (row+column) term
        that the Sinkhorn projection absorbs; the brute-force E below is
        the quantity whose gradient the solver actually uses.
        """
        rng = np.random.default_rng(1)
        n, m = 3, 4
        ds = rng.random((n, n))
        ds = (ds + ds.T) / 2
        dt = rng.random((m, m))
        dt = (dt + dt.T) / 2
        mu = np.full(n, 1 / n)
        nu = np.full(m, 1 / m)
        plan = np.outer(mu, nu)

        def brute_e(p):
            return sum(
                (ds[i, j] - dt[k, l]) ** 2 * p[i, k] * p[j, l]
                for i in range(n)
                for j in range(n)
                for k in range(m)
                for l in range(m)
            )

        grad = gw_gradient(ds, dt, plan, mu=mu, nu=nu)
        eps = 1e-7
        for i in range(n):
            for k in range(m):
                bumped = plan.copy()
                bumped[i, k] += eps
                fd = (brute_e(bumped) - brute_e(plan)) / eps
                assert grad[i, k] == pytest.approx(fd, rel=1e-3, abs=1e-6)

    def test_gradient_requires_marginals_or_constant(self):
        d = np.eye(2)
        with pytest.raises(ValueError):
            gw_gradient(d, d, np.eye(2) / 2)


class TestProximalGW:
    def test_improves_over_independent_coupling(self):
        """GW between a random structure and its relabelling should beat
        the independent coupling.  (Rings are deliberately avoided:
        vertex-transitive structures make the uniform coupling a fixed
        point of the mirror/proximal iteration.)"""
        g = erdos_renyi_graph(12, 0.35, seed=10)
        h, _ = permute_graph(g, seed=11)
        d, d2 = g.dense_adjacency(), h.dense_adjacency()
        mu = np.full(12, 1 / 12)
        result = proximal_gromov_wasserstein(d, d2, step_size=0.02, max_iter=100)
        independent = gw_objective(d, d2, np.outer(mu, mu), mu=mu, nu=mu)
        assert result.distance < 0.5 * independent

    def test_plan_marginals(self):
        rng = np.random.default_rng(2)
        ds = rng.random((6, 6))
        ds = (ds + ds.T) / 2
        dt = rng.random((8, 8))
        dt = (dt + dt.T) / 2
        result = proximal_gromov_wasserstein(ds, dt, max_iter=30)
        np.testing.assert_allclose(result.plan.sum(axis=1), 1 / 6, atol=1e-8)
        np.testing.assert_allclose(result.plan.sum(axis=0), 1 / 8, atol=1e-4)

    def test_objective_decreases(self):
        g = erdos_renyi_graph(20, 0.3, seed=0)
        h, _ = permute_graph(g, seed=1)
        result = proximal_gromov_wasserstein(
            g.dense_adjacency(), h.dense_adjacency(), max_iter=50
        )
        values = np.asarray(result.history)
        assert values[-1] <= values[0] + 1e-9

    def test_aligns_permuted_graph(self):
        g = erdos_renyi_graph(20, 0.3, seed=3)
        h, perm = permute_graph(g, seed=4)
        result = proximal_gromov_wasserstein(
            g.dense_adjacency(), h.dense_adjacency(), max_iter=150
        )
        matches = np.argmax(result.plan, axis=1)
        assert (matches == perm).mean() > 0.8

    def test_invalid_step_size(self):
        d = np.eye(3)
        with pytest.raises(ValueError):
            proximal_gromov_wasserstein(d, d, step_size=0.0)

    def test_bad_init_shape(self):
        d = np.eye(3)
        with pytest.raises(ShapeError):
            proximal_gromov_wasserstein(d, d, init=np.ones((2, 2)))

    def test_custom_marginals(self):
        d = ring_distance_matrix(5)
        mu = np.array([0.4, 0.3, 0.1, 0.1, 0.1])
        result = proximal_gromov_wasserstein(d, d, mu=mu, max_iter=20)
        np.testing.assert_allclose(result.plan.sum(axis=1), mu, atol=1e-6)


class TestDistanceWrapper:
    def test_identical_asymmetric_structure_near_zero(self):
        g = erdos_renyi_graph(10, 0.4, seed=12)
        d = g.dense_adjacency()
        independent = gw_objective(
            d, d, np.outer(np.full(10, 0.1), np.full(10, 0.1)),
            mu=np.full(10, 0.1), nu=np.full(10, 0.1),
        )
        distance = proximal_gromov_wasserstein(d, d, max_iter=150).distance
        assert distance < 0.5 * independent


class TestFusedGW:
    def test_feature_cost_sqeuclidean(self):
        xs = np.array([[0.0, 0.0], [1.0, 0.0]])
        xt = np.array([[0.0, 0.0], [0.0, 2.0]])
        cost = feature_cost_matrix(xs, xt)
        np.testing.assert_allclose(cost, [[0.0, 4.0], [1.0, 5.0]])

    def test_feature_cost_cosine_range(self):
        rng = np.random.default_rng(5)
        cost = feature_cost_matrix(
            rng.standard_normal((4, 3)), rng.standard_normal((5, 3)), metric="cosine"
        )
        assert np.all(cost >= -1e-9) and np.all(cost <= 2 + 1e-9)

    def test_feature_cost_dim_mismatch(self):
        with pytest.raises(ShapeError):
            feature_cost_matrix(np.ones((2, 3)), np.ones((2, 4)))

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            feature_cost_matrix(np.ones((2, 2)), np.ones((2, 2)), metric="hamming")

    def test_alpha_zero_ignores_structure(self):
        """With alpha=0 the solver reduces to entropic OT on features."""
        rng = np.random.default_rng(6)
        xs = rng.standard_normal((6, 4))
        perm = rng.permutation(6)
        xt = xs[perm]
        cost = feature_cost_matrix(xs, xt)
        result = fused_gromov_wasserstein(
            cost, np.zeros((6, 6)), np.zeros((6, 6)), alpha=0.0, max_iter=100
        )
        # the plan should put each source row's mass on its true copy:
        # source i sits at target row t where xt[t] == xs[i], i.e. perm[t] == i
        matches = np.argmax(result.plan, axis=1)
        truth = np.argsort(perm)
        assert (matches == truth).mean() >= 0.8

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            fused_gromov_wasserstein(np.ones((2, 2)), np.eye(2), np.eye(2), alpha=1.5)

    def test_feature_cost_shape_check(self):
        with pytest.raises(ShapeError):
            fused_gromov_wasserstein(np.ones((3, 2)), np.eye(2), np.eye(2))

    def test_bad_init_shape(self):
        d = np.eye(3)
        with pytest.raises(ShapeError):
            fused_gromov_wasserstein(np.ones((3, 3)), d, d, init=np.ones((2, 2)))

    @pytest.mark.parametrize("init", [np.zeros((3, 3)), -np.ones((3, 3))])
    def test_init_without_positive_mass(self, init):
        d = np.eye(3)
        with pytest.raises(ValueError, match="positive mass"):
            fused_gromov_wasserstein(np.ones((3, 3)), d, d, init=init)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.1, max_value=0.9))
    def test_marginals_any_alpha(self, alpha):
        rng = np.random.default_rng(7)
        cost = rng.random((4, 5))
        ds = rng.random((4, 4))
        ds = (ds + ds.T) / 2
        dt = rng.random((5, 5))
        dt = (dt + dt.T) / 2
        result = fused_gromov_wasserstein(cost, ds, dt, alpha=alpha, max_iter=20)
        np.testing.assert_allclose(result.plan.sum(axis=1), 0.25, atol=1e-8)
