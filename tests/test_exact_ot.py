"""Tests for exact OT (repro.ot.exact)."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.ot import emd, emd_cost


class TestEMD:
    def test_identity_cost_prefers_diagonal(self):
        cost = 1.0 - np.eye(3)
        mu = nu = np.full(3, 1 / 3)
        plan = emd(cost, mu, nu)
        np.testing.assert_allclose(plan, np.eye(3) / 3, atol=1e-8)

    def test_marginals(self):
        rng = np.random.default_rng(0)
        cost = rng.random((4, 6))
        mu = rng.dirichlet(np.ones(4))
        nu = rng.dirichlet(np.ones(6))
        plan = emd(cost, mu, nu)
        np.testing.assert_allclose(plan.sum(axis=1), mu, atol=1e-8)
        np.testing.assert_allclose(plan.sum(axis=0), nu, atol=1e-8)

    def test_cost_lower_than_independent(self):
        rng = np.random.default_rng(1)
        cost = rng.random((5, 5))
        mu = nu = np.full(5, 0.2)
        optimal = emd_cost(cost, mu, nu)
        independent = float(np.sum(np.outer(mu, nu) * cost))
        assert optimal <= independent + 1e-10

    def test_nonneg_plan(self):
        rng = np.random.default_rng(2)
        plan = emd(rng.random((3, 4)), np.full(3, 1 / 3), np.full(4, 0.25))
        assert plan.min() >= -1e-10

    def test_1d_cost_is_monotone_matching(self):
        """On the line with sorted atoms, EMD matches in order."""
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([0.1, 1.1, 2.1])
        cost = np.abs(x[:, None] - y[None, :])
        plan = emd(cost, np.full(3, 1 / 3), np.full(3, 1 / 3))
        np.testing.assert_allclose(plan, np.eye(3) / 3, atol=1e-8)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            emd(np.ones(3), np.ones(3) / 3, np.ones(3) / 3)
