"""Tests for repro.graphs.normalization and gnn.propagation (Eq. 5)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graphs import (
    AttributedGraph,
    add_self_loops,
    erdos_renyi_graph,
    row_normalize,
    symmetric_normalize,
)
from repro.gnn import normalized_adjacency_power, propagation_stack, sgc_propagate


def small_graph():
    return AttributedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


class TestSymmetricNormalize:
    def test_matches_formula(self):
        g = small_graph()
        a = g.dense_adjacency()
        a_loops = a + np.eye(4)
        deg = a_loops.sum(axis=1)
        expected = a_loops / np.sqrt(np.outer(deg, deg))
        got = symmetric_normalize(g.adjacency).toarray()
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_symmetric_output(self):
        g = erdos_renyi_graph(30, 0.2, seed=0)
        norm = symmetric_normalize(g.adjacency).toarray()
        np.testing.assert_allclose(norm, norm.T, atol=1e-12)

    def test_isolated_node_safe(self):
        g = AttributedGraph.from_edges(3, [(0, 1)])
        norm = symmetric_normalize(g.adjacency).toarray()
        assert np.all(np.isfinite(norm))
        # self-loop keeps the isolated node's row nonzero
        assert norm[2, 2] == pytest.approx(1.0)

    def test_without_loops_isolated_zero_row(self):
        g = AttributedGraph.from_edges(3, [(0, 1)])
        norm = symmetric_normalize(g.adjacency, add_loops=False).toarray()
        assert np.all(norm[2] == 0)

    def test_dense_input(self):
        g = small_graph()
        from_dense = symmetric_normalize(g.dense_adjacency()).toarray()
        from_sparse = symmetric_normalize(g.adjacency).toarray()
        np.testing.assert_allclose(from_dense, from_sparse)

    def test_rectangular_rejected(self):
        with pytest.raises(GraphError):
            symmetric_normalize(np.ones((2, 3)))

    def test_spectral_radius_at_most_one(self):
        g = erdos_renyi_graph(40, 0.2, seed=1)
        norm = symmetric_normalize(g.adjacency).toarray()
        eigs = np.linalg.eigvalsh(norm)
        assert eigs.max() <= 1.0 + 1e-10


class TestHelpers:
    def test_add_self_loops(self):
        g = small_graph()
        with_loops = add_self_loops(g.adjacency)
        np.testing.assert_allclose(with_loops.diagonal(), 1.0)

    def test_row_normalize_unit_rows(self):
        mat = np.random.default_rng(0).standard_normal((5, 3))
        out = row_normalize(mat)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_row_normalize_zero_row(self):
        mat = np.zeros((2, 3))
        mat[0] = [1.0, 0, 0]
        out = row_normalize(mat)
        np.testing.assert_array_equal(out[1], 0.0)


class TestSGCPropagation:
    def test_zero_hops_identity(self):
        g = small_graph()
        feats = np.random.default_rng(0).standard_normal((4, 3))
        np.testing.assert_array_equal(sgc_propagate(g.adjacency, feats, 0), feats)

    def test_matches_matrix_power(self):
        g = erdos_renyi_graph(20, 0.3, seed=0)
        feats = np.random.default_rng(1).standard_normal((20, 4))
        for k in (1, 2, 3):
            direct = sgc_propagate(g.adjacency, feats, k)
            via_power = normalized_adjacency_power(g.adjacency, k).toarray() @ feats
            np.testing.assert_allclose(direct, via_power, atol=1e-10)

    def test_propagation_stack_consistent(self):
        g = erdos_renyi_graph(15, 0.3, seed=2).with_features(
            np.random.default_rng(3).standard_normal((15, 5))
        )
        stack = propagation_stack(g, 3)
        assert len(stack) == 4
        for k, z in enumerate(stack):
            np.testing.assert_allclose(
                z, sgc_propagate(g.adjacency, g.features, k), atol=1e-10
            )

    def test_negative_hops_rejected(self):
        g = small_graph()
        with pytest.raises(GraphError):
            sgc_propagate(g.adjacency, np.ones((4, 2)), -1)

    def test_featureless_stack_rejected(self):
        with pytest.raises(GraphError):
            propagation_stack(small_graph(), 2)
