"""Tests for the inconsistency simulators (repro.graphs.perturbation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graphs import (
    compress_features,
    drop_edges,
    erdos_renyi_graph,
    permute_features,
    perturb_edges,
    truncate_features,
)


def featured_graph(seed=0, n=40, d=30):
    g = erdos_renyi_graph(n, 0.2, seed=seed)
    rng = np.random.default_rng(seed + 1)
    return g.with_features(rng.random((n, d)))


class TestPerturbEdges:
    def test_preserves_edge_count(self):
        g = featured_graph()
        out = perturb_edges(g, 0.3, seed=1)
        assert out.n_edges == g.n_edges

    def test_zero_ratio_identical(self):
        g = featured_graph()
        out = perturb_edges(g, 0.0, seed=1)
        np.testing.assert_array_equal(out.edge_list(), g.edge_list())

    def test_moved_edges_previously_unconnected(self):
        g = featured_graph(seed=2)
        out = perturb_edges(g, 0.4, seed=3)
        original = {tuple(e) for e in g.edge_list()}
        new_edges = {tuple(e) for e in out.edge_list()} - original
        # every new edge must not exist in the original graph
        assert all(e not in original for e in new_edges)

    def test_ratio_controls_overlap(self):
        g = featured_graph(seed=4)
        small = perturb_edges(g, 0.1, seed=5)
        large = perturb_edges(g, 0.6, seed=5)
        original = {tuple(e) for e in g.edge_list()}

        def overlap(graph):
            return len({tuple(e) for e in graph.edge_list()} & original)

        assert overlap(small) > overlap(large)

    def test_features_preserved(self):
        g = featured_graph()
        out = perturb_edges(g, 0.5, seed=6)
        np.testing.assert_array_equal(out.features, g.features)

    def test_invalid_ratio(self):
        with pytest.raises(GraphError):
            perturb_edges(featured_graph(), 1.5)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_edge_count_invariant(self, ratio):
        g = featured_graph(seed=7)
        out = perturb_edges(g, ratio, seed=8)
        assert out.n_edges == g.n_edges


class TestPermuteFeatures:
    def test_column_multiset_preserved(self):
        g = featured_graph(seed=9)
        out = permute_features(g, 0.5, seed=10)
        np.testing.assert_allclose(
            np.sort(out.features.sum(axis=0)), np.sort(g.features.sum(axis=0))
        )

    def test_zero_ratio_identity(self):
        g = featured_graph()
        out = permute_features(g, 0.0, seed=1)
        np.testing.assert_array_equal(out.features, g.features)

    def test_full_permutation_changes_columns(self):
        g = featured_graph(seed=11)
        out = permute_features(g, 1.0, seed=12)
        assert not np.array_equal(out.features, g.features)

    def test_gram_matrix_invariant_under_full_permutation(self):
        """X X^T is unchanged — the linear-algebra core of Prop. 4."""
        g = featured_graph(seed=13)
        out = permute_features(g, 1.0, seed=14)
        np.testing.assert_allclose(
            out.features @ out.features.T, g.features @ g.features.T, atol=1e-10
        )

    def test_featureless_rejected(self):
        with pytest.raises(GraphError):
            permute_features(erdos_renyi_graph(5, 0.5, seed=0), 0.5)


class TestTruncateFeatures:
    def test_dimension_reduced(self):
        g = featured_graph(d=40)
        out = truncate_features(g, 0.25, seed=1)
        assert out.n_features == 30

    def test_remaining_columns_from_original(self):
        g = featured_graph(seed=15, d=20)
        out = truncate_features(g, 0.5, seed=16)
        original_cols = {tuple(col) for col in g.features.T}
        assert all(tuple(col) in original_cols for col in out.features.T)

    def test_ratio_one_rejected(self):
        with pytest.raises(GraphError):
            truncate_features(featured_graph(), 1.0)


class TestCompressFeatures:
    def test_dimension(self):
        g = featured_graph(d=40)
        out = compress_features(g, 0.5, seed=1)
        assert out.n_features == 20

    def test_zero_ratio_identity(self):
        g = featured_graph()
        out = compress_features(g, 0.0)
        np.testing.assert_array_equal(out.features, g.features)

    def test_preserves_leading_variance(self):
        g = featured_graph(seed=17, d=30)
        out = compress_features(g, 0.5, seed=18)
        original_var = np.var(g.features - g.features.mean(0), axis=0).sum()
        compressed_var = np.var(out.features, axis=0).sum()
        assert compressed_var <= original_var + 1e-9
        assert compressed_var > 0.4 * original_var

    def test_deterministic(self):
        g = featured_graph(seed=19)
        a = compress_features(g, 0.3).features
        b = compress_features(g, 0.3).features
        np.testing.assert_array_equal(a, b)


class TestOtherPerturbations:
    def test_drop_edges_count(self):
        g = featured_graph(seed=22)
        out = drop_edges(g, 0.5, seed=23)
        assert out.n_edges == g.n_edges - round(0.5 * g.n_edges)

    def test_drop_edges_subset(self):
        g = featured_graph(seed=24)
        out = drop_edges(g, 0.3, seed=25)
        original = {tuple(e) for e in g.edge_list()}
        assert all(tuple(e) in original for e in out.edge_list())
