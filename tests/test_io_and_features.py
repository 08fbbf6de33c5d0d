"""Tests for feature synthesis (repro.graphs.features)."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs.features import (
    community_bag_of_words,
    degree_correlated_features,
    random_orthogonal_matrix,
)


class TestCommunityBagOfWords:
    def test_binary_output(self):
        labels = np.repeat([0, 1, 2], 10)
        feats = community_bag_of_words(labels, 60, seed=0)
        assert set(np.unique(feats)) <= {0.0, 1.0}

    def test_community_members_more_similar(self):
        labels = np.repeat([0, 1], 25)
        feats = community_bag_of_words(
            labels, 100, words_per_node=15, topic_concentration=0.9, seed=1
        )
        norm = feats / np.maximum(
            np.linalg.norm(feats, axis=1, keepdims=True), 1e-12
        )
        sim = norm @ norm.T
        same = labels[:, None] == labels[None, :]
        np.fill_diagonal(same, False)
        assert sim[same].mean() > 2 * sim[~same & ~np.eye(50, dtype=bool)].mean()

    def test_bad_inputs(self):
        with pytest.raises(GraphError):
            community_bag_of_words(np.ones((2, 2)), 10)
        with pytest.raises(GraphError):
            community_bag_of_words(np.zeros(5), 0)


class TestOtherFeatureSynths:
    def test_degree_correlated(self):
        degrees = np.array([1.0, 2.0, 50.0, 100.0])
        feats = degree_correlated_features(degrees, 8, noise=0.01, seed=0)
        # leading feature direction should order with degree
        proj = feats @ feats.mean(axis=0)
        assert abs(np.corrcoef(proj, np.log1p(degrees))[0, 1]) > 0.9

    def test_random_orthogonal(self):
        q = random_orthogonal_matrix(6, seed=2)
        np.testing.assert_allclose(q @ q.T, np.eye(6), atol=1e-10)
