"""Tests for the dataset stand-ins (repro.datasets)."""

import numpy as np
import pytest

from repro.datasets import (
    AlignmentPair,
    FEATURE_TRANSFORMS,
    KnowledgeGraph,
    available_datasets,
    load_acm_dblp,
    load_citeseer,
    load_cora,
    load_dbp15k,
    load_douban,
    load_facebook,
    load_graph_dataset,
    load_ppi,
    make_semi_synthetic_pair,
    random_knowledge_graph,
    truncate_feature_columns,
)
from repro.exceptions import DatasetError


class TestGraphStandIns:
    @pytest.mark.parametrize(
        "loader,n_full,attrs",
        [
            (load_cora, 2708, 1433),
            (load_citeseer, 3327, 3703),
            (load_ppi, 1767, None),
            (load_facebook, 4039, 1476),
        ],
    )
    def test_scaled_statistics(self, loader, n_full, attrs):
        g = loader(scale=0.1)
        assert abs(g.n_nodes - 0.1 * n_full) < 0.2 * n_full
        if attrs is not None:
            assert g.n_features == attrs  # vocabulary never shrinks
        assert g.n_edges > 0

    def test_cora_density_matches_paper(self):
        g = load_cora(scale=0.15)
        avg_degree = 2 * g.n_edges / g.n_nodes
        paper_degree = 2 * 5278 / 2708
        assert abs(avg_degree - paper_degree) < 1.5

    def test_ppi_is_dense(self):
        g = load_ppi(scale=0.1)
        assert 2 * g.n_edges / g.n_nodes > 10  # paper: ~18

    def test_deterministic(self):
        a = load_cora(scale=0.05)
        b = load_cora(scale=0.05)
        np.testing.assert_array_equal(a.edge_list(), b.edge_list())
        np.testing.assert_array_equal(a.features, b.features)

    def test_invalid_scale(self):
        with pytest.raises(DatasetError):
            load_cora(scale=0.0)
        with pytest.raises(DatasetError):
            load_ppi(scale=2.0)

    def test_features_binary_bag_of_words(self):
        g = load_cora(scale=0.05)
        assert set(np.unique(g.features)) <= {0.0, 1.0}


class TestSemiSyntheticPairs:
    def test_ground_truth_is_permutation(self):
        g = load_cora(scale=0.04)
        pair = make_semi_synthetic_pair(g, seed=0)
        gt = pair.ground_truth
        assert gt.shape == (g.n_nodes, 2)
        assert sorted(gt[:, 1].tolist()) == list(range(g.n_nodes))

    def test_clean_pair_structures_isomorphic(self):
        g = load_cora(scale=0.04)
        pair = make_semi_synthetic_pair(g, seed=1)
        perm = pair.ground_truth[:, 1]
        a = pair.source.dense_adjacency()
        b = pair.target.dense_adjacency()
        np.testing.assert_array_equal(a, b[np.ix_(perm, perm)])

    def test_edge_noise_changes_target_only(self):
        g = load_cora(scale=0.04)
        pair = make_semi_synthetic_pair(g, edge_noise=0.3, seed=2)
        assert pair.source.n_edges == g.n_edges
        assert pair.target.n_edges == g.n_edges  # moved, not deleted

    @pytest.mark.parametrize("transform", FEATURE_TRANSFORMS)
    def test_feature_transforms_apply(self, transform):
        g = load_cora(scale=0.04)
        pair = make_semi_synthetic_pair(
            g, feature_transform=transform, feature_noise=0.5, seed=3
        )
        if transform == "permutation":
            assert pair.target.n_features == g.n_features
        else:
            assert pair.target.n_features < g.n_features

    def test_unknown_transform_rejected(self):
        g = load_cora(scale=0.04)
        with pytest.raises(DatasetError):
            make_semi_synthetic_pair(g, feature_transform="quantise")

    def test_negative_edge_noise_rejected(self):
        g = load_cora(scale=0.04)
        with pytest.raises(DatasetError, match="edge_noise"):
            make_semi_synthetic_pair(g, edge_noise=-0.5)

    def test_feature_noise_without_transform_rejected(self):
        g = load_cora(scale=0.04)
        with pytest.raises(DatasetError, match="feature_noise"):
            make_semi_synthetic_pair(g, feature_noise=0.3)

    def test_truncate_feature_columns(self):
        g = load_cora(scale=0.04)
        out = truncate_feature_columns(g, 100)
        assert out.n_features == 100
        np.testing.assert_array_equal(out.features, g.features[:, :100])

    def test_metadata_recorded(self):
        g = load_cora(scale=0.04)
        pair = make_semi_synthetic_pair(
            g, edge_noise=0.2, feature_transform="truncation", feature_noise=0.4
        )
        assert pair.metadata["edge_noise"] == 0.2
        assert pair.metadata["feature_transform"] == "truncation"


class TestAlignmentPairValidation:
    def test_out_of_range_ground_truth(self):
        g = load_cora(scale=0.04)
        with pytest.raises(DatasetError):
            AlignmentPair(g, g, np.array([[0, 10**6]]))

    def test_duplicate_sources_rejected(self):
        g = load_cora(scale=0.04)
        with pytest.raises(DatasetError):
            AlignmentPair(g, g, np.array([[0, 1], [0, 2]]))

    def test_wrong_shape_rejected(self):
        g = load_cora(scale=0.04)
        with pytest.raises(DatasetError):
            AlignmentPair(g, g, np.array([0, 1, 2]))


class TestDouban:
    def test_containment_sizes(self):
        pair = load_douban(scale=0.1)
        assert pair.source.n_nodes < pair.target.n_nodes
        assert pair.n_anchors == pair.source.n_nodes

    def test_shared_location_features(self):
        pair = load_douban(scale=0.1)
        assert pair.source.n_features == pair.target.n_features
        # every anchor's location one-hot matches across graphs
        gt = pair.ground_truth
        src_locs = pair.source.features[gt[:, 0]].argmax(axis=1)
        tgt_locs = pair.target.features[gt[:, 1]].argmax(axis=1)
        np.testing.assert_array_equal(src_locs, tgt_locs)

    def test_features_are_coarse(self):
        """Many users share a location, so features alone are weak."""
        pair = load_douban(scale=0.2)
        locations = pair.source.features.argmax(axis=1)
        assert np.unique(locations).size < pair.source.n_nodes / 1.5


class TestACMDBLP:
    def test_partial_overlap(self):
        pair = load_acm_dblp(scale=0.05)
        assert pair.n_anchors < pair.source.n_nodes
        assert pair.n_anchors < pair.target.n_nodes

    def test_venue_features(self):
        pair = load_acm_dblp(scale=0.05)
        assert pair.source.n_features == 17
        assert pair.target.n_features == 17

    def test_anchor_features_correlated(self):
        pair = load_acm_dblp(scale=0.05)
        gt = pair.ground_truth
        a = pair.source.features[gt[:, 0]]
        b = pair.target.features[gt[:, 1]]
        per_row = [np.corrcoef(x, y)[0, 1] for x, y in zip(a, b)]
        assert np.nanmean(per_row) > 0.5


class TestDBP15K:
    def test_subset_validation(self):
        with pytest.raises(DatasetError):
            load_dbp15k("de_en")

    def test_sizes_and_anchors(self):
        pair = load_dbp15k("zh_en", scale=0.01)
        assert pair.n_anchors <= min(pair.source.n_nodes, pair.target.n_nodes)
        assert pair.source.n_features == pair.target.n_features

    def test_agreement_orders_cross_lingual_similarity(self):
        """FR-EN anchors must be more feature-similar than ZH-EN."""

        def anchor_similarity(subset):
            pair = load_dbp15k(subset, scale=0.015, seed=5)
            gt = pair.ground_truth
            a = pair.source.features[gt[:, 0]]
            b = pair.target.features[gt[:, 1]]
            a = a / np.linalg.norm(a, axis=1, keepdims=True)
            b = b / np.linalg.norm(b, axis=1, keepdims=True)
            return float(np.mean(np.sum(a * b, axis=1)))

        assert anchor_similarity("fr_en") > anchor_similarity("zh_en")

    def test_metadata_carries_kgs(self):
        pair = load_dbp15k("ja_en", scale=0.01)
        assert isinstance(pair.metadata["kg_source"], KnowledgeGraph)


class TestKnowledgeGraph:
    def test_random_kg_shapes(self):
        kg = random_knowledge_graph(50, 5, 200, seed=0)
        assert kg.n_entities == 50
        assert kg.triples.shape[1] == 3
        assert kg.n_relations <= 5

    def test_to_graph_collapses_triples(self):
        kg = random_knowledge_graph(30, 3, 100, seed=1)
        g = kg.to_graph()
        assert g.n_nodes == 30
        assert g.n_edges > 0

    def test_relation_adjacency_binary_symmetric(self):
        kg = random_knowledge_graph(20, 4, 80, seed=2)
        adj = kg.relation_adjacency(0).toarray()
        np.testing.assert_array_equal(adj, adj.T)
        assert set(np.unique(adj)) <= {0.0, 1.0}

    def test_relation_out_of_range(self):
        kg = random_knowledge_graph(10, 2, 20, seed=3)
        with pytest.raises(DatasetError):
            kg.relation_adjacency(99)

    def test_invalid_triples_rejected(self):
        with pytest.raises(DatasetError):
            KnowledgeGraph(n_entities=3, triples=np.array([[0, 0, 5]]))


class TestRegistry:
    def test_catalogue(self):
        catalogue = available_datasets()
        assert "cora" in catalogue["graphs"]
        assert "douban" in catalogue["pairs"]

    def test_graph_loader_dispatch(self):
        g = load_graph_dataset("cora", scale=0.04)
        assert g.name == "cora"

    def test_unknown_names(self):
        with pytest.raises(DatasetError):
            load_graph_dataset("imdb")
