"""Tests for repro.graphs.generators."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs import (
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    random_bipartite_expansion,
    stochastic_block_model,
    watts_strogatz_graph,
)


class TestErdosRenyi:
    def test_size(self):
        g = erdos_renyi_graph(50, 0.1, seed=0)
        assert g.n_nodes == 50

    def test_edge_count_near_expectation(self):
        g = erdos_renyi_graph(100, 0.2, seed=0)
        expected = 0.2 * 100 * 99 / 2
        assert abs(g.n_edges - expected) < 0.3 * expected

    def test_p_zero_empty(self):
        assert erdos_renyi_graph(10, 0.0, seed=0).n_edges == 0

    def test_p_one_complete(self):
        g = erdos_renyi_graph(10, 1.0, seed=0)
        assert g.n_edges == 45

    def test_invalid_p(self):
        with pytest.raises(GraphError):
            erdos_renyi_graph(10, 1.5)

    def test_deterministic(self):
        a = erdos_renyi_graph(30, 0.2, seed=5).edge_list()
        b = erdos_renyi_graph(30, 0.2, seed=5).edge_list()
        np.testing.assert_array_equal(a, b)


class TestPowerlawCluster:
    def test_size_and_connectivity(self):
        g = powerlaw_cluster_graph(100, 3, 0.5, seed=0)
        assert g.n_nodes == 100
        assert g.n_edges >= (100 - 3) * 2  # allows a few failed attachments

    def test_higher_triangle_p_more_clustering(self):
        import networkx as nx

        def clustering(graph):
            nxg = nx.Graph(list(map(tuple, graph.edge_list())))
            return nx.average_clustering(nxg)

        low = clustering(powerlaw_cluster_graph(300, 3, 0.0, seed=1))
        high = clustering(powerlaw_cluster_graph(300, 3, 0.9, seed=1))
        assert high > low

    def test_invalid_triangle_p(self):
        with pytest.raises(GraphError):
            powerlaw_cluster_graph(10, 2, 1.5)


class TestWattsStrogatz:
    def test_no_rewire_ring(self):
        g = watts_strogatz_graph(20, 4, 0.0, seed=0)
        assert g.n_edges == 20 * 2
        np.testing.assert_array_equal(g.degrees, np.full(20, 4))

    def test_rewire_preserves_edge_count(self):
        g = watts_strogatz_graph(40, 4, 0.5, seed=0)
        assert g.n_edges == 40 * 2

    def test_odd_neighbors_rejected(self):
        with pytest.raises(GraphError):
            watts_strogatz_graph(10, 3, 0.1)


class TestSBM:
    def test_labels(self):
        g = stochastic_block_model([10, 20], 0.5, 0.01, seed=0)
        assert g.n_nodes == 30
        assert list(np.bincount(g.node_labels)) == [10, 20]

    def test_within_denser_than_between(self):
        g = stochastic_block_model([50, 50], 0.3, 0.01, seed=0)
        labels = g.node_labels
        dense = g.dense_adjacency()
        same = labels[:, None] == labels[None, :]
        within = dense[same].mean()
        between = dense[~same].mean()
        assert within > 5 * between

    def test_invalid_probability(self):
        with pytest.raises(GraphError):
            stochastic_block_model([5, 5], 1.2, 0.1)

    def test_empty_block_rejected(self):
        with pytest.raises(GraphError):
            stochastic_block_model([5, 0], 0.1, 0.1)


class TestBipartiteExpansion:
    def test_grows_graph(self):
        core = erdos_renyi_graph(20, 0.2, seed=0)
        grown = random_bipartite_expansion(core, 10, attach_p=0.2, seed=1)
        assert grown.n_nodes == 30
        assert grown.n_edges >= core.n_edges + 10  # each new node attaches

    def test_core_edges_preserved(self):
        core = erdos_renyi_graph(15, 0.3, seed=2)
        grown = random_bipartite_expansion(core, 5, attach_p=0.1, seed=3)
        for u, v in core.edge_list():
            assert grown.has_edge(int(u), int(v))
