"""Property-based tests for the partition pipeline (repro.scale).

The pipeline's contracts, checked over seeded instance families rather
than single examples:

* **joint node-permutation equivariance** — relabelling source and
  target nodes relabels every output (partitions, stitched plan,
  Hit@k) and changes nothing else.  On well-conditioned pairs the
  plan is equivariant to machine precision; the discrete metrics are
  exactly equal.
* **partitioner invariants** — k-way partitions are exact, balanced
  and covering; the part count derived from ``max_block_size`` keeps
  every part between ``MIN_BLOCK_SIZE`` and ``max_block_size``.
* **rebalance edge cases** — empty parts, capacity spill and the
  everyone-prefers-one-part overflow path never drop or duplicate a
  node.
"""

import numpy as np
import pytest

from repro.core import SLOTAlignConfig
from repro.datasets import make_semi_synthetic_pair
from repro.eval import hits_at_k
from repro.exceptions import GraphError
from repro.graphs import (
    adjacent_parts,
    boundary_nodes,
    cut_edges,
    erdos_renyi_graph,
    partition_assignment,
    permute_graph,
    stochastic_block_model,
)
from repro.graphs.features import community_bag_of_words
from repro.scale import (
    DivideAndConquerAligner,
    kway_partition,
    rebalance,
)

CRISP_CFG = SLOTAlignConfig(
    n_bases=2, structure_lr=0.1, max_outer_iter=120, sinkhorn_iter=40,
    track_history=False,
)


def crisp_pair(seed=1, n_blocks=4, block=15):
    """A pair whose blocks the solver resolves sharply (strong
    communities, informative features): on these, equivariance holds to
    machine precision instead of solver tolerance."""
    graph = stochastic_block_model([block] * n_blocks, 0.5, 0.01, seed=seed)
    feats = community_bag_of_words(
        graph.node_labels, 80, words_per_node=20, seed=seed + 1
    )
    graph = graph.with_features(feats)
    return make_semi_synthetic_pair(graph, seed=seed + 2)


class TestPermutationEquivariance:
    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_pipeline_equivariant(self, seed):
        pair = crisp_pair(seed=seed)
        n, m = pair.source.n_nodes, pair.target.n_nodes
        rng = np.random.default_rng(100 + seed)
        perm_s, perm_t = rng.permutation(n), rng.permutation(m)
        src2, _ = permute_graph(pair.source, perm=perm_s)
        tgt2, _ = permute_graph(pair.target, perm=perm_t)
        gt2 = np.column_stack(
            [perm_s[pair.ground_truth[:, 0]], perm_t[pair.ground_truth[:, 1]]]
        )

        out1 = DivideAndConquerAligner(CRISP_CFG, n_parts=4).fit(
            pair.source, pair.target
        )
        out2 = DivideAndConquerAligner(CRISP_CFG, n_parts=4).fit(src2, tgt2)

        # partitions are equivariant as sets of node sets
        assert {frozenset(perm_s[p].tolist()) for p, _ in out1.partitions} == {
            frozenset(p.tolist()) for p, _ in out2.partitions
        }
        assert {frozenset(perm_t[t].tolist()) for _, t in out1.partitions} == {
            frozenset(t.tolist()) for _, t in out2.partitions
        }
        # the stitched plan is equivariant entrywise
        dense1 = out1.plan.toarray()
        dense2 = out2.plan.toarray()
        np.testing.assert_allclose(
            dense1, dense2[np.ix_(perm_s, perm_t)], atol=1e-12
        )
        # Hit@k evaluated against the relabelled ground truth: the
        # mid-rank comparison uses exact ==/>, so a score tie sitting
        # at machine precision may break differently across the two
        # orderings — equivariance holds up to one flipped link
        one_link = 100.0 / pair.source.n_nodes
        for k in (1, 5, 10):
            assert abs(
                hits_at_k(out1.plan, pair.ground_truth, k)
                - hits_at_k(out2.plan, gt2, k)
            ) <= one_link + 1e-9

    def test_kway_partition_equivariant(self):
        graph = crisp_pair(seed=3).source
        rng = np.random.default_rng(7)
        perm = rng.permutation(graph.n_nodes)
        permuted, _ = permute_graph(graph, perm=perm)
        parts1 = kway_partition(graph, 4)
        parts2 = kway_partition(permuted, 4)
        assert {frozenset(perm[p].tolist()) for p in parts1} == {
            frozenset(p.tolist()) for p in parts2
        }


class TestPartitioners:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_kway_exact_balanced_covering(self, k):
        graph = stochastic_block_model([12] * 4, 0.3, 0.02, seed=k)
        parts = kway_partition(graph, k)
        assert len(parts) == k
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1
        covered = np.concatenate(parts)
        assert sorted(covered.tolist()) == list(range(graph.n_nodes))

    def test_kway_rejects_bad_counts(self):
        graph = stochastic_block_model([10], 0.3, 0.0, seed=0)
        with pytest.raises(GraphError):
            kway_partition(graph, 0)
        with pytest.raises(GraphError):
            kway_partition(graph, graph.n_nodes + 1)

    @staticmethod
    def derived_parts(graph, max_block_size):
        """The source partition ``n_parts=None`` derives."""
        aligner = DivideAndConquerAligner(CRISP_CFG, max_block_size=max_block_size)
        return aligner._partition_source(graph)

    def test_derived_parts_respect_size_cap(self):
        graph = stochastic_block_model([20] * 4, 0.35, 0.01, seed=2)
        parts = self.derived_parts(graph, max_block_size=30)
        assert all(8 <= p.size <= 30 for p in parts)
        covered = np.concatenate(parts)
        assert sorted(covered.tolist()) == list(range(graph.n_nodes))

    def test_derived_parts_stay_within_block_bounds(self, monkeypatch):
        """A Fiedler vector that puts a few nodes far from the rest
        still yields balanced parts: the cut follows the sorted order,
        not a median threshold."""

        def lopsided(graph):
            # three nodes above the median, every other node tied below
            vec = np.zeros(graph.n_nodes)
            vec[-3:] = 1.0
            return vec

        monkeypatch.setattr("repro.scale.partition.fiedler_vector", lopsided)
        graph = stochastic_block_model([41] * 3, 0.3, 0.02, seed=0)
        parts = self.derived_parts(graph, max_block_size=40)
        assert all(8 <= p.size <= 40 for p in parts)
        covered = np.concatenate(parts)
        assert sorted(covered.tolist()) == list(range(graph.n_nodes))

    @pytest.mark.parametrize(
        "n_nodes, expected",
        [(20, 1), (40, 1), (41, 2), (160, 4), (161, 8)],
    )
    def test_derived_part_count(self, n_nodes, expected):
        """``n_parts=None`` cuts into the smallest power of two whose
        balanced parts fit under ``max_block_size`` (40 here)."""
        graph = erdos_renyi_graph(n_nodes, 0.1, seed=n_nodes)
        parts = self.derived_parts(graph, max_block_size=40)
        assert len(parts) == expected
        assert all(8 <= p.size <= 40 for p in parts)
        covered = np.concatenate(parts)
        assert sorted(covered.tolist()) == list(range(n_nodes))


class TestPartitionHelpers:
    def graph_and_parts(self):
        graph = stochastic_block_model([10, 10], 0.6, 0.1, seed=0)
        parts = [np.arange(10), np.arange(10, 20)]
        return graph, parts

    def test_assignment_roundtrip(self):
        graph, parts = self.graph_and_parts()
        assignment = partition_assignment(parts, graph.n_nodes)
        assert np.array_equal(assignment[:10], np.zeros(10))
        assert np.array_equal(assignment[10:], np.ones(10))

    def test_assignment_rejects_overlap(self):
        with pytest.raises(GraphError):
            partition_assignment([np.array([0, 1]), np.array([1, 2])], 5)

    def test_cut_and_boundary_consistent(self):
        graph, parts = self.graph_and_parts()
        assignment = partition_assignment(parts, graph.n_nodes)
        crossing = cut_edges(graph, assignment)
        assert crossing.size > 0  # p_out=0.1 guarantees some cut edges
        assert np.all(assignment[crossing[:, 0]] != assignment[crossing[:, 1]])
        nodes = boundary_nodes(graph, assignment)
        assert set(nodes.tolist()) == set(np.unique(crossing).tolist())
        assert adjacent_parts(graph, assignment) == {(0, 1)}

    def test_unassigned_nodes_count_as_cut(self):
        graph, _ = self.graph_and_parts()
        partial = [np.arange(10)]  # nodes 10..19 unassigned
        assignment = partition_assignment(partial, graph.n_nodes)
        crossing = cut_edges(graph, assignment)
        # every edge inside the unassigned half is lost too
        degrees_inside = graph.subgraph(np.arange(10, 20)).n_edges
        assert crossing.shape[0] >= degrees_inside


class TestRebalance:
    def scores(self, m, p, seed=0):
        return np.random.default_rng(seed).random((m, p))

    def test_empty_source_part_gets_minimal_capacity(self):
        source_parts = [np.arange(5), np.empty(0, dtype=np.int64)]
        scores = np.array([[0.1, 0.9]] * 4 + [[0.9, 0.1]])
        target_parts = [np.flatnonzero(scores.argmax(1) == p) for p in (0, 1)]
        out = rebalance(target_parts, source_parts, scores)
        # the empty part has capacity 1: exactly one of the four nodes
        # that prefer it fits, the rest spill to part 0
        assert out[1].size == 1
        assert sorted(np.concatenate(out).tolist()) == list(range(5))

    def test_capacity_spill_to_next_best(self):
        source_parts = [np.arange(2), np.arange(2, 4)]  # capacities 4, 4
        rng = np.random.default_rng(1)
        scores = np.column_stack([np.full(6, 0.9), rng.random(6) * 0.5])
        out = rebalance(
            [np.arange(6), np.empty(0, dtype=np.int64)], source_parts, scores
        )
        assert out[0].size == 4  # capacity cap
        assert out[1].size == 2  # spilled nodes land in their second choice
        assert sorted(np.concatenate(out).tolist()) == list(range(6))

    def test_all_nodes_prefer_one_overflowing_part(self):
        # total capacity (2+2) < nodes (6): the overflow path must keep
        # every node, dumping the excess on its top preference
        source_parts = [np.array([0]), np.array([1])]
        scores = np.column_stack([np.full(6, 1.0), np.zeros(6)])
        out = rebalance(
            [np.arange(6), np.empty(0, dtype=np.int64)], source_parts, scores
        )
        merged = sorted(np.concatenate(out).tolist())
        assert merged == list(range(6))
        # capacity 2 each: two nodes fill part 0, two spill to part 1,
        # and the last two overflow back onto their top preference
        assert out[0].size == 4
        assert out[1].size == 2

    def test_no_duplicates_random(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            p = int(rng.integers(1, 5))
            m = int(rng.integers(1, 30))
            source_parts = [
                np.arange(int(rng.integers(0, 6))) for _ in range(p)
            ]
            scores = rng.random((m, p))
            out = rebalance(
                [np.empty(0, dtype=np.int64)] * p, source_parts, scores
            )
            merged = np.concatenate(out) if out else np.empty(0)
            assert sorted(merged.tolist()) == list(range(m))
