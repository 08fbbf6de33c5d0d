"""Tests for divide-and-conquer alignment (repro.scale)."""

import numpy as np
import pytest

from repro.core import DivideAndConquerAligner, SLOTAlignConfig
from repro.datasets import make_semi_synthetic_pair
from repro.eval import hits_at_k
from repro.exceptions import GraphError
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words


def big_pair(seed=0, n_blocks=4, block=20):
    graph = stochastic_block_model([block] * n_blocks, 0.35, 0.01, seed=seed)
    feats = community_bag_of_words(
        graph.node_labels, 60, words_per_node=10, seed=seed + 1
    )
    graph = graph.with_features(feats)
    return make_semi_synthetic_pair(graph, seed=seed + 2)


FAST_CFG = SLOTAlignConfig(
    n_bases=2, structure_lr=0.1, max_outer_iter=60, sinkhorn_iter=40,
    track_history=False,
)


class TestDivideAndConquer:
    def test_partitions_cover_source(self):
        pair = big_pair(seed=1)
        aligner = DivideAndConquerAligner(FAST_CFG, max_block_size=30)
        out = aligner.fit(pair.source, pair.target)
        covered = np.concatenate([src for src, _ in out.partitions])
        assert sorted(covered.tolist()) == list(range(pair.source.n_nodes))

    def test_multiple_blocks_created(self):
        pair = big_pair(seed=2)
        out = DivideAndConquerAligner(FAST_CFG, max_block_size=30).fit(
            pair.source, pair.target
        )
        assert out.extras["n_parts"] >= 2

    def test_plan_shape_and_sparsity(self):
        pair = big_pair(seed=3)
        out = DivideAndConquerAligner(FAST_CFG, max_block_size=30).fit(
            pair.source, pair.target
        )
        assert out.plan.shape == (pair.source.n_nodes, pair.target.n_nodes)
        # block structure: strictly fewer stored entries than dense
        assert out.plan.nnz < pair.source.n_nodes * pair.target.n_nodes

    def test_alignment_quality_reasonable(self):
        """Partitioned alignment trades some accuracy for scalability
        but must stay far above chance on a clean community pair."""
        pair = big_pair(seed=4)
        out = DivideAndConquerAligner(FAST_CFG, max_block_size=30).fit(
            pair.source, pair.target
        )
        hit = hits_at_k(out.dense_plan(), pair.ground_truth, 1)
        chance = 100.0 / pair.target.n_nodes
        assert hit > 10 * chance

    def test_single_block_matches_direct(self):
        """With max_block_size >= n the result equals plain SLOTAlign."""
        pair = big_pair(seed=5, n_blocks=2, block=12)
        direct = DivideAndConquerAligner(FAST_CFG, max_block_size=500).fit(
            pair.source, pair.target
        )
        assert direct.extras["n_parts"] == 1
        from repro.core import SLOTAlign

        plain = SLOTAlign(FAST_CFG).fit(pair.source, pair.target)
        np.testing.assert_allclose(
            direct.dense_plan(), plain.plan, atol=1e-8
        )

    def test_block_size_validation(self):
        with pytest.raises(GraphError):
            DivideAndConquerAligner(FAST_CFG, max_block_size=10, min_block_size=8)

    def test_runtime_recorded(self):
        pair = big_pair(seed=6)
        out = DivideAndConquerAligner(FAST_CFG, max_block_size=30).fit(
            pair.source, pair.target
        )
        assert out.runtime > 0


class TestScaleSubsystemIntegration:
    """The rebuilt pipeline through the historical entry point."""

    def test_direct_kway_mode(self):
        pair = big_pair(seed=7)
        out = DivideAndConquerAligner(FAST_CFG, n_parts=4).fit(
            pair.source, pair.target
        )
        assert out.extras["n_parts"] == 4
        sizes = [src.size for src, _ in out.partitions]
        assert max(sizes) - min(sizes) <= 1
        assert 0.0 <= out.extras["source_cut_fraction"] <= 1.0

    def test_sparse_accessors(self):
        pair = big_pair(seed=8)
        out = DivideAndConquerAligner(FAST_CFG, n_parts=3).fit(
            pair.source, pair.target
        )
        cols, scores = out.top_k(5)
        n = pair.source.n_nodes
        assert cols.shape == scores.shape == (n, 5)
        matching = out.matching()
        assert matching.shape == (n,)
        # top-1 column agrees with the matching, scores are descending
        assert np.array_equal(cols[:, 0], matching)
        valid = cols[:, 1] != -1
        assert np.all(scores[valid, 0] >= scores[valid, 1])

    def test_kway_respects_min_block_size(self):
        pair = big_pair(seed=7)  # 80 nodes
        aligner = DivideAndConquerAligner(
            FAST_CFG, n_parts=20, min_block_size=8
        )
        with pytest.raises(GraphError):
            aligner.fit(pair.source, pair.target)

    def test_repair_stats_exposed(self):
        pair = big_pair(seed=9)
        out = DivideAndConquerAligner(FAST_CFG, n_parts=4).fit(
            pair.source, pair.target
        )
        stats = out.extras["repair"]
        assert stats["n_patched"] == len(stats["patched_pairs"])
        assert stats["n_anchors"] >= 0
