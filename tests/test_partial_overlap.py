"""Tests for the partial-overlap alignment workload (PR 8).

Covers the partial-pair construction protocol
(:class:`repro.datasets.PartialPairSpec` / ``make_partial_pair`` /
``inject_nodes``), the two partial solver backends, the classical
backends' refusal of partial inputs, anchor threading through the
engine, and — the pinned contract — **bitwise parity**: a
``partial-dummy`` solve at overlap 1.0 with no anchors IS the
``fused-dense`` reference run, plan for plan.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import SLOTAlignConfig
from repro.datasets import (
    PartialPairSpec,
    make_partial_pair,
    make_semi_synthetic_pair,
)
from repro.engine import (
    AlignmentEngine,
    available_backends,
    ensure_classical_problem,
    get_backend,
    partial_backends,
)
from repro.eval import run_partial_sweep
from repro.exceptions import ConfigError, DatasetError, GraphError
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words
from repro.graphs.perturbation import inject_nodes

FAST = SLOTAlignConfig(
    n_bases=2, structure_lr=0.1, max_outer_iter=25, sinkhorn_iter=20,
    track_history=False,
)
#: single-restart profile for the sweep smoke test (tier-1 stays fast)
TINY = replace(
    FAST, max_outer_iter=10, sinkhorn_iter=10,
    multi_start=False, single_start_view="node",
)


def base_graph(seed=0, n_per_block=10):
    graph = stochastic_block_model([n_per_block] * 3, 0.4, 0.02, seed=seed)
    feats = community_bag_of_words(
        graph.node_labels, 30, words_per_node=6, seed=seed + 1
    )
    graph = graph.with_features(feats)
    graph.node_labels = None
    return graph


class TestPartialPairSpec:
    def test_defaults_are_the_classical_setting(self):
        spec = PartialPairSpec()
        assert spec.overlap == 1.0
        assert spec.anchor_fraction == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"overlap": 0.0},
            {"overlap": 1.5},
            {"overlap": -0.1},
            {"anchor_fraction": -0.1},
            {"anchor_fraction": 1.5},
            {"drop_balance": -0.1},
            {"drop_balance": 1.1},
            {"inject_target": -0.5},
        ],
    )
    def test_rejects_out_of_range_fields(self, kwargs):
        with pytest.raises(DatasetError):
            PartialPairSpec(**kwargs)

    def test_config_knobs_validated(self):
        with pytest.raises(ConfigError, match="partial_mass"):
            SLOTAlignConfig(partial_mass=0.0)
        with pytest.raises(ConfigError, match="partial_mass"):
            SLOTAlignConfig(partial_mass=1.5)
        with pytest.raises(ConfigError, match="partial_rho"):
            SLOTAlignConfig(partial_rho=0.0)


class TestMakePartialPair:
    def test_full_overlap_is_the_bijective_pair(self):
        graph = base_graph()
        pair = make_partial_pair(graph, PartialPairSpec(overlap=1.0), seed=3)
        n = graph.n_nodes
        assert pair.source.n_nodes == n
        assert pair.target.n_nodes == n
        assert pair.ground_truth.shape == (n, 2)
        assert pair.source_matchable.all()
        assert pair.target_matchable.all()
        assert pair.anchors.shape == (0, 2)
        assert pair.overlap_fraction == 1.0

    def test_ground_truth_covers_exactly_the_matchable_nodes(self):
        graph = base_graph()
        pair = make_partial_pair(graph, PartialPairSpec(overlap=0.6), seed=3)
        gt = pair.ground_truth
        n_overlap = int(round(0.6 * graph.n_nodes))
        assert gt.shape[0] == n_overlap
        source_flag = np.zeros(pair.source.n_nodes, dtype=bool)
        source_flag[gt[:, 0]] = True
        np.testing.assert_array_equal(source_flag, pair.source_matchable)
        target_flag = np.zeros(pair.target.n_nodes, dtype=bool)
        target_flag[gt[:, 1]] = True
        np.testing.assert_array_equal(target_flag, pair.target_matchable)
        # the dropped nodes really are split between the two sides
        assert pair.source.n_nodes < graph.n_nodes
        assert pair.target.n_nodes < graph.n_nodes

    def test_ground_truth_maps_true_counterparts(self):
        """With no noise, GT pairs carry identical feature vectors —
        the permutation protocol copies ``Xt = Pᵀ Xs``."""
        graph = base_graph()
        pair = make_partial_pair(graph, PartialPairSpec(overlap=0.7), seed=5)
        np.testing.assert_array_equal(
            pair.source.features[pair.ground_truth[:, 0]],
            pair.target.features[pair.ground_truth[:, 1]],
        )

    def test_drop_balance_extremes(self):
        graph = base_graph()
        n = graph.n_nodes
        n_overlap = int(round(0.6 * n))
        source_heavy = make_partial_pair(
            graph, PartialPairSpec(overlap=0.6, drop_balance=1.0), seed=7
        )
        # every non-overlapping node survives in the source only
        assert source_heavy.source.n_nodes == n
        assert source_heavy.target.n_nodes == n_overlap
        target_heavy = make_partial_pair(
            graph, PartialPairSpec(overlap=0.6, drop_balance=0.0), seed=7
        )
        assert target_heavy.source.n_nodes == n_overlap
        assert target_heavy.target.n_nodes == n

    def test_anchor_sampling(self):
        graph = base_graph()
        pair = make_partial_pair(
            graph, PartialPairSpec(overlap=0.8, anchor_fraction=0.25), seed=9
        )
        expected = int(round(0.25 * pair.ground_truth.shape[0]))
        assert pair.anchors.shape == (expected, 2)
        gt_pairs = {tuple(row) for row in pair.ground_truth}
        for row in pair.anchors:
            assert tuple(row) in gt_pairs

    def test_same_seed_same_drops_across_anchor_fractions(self):
        """The sweep's isolation discipline: one seed per overlap level
        must reproduce identical node drops for every anchor fraction."""
        graph = base_graph()
        bare = make_partial_pair(
            graph, PartialPairSpec(overlap=0.6, anchor_fraction=0.0), seed=11
        )
        seeded = make_partial_pair(
            graph, PartialPairSpec(overlap=0.6, anchor_fraction=0.3), seed=11
        )
        np.testing.assert_array_equal(bare.ground_truth, seeded.ground_truth)
        np.testing.assert_array_equal(
            bare.source_matchable, seeded.source_matchable
        )
        assert seeded.anchors.shape[0] > 0

    def test_injected_impostors_are_unmatchable(self):
        graph = base_graph()
        pair = make_partial_pair(
            graph, PartialPairSpec(overlap=0.8, inject_target=0.2), seed=13
        )
        n_inject = int(round(0.2 * graph.n_nodes))
        assert pair.target.n_nodes == pair.target_matchable.shape[0]
        assert not pair.target_matchable[-n_inject:].any()
        # injection never touches the ground truth
        assert pair.ground_truth[:, 1].max() < pair.target.n_nodes - n_inject

    def test_anchor_outside_ground_truth_rejected(self):
        graph = base_graph()
        pair = make_partial_pair(graph, PartialPairSpec(overlap=0.8), seed=3)
        gt_pairs = {tuple(row) for row in pair.ground_truth}
        bogus = next(
            (i, j)
            for i in range(pair.source.n_nodes)
            for j in range(pair.target.n_nodes)
            if (i, j) not in gt_pairs
        )
        with pytest.raises(DatasetError, match="not a ground-truth pair"):
            make_partial_pair(
                graph, PartialPairSpec(overlap=0.8), seed=3
            ).__class__(
                source=pair.source,
                target=pair.target,
                ground_truth=pair.ground_truth,
                anchors=np.array([bogus]),
            )


class TestInjectNodes:
    def test_zero_injection_is_a_copy(self):
        graph = base_graph()
        out = inject_nodes(graph, 0, seed=0)
        assert out is not graph
        np.testing.assert_array_equal(
            out.dense_adjacency(), graph.dense_adjacency()
        )

    def test_negative_injection_rejected(self):
        with pytest.raises(GraphError):
            inject_nodes(base_graph(), -1)

    def test_impostors_appended_with_edges_and_features(self):
        graph = base_graph()
        out = inject_nodes(graph, 4, seed=0)
        assert out.n_nodes == graph.n_nodes + 4
        assert out.features.shape == (out.n_nodes, graph.n_features)
        # original block untouched
        np.testing.assert_array_equal(
            out.dense_adjacency()[: graph.n_nodes, : graph.n_nodes],
            graph.dense_adjacency(),
        )
        np.testing.assert_array_equal(
            out.features[: graph.n_nodes], graph.features
        )
        # every impostor is connected (degree target is at least 1)
        assert (out.degrees[graph.n_nodes:] >= 1).all()

    def test_impostor_features_bootstrap_the_marginals(self):
        """Each injected feature value is drawn from the existing values
        of its own column — impostors match marginal statistics."""
        graph = base_graph()
        out = inject_nodes(graph, 3, seed=1)
        for column in range(graph.n_features):
            existing = set(np.unique(graph.features[:, column]))
            injected = out.features[graph.n_nodes:, column]
            assert all(value in existing for value in injected)


class TestClassicalGuards:
    def test_partial_backends_registered(self):
        backends = available_backends()
        assert "partial-dummy" in backends
        assert "partial-unbalanced" in backends
        assert set(partial_backends()) == {"partial-dummy", "partial-unbalanced"}
        assert get_backend("partial-dummy").kind == "dense"

    @pytest.mark.parametrize(
        "precision", ["float64", "float32"],
        ids=["fused-dense", "float32"],
    )
    def test_classical_backend_refuses_partial_mass(self, precision):
        pair = make_partial_pair(
            base_graph(), PartialPairSpec(overlap=0.8), seed=0
        )
        cfg = replace(FAST, partial_mass=0.8)
        engine = AlignmentEngine(cfg, cache=None, precision=precision)
        with pytest.raises(ConfigError, match="partial-dummy"):
            engine.align(pair.source, pair.target)

    @pytest.mark.parametrize(
        "precision", ["float64", "float32"],
        ids=["fused-dense", "float32"],
    )
    def test_classical_backend_refuses_anchors(self, precision):
        pair = make_partial_pair(
            base_graph(), PartialPairSpec(overlap=0.8, anchor_fraction=0.3),
            seed=0,
        )
        engine = AlignmentEngine(FAST, cache=None, precision=precision)
        with pytest.raises(ConfigError, match="anchor"):
            engine.solve(
                engine.plan(pair.source, pair.target, anchors=pair.anchors)
            )

    def test_ensure_classical_problem_passes_clean_input(self):
        pair = make_semi_synthetic_pair(base_graph(), seed=0)
        problem = AlignmentEngine(FAST, cache=None).plan(
            pair.source, pair.target
        )
        ensure_classical_problem(problem, "fused-dense")  # no raise

    def test_anchor_indices_validated_at_plan_time(self):
        pair = make_semi_synthetic_pair(base_graph(), seed=0)
        engine = AlignmentEngine(FAST, cache=None)
        with pytest.raises(GraphError, match="anchor"):
            engine.plan(
                pair.source, pair.target,
                anchors=np.array([[0, pair.target.n_nodes + 5]]),
            )


class TestParity:
    """Satellite 1: overlap=1.0, zero anchors ⇒ bitwise fused-dense."""

    def test_partial_dummy_delegates_bitwise(self):
        graph = base_graph()
        pair = make_partial_pair(graph, PartialPairSpec(overlap=1.0), seed=2)
        reference = AlignmentEngine(FAST, cache=None).align(
            pair.source, pair.target
        )
        partial = AlignmentEngine(
            FAST, backend="partial-dummy", cache=None
        ).align(pair.source, pair.target)
        # bitwise, not allclose: the delegation must BE the reference
        np.testing.assert_array_equal(partial.plan, reference.plan)
        np.testing.assert_array_equal(
            partial.extras["beta_source"], reference.extras["beta_source"]
        )
        np.testing.assert_array_equal(
            partial.extras["beta_target"], reference.extras["beta_target"]
        )
        assert partial.extras["objective"] == reference.extras["objective"]
        assert partial.extras["backend"] == "partial-dummy"
        info = partial.extras["partial"]
        assert info["delegated"] is True
        assert info["mass"] == 1.0
        assert not info["source_unmatchable"].any()

    def test_parity_metrics_match(self):
        graph = base_graph()
        pair = make_partial_pair(graph, PartialPairSpec(overlap=1.0), seed=2)
        runs = {
            backend: AlignmentEngine(FAST, backend=backend, cache=None).run(
                pair.source, pair.target, pair.ground_truth, ks=(1, 5)
            )
            for backend in ("fused-dense", "partial-dummy")
        }
        assert runs["fused-dense"].metrics == runs["partial-dummy"].metrics


class TestPartialBackends:
    def partial_run(self, backend, overlap=0.6, anchor_fraction=0.0, seed=4):
        graph = base_graph()
        pair = make_partial_pair(
            graph,
            PartialPairSpec(overlap=overlap, anchor_fraction=anchor_fraction),
            seed=seed,
        )
        cfg = replace(TINY, partial_mass=pair.overlap_fraction)
        engine = AlignmentEngine(cfg, backend=backend, cache=None)
        anchors = pair.anchors if pair.anchors.size else None
        result = engine.solve(
            engine.plan(pair.source, pair.target, anchors=anchors)
        )
        return pair, result

    def test_dummy_transports_exactly_the_requested_mass(self):
        pair, result = self.partial_run("partial-dummy")
        assert result.plan.shape == (pair.source.n_nodes, pair.target.n_nodes)
        assert result.plan.sum() == pytest.approx(
            pair.overlap_fraction, rel=1e-12
        )
        assert np.all(result.plan >= 0)
        info = result.extras["partial"]
        assert info["mode"] == "dummy"
        assert info["delegated"] is False
        assert 0.0 < info["matched_mass"] <= 1.0 + 1e-9
        for side in ("source_unmatchable", "target_unmatchable"):
            assert np.all((info[side] >= 0.0) & (info[side] <= 1.0))

    def test_dummy_shed_scores_separate_unmatchable_nodes(self):
        pair, result = self.partial_run("partial-dummy")
        scores = result.extras["partial"]["source_unmatchable"]
        unmatchable = scores[~pair.source_matchable].mean()
        matchable = scores[pair.source_matchable].mean()
        assert unmatchable > matchable

    def test_unbalanced_plan_well_formed(self):
        pair, result = self.partial_run("partial-unbalanced")
        assert result.plan.shape == (pair.source.n_nodes, pair.target.n_nodes)
        assert np.all(np.isfinite(result.plan))
        assert np.all(result.plan >= 0)
        info = result.extras["partial"]
        assert info["mode"] == "unbalanced"
        assert info["rho"] == TINY.partial_rho
        assert 0.0 < info["matched_mass"] <= 1.0 + 1e-9
        for side in ("source_unmatchable", "target_unmatchable"):
            assert np.all((info[side] >= 0.0) & (info[side] <= 1.0))

    @pytest.mark.parametrize("backend", ["partial-dummy", "partial-unbalanced"])
    def test_anchor_prior_concentrates_anchor_cells(self, backend):
        """The +weight prior must visibly pull anchored cells upward
        relative to the unanchored run — anchors are consumed, not
        silently dropped."""
        bare_pair, bare = self.partial_run(backend, anchor_fraction=0.0)
        pair, seeded = self.partial_run(backend, anchor_fraction=0.4)
        np.testing.assert_array_equal(
            bare_pair.ground_truth, pair.ground_truth
        )
        rows, cols = pair.anchors[:, 0], pair.anchors[:, 1]
        assert seeded.plan[rows, cols].sum() > bare.plan[rows, cols].sum()
        assert seeded.extras["partial"]["n_anchors"] == pair.anchors.shape[0]


class TestPartialSweep:
    def test_sweep_points_report_the_full_contract(self):
        graph = base_graph(n_per_block=8)
        points = run_partial_sweep(
            graph, overlaps=(1.0, 0.6), anchor_fractions=(0.0,),
            config=TINY, seed=0, ks=(1, 5),
        )
        assert len(points) == 2
        by_overlap = {p["overlap"]: p for p in points}
        assert set(by_overlap) == {1.0, 0.6}
        for point in points:
            assert point["backend"] == "partial-dummy"
            assert {"hits@1", "hits@5", "mrr"} <= set(point)
            assert 0.0 < point["matched_mass"] <= 1.0 + 1e-9
            assert point["runtime"] >= 0.0
        assert by_overlap[1.0]["matchable_fraction"] == 1.0
        assert by_overlap[1.0]["detection"]["n_unmatchable"] == 0
        assert by_overlap[0.6]["detection"]["n_unmatchable"] > 0
        assert by_overlap[0.6]["matchable_fraction"] < 1.0
