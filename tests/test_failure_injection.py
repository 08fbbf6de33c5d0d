"""Failure-injection tests: degenerate inputs must fail loudly or
degrade gracefully, never return silent garbage."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines import KNNAligner
from repro.core import SLOTAlign, SLOTAlignConfig
from repro.engine import (
    AlignmentEngine,
    PlanCache,
    available_decoders,
    evaluate_alignment,
    get_decoder,
)
from repro.eval import (
    alignment_accuracy,
    evaluate_plan,
    hits_at_k,
    sparse_topk,
)
from repro.exceptions import (
    ConvergenceError,
    GraphError,
    ReproError,
    ShapeError,
)
from repro.graphs import AttributedGraph, erdos_renyi_graph, permute_graph
from repro.ot import (
    proximal_gromov_wasserstein,
    sinkhorn_log_kernel_fast,
    sinkhorn_unbalanced_log_kernel,
)
from repro.serve import AlignmentService, JobState, wait_all

FAST = SLOTAlignConfig(
    n_bases=2, max_outer_iter=30, sinkhorn_iter=30, track_history=False
)


class TestDegenerateGraphs:
    def test_edgeless_graph_aligns_without_crash(self):
        rng = np.random.default_rng(0)
        g = AttributedGraph.from_edges(10, [], features=rng.random((10, 4)))
        h, _ = permute_graph(g, seed=1)
        result = SLOTAlign(FAST).fit(g, h)
        assert np.all(np.isfinite(result.plan))

    def test_single_node_graph(self):
        g = AttributedGraph.from_edges(1, [], features=np.ones((1, 3)))
        result = SLOTAlign(FAST).fit(g, g)
        assert result.plan.shape == (1, 1)
        assert result.plan[0, 0] == pytest.approx(1.0)

    def test_zero_feature_matrix(self):
        g = erdos_renyi_graph(12, 0.3, seed=2).with_features(np.zeros((12, 5)))
        h, _ = permute_graph(g, seed=3)
        result = SLOTAlign(FAST).fit(g, h)
        assert np.all(np.isfinite(result.plan))

    def test_featureless_needs_edge_only_views(self):
        g = erdos_renyi_graph(10, 0.3, seed=4)
        with pytest.raises(GraphError):
            SLOTAlign(FAST).fit(g, g)
        cfg = SLOTAlignConfig(
            n_bases=1, include_views=("edge",), max_outer_iter=20,
            track_history=False,
        )
        result = SLOTAlign(cfg).fit(g, g)
        assert result.plan.shape == (10, 10)

    def test_disconnected_components(self):
        edges = [(0, 1), (1, 2), (5, 6), (6, 7)]  # nodes 3,4 isolated
        rng = np.random.default_rng(5)
        g = AttributedGraph.from_edges(8, edges, features=rng.random((8, 4)))
        h, _ = permute_graph(g, seed=6)
        result = SLOTAlign(FAST).fit(g, h)
        assert np.all(np.isfinite(result.plan))

    def test_wildly_different_sizes(self):
        rng = np.random.default_rng(7)
        small = erdos_renyi_graph(5, 0.5, seed=7).with_features(rng.random((5, 4)))
        large = erdos_renyi_graph(60, 0.1, seed=8).with_features(rng.random((60, 4)))
        result = SLOTAlign(FAST).fit(small, large)
        assert result.plan.shape == (5, 60)


class TestEmptyGraphs:
    """A graph with no nodes is a typed input error at every entry point,
    not a division by zero in the marginals."""

    @staticmethod
    def graphs():
        empty = AttributedGraph.from_edges(0, [], features=np.ones((0, 4)))
        rng = np.random.default_rng(13)
        g = erdos_renyi_graph(8, 0.4, seed=13).with_features(rng.random((8, 4)))
        return empty, g

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_engine_names_the_empty_side(self, side):
        empty, g = self.graphs()
        pair = (empty, g) if side == "source" else (g, empty)
        with pytest.raises(GraphError, match=f"{side} graph has no nodes"):
            AlignmentEngine(FAST, cache=None).run(*pair)

    def test_service_fails_that_job_and_keeps_serving(self):
        empty, g = self.graphs()
        with AlignmentService(FAST, cache=PlanCache(), workers=1) as service:
            bad = service.submit(empty, empty)
            good = service.submit(g, g)
            assert wait_all([bad, good], timeout=120)
            stats = service.stats()
        assert bad.state is JobState.FAILED
        assert "GraphError" in bad.error and "no nodes" in bad.error
        assert good.state is JobState.DONE
        assert stats["failed"] == 1
        assert stats["completed"] == 1


class TestNumericalPoison:
    def test_nan_features_rejected_at_construction(self):
        feats = np.ones((5, 2))
        feats[0, 0] = np.nan
        with pytest.raises(GraphError):
            erdos_renyi_graph(5, 0.5, seed=9).with_features(feats)

    def test_nan_log_kernel_rejected(self):
        mu = np.full(3, 1 / 3)
        with pytest.raises(ConvergenceError):
            sinkhorn_log_kernel_fast(np.full((3, 3), np.nan), mu, mu)

    def test_huge_feature_values_stay_finite(self):
        rng = np.random.default_rng(10)
        g = erdos_renyi_graph(10, 0.4, seed=10).with_features(
            rng.random((10, 3)) * 1e8
        )
        h, _ = permute_graph(g, seed=11)
        result = SLOTAlign(FAST).fit(g, h)
        assert np.all(np.isfinite(result.plan))

    def test_gw_with_zero_cost_matrices(self):
        zero = np.zeros((6, 6))
        result = proximal_gromov_wasserstein(zero, zero, max_iter=10)
        # uniform coupling is optimal and must be returned intact
        np.testing.assert_allclose(result.plan, 1.0 / 36, atol=1e-9)


_DIAGONAL = np.array([[0, 0], [1, 1], [2, 2]])

#: every function a plan enters scoring or decoding through
_PLAN_CONSUMERS = {
    "evaluate_plan": lambda plan: evaluate_plan(plan, _DIAGONAL),
    "hits_at_k": lambda plan: hits_at_k(plan, _DIAGONAL, 1),
    "evaluate_alignment": lambda plan: evaluate_alignment(plan, _DIAGONAL),
    "sparse_topk": lambda plan: sparse_topk(plan, 2),
    **{
        f"decode-{name}": (lambda plan, name=name: get_decoder(name).decode(plan))
        for name in available_decoders()
    },
}


def _poisoned(kind):
    plan = np.full((3, 3), 0.1)
    if kind == "all-nan":
        # NaN equals nothing, itself included: unchecked, every true
        # target ranks -0.5, which reads as Hit@1 100 and MRR 2.0
        plan[:] = np.nan
    elif kind == "one-nan":
        plan[0, 0] = np.nan
    else:
        plan[0, 1] = np.inf
    return plan


class TestNonFinitePlans:
    """A diverged solve must never score or decode as an alignment:
    every plan consumer rejects NaN and inf, on dense entries and on
    the stored values of a CSR plan alike."""

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("kind", ["all-nan", "one-nan", "one-inf"])
    @pytest.mark.parametrize("consumer", sorted(_PLAN_CONSUMERS))
    def test_non_finite_plan_raises(self, consumer, kind, layout):
        plan = _poisoned(kind)
        if layout == "csr":
            plan = sp.csr_array(plan)
        with pytest.raises(
            ConvergenceError, match="plan contains non-finite entries"
        ):
            _PLAN_CONSUMERS[consumer](plan)

    @pytest.mark.parametrize(
        "plan",
        [np.empty((0, 0)), sp.csr_array((0, 0)), np.ones(3)],
        ids=["dense-empty", "csr-empty", "one-dimensional"],
    )
    @pytest.mark.parametrize("consumer", sorted(_PLAN_CONSUMERS))
    def test_malformed_plan_raises_shape_error(self, consumer, plan):
        with pytest.raises(ShapeError):
            _PLAN_CONSUMERS[consumer](plan)


class TestAlignmentAccuracyIndices:
    @pytest.mark.parametrize(
        "matching, ground_truth",
        [([0, 1, 2], [[-1, 2]]), ([-1, 1, 2], [[0, -1]])],
        ids=["negative-source", "negative-target"],
    )
    def test_negative_ground_truth_raises(self, matching, ground_truth):
        """A negative source index would wrap to the last row, and a
        negative target would count an unmatched row (``-1``) as
        correct: unchecked, both read as 100.0."""
        with pytest.raises(ShapeError, match="non-negative"):
            alignment_accuracy(np.array(matching), np.array(ground_truth))


class TestUnbalancedLogKernelInputs:
    """Degenerate inputs of the KL-relaxed projection behind the
    partial-unbalanced backend: invalid input is named as such, and
    only a kernel that leaves a node no finite entry diverges."""

    @pytest.mark.parametrize("side", ["mu", "nu"])
    def test_zero_mass_atom_is_rejected_by_name(self, side):
        log_kernel = np.random.default_rng(4).normal(size=(4, 5))
        marginals = {"mu": np.full(4, 0.25), "nu": np.full(5, 0.2)}
        marginals[side][1] = 0.0
        with pytest.raises(ValueError, match=side):
            sinkhorn_unbalanced_log_kernel(
                log_kernel, marginals["mu"], marginals["nu"], epsilon=0.1
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_inf_entry_is_reported_as_non_finite(self, bad):
        log_kernel = np.zeros((3, 3))
        log_kernel[1, 2] = bad
        mu = np.full(3, 1 / 3)
        with pytest.raises(
            ConvergenceError, match="log kernel contains non-finite entries"
        ):
            sinkhorn_unbalanced_log_kernel(log_kernel, mu, mu, epsilon=0.1)

    def test_single_neg_inf_entry_is_a_zero_mass_cell(self):
        log_kernel = np.random.default_rng(8).normal(scale=5.0, size=(4, 4))
        log_kernel[2, 1] = -np.inf
        mu = np.full(4, 0.25)
        result = sinkhorn_unbalanced_log_kernel(
            log_kernel, mu, mu, epsilon=0.1, max_iter=50, tol=1e-12
        )
        assert np.all(np.isfinite(result.plan))
        assert result.plan[2, 1] == 0.0
        assert result.plan.sum() > 0

    @pytest.mark.parametrize("axis", [0, 1])
    def test_neg_inf_row_or_column_diverges(self, axis):
        log_kernel = np.zeros((3, 4))
        if axis == 0:
            log_kernel[1, :] = -np.inf
        else:
            log_kernel[:, 2] = -np.inf
        with pytest.raises(ConvergenceError):
            sinkhorn_unbalanced_log_kernel(
                log_kernel, np.full(3, 1 / 3), np.full(4, 0.25), epsilon=0.1
            )


class TestErrorHierarchy:
    def test_all_library_errors_catchable_as_reproerror(self):
        g = erdos_renyi_graph(5, 0.5, seed=12)
        with pytest.raises(ReproError):
            KNNAligner().fit(g, g)  # GraphError is a ReproError
        with pytest.raises(ReproError):
            g.subgraph([99])
