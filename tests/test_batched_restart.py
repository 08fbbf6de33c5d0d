"""Bitwise contract of the float64 stacked step.

The stacked step (``engine/batched.py``) advances restarts as one
``(R, n, m)`` lockstep; it serves the coalesced multi-pair solve.  Per
DESIGN.md's bitwise policy a pair solved through
``solve_coalesced([problem])`` must reproduce the serial ``fused-dense``
portfolio **bit for bit** — not approximately: chaotic GW iterations
amplify one-ulp differences to visible plan changes, so anything short
of equality would make the solve path a semantic choice.  These
property tests sweep seeds, view counts, annealing/portfolio regimes
and early-stopping behaviour and compare entire trajectories, not just
final plans.
"""

import numpy as np
import pytest

from repro.core import SLOTAlignConfig
from repro.datasets import make_semi_synthetic_pair
from repro.engine import solve_coalesced
from repro.engine.pipeline import AlignmentEngine
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words
from repro.ot.sinkhorn import (
    sinkhorn_log_kernel_fast,
    sinkhorn_log_kernel_fast_batched,
)


def bench_pair(seed=0, n_per_block=11):
    graph = stochastic_block_model([n_per_block] * 3, 0.35, 0.02, seed=seed)
    feats = community_bag_of_words(
        graph.node_labels, 30, words_per_node=6, seed=seed + 1
    )
    graph = graph.with_features(feats)
    graph.node_labels = None
    return make_semi_synthetic_pair(graph, edge_noise=0.2, seed=seed + 2)


def solve_both(config, source, target, init_plan=None):
    engine = AlignmentEngine(config, backend="fused-dense", cache=None)
    serial = engine.align(source, target, init_plan=init_plan)
    [stacked] = solve_coalesced(
        [engine.plan(source, target, init_plan=init_plan)]
    )
    return serial, stacked


def assert_identical(serial, batched):
    """Whole-trajectory equality: plans, β, histories, portfolio."""
    np.testing.assert_array_equal(serial.plan, batched.plan)
    np.testing.assert_array_equal(
        serial.extras["beta_source"], batched.extras["beta_source"]
    )
    np.testing.assert_array_equal(
        serial.extras["beta_target"], batched.extras["beta_target"]
    )
    assert serial.extras["objective"] == batched.extras["objective"]
    assert serial.extras["selected_start"] == batched.extras["selected_start"]
    assert (
        serial.extras["start_objectives"] == batched.extras["start_objectives"]
    )
    assert serial.extras["portfolio"] == batched.extras["portfolio"]
    hist_s = serial.extras["history"]
    hist_b = batched.extras["history"]
    assert hist_s.converged == hist_b.converged
    assert hist_s.objective_values == hist_b.objective_values
    assert hist_s.alpha_deltas == hist_b.alpha_deltas
    assert hist_s.plan_deltas == hist_b.plan_deltas


class TestPortfolioBitwise:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_across_seeds(self, seed):
        pair = bench_pair(seed=seed)
        cfg = SLOTAlignConfig(
            n_bases=2, structure_lr=0.1, max_outer_iter=60,
            sinkhorn_iter=40, track_history=True,
        )
        assert_identical(*solve_both(cfg, pair.source, pair.target))

    @pytest.mark.parametrize("n_bases", [1, 2, 3])
    def test_across_view_counts(self, n_bases):
        pair = bench_pair(seed=3)
        cfg = SLOTAlignConfig(
            n_bases=n_bases, structure_lr=0.1, max_outer_iter=40,
            sinkhorn_iter=30, track_history=True,
        )
        assert_identical(*solve_both(cfg, pair.source, pair.target))

    def test_early_stopped_restarts(self):
        """Restarts that converge before the budget leave the batch
        without perturbing the survivors (the bench regime: the frozen
        node-view run converges ~2/3 through)."""
        pair = bench_pair(seed=0)
        cfg = SLOTAlignConfig(
            n_bases=2, structure_lr=0.1, max_outer_iter=150,
            track_history=True,
        )
        serial, batched = solve_both(cfg, pair.source, pair.target)
        iterations = serial.extras["portfolio"]["iterations"]
        assert min(iterations.values()) < cfg.max_outer_iter, (
            "regression in the fixture: no restart early-stopped, so "
            "this test no longer exercises batch compression"
        )
        assert_identical(serial, batched)

    def test_pruned_portfolio_and_margins(self):
        pair = bench_pair(seed=1)
        cfg = SLOTAlignConfig(
            n_bases=2, structure_lr=0.1, max_outer_iter=80,
            anneal=False, portfolio_prune_iter=10, track_history=True,
        )
        serial, batched = solve_both(cfg, pair.source, pair.target)
        assert_identical(serial, batched)

    def test_no_pruning_full_budget(self):
        pair = bench_pair(seed=2)
        cfg = SLOTAlignConfig(
            n_bases=2, structure_lr=0.1, max_outer_iter=30,
            portfolio_prune_iter=0, track_history=True,
        )
        assert_identical(*solve_both(cfg, pair.source, pair.target))

    def test_tied_weights_and_centred_kernels(self):
        pair = bench_pair(seed=4)
        cfg = SLOTAlignConfig(
            n_bases=3, structure_lr=0.1, max_outer_iter=40,
            tie_weights=True, center_kernels=True, track_history=True,
        )
        assert_identical(*solve_both(cfg, pair.source, pair.target))

    def test_general_unfused_gradient_path(self):
        pair = bench_pair(seed=5)
        cfg = SLOTAlignConfig(
            n_bases=2, structure_lr=0.1, max_outer_iter=30,
            fused_contractions=False, track_history=True,
        )
        assert_identical(*solve_both(cfg, pair.source, pair.target))

    def test_informative_init_single_start(self):
        """The similarity init collapses the portfolio to one run."""
        pair = bench_pair(seed=6)
        cfg = SLOTAlignConfig(
            n_bases=2, structure_lr=0.1, max_outer_iter=40,
            use_feature_similarity_init=True, anneal=False,
            track_history=True,
        )
        serial, batched = solve_both(cfg, pair.source, pair.target)
        assert list(serial.extras["start_objectives"]) == ["uniform"]
        assert_identical(serial, batched)

    def test_rectangular_pair(self):
        """n != m: the stacked tensors are genuinely rectangular."""
        source = bench_pair(seed=7).source
        other = stochastic_block_model([9] * 3, 0.35, 0.02, seed=11)
        feats = community_bag_of_words(
            other.node_labels, 30, words_per_node=6, seed=12
        )
        target = other.with_features(feats)
        cfg = SLOTAlignConfig(
            n_bases=2, structure_lr=0.1, max_outer_iter=30,
            track_history=True,
        )
        assert_identical(*solve_both(cfg, source, target))

    def test_frozen_weight_restart_stays_frozen(self):
        pair = bench_pair(seed=8)
        cfg = SLOTAlignConfig(
            n_bases=2, structure_lr=0.1, max_outer_iter=30,
            learn_weights=False, multi_start=False, track_history=True,
        )
        serial, batched = solve_both(cfg, pair.source, pair.target)
        assert_identical(serial, batched)
        np.testing.assert_array_equal(batched.extras["beta_source"], 0.5)


class TestBatchedSinkhornKernel:
    """The (R, n, m) projection equals R serial projections exactly."""

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
    def test_slices_match_serial(self, tol):
        rng = np.random.default_rng(0)
        kernels = rng.standard_normal((5, 33, 27)) * 3.0
        mu = np.full(33, 1.0 / 33)
        nu = np.full(27, 1.0 / 27)
        batched = sinkhorn_log_kernel_fast_batched(
            kernels, mu, nu, max_iter=60, tol=tol
        )
        for row in range(kernels.shape[0]):
            serial = sinkhorn_log_kernel_fast(
                kernels[row], mu, nu, max_iter=60, tol=tol
            )
            np.testing.assert_array_equal(batched[row].plan, serial.plan)
            assert batched[row].n_iterations == serial.n_iterations
            assert batched[row].marginal_error == serial.marginal_error
            assert batched[row].converged == serial.converged

    def test_heterogeneous_convergence_compresses_batch(self):
        """Sharp and flat kernels converge at different iterations;
        every slice still matches its serial run bit for bit."""
        rng = np.random.default_rng(1)
        sharp = rng.standard_normal((2, 20, 20)) * 12.0
        flat = rng.standard_normal((2, 20, 20)) * 0.1
        kernels = np.concatenate([sharp, flat])
        mu = np.full(20, 1.0 / 20)
        batched = sinkhorn_log_kernel_fast_batched(
            kernels, mu, mu, max_iter=400, tol=1e-9
        )
        iters = {r.n_iterations for r in batched}
        assert len(iters) > 1, "fixture no longer exercises mixed exits"
        for row in range(kernels.shape[0]):
            serial = sinkhorn_log_kernel_fast(
                kernels[row], mu, mu, max_iter=400, tol=1e-9
            )
            np.testing.assert_array_equal(batched[row].plan, serial.plan)
            assert batched[row].n_iterations == serial.n_iterations

    def test_empty_batch(self):
        mu = np.full(4, 0.25)
        assert sinkhorn_log_kernel_fast_batched(
            np.empty((0, 4, 4)), mu, mu
        ) == []
