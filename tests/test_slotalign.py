"""Tests for the SLOTAlign core algorithm (Algorithm 1, Prop. 4, Thm. 5)."""

import dataclasses
import importlib

import numpy as np
import pytest

from repro.core import (
    SLOTAlign,
    SLOTAlignConfig,
    slotalign,
)
from repro.core.config import ETA_START
from repro.core.slotalign import feature_similarity_plan
from repro.datasets import make_semi_synthetic_pair
from repro.engine import restarts
from repro.eval import hits_at_k
from repro.exceptions import ConfigError, GraphError
from repro.graphs import (
    erdos_renyi_graph,
    permute_features,
    permute_graph,
    stochastic_block_model,
)
from repro.graphs.features import community_bag_of_words


def sbm_pair(seed=0, edge_noise=0.0, n_per_block=15):
    graph = stochastic_block_model([n_per_block] * 3, 0.3, 0.02, seed=seed)
    feats = community_bag_of_words(graph.node_labels, 40, words_per_node=8, seed=seed + 1)
    graph = graph.with_features(feats)
    graph.node_labels = None
    return make_semi_synthetic_pair(graph, edge_noise=edge_noise, seed=seed + 2)


FAST = dict(max_outer_iter=60, sinkhorn_iter=60, track_history=False)

# (module, constant, value) of every solver number no config field sets
FIXED_SOLVER_NUMBERS = [
    ("repro.core.config", "ETA_START", 0.5),
    ("repro.core.config", "ANNEAL_FRACTION", 0.6),
    ("repro.engine.restarts", "ALPHA_TOL", 1e-6),
    ("repro.engine.restarts", "PLAN_TOL", 1e-7),
    ("repro.engine.restarts", "PRUNE_ITER", 20),
    ("repro.engine.restarts", "PRUNE_MARGIN", 0.25),
    ("repro.engine.restarts", "REFINE_MARGIN", 0.05),
    ("repro.engine.partial", "_ANCHOR_WEIGHT", 10.0),
    ("repro.ot.sinkhorn", "SINKHORN_TOL", 1e-9),
    ("repro.scale.aligner", "MIN_BLOCK_SIZE", 8),
]


class TestConfig:
    def test_defaults_valid(self):
        SLOTAlignConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_bases=0),
            dict(structure_lr=-1.0),
            dict(sinkhorn_lr=0.0),
            dict(sinkhorn_lr=0.6),
            dict(max_outer_iter=0),
            dict(sinkhorn_iter=0),
            dict(include_views=()),
            dict(include_views=("edge", "magic")),
            dict(structure_lr=0.0),
            dict(sinkhorn_lr=ETA_START + 1e-9),
            dict(hop_mix=0.0),
            dict(hop_mix=1.5),
            dict(partial_mass=0.0),
            dict(partial_mass=1.5),
            dict(partial_rho=0.0),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SLOTAlignConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # annealing may start at the paper value itself
            dict(sinkhorn_lr=ETA_START),
            dict(max_outer_iter=1, sinkhorn_iter=1),
            dict(n_bases=1, single_start_view="edge"),
        ],
    )
    def test_boundary_configs_accepted(self, kwargs):
        SLOTAlignConfig(**kwargs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "name",
        [f.name for f in dataclasses.fields(SLOTAlignConfig) if f.type == "float"],
    )
    def test_non_finite_float_fields_rejected(self, name, value):
        """NaN passes no comparison, so range checks alone let it in."""
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            SLOTAlignConfig(**{name: value})

    @pytest.mark.parametrize(
        "module, name, value",
        FIXED_SOLVER_NUMBERS,
        ids=[f"{m.rsplit('.', 1)[-1]}.{n}" for m, n, _ in FIXED_SOLVER_NUMBERS],
    )
    def test_fixed_solver_numbers(self, module, name, value):
        """The numbers no config sets; the golden plan hashes assume them."""
        assert getattr(importlib.import_module(module), name) == value


class TestAlignmentQuality:
    def test_perfect_on_clean_pair(self):
        pair = sbm_pair(seed=1)
        result = SLOTAlign(SLOTAlignConfig(n_bases=2, structure_lr=0.1, **FAST)).fit(
            pair.source, pair.target
        )
        assert hits_at_k(result.plan, pair.ground_truth, 1) > 90.0

    def test_robust_to_moderate_edge_noise(self):
        pair = sbm_pair(seed=2, edge_noise=0.2)
        result = SLOTAlign(SLOTAlignConfig(n_bases=2, structure_lr=0.1, **FAST)).fit(
            pair.source, pair.target
        )
        assert hits_at_k(result.plan, pair.ground_truth, 1) > 60.0

    def test_plan_is_valid_coupling(self):
        pair = sbm_pair(seed=3)
        result = slotalign(pair.source, pair.target, SLOTAlignConfig(n_bases=2, **FAST))
        n, m = pair.source.n_nodes, pair.target.n_nodes
        assert result.plan.shape == (n, m)
        assert result.plan.min() >= 0
        # rows are exact (the scaling closes on a u-update); columns are
        # satisfied to Sinkhorn tolerance, which the sharp proximal
        # kernels limit to ~1e-4 at this iteration budget
        np.testing.assert_allclose(result.plan.sum(axis=1), 1 / n, atol=1e-8)
        np.testing.assert_allclose(result.plan.sum(axis=0), 1 / m, atol=2e-3)

    def test_rectangular_pair(self):
        """Source and target of different sizes align without error."""
        rng = np.random.default_rng(4)
        gs = erdos_renyi_graph(20, 0.3, seed=4).with_features(rng.random((20, 6)))
        gt = erdos_renyi_graph(25, 0.3, seed=5).with_features(rng.random((25, 6)))
        result = SLOTAlign(SLOTAlignConfig(n_bases=2, **FAST)).fit(gs, gt)
        assert result.plan.shape == (20, 25)


class TestProposition4:
    def test_invariant_to_full_feature_permutation(self):
        """SLOTAlign(Gs, Gt) == SLOTAlign(Gs, P(Gt)) exactly."""
        pair = sbm_pair(seed=6, edge_noise=0.15)
        cfg = SLOTAlignConfig(n_bases=2, structure_lr=0.1, **FAST)
        base = SLOTAlign(cfg).fit(pair.source, pair.target)
        permuted_target = permute_features(pair.target, 1.0, seed=7)
        after = SLOTAlign(cfg).fit(pair.source, permuted_target)
        np.testing.assert_allclose(base.plan, after.plan, atol=1e-10)

    def test_invariant_on_source_side_too(self):
        pair = sbm_pair(seed=8)
        cfg = SLOTAlignConfig(n_bases=3, structure_lr=0.1, **FAST)
        base = SLOTAlign(cfg).fit(pair.source, pair.target)
        permuted_source = permute_features(pair.source, 1.0, seed=9)
        after = SLOTAlign(cfg).fit(permuted_source, pair.target)
        np.testing.assert_allclose(base.plan, after.plan, atol=1e-10)


class TestTheorem5:
    def test_objective_monotonically_decreases(self):
        """Sufficient decrease at fixed eta (annealing disabled)."""
        pair = sbm_pair(seed=10, edge_noise=0.1)
        cfg = SLOTAlignConfig(
            n_bases=2,
            structure_lr=0.05,
            max_outer_iter=40,
            track_history=True,
            anneal=False,
            multi_start=False,
        )
        aligner = SLOTAlign(cfg)
        aligner.fit(pair.source, pair.target)
        assert aligner.history.is_monotone_decreasing(slack=1e-6)

    def test_iterate_movement_square_summable_in_practice(self):
        pair = sbm_pair(seed=11)
        cfg = SLOTAlignConfig(
            n_bases=2,
            structure_lr=0.05,
            max_outer_iter=60,
            track_history=True,
            anneal=False,
            multi_start=False,
        )
        aligner = SLOTAlign(cfg)
        aligner.fit(pair.source, pair.target)
        deltas = np.asarray(aligner.history.plan_deltas)
        # the tail movement must be much smaller than the head movement
        assert deltas[-10:].sum() < 0.2 * deltas[:10].sum() + 1e-12

    def test_converged_flag_on_long_run(self, monkeypatch):
        monkeypatch.setattr(restarts, "ALPHA_TOL", 1e-4)
        monkeypatch.setattr(restarts, "PLAN_TOL", 1e-4)
        pair = sbm_pair(seed=12)
        cfg = SLOTAlignConfig(
            n_bases=2,
            structure_lr=0.05,
            max_outer_iter=500,
            sinkhorn_iter=50,
            anneal=False,
            multi_start=False,
            track_history=False,
        )
        aligner = SLOTAlign(cfg)
        aligner.fit(pair.source, pair.target)
        assert aligner.history.converged


class TestSchedules:
    """η annealing and portfolio pruning at the default 100 iterations,
    where annealing decays over the first 60."""

    @pytest.mark.parametrize(
        "kwargs, iteration, eta",
        [
            (dict(), 0, 0.5),
            # geometric decay: halfway through, the geometric mean
            (dict(), 30, (0.5 * 0.01) ** 0.5),
            (dict(), 60, 0.01),
            (dict(), 99, 0.01),
            (dict(anneal=False), 0, 0.01),
            # nothing to anneal when the paper value is the start value
            (dict(sinkhorn_lr=0.5), 0, 0.5),
        ],
    )
    def test_eta_schedule(self, kwargs, iteration, eta):
        config = SLOTAlignConfig(**kwargs)
        assert restarts.eta_schedule(config, iteration) == pytest.approx(
            eta, rel=1e-12
        )

    @pytest.mark.parametrize(
        "kwargs, schedule",
        [
            (dict(anneal=False), [(20, 0.25), (60, 0.05)]),
            (dict(anneal=False, max_outer_iter=60), [(20, 0.25)]),
            (dict(anneal=False, max_outer_iter=20), []),
            # annealed: one checkpoint, 20 iterations past the horizon
            (dict(), [(80, 0.05)]),
            (dict(max_outer_iter=50), []),
            (dict(sinkhorn_lr=0.5), [(20, 0.25), (60, 0.05)]),
        ],
    )
    def test_prune_schedule(self, kwargs, schedule):
        assert restarts.prune_schedule(SLOTAlignConfig(**kwargs)) == schedule


class TestMechanics:
    def test_beta_weights_on_simplex(self):
        pair = sbm_pair(seed=13)
        result = SLOTAlign(SLOTAlignConfig(n_bases=3, **FAST)).fit(
            pair.source, pair.target
        )
        for beta in (result.extras["beta_source"], result.extras["beta_target"]):
            assert beta.min() >= -1e-12
            assert beta.sum() == pytest.approx(1.0)

    def test_multi_start_portfolio_recorded(self):
        pair = sbm_pair(seed=14)
        result = SLOTAlign(SLOTAlignConfig(n_bases=2, **FAST)).fit(
            pair.source, pair.target
        )
        objectives = result.extras["start_objectives"]
        assert set(objectives) == {"uniform", "edge", "node", "node-frozen"}
        pruned = set(result.extras["portfolio"]["pruned"])
        survivors = {
            label: value
            for label, value in objectives.items()
            if label not in pruned
        }
        assert survivors, "pruning must never remove every restart"
        assert result.extras["selected_start"] in survivors
        assert result.extras["objective"] == pytest.approx(min(survivors.values()))

    def test_portfolio_pruning_preserves_winner(self, monkeypatch):
        """Successive halving must return the same plan as the full
        portfolio whenever the eventual winner survives pruning."""
        pair = sbm_pair(seed=24, edge_noise=0.1)
        cfg = SLOTAlignConfig(n_bases=2, **FAST)
        halved = SLOTAlign(cfg).fit(pair.source, pair.target)
        monkeypatch.setattr(restarts, "prune_schedule", lambda config: [])
        full = SLOTAlign(cfg).fit(pair.source, pair.target)
        assert not full.extras["portfolio"]["pruned"]
        assert halved.extras["portfolio"]["pruned"], (
            "regression in the fixture: nothing was pruned"
        )
        assert halved.extras["selected_start"] == full.extras["selected_start"]
        # the survivor followed its exact unpruned iterate path
        np.testing.assert_array_equal(halved.plan, full.plan)

    def test_portfolio_iterations_reported(self):
        pair = sbm_pair(seed=25)
        result = SLOTAlign(SLOTAlignConfig(n_bases=2, **FAST)).fit(
            pair.source, pair.target
        )
        portfolio = result.extras["portfolio"]
        iterations = portfolio["iterations"]
        assert set(iterations) == set(result.extras["start_objectives"])
        for label, stopped_at in portfolio["pruned"].items():
            assert stopped_at == iterations[label]
            assert stopped_at < FAST["max_outer_iter"]

    def test_phase_timings_recorded(self):
        pair = sbm_pair(seed=26)
        result = SLOTAlign(SLOTAlignConfig(n_bases=2, **FAST)).fit(
            pair.source, pair.target
        )
        timings = result.extras["phase_timings"]
        for key in ("basis_build", "alpha_update", "pi_update", "per_restart"):
            assert key in timings
        assert timings["pi_update"] > 0
        assert all(v >= 0 for v in timings["per_restart"].values())

    def test_single_start_when_disabled(self):
        pair = sbm_pair(seed=15)
        cfg = SLOTAlignConfig(n_bases=2, multi_start=False, **FAST)
        result = SLOTAlign(cfg).fit(pair.source, pair.target)
        assert list(result.extras["start_objectives"]) == ["uniform"]

    def test_single_start_view_vertex(self, monkeypatch):
        """A committed single start begins at the requested view's
        simplex vertex and matches the portfolio's run of that label."""
        pair = sbm_pair(seed=31)
        node_cfg = SLOTAlignConfig(
            n_bases=2, multi_start=False, single_start_view="node", **FAST
        )
        result = SLOTAlign(node_cfg).fit(pair.source, pair.target)
        assert list(result.extras["start_objectives"]) == ["node"]
        monkeypatch.setattr(restarts, "prune_schedule", lambda config: [])
        full = SLOTAlign(SLOTAlignConfig(n_bases=2, **FAST)).fit(
            pair.source, pair.target
        )
        assert result.extras["objective"] == pytest.approx(
            full.extras["start_objectives"]["node"]
        )

    def test_single_start_view_requires_included_view(self):
        with pytest.raises(ConfigError):
            SLOTAlignConfig(
                include_views=("edge",), single_start_view="node"
            )
        with pytest.raises(ConfigError):
            SLOTAlignConfig(single_start_view="subgraph")
        # the node view only materialises when n_bases leaves room for
        # it after the edge view
        with pytest.raises(ConfigError):
            SLOTAlignConfig(n_bases=1, single_start_view="node")
        SLOTAlignConfig(
            n_bases=1, include_views=("node", "subgraph"),
            single_start_view="node", multi_start=False,
        )

    def test_fixed_weights_stay_uniform(self):
        pair = sbm_pair(seed=16)
        cfg = SLOTAlignConfig(n_bases=2, learn_weights=False, multi_start=False, **FAST)
        result = SLOTAlign(cfg).fit(pair.source, pair.target)
        np.testing.assert_allclose(result.extras["beta_source"], 0.5)

    def test_custom_init_plan(self):
        pair = sbm_pair(seed=17)
        n, m = pair.source.n_nodes, pair.target.n_nodes
        init = np.full((n, m), 1.0 / (n * m))
        result = SLOTAlign(SLOTAlignConfig(n_bases=2, **FAST)).fit(
            pair.source, pair.target, init_plan=init
        )
        assert result.plan.shape == (n, m)

    def test_bad_init_plan_shape(self):
        pair = sbm_pair(seed=18)
        with pytest.raises(GraphError):
            SLOTAlign(SLOTAlignConfig(n_bases=2, **FAST)).fit(
                pair.source, pair.target, init_plan=np.ones((2, 2))
            )

    def test_negative_init_plan_rejected(self):
        pair = sbm_pair(seed=19)
        n, m = pair.source.n_nodes, pair.target.n_nodes
        bad = np.full((n, m), -1.0)
        with pytest.raises(GraphError):
            SLOTAlign(SLOTAlignConfig(n_bases=2, **FAST)).fit(
                pair.source, pair.target, init_plan=bad
            )

    def test_feature_similarity_init_dim_mismatch_keeps_multi_start(self):
        """When feature spaces are incomparable the similarity init
        degenerates to the uniform coupling; the informative flag must
        stay False so the restart portfolio is not silently disabled."""
        rng = np.random.default_rng(27)
        gs = erdos_renyi_graph(16, 0.3, seed=27).with_features(rng.random((16, 5)))
        gt = erdos_renyi_graph(16, 0.3, seed=28).with_features(rng.random((16, 9)))
        cfg = SLOTAlignConfig(
            n_bases=2, use_feature_similarity_init=True, **FAST
        )
        result = SLOTAlign(cfg).fit(gs, gt)
        assert set(result.extras["start_objectives"]) == {
            "uniform", "edge", "node", "node-frozen",
        }

    def test_feature_similarity_init_matching_dims_single_start(self):
        rng = np.random.default_rng(29)
        gs = erdos_renyi_graph(16, 0.3, seed=29).with_features(rng.random((16, 5)))
        gt = erdos_renyi_graph(16, 0.3, seed=30).with_features(rng.random((16, 5)))
        cfg = SLOTAlignConfig(
            n_bases=2, use_feature_similarity_init=True, **FAST
        )
        result = SLOTAlign(cfg).fit(gs, gt)
        assert list(result.extras["start_objectives"]) == ["uniform"]

    def test_feature_similarity_init_requires_features(self):
        gs = erdos_renyi_graph(10, 0.3, seed=20)
        gt = erdos_renyi_graph(10, 0.3, seed=21)
        cfg = SLOTAlignConfig(
            n_bases=1, include_views=("edge",), use_feature_similarity_init=True, **FAST
        )
        with pytest.raises(GraphError):
            SLOTAlign(cfg).fit(gs, gt)

    def test_runtime_recorded(self):
        pair = sbm_pair(seed=22)
        result = SLOTAlign(SLOTAlignConfig(n_bases=2, **FAST)).fit(
            pair.source, pair.target
        )
        assert result.runtime > 0
        assert result.method == "SLOTAlign"


class TestFeatureSimilarityPlan:
    def test_valid_coupling(self):
        rng = np.random.default_rng(23)
        xs, xt = rng.random((8, 5)), rng.random((10, 5))
        mu, nu = np.full(8, 1 / 8), np.full(10, 0.1)
        plan = feature_similarity_plan(xs, xt, mu, nu)
        np.testing.assert_allclose(plan.sum(axis=1), mu, atol=1e-6)
        np.testing.assert_allclose(plan.sum(axis=0), nu, atol=1e-6)

    def test_identical_features_peak_on_matches(self):
        rng = np.random.default_rng(24)
        xs = rng.standard_normal((12, 6))
        mu = np.full(12, 1 / 12)
        plan = feature_similarity_plan(xs, xs, mu, mu)
        assert (np.argmax(plan, axis=1) == np.arange(12)).mean() > 0.9

    def test_dim_mismatch_falls_back_to_uniform(self):
        mu, nu = np.full(4, 0.25), np.full(5, 0.2)
        plan = feature_similarity_plan(
            np.ones((4, 3)), np.ones((5, 7)), mu, nu
        )
        np.testing.assert_allclose(plan, np.outer(mu, nu))
