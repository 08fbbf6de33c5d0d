"""Tests for the multi-pair coalesced solve (repro.engine.coalesce).

The load-bearing property is the bitwise contract: coalescing is pure
scheduling, so every pair's plan must be bit-for-bit what a direct
single-pair engine run returns — across batch compositions, portfolio
pruning, per-pair init plans and early-converged pairs.
"""

import numpy as np
import pytest

from repro.core import SLOTAlignConfig
from repro.core.objective import JointObjective
from repro.core.views import center_kernel
from repro.datasets import make_semi_synthetic_pair
from repro.engine import AlignmentEngine, coalescible, restarts, solve_coalesced
from repro.engine.pipeline import prepare_problem
from repro.exceptions import ConfigError
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words

FAST = SLOTAlignConfig(
    n_bases=2, structure_lr=0.1, max_outer_iter=25, sinkhorn_iter=20,
    track_history=False,
)


def bench_pair(seed=0, n_per_block=12):
    graph = stochastic_block_model([n_per_block] * 3, 0.4, 0.02, seed=seed)
    feats = community_bag_of_words(
        graph.node_labels, 30, words_per_node=6, seed=seed + 1
    )
    graph = graph.with_features(feats)
    graph.node_labels = None
    return make_semi_synthetic_pair(graph, edge_noise=0.1, seed=seed + 2)


def direct_plan(pair, config=FAST, **plan_kwargs):
    engine = AlignmentEngine(config, cache=None)
    problem = engine.plan(pair.source, pair.target, **plan_kwargs)
    return engine.solve(problem).plan


class TestCoalescedBitwise:
    def test_batch_of_distinct_pairs_matches_direct_runs(self):
        pairs = [bench_pair(seed=s) for s in range(4)]
        engine = AlignmentEngine(FAST, cache=None)
        problems = [engine.plan(p.source, p.target) for p in pairs]
        results = solve_coalesced(problems)
        assert len(results) == len(pairs)
        for pair, result in zip(pairs, results):
            np.testing.assert_array_equal(result.plan, direct_plan(pair))
            assert result.extras["backend"] == "coalesced"
            assert result.extras["coalesced"]["batch_size"] == 4

    def test_float64_members_report_the_batch_phase_totals(self):
        """Every member carries the whole batch's totals, in which the
        stacked projection is counted once: the phases are disjoint
        intervals of the batch's wall clock."""
        engine = AlignmentEngine(FAST, cache=None)
        problems = [
            engine.plan(p.source, p.target)
            for p in (bench_pair(seed=s) for s in range(3))
        ]
        results = solve_coalesced(problems)
        phases = ("alpha_update", "pi_update", "objective_eval")
        totals = [
            [r.extras["phase_timings"][key] for key in phases] for r in results
        ]
        assert all(member == totals[0] for member in totals)
        assert sum(totals[0]) <= results[0].extras["coalesced"]["batch_runtime"]

    def test_single_problem_batch_matches_direct_run(self):
        pair = bench_pair(seed=9)
        engine = AlignmentEngine(FAST, cache=None)
        [result] = solve_coalesced([engine.plan(pair.source, pair.target)])
        np.testing.assert_array_equal(result.plan, direct_plan(pair))

    def test_per_pair_init_plans_respected(self):
        """An informative init on one pair (skipping its portfolio)
        must not perturb the other pairs' full portfolios."""
        pairs = [bench_pair(seed=s) for s in (3, 5)]
        n = pairs[0].source.n_nodes
        m = pairs[0].target.n_nodes
        init = np.full((n, m), 1.0 / (n * m))
        init[0, 0] *= 2.0
        engine = AlignmentEngine(FAST, cache=None)
        problems = [
            engine.plan(pairs[0].source, pairs[0].target, init_plan=init),
            engine.plan(pairs[1].source, pairs[1].target),
        ]
        results = solve_coalesced(problems)
        np.testing.assert_array_equal(
            results[0].plan, direct_plan(pairs[0], init_plan=init)
        )
        np.testing.assert_array_equal(results[1].plan, direct_plan(pairs[1]))
        # the init-plan pair committed to a single start; the other ran
        # the multi-start portfolio
        assert len(results[0].extras["start_objectives"]) == 1
        assert len(results[1].extras["start_objectives"]) > 1

    def test_portfolio_pruning_stays_within_each_pair(self, monkeypatch):
        """With pruning enabled, coalesced pruning decisions must match
        each pair's own single-pair schedule exactly (same plans)."""
        monkeypatch.setattr(restarts, "PRUNE_ITER", 5)
        config = SLOTAlignConfig(
            n_bases=2, structure_lr=0.1, max_outer_iter=40,
            sinkhorn_iter=20, track_history=False, anneal=False,
        )
        pairs = [bench_pair(seed=s) for s in (11, 13, 17)]
        engine = AlignmentEngine(config, cache=None)
        problems = [engine.plan(p.source, p.target) for p in pairs]
        results = solve_coalesced(problems)
        for pair, result in zip(pairs, results):
            direct = AlignmentEngine(config, cache=None).align(
                pair.source, pair.target
            )
            np.testing.assert_array_equal(result.plan, direct.plan)
            assert (
                result.extras["portfolio"]["pruned"]
                == direct.extras["portfolio"]["pruned"]
            )

    def test_batch_mixing_gradient_formulas(self):
        """Symmetry is decided per pair from its bases, so one config
        can batch a fused-gradient pair with a general-gradient one."""
        pairs = [bench_pair(seed=s) for s in (19, 23)]
        engine = AlignmentEngine(FAST, cache=None)
        symmetric = engine.plan(pairs[0].source, pairs[0].target).bases
        # centring takes row and column means by two different
        # reductions, which leaves the kernel asymmetric in the last ulp
        centred = tuple(
            [center_kernel(basis) for basis in side]
            for side in engine.plan(pairs[1].source, pairs[1].target).bases
        )
        problems = [
            prepare_problem(pair.source, pair.target, FAST, bases=bases)
            for pair, bases in zip(pairs, (symmetric, centred))
        ]
        fused = [
            JointObjective(*problem.bases).fused
            for problem in problems
        ]
        assert fused == [True, False], "fixture no longer mixes formulas"
        results = solve_coalesced(problems)
        for problem, result in zip(problems, results):
            direct = AlignmentEngine(FAST, backend="fused-dense").solve(problem)
            np.testing.assert_array_equal(result.plan, direct.plan)
            np.testing.assert_array_equal(
                result.extras["beta_source"], direct.extras["beta_source"]
            )


class TestCoalescibility:
    def test_compatible_and_incompatible_problems(self):
        a, b = bench_pair(seed=0), bench_pair(seed=1)
        small = bench_pair(seed=2, n_per_block=8)
        engine = AlignmentEngine(FAST, cache=None)
        other = AlignmentEngine(
            SLOTAlignConfig(n_bases=2, structure_lr=0.2), cache=None
        )
        pa = engine.plan(a.source, a.target)
        pb = engine.plan(b.source, b.target)
        assert coalescible(pa, pb)
        assert not coalescible(pa, engine.plan(small.source, small.target))
        assert not coalescible(pa, other.plan(a.source, a.target))

    def test_mismatched_batch_raises(self):
        a = bench_pair(seed=0)
        small = bench_pair(seed=2, n_per_block=8)
        engine = AlignmentEngine(FAST, cache=None)
        problems = [
            engine.plan(a.source, a.target),
            engine.plan(small.source, small.target),
        ]
        with pytest.raises(ConfigError, match="coalesced"):
            solve_coalesced(problems)

    def test_empty_batch(self):
        assert solve_coalesced([]) == []
