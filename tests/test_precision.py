"""Property tests for the opt-in float32 solve mode of ``fused-dense``.

Three contracts keep reduced precision honest:

* **selection** — ``precision="float64"`` is every backend's default
  and reaches the bitwise-pinned reference path untouched, while
  ``"float32"`` is an option of ``fused-dense`` alone; every other
  backend refuses it with the choice-naming message;
* **equivalence** — a solo float32 solve and the same pair inside a
  coalesced float32 batch are bitwise-identical (the per-slice
  GEMM/Sinkhorn contracts), so scheduling never compounds the
  precision change;
* **parity** — float32 tracks the float64 reference within the
  documented Hit@1/MRR band on seeded pairs, and the final plan is
  always returned re-cast to float64 with float64 objective values.
"""

import numpy as np
import pytest

from repro.core import SLOTAlignConfig
from repro.datasets import make_semi_synthetic_pair
from repro.engine import (
    AlignmentEngine,
    DEFAULT_PRECISION,
    available_backends,
    ensure_backend_precision,
    ensure_precision,
    get_backend,
    mixed,
    solve_coalesced,
)
from repro.engine.precision import (
    FLOAT32,
    FLOAT64,
    HIT1_PARITY_POINTS,
    SolverPrecision,
)
from repro.exceptions import ConfigError
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words
from repro.ot.sinkhorn import F32_SINKHORN_TOL, SINKHORN_TOL

FAST = SLOTAlignConfig(
    n_bases=2, structure_lr=0.1, max_outer_iter=30, sinkhorn_iter=20,
    track_history=False,
)


def bench_pair(seed=0, n_per_block=11):
    graph = stochastic_block_model([n_per_block] * 3, 0.35, 0.02, seed=seed)
    feats = community_bag_of_words(
        graph.node_labels, 30, words_per_node=6, seed=seed + 1
    )
    graph = graph.with_features(feats)
    graph.node_labels = None
    return make_semi_synthetic_pair(graph, edge_noise=0.2, seed=seed + 2)


def solve(pair, config=FAST, **engine_kwargs):
    engine = AlignmentEngine(config, cache=None, **engine_kwargs)
    return engine.align(pair.source, pair.target)


class TestPrecisionModel:
    def test_ensure_precision_resolves_names_and_instances(self):
        assert ensure_precision("float64") is FLOAT64
        assert ensure_precision("float32") is FLOAT32
        assert ensure_precision(FLOAT32) is FLOAT32
        assert DEFAULT_PRECISION == "float64"

    def test_unknown_precision_names_the_choices(self):
        with pytest.raises(ConfigError, match="float32.*float64"):
            ensure_precision("float16")

    def test_each_precision_carries_its_sinkhorn_tolerance(self, monkeypatch):
        assert FLOAT64.sinkhorn_tol == SINKHORN_TOL
        assert FLOAT32.sinkhorn_tol == F32_SINKHORN_TOL
        # a float32 solve projects to the float32 tolerance
        tols = []

        def spy(workspace, n_slices, max_iter, tol):
            tols.append(tol)
            return kernel(workspace, n_slices, max_iter=max_iter, tol=tol)

        kernel = mixed.sinkhorn_log_kernel_fast_workspace
        monkeypatch.setattr(mixed, "sinkhorn_log_kernel_fast_workspace", spy)
        solve(bench_pair(seed=0), precision="float32")
        assert tols and set(tols) == {F32_SINKHORN_TOL}

    def test_precision_dtype_is_not_part_of_the_repr(self):
        assert "dtype" not in repr(SolverPrecision("x", np.dtype("f4"), 0.0))

    def test_float64_is_every_backends_precision(self):
        for backend in available_backends():
            assert ensure_backend_precision(backend, "float64") == "float64"

    def test_fused_dense_takes_float32(self):
        assert ensure_backend_precision("fused-dense", FLOAT32) == "float32"
        assert get_backend("fused-dense", precision="float32").precision is FLOAT32
        assert get_backend("fused-dense").precision is FLOAT64

    @pytest.mark.parametrize(
        "backend", ["sparse", "partial-dummy", "partial-unbalanced"]
    )
    def test_float32_on_a_backend_without_it_names_fused_dense(self, backend):
        with pytest.raises(ConfigError, match="no float32 variant.*fused-dense"):
            ensure_backend_precision(backend, "float32")
        with pytest.raises(ConfigError, match="no float32 variant"):
            get_backend(backend, precision="float32")


class TestEngineRouting:
    def test_default_engine_precision_is_bitwise_the_reference(self):
        """``--precision float64`` must route to the pinned reference
        backends completely unchanged."""
        pair = bench_pair(seed=0)
        reference = solve(pair)
        routed = solve(pair, precision="float64")
        np.testing.assert_array_equal(reference.plan, routed.plan)
        assert routed.extras["backend"] == "fused-dense"
        assert "precision" not in routed.extras

    def test_float32_runs_fused_dense_in_float32(self):
        pair = bench_pair(seed=0)
        result = solve(pair, precision="float32")
        assert result.extras["backend"] == "fused-dense"
        assert result.extras["precision"] == "float32"
        assert result.plan.dtype == np.float64  # outcomes are re-cast
        assert np.all(np.isfinite(result.plan))

    def test_unknown_precision_fails_at_engine_construction(self):
        with pytest.raises(ConfigError):
            AlignmentEngine(FAST, precision="float16")

    def test_backend_without_float32_fails_at_solve(self):
        pair = bench_pair(seed=0)
        engine = AlignmentEngine(
            FAST, backend="partial-unbalanced", cache=None,
            precision="float32",
        )
        with pytest.raises(ConfigError, match="no float32 variant"):
            engine.align(pair.source, pair.target)

    def test_explicit_backend_options_win_over_engine_precision(self):
        pair = bench_pair(seed=1)
        result = solve(pair, backend_options={"precision": "float32"})
        assert result.extras["precision"] == "float32"
        assert result.extras["backend"] == "fused-dense"


class TestFloat32Equivalence:
    """Solo and coalesced float32 solves produce the same bits."""

    def test_coalesced_f32_matches_single_pair_solves(self):
        """Heterogeneous float32 batches keep the per-slice bitwise
        contract: each pair's plan is what its solo solve produces."""
        pairs = [bench_pair(seed=s, n_per_block=9) for s in range(3)]
        engine = AlignmentEngine(FAST, cache=None)
        problems = [engine.plan(p.source, p.target) for p in pairs]
        results = solve_coalesced(problems, precision="float32")
        for pair, result in zip(pairs, results):
            solo = solve(pair, precision="float32")
            np.testing.assert_array_equal(result.plan, solo.plan)
            assert result.extras["objective"] == solo.extras["objective"]
            assert result.extras["portfolio"] == solo.extras["portfolio"]
            assert result.extras["precision"] == "float32"
            assert result.extras["backend"] == "coalesced"

    def test_coalesced_default_precision_unchanged(self):
        pair = bench_pair(seed=4)
        engine = AlignmentEngine(FAST, cache=None)
        [result] = solve_coalesced([engine.plan(pair.source, pair.target)])
        reference = solve(pair)
        np.testing.assert_array_equal(result.plan, reference.plan)
        assert "precision" not in result.extras


class TestFloat32Parity:
    """Satellite: f32 within the documented band of f64 on seeded pairs."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hit1_and_mrr_parity(self, seed):
        pair = bench_pair(seed=seed)
        engine64 = AlignmentEngine(FAST, cache=None)
        engine32 = AlignmentEngine(FAST, cache=None, precision="float32")
        report64 = engine64.evaluate(
            engine64.align(pair.source, pair.target),
            pair.ground_truth, ks=(1, 5),
        )
        report32 = engine32.evaluate(
            engine32.align(pair.source, pair.target),
            pair.ground_truth, ks=(1, 5),
        )
        assert abs(report32["hits@1"] - report64["hits@1"]) <= (
            HIT1_PARITY_POINTS
        )
        assert abs(report32["mrr"] - report64["mrr"]) * 100.0 <= (
            HIT1_PARITY_POINTS
        )

    def test_plans_agree_to_float32_resolution(self):
        pair = bench_pair(seed=0)
        plan64 = solve(pair).plan
        plan32 = solve(pair, precision="float32").plan
        relative = np.abs(plan32 - plan64).sum() / np.abs(plan64).sum()
        assert relative < 1e-4

    def test_float32_objective_is_evaluated_in_float64(self):
        """Selection decisions use float64 objective values recomputed
        from the float32 iterate — exact equality with the objective
        of the returned (re-cast) plan."""
        pair = bench_pair(seed=0)
        result = solve(pair, precision="float32")
        assert isinstance(result.extras["objective"], float)
        for value in result.extras["start_objectives"].values():
            assert isinstance(value, float)
