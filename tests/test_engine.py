"""Tests for the unified alignment engine (repro.engine).

Covers the three-stage pipeline contract, the content-keyed plan
cache, the solver-backend registry (including the choice-naming error
messages) and the representation-agnostic evaluate adapter.  The
stacked-vs-serial bitwise contract has its own module
(``tests/test_batched_restart.py``).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import SLOTAlign, SLOTAlignConfig
from repro.datasets import make_semi_synthetic_pair
from repro.engine import (
    AlignmentEngine,
    PlanCache,
    available_backends,
    evaluate_alignment,
    get_backend,
    graph_digest,
    view_spec,
)
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


class TestRegistry:
    def test_builtin_backends_registered(self):
        backends = available_backends()
        assert sorted(backends) == [
            "fused-dense", "partial-dummy", "partial-unbalanced", "sparse",
        ]
        for name in backends:
            assert backends[name]  # has a description

    def test_unknown_backend_names_choices(self):
        with pytest.raises(ConfigError, match="valid backends"):
            get_backend("gpu")
        with pytest.raises(ConfigError, match="fused-dense"):
            get_backend("gpu")

    def test_engine_solve_validates_backend_lazily(self):
        pair = bench_pair()
        engine = AlignmentEngine(FAST, backend="definitely-not-a-backend")
        with pytest.raises(ConfigError, match="valid backends"):
            engine.align(pair.source, pair.target)


class TestPipelineStages:
    def test_run_reports_stage_seconds_and_metrics(self):
        pair = bench_pair()
        engine = AlignmentEngine(FAST, cache=None)
        run = engine.run(pair.source, pair.target, pair.ground_truth, ks=(1, 5))
        assert set(run.stage_seconds) == {"plan", "solve", "evaluate"}
        assert all(s >= 0.0 for s in run.stage_seconds.values())
        assert set(run.metrics) == {"hits@1", "hits@5", "mrr"}
        assert run.result.extras["backend"] == "fused-dense"

    def test_align_matches_slotalign_shim(self):
        """SLOTAlign.fit is a thin shim over the engine: same plan."""
        pair = bench_pair()
        engine_result = AlignmentEngine(FAST, cache=None).align(
            pair.source, pair.target
        )
        shim_result = SLOTAlign(FAST).fit(pair.source, pair.target)
        np.testing.assert_array_equal(engine_result.plan, shim_result.plan)

    def test_injected_bases_skip_construction(self):
        pair = bench_pair()
        engine = AlignmentEngine(FAST, cache=None)
        bases = engine.plan(pair.source, pair.target).bases
        problem = engine.plan(pair.source, pair.target, bases=bases)
        assert problem.basis_seconds == 0.0
        result = engine.solve(problem)
        reference = engine.align(pair.source, pair.target)
        np.testing.assert_array_equal(result.plan, reference.plan)

    def test_sparse_backend_returns_csr(self):
        pair = bench_pair()
        engine = AlignmentEngine(
            FAST,
            backend="sparse",
            backend_options={"n_parts": 2, "executor": "serial"},
        )
        out = engine.align(pair.source, pair.target)
        assert sp.issparse(out.plan)
        assert out.extras["n_parts"] == 2
        assert out.extras["solver_backend"] == "fused-dense"

    def test_sparse_backend_rejects_init_plan(self):
        pair = bench_pair()
        engine = AlignmentEngine(
            FAST, backend="sparse", backend_options={"n_parts": 2}
        )
        n, m = pair.source.n_nodes, pair.target.n_nodes
        problem = engine.plan(
            pair.source, pair.target, init_plan=np.full((n, m), 1.0 / (n * m))
        )
        with pytest.raises(ConfigError, match="init_plan"):
            engine.solve(problem)


class TestPlanCache:
    def test_repeated_pairs_hit_the_cache(self):
        pair = bench_pair()
        cache = PlanCache()
        engine = AlignmentEngine(FAST, cache=cache)
        engine.align(pair.source, pair.target)
        assert cache.misses == 2 and cache.hits == 0
        engine.align(pair.source, pair.target)
        assert cache.misses == 2 and cache.hits == 2

    def test_cache_is_content_keyed_not_identity_keyed(self):
        """A structurally identical rebuild of the graph hits the cache."""
        pair = bench_pair()
        clone = type(pair.source)(
            pair.source.adjacency.copy(),
            features=np.array(pair.source.features, copy=True),
        )
        cache = PlanCache()
        cache.bases_for(pair.source, FAST)
        before = cache.misses
        cache.bases_for(clone, FAST)
        assert cache.misses == before and cache.hits == 1

    def test_cached_bases_are_bitwise_equal_to_fresh(self):
        pair = bench_pair()
        cache = PlanCache()
        first = cache.bases_for(pair.source, FAST)
        second = cache.bases_for(pair.source, FAST)
        fresh = AlignmentEngine(FAST, cache=None).plan(
            pair.source, pair.target
        ).bases[0]
        for a, b, c in zip(first, second, fresh):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)

    def test_view_spec_distinguishes_construction_params(self):
        a = view_spec(FAST)
        b = view_spec(
            SLOTAlignConfig(
                n_bases=2, structure_lr=0.1, center_kernels=True
            )
        )
        assert a != b

    def test_digest_distinguishes_feature_changes(self):
        pair = bench_pair()
        altered = pair.source.with_features(pair.source.features * 2.0)
        assert graph_digest(pair.source) != graph_digest(altered)

    def test_eviction_respects_byte_budget(self):
        pair = bench_pair()
        tiny = PlanCache(max_bytes=1)  # nothing fits
        tiny.bases_for(pair.source, FAST)
        tiny.bases_for(pair.source, FAST)
        assert len(tiny) == 0
        assert tiny.hits == 0 and tiny.misses == 2

    def test_solver_output_unaffected_by_caching(self):
        pair = bench_pair()
        cached_engine = AlignmentEngine(FAST, cache=PlanCache())
        uncached = AlignmentEngine(FAST, cache=None).align(
            pair.source, pair.target
        )
        first = cached_engine.align(pair.source, pair.target)
        second = cached_engine.align(pair.source, pair.target)
        np.testing.assert_array_equal(uncached.plan, first.plan)
        np.testing.assert_array_equal(first.plan, second.plan)


class TestEvaluateAdapter:
    def test_dense_and_sparse_agree(self):
        rng = np.random.default_rng(0)
        plan = rng.random((12, 12))
        plan[plan < 0.7] = 0.0
        gt = np.stack([np.arange(12), np.arange(12)], axis=1)
        dense = evaluate_alignment(plan, gt, ks=(1, 5))
        sparse = evaluate_alignment(sp.csr_array(plan), gt, ks=(1, 5))
        assert dense == sparse

    def test_accepts_result_objects_and_runtime(self):
        pair = bench_pair()
        result = AlignmentEngine(FAST, cache=None).align(
            pair.source, pair.target
        )
        report = evaluate_alignment(
            result, pair.ground_truth, ks=(1,), with_runtime=True
        )
        assert "hits@1" in report and "time" in report
        assert report["time"] == pytest.approx(result.runtime)

    def test_accepts_partitioned_alignment(self):
        pair = bench_pair()
        out = AlignmentEngine(
            FAST, backend="sparse",
            backend_options={"n_parts": 2, "executor": "serial"},
        ).align(pair.source, pair.target)
        report = evaluate_alignment(out, pair.ground_truth, ks=(1, 5))
        assert set(report) == {"hits@1", "hits@5", "mrr"}


class TestDenseBackendGuards:
    def test_slotalign_rejects_sparse_backend_upfront(self):
        pair = bench_pair()
        aligner = SLOTAlign(FAST, backend="sparse")
        with pytest.raises(ConfigError, match="dense backends.*fused-dense"):
            aligner.fit(pair.source, pair.target)

    def test_block_solver_rejects_sparse_backend(self):
        from repro.scale import DivideAndConquerAligner

        with pytest.raises(ConfigError, match="dense backends"):
            DivideAndConquerAligner(FAST, solver_backend="sparse")

    def test_backend_kind_and_dense_listing(self):
        from repro.engine import backend_kind, dense_backends

        assert backend_kind("fused-dense") == "dense"
        assert backend_kind("partial-dummy") == "dense"
        assert backend_kind("sparse") == "sparse"
        assert "sparse" not in dense_backends()
        with pytest.raises(ConfigError, match="valid backends"):
            backend_kind("nope")


class TestPlanCacheThreadSafety:
    def test_concurrent_access_with_eviction_pressure(self):
        """Threaded block solves share the process-wide cache; hammer
        get/store/evict from several threads under a budget that forces
        constant eviction and assert no corruption."""
        import threading

        pairs = [bench_pair(seed=s) for s in range(4)]
        graphs = [p.source for p in pairs] + [p.target for p in pairs]
        one_entry = sum(
            b.nbytes for b in PlanCache().bases_for(graphs[0], FAST)
        )
        cache = PlanCache(max_bytes=2 * one_entry)  # room for ~2 entries
        errors = []

        def worker():
            try:
                for _ in range(10):
                    for graph in graphs:
                        bases = cache.bases_for(graph, FAST)
                        assert len(bases) == FAST.n_bases
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.nbytes <= cache.max_bytes

    def test_concurrent_misses_build_each_key_exactly_once(self):
        """Single-flight: a burst of threads requesting the same keys
        must trigger exactly one construction per key, with nbytes
        accounting exact and every shared array frozen."""
        import threading

        pairs = [bench_pair(seed=s) for s in range(3)]
        graphs = [p.source for p in pairs] + [p.target for p in pairs]
        cache = PlanCache()
        barrier = threading.Barrier(8)
        errors = []
        results: list[list] = []

        def worker():
            try:
                barrier.wait()
                for graph in graphs:
                    results.append(cache.bases_for(graph, FAST))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # one build per distinct key, no duplicated kernel construction
        assert cache.builds == len(graphs)
        assert len(cache) == len(graphs)
        assert cache.hits + cache.misses == 8 * len(graphs)
        # nbytes accounting must equal the exact sum of held arrays
        expected = sum(
            sum(b.nbytes for b in cache.bases_for(g, FAST)) for g in graphs
        )
        assert cache.nbytes == expected
        # every array handed out (builder or waiter) honours the
        # frozen-array contract
        for bases in results:
            for basis in bases:
                assert not basis.flags.writeable

    def test_single_flight_serves_waiters_of_uncacheable_entries(self):
        """Waiters must receive the builder's arrays even when the
        finished entry is too large to retain in the cache."""
        import threading

        pair = bench_pair()
        cache = PlanCache(max_bytes=1)  # nothing fits
        barrier = threading.Barrier(6)
        errors = []
        outputs = []

        def worker():
            try:
                barrier.wait()
                outputs.append(cache.bases_for(pair.source, FAST))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(outputs) == 6
        reference = outputs[0]
        for bases in outputs[1:]:
            for a, b in zip(reference, bases):
                np.testing.assert_array_equal(a, b)
        assert len(cache) == 0  # never cached — but everyone was served

    def test_shared_plan_cache_is_one_instance_under_races(self):
        """Regression: the lazy singleton used to be unsynchronized —
        two threads racing on first use each built a PlanCache."""
        import threading

        from repro.engine import planning

        original = planning._SHARED_CACHE
        try:
            planning._SHARED_CACHE = None
            barrier = threading.Barrier(8)
            seen = []

            def worker():
                barrier.wait()
                seen.append(planning.shared_plan_cache())

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len({id(cache) for cache in seen}) == 1
        finally:
            planning._SHARED_CACHE = original


class TestCacheReadOnlyContract:
    def test_cached_bases_are_frozen(self):
        """In-place mutation of shared cached bases must raise, not
        silently poison every future content-equal solve."""
        pair = bench_pair()
        cache = PlanCache()
        bases = cache.bases_for(pair.source, FAST)
        with pytest.raises(ValueError, match="read-only"):
            bases[0][0, 0] = 1.0
