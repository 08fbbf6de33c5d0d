"""Bitwise serial-vs-parallel regression tests for the block executor.

The executor is pure scheduling: the process pool must reproduce the
serial loop's block results **exactly** — the same contract
``tests/test_fused_objective.py`` pins for the fused hot path.
Pickling float64 arrays is lossless and every worker runs the
identical single-threaded code path, so any bit of drift means a
scheduling backend leaked into the numerics.
"""

import numpy as np
import pytest

from repro.core import SLOTAlignConfig
from repro.datasets import make_semi_synthetic_pair
from repro.engine.pipeline import align_pair
from repro.exceptions import GraphError
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words
from repro.scale import (
    DivideAndConquerAligner,
    resolve_executor,
    run_blocks,
)

FAST_CFG = SLOTAlignConfig(
    n_bases=2, structure_lr=0.1, max_outer_iter=40, sinkhorn_iter=30,
    track_history=False,
)


def pair(seed=0):
    graph = stochastic_block_model([16] * 3, 0.35, 0.01, seed=seed)
    feats = community_bag_of_words(
        graph.node_labels, 50, words_per_node=10, seed=seed + 1
    )
    graph = graph.with_features(feats)
    return make_semi_synthetic_pair(graph, seed=seed + 2)


def blocks_of(p, n_parts=3):
    aligner = DivideAndConquerAligner(FAST_CFG, n_parts=n_parts)
    source_parts = aligner._partition_source(p.source)
    from repro.scale import assign_target

    target_parts = assign_target(p.source, p.target, source_parts)
    return [
        (p.source.subgraph(s), p.target.subgraph(t))
        for s, t in zip(source_parts, target_parts)
        if s.size and t.size
    ]


class TestBitwiseExecutorEquality:
    @pytest.mark.parametrize("backend", ["process"])
    def test_block_results_bitwise_equal_serial(self, backend):
        p = pair(seed=1)
        blocks = blocks_of(p)
        serial, serial_used = run_blocks(FAST_CFG, blocks, executor="serial")
        pooled, pooled_used = run_blocks(FAST_CFG, blocks, executor=backend)
        assert serial_used == "serial"
        assert pooled_used in (backend, "serial")  # serial = pool fallback
        assert len(serial) == len(pooled) == len(blocks)
        for ref, out in zip(serial, pooled):
            np.testing.assert_array_equal(ref.plan, out.plan)
            np.testing.assert_array_equal(
                ref.extras["beta_source"], out.extras["beta_source"]
            )
            np.testing.assert_array_equal(
                ref.extras["beta_target"], out.extras["beta_target"]
            )

    def test_full_pipeline_bitwise_equal(self):
        """End to end: stitched + repaired plans identical across
        executors (repair is deterministic post-processing, so bitwise
        block results imply bitwise final plans)."""
        p = pair(seed=2)
        serial = DivideAndConquerAligner(FAST_CFG, n_parts=3).fit(
            p.source, p.target
        )
        assert serial.extras["executor"] == "serial"
        pooled = DivideAndConquerAligner(
            FAST_CFG, n_parts=3, executor="process"
        ).fit(p.source, p.target)
        assert serial.plan.shape == pooled.plan.shape
        diff = serial.plan - pooled.plan
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0
        np.testing.assert_array_equal(
            serial.plan.toarray(), pooled.plan.toarray()
        )

    def test_result_order_matches_input_order(self):
        p = pair(seed=3)
        blocks = blocks_of(p)
        results, _ = run_blocks(FAST_CFG, blocks, executor="process")
        for (sub_s, sub_t), res in zip(blocks, results):
            assert res.plan.shape == (sub_s.n_nodes, sub_t.n_nodes)


class TestExecutorResolution:
    def test_known_backends(self):
        assert resolve_executor("serial") == "serial"
        assert resolve_executor("process") == "process"
        assert resolve_executor("auto") in ("serial", "process")

    def test_unknown_backend_rejected(self):
        with pytest.raises(GraphError):
            resolve_executor("distributed")
        with pytest.raises(GraphError):
            run_blocks(FAST_CFG, [], executor="gpu")

    def test_thread_executor_rejected(self):
        """Block solves run serially or on a process pool only."""
        with pytest.raises(GraphError, match="executor must be one of"):
            resolve_executor("thread")

    def test_align_pair_is_module_level(self):
        """The pool target must be picklable by qualified name."""
        import pickle

        assert pickle.loads(pickle.dumps(align_pair)) is align_pair

    def test_sandboxed_fork_falls_back_to_serial(self, monkeypatch):
        """The shared pool forks its workers when it is created; a
        sandbox that forbids fork must degrade to the serial loop with
        identical results, not crash the fit."""
        import multiprocessing.process as mp_process

        from repro.engine import pool

        p = pair(seed=1)
        blocks = blocks_of(p)
        reference, _ = run_blocks(FAST_CFG, blocks, executor="serial")

        def forbidden(self):
            raise PermissionError("sandbox: fork forbidden")

        if pool._pool is not None:
            pool._drop_pool(pool._pool)
        monkeypatch.setattr(mp_process.BaseProcess, "start", forbidden)
        results, used = run_blocks(FAST_CFG, blocks, executor="process")
        assert used == "serial"
        assert pool._pool is None
        for ref, out in zip(reference, results):
            np.testing.assert_array_equal(ref.plan, out.plan)

    def test_worker_errors_propagate(self):
        """An exception raised by a block solve inside a worker must
        escape, not trigger a silent serial re-run: the error carries
        the worker's traceback as its cause."""
        p = pair(seed=1)
        blocks = blocks_of(p)
        # a featureless block cannot build the node view
        sub_s, sub_t = blocks[-1]
        blocks[-1] = (sub_s.with_features(None), sub_t)
        with pytest.raises(GraphError, match="require node features") as info:
            run_blocks(FAST_CFG, blocks, executor="process")
        assert type(info.value.__cause__).__name__ == "_RemoteTraceback"
