"""Scalability benchmark: serial vs parallel, whole vs partitioned.

Emits ``BENCH_scale.json`` into ``$REPRO_BENCH_DIR`` so the performance
trajectory of the ``repro.scale`` subsystem is machine-readable across
PRs, alongside ``BENCH_solver.json``:

* runtime-vs-n curve (whole-graph vs partitioned serial vs partitioned
  parallel) at the fast profile;
* the 4-block comparison: serial/parallel wall-clock and speedup, the
  whole-graph vs partitioned Hit@1 gap, and the cross-part link
  recovery of the boundary-repair pass.

The parallel numbers are honest for the machine they ran on: a process
pool cannot beat the serial loop on a single-core box (it only adds
pickling), so the speedup assertion is gated on the visible CPU count
— the bitwise-equality assertion runs everywhere.
"""

import json
import time
from dataclasses import replace

import numpy as np

from repro.core import SLOTAlignConfig
from repro.scale import (
    available_cpus,
    ground_truth_target_parts,
    inject_misassignment,
    run_blocks,
)
from repro.scale import hit1_mask as gt_hit1_mask
from repro.datasets import make_semi_synthetic_pair
from repro.eval import hits_at_k
from repro.experiments import ExperimentScale, run_scalability
from repro.graphs import partition_assignment, stochastic_block_model
from repro.graphs.features import community_bag_of_words
from repro.scale import DivideAndConquerAligner
from repro.utils.benchdir import bench_path

BENCH_JSON = bench_path("BENCH_scale.json")

BENCH_CFG = SLOTAlignConfig(
    n_bases=2, structure_lr=0.1, max_outer_iter=60, sinkhorn_iter=40,
    track_history=False,
)


def bench_pair(seed=1, n_blocks=4, block=45):
    graph = stochastic_block_model([block] * n_blocks, 0.3, 0.005, seed=seed)
    feats = community_bag_of_words(
        graph.node_labels, 80, words_per_node=12, seed=seed + 1
    )
    graph = graph.with_features(feats)
    return make_semi_synthetic_pair(graph, edge_noise=0.02, seed=seed + 2)


def _time_fit(aligner, pair, repeats=2):
    """Min-of-k wall clock (single-core box: min filters scheduler noise)."""
    best = None
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = aligner.fit(pair.source, pair.target)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return out, best


def test_bench_partitioned_scaling(benchmark):
    """4-block problem: executor comparison + quality gap + recovery."""
    pair = bench_pair()
    gt = pair.ground_truth
    cpu_count = available_cpus()

    serial_out, serial_seconds = _time_fit(
        DivideAndConquerAligner(BENCH_CFG, n_parts=4, executor="serial"),
        pair,
    )
    parallel_out, parallel_seconds = _time_fit(
        DivideAndConquerAligner(BENCH_CFG, n_parts=4, executor="auto"),
        pair,
    )
    # the executor is pure scheduling: bitwise-equal results
    diff = serial_out.plan - parallel_out.plan
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0

    norepair_out, _ = _time_fit(
        DivideAndConquerAligner(
            BENCH_CFG, n_parts=4, executor="serial", boundary_repair=False
        ),
        pair, repeats=1,
    )

    from repro.core import SLOTAlign

    start = time.perf_counter()
    whole = SLOTAlign(BENCH_CFG).fit(pair.source, pair.target)
    whole_seconds = time.perf_counter() - start

    # sparse Hit@k must equal dense Hit@k exactly
    sparse_hit1 = hits_at_k(serial_out.plan, gt, 1)
    dense_hit1 = hits_at_k(serial_out.plan.toarray(), gt, 1)
    assert sparse_hit1 == dense_hit1

    # cross-part link recovery (organic: whatever the assignment lost)
    src_assign = partition_assignment(
        [s for s, _ in serial_out.partitions], pair.source.n_nodes
    )
    tgt_assign = partition_assignment(
        [t for _, t in serial_out.partitions], pair.target.n_nodes
    )
    cross = src_assign[gt[:, 0]] != tgt_assign[gt[:, 1]]

    def hit1_mask(plan):
        return gt_hit1_mask(plan, gt)

    lost = cross & ~hit1_mask(norepair_out.plan)
    recovered = lost & hit1_mask(serial_out.plan)

    # controlled recovery: ground-truth-correct target parts with 12
    # nodes deliberately misassigned — the failure mode boundary
    # repair exists for, measured without the confound of organic
    # assignment noise (the exact protocol tests/test_scale_boundary.py
    # pins, via the shared repro.scale.diagnostics helpers)
    source_parts = [s for s, _ in serial_out.partitions]
    clean_parts = ground_truth_target_parts(source_parts, gt)
    injected_parts = inject_misassignment(clean_parts, n_move=12, seed=0)
    inj = {}
    for repair in (False, True):
        inj[repair] = DivideAndConquerAligner(
            BENCH_CFG, n_parts=4, boundary_repair=repair
        ).fit(
            pair.source, pair.target,
            source_parts=source_parts, target_parts=injected_parts,
        )
    inj_assign = partition_assignment(injected_parts, pair.target.n_nodes)
    inj_cross = src_assign[gt[:, 0]] != inj_assign[gt[:, 1]]
    inj_lost = inj_cross & ~hit1_mask(inj[False].plan)
    inj_recovered = inj_lost & hit1_mask(inj[True].plan)
    assert inj_recovered.sum() * 2 >= inj_lost.sum(), (
        f"boundary repair recovered {inj_recovered.sum()}/{inj_lost.sum()} "
        "injected cross-part links (need at least half)"
    )

    speedup = serial_seconds / parallel_seconds

    # executor-only speedup at a heavier per-block load: the gated
    # assertion below measures the parallelisable component (the block
    # solves), not the end-to-end pipeline whose partition/assign/
    # stitch/repair phases are serial in both arms and whose tiny
    # blocks would make the end-to-end ratio noisy on shared runners
    heavy_cfg = replace(BENCH_CFG, max_outer_iter=150)
    heavy_blocks = [
        (pair.source.subgraph(s), pair.target.subgraph(t))
        for s, t in serial_out.partitions
    ]

    def time_blocks(executor):
        best = None
        for _ in range(2):
            start = time.perf_counter()
            _, used = run_blocks(heavy_cfg, heavy_blocks, executor=executor)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        return best, used

    blocks_serial_seconds, _ = time_blocks("serial")
    blocks_parallel_seconds, parallel_backend = time_blocks("auto")
    block_speedup = blocks_serial_seconds / blocks_parallel_seconds

    payload = {
        "problem": {
            "n_source": pair.source.n_nodes,
            "n_target": pair.target.n_nodes,
            "n_parts": 4,
            "max_outer_iter": BENCH_CFG.max_outer_iter,
        },
        "cpu_count": cpu_count,
        "four_block": {
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "speedup": speedup,
            "block_serial_seconds": blocks_serial_seconds,
            "block_parallel_seconds": blocks_parallel_seconds,
            "block_speedup": block_speedup,
            "parallel_backend_used": parallel_backend,
            "bitwise_equal": True,
            "whole_seconds": whole_seconds,
            "whole_hit1": hits_at_k(whole.plan, gt, 1),
            "partitioned_hit1": hits_at_k(norepair_out.plan, gt, 1),
            "repaired_hit1": sparse_hit1,
            "source_cut_fraction": serial_out.extras["source_cut_fraction"],
            "cross_part_links": int(cross.sum()),
            "lost_links": int(lost.sum()),
            "recovered_links": int(recovered.sum()),
            "injected_recovery": {
                "moved_nodes": 12,
                "lost_links": int(inj_lost.sum()),
                "recovered_links": int(inj_recovered.sum()),
                "recovery_rate": float(
                    inj_recovered.sum() / max(int(inj_lost.sum()), 1)
                ),
            },
            "repair": {
                key: value
                for key, value in serial_out.extras["repair"].items()
                if key != "patched_pairs"
            },
        },
    }

    curve = run_scalability(
        ExperimentScale(dataset_scale=0.03, fast=True, seed=0),
        sizes=(120, 240),
    )
    payload["curve"] = curve["curve"]
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # a process pool beats the serial loop only when there are cores to
    # spread the blocks over; on fewer cores the JSON records the
    # honest (sub-1x) number instead of asserting the impossible.  The
    # pool must actually have started (no sandbox fallback) for the
    # ratio to mean anything.
    if cpu_count >= 4 and parallel_backend == "process":
        assert block_speedup > 1.5, (
            f"expected >1.5x block-solve speedup on {cpu_count} cores, "
            f"got {block_speedup:.2f}x"
        )

    benchmark.pedantic(
        lambda: DivideAndConquerAligner(
            BENCH_CFG, n_parts=4, executor="serial"
        ).fit(pair.source, pair.target),
        iterations=1,
        rounds=1,
    )
    assert BENCH_JSON.exists()
