"""Synthetic-traffic driver for the alignment service.

Models the serving workload the ROADMAP's alignment-as-a-service item
describes: a burst of small alignment requests over a handful of
*distinct* pairs, each pair requested repeatedly.  Repetition
exercises the shared plan cache (content-equal graphs hit the same
entry regardless of which job carries them), and the same-shape burst
exercises batch coalescing (queued compatible jobs solve as one
stacked lockstep batch).  The driver reports the service-level
numbers the benchmark gates on — pairs/sec, cache hit rate, latency
percentiles, coalescing counters — plus a **bitwise fidelity check**:
the served plan of the first pair must be bit-for-bit identical to a
direct single-pair :class:`AlignmentEngine` run.

Run:  ``python -m repro serve <dataset>``
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import SLOTAlignConfig
from repro.datasets import load_graph_dataset, make_semi_synthetic_pair
from repro.engine import AlignmentEngine, PlanCache
from repro.exceptions import ConfigError, ReproError
from repro.scale import available_cpus
from repro.serve import AlignmentService, JobState, wait_all


def serve_config(iters: int = 25) -> SLOTAlignConfig:
    """The solver profile served traffic runs under.

    Short-budget, history-free: serving latency is dominated by the
    solve loop, and the bitwise contract holds at any budget.
    """
    return SLOTAlignConfig(
        n_bases=2,
        structure_lr=0.1,
        max_outer_iter=iters,
        sinkhorn_iter=20,
        track_history=False,
    )


def traffic_pairs(
    dataset: str, n_distinct: int, scale: float, seed: int
) -> list:
    """``n_distinct`` same-shape pairs from one dataset stand-in.

    All pairs share the base graph (and therefore plan shape — the
    coalescing precondition) but use distinct perturbation seeds, so
    their targets are distinct cache entries while repeated requests
    for the same pair are exact cache hits.
    """
    graph = load_graph_dataset(dataset, scale=scale)
    return [
        make_semi_synthetic_pair(graph, edge_noise=0.05, seed=seed + i)
        for i in range(n_distinct)
    ]


def run_serve_traffic(
    dataset: str = "cora",
    scale: float = 0.05,
    seed: int = 0,
    n_jobs: int = 24,
    n_distinct: int = 4,
    workers: int = 2,
    max_batch: int = 8,
    iters: int = 25,
) -> dict:
    """Drive the service with a synthetic burst and report its stats.

    Jobs are submitted round-robin over ``n_distinct`` pairs *before*
    the workers start, so the backlog is visible to the first dequeue
    and coalescing engages deterministically.
    """
    if n_jobs < 1 or n_distinct < 1:
        raise ConfigError(
            f"n_jobs and n_distinct must be >= 1, got {n_jobs} and {n_distinct}"
        )
    config = serve_config(iters)
    pairs = traffic_pairs(dataset, n_distinct, scale, seed)
    cache = PlanCache()
    service = AlignmentService(
        config, cache=cache, workers=workers, max_batch=max_batch
    )
    jobs = []
    for index in range(n_jobs):
        pair = pairs[index % n_distinct]
        jobs.append(
            service.submit(
                pair.source, pair.target, tag=f"pair-{index % n_distinct}"
            )
        )
    t0 = time.perf_counter()
    with service:
        finished = wait_all(jobs, timeout=600)
    serve_seconds = time.perf_counter() - t0
    if not finished:
        raise RuntimeError("serve traffic did not finish within 600s")
    if jobs[0].state != JobState.DONE:
        raise ReproError(f"job 0 ended {jobs[0].state.value}: {jobs[0].error}")

    stats = service.stats()
    info = cache.info()
    lookups = info["hits"] + info["misses"]
    latency = stats["latency_seconds"]

    # fidelity: the served plan of pair 0 must be bit-for-bit what a
    # direct single-pair engine run produces (coalescing and cache
    # sharing are pure scheduling)
    direct = AlignmentEngine(config, cache=None).align(
        pairs[0].source, pairs[0].target
    )
    served = jobs[0].result.result
    bitwise_equal = bool(np.array_equal(served.plan, direct.plan))

    completed = stats["completed"]
    return {
        "dataset": dataset,
        "scale": scale,
        "n_jobs": n_jobs,
        "n_distinct": n_distinct,
        "workers": workers,
        "max_batch": max_batch,
        "iters": iters,
        "n_nodes": pairs[0].source.n_nodes,
        "completed": completed,
        "failed": stats["failed"],
        "rejected": stats["rejected"],
        "serve_seconds": serve_seconds,
        "pairs_per_second": completed / serve_seconds,
        "latency_ms": {
            "p50": 1e3 * latency["p50"] if latency["p50"] else None,
            "p99": 1e3 * latency["p99"] if latency["p99"] else None,
            "mean": 1e3 * latency["mean"] if latency["mean"] else None,
        },
        "cache": {
            "hits": info["hits"],
            "misses": info["misses"],
            "builds": info["builds"],
            "hit_rate": info["hits"] / lookups if lookups else 0.0,
        },
        "coalesced_batches": stats["coalesced_batches"],
        "coalesced_pairs": stats["coalesced_pairs"],
        "solo_pairs": stats["solo_pairs"],
        "single_pair_bitwise_equal": bitwise_equal,
        "cpu_count": available_cpus(),
    }


def format_serve_report(report: dict) -> str:
    """Human-readable rendering of a traffic report for the CLI."""
    latency = report["latency_ms"]
    cache = report["cache"]
    lines = [
        f"dataset            {report['dataset']} "
        f"(scale={report['scale']}, n={report['n_nodes']})",
        f"traffic            {report['n_jobs']} jobs over "
        f"{report['n_distinct']} distinct pairs",
        f"service            {report['workers']} workers, "
        f"max_batch={report['max_batch']}",
        f"completed          {report['completed']} "
        f"(failed={report['failed']}, rejected={report['rejected']})",
        f"pairs/sec          {report['pairs_per_second']:.2f}",
        f"latency p50        {latency['p50']:.1f} ms",
        f"latency p99        {latency['p99']:.1f} ms",
        f"cache hit rate     {cache['hit_rate']:.2%} "
        f"({cache['hits']} hits / {cache['builds']} builds)",
        f"coalesced          {report['coalesced_pairs']} pairs in "
        f"{report['coalesced_batches']} batches "
        f"(solo={report['solo_pairs']})",
        f"bitwise vs direct  "
        f"{'OK' if report['single_pair_bitwise_equal'] else 'MISMATCH'}",
    ]
    return "\n".join(lines)
