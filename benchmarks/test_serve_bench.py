"""Serving benchmark: synthetic traffic through the alignment service.

Drives :func:`repro.experiments.run_serve_traffic` — a burst of
requests cycling over a few distinct pairs through the
:class:`~repro.serve.AlignmentService` worker pool — and emits
``BENCH_serve.json`` into ``$REPRO_BENCH_DIR`` so the serving layer's
performance trajectory (pairs/sec, cache hit rate, p50/p99 latency,
coalescing counters) is machine-readable across PRs, alongside
``BENCH_solver.json`` and ``BENCH_scale.json``.

``benchmarks/compare_bench.py`` gates on the fresh file: the cache hit
rate must be positive, coalescing must actually have engaged, the
single-pair bitwise check against a direct engine run must hold, and
the calibrated pairs/sec must not regress against the committed
baseline (machine-normalised via ``reference_seconds``, exactly like
the solver gate).
"""

import json
import time

import numpy as np

from repro.experiments import run_serve_traffic
from repro.serve import JobState
from repro.utils.benchdir import bench_path

BENCH_JSON = bench_path("BENCH_serve.json")

TRAFFIC = dict(
    dataset="cora",
    scale=0.05,
    seed=0,
    n_jobs=24,
    n_distinct=4,
    workers=2,
    max_batch=8,
    iters=25,
)


def _machine_reference_seconds() -> float:
    """The solver microbench's fixed BLAS workload, for calibration.

    Same op mix and sizes as ``test_solver_microbench.py`` so the two
    benches normalise against an identical reference and the CI gate
    compares (pairs/sec × reference) rather than raw wall-clock from
    two different machines.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    v = rng.standard_normal(200)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        c = a
        for _ in range(20):
            c = a @ c
            c /= np.abs(c).max()
        for _ in range(200):
            v = np.exp(-np.abs(a @ v) / 50.0)
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_serve_traffic(benchmark):
    """Serve a synthetic burst; emits ``BENCH_serve.json``."""
    report = benchmark.pedantic(
        lambda: run_serve_traffic(**TRAFFIC), iterations=1, rounds=1
    )

    # the service-level invariants the PR's acceptance criteria name:
    # every job completes, repeated pairs hit the shared plan cache,
    # the backlog coalesces into stacked solves, and serving is pure
    # scheduling (bit-for-bit the direct engine's plan)
    assert report["completed"] == TRAFFIC["n_jobs"]
    assert report["failed"] == 0 and report["rejected"] == 0
    assert report["cache"]["hit_rate"] > 0.0
    assert report["coalesced_batches"] > 0
    assert report["coalesced_pairs"] > report["coalesced_batches"]
    assert report["single_pair_bitwise_equal"] is True
    assert report["latency_ms"]["p50"] > 0.0
    assert report["latency_ms"]["p99"] >= report["latency_ms"]["p50"]

    payload = dict(report)
    payload["reference_seconds"] = _machine_reference_seconds()
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert BENCH_JSON.exists()


def test_serve_handles_rejection_under_pressure():
    """Admission control sheds load gracefully at a tiny queue bound."""
    from repro.experiments.serve_traffic import serve_config, traffic_pairs
    from repro.serve import AdmissionPolicy, AlignmentService, wait_all

    pairs = traffic_pairs("cora", n_distinct=2, scale=0.03, seed=0)
    service = AlignmentService(
        serve_config(iters=10),
        policy=AdmissionPolicy(max_queue_depth=3),
        workers=1,
    )
    jobs = [
        service.submit(pairs[i % 2].source, pairs[i % 2].target)
        for i in range(6)
    ]
    rejected = [job for job in jobs if job.state is JobState.REJECTED]
    admitted = [job for job in jobs if job.state is not JobState.REJECTED]
    assert len(rejected) == 3  # the queue bound held
    assert all("queue full" in job.error for job in rejected)
    with service:
        assert wait_all(admitted, timeout=120)
    assert all(job.state is JobState.DONE for job in admitted)
