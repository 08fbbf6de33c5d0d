"""Block execution strategies for the partitioned aligner.

The executor is **pure scheduling**: the serial loop and the process
pool run the same :func:`repro.engine.pipeline.align_pair` on the same
pickled inputs, so per-block results are bitwise-identical across
``serial`` and ``process`` (pickling NumPy float64 arrays is exact, and
each worker process runs the same single-threaded BLAS code path).  A
regression test pins this contract the same way
``tests/test_fused_objective.py`` pins the fused hot path.

``process`` buys wall-clock on multi-core machines; ``serial`` is the
reference loop and the fallback when a pool cannot start.  ``auto``
picks ``process`` when more than one CPU is visible and ``serial``
otherwise — on a single-core box a pool only adds pickling overhead.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

from repro.core.config import SLOTAlignConfig
from repro.core.result import AlignmentResult
from repro.engine.pipeline import align_pair
from repro.exceptions import GraphError
from repro.graphs.graph import AttributedGraph

EXECUTORS = ("serial", "process", "auto")


class _PoolUnavailable(Exception):
    """Internal: the pool backend could not spawn its workers."""


def available_cpus() -> int:
    """CPUs actually usable by this process.

    ``os.cpu_count()`` reports host cores; under cgroup quotas or CPU
    affinity (CI containers, ``taskset``) the process may see far
    fewer, and sizing a pool by host cores adds pure overhead.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # non-Linux fallback
        return os.cpu_count() or 1


def resolve_executor(executor: str) -> str:
    """Map ``auto`` to a concrete backend for this machine."""
    if executor not in EXECUTORS:
        raise GraphError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    if executor == "auto":
        return "process" if available_cpus() > 1 else "serial"
    return executor


def run_blocks(
    config: SLOTAlignConfig,
    blocks: list[tuple[AttributedGraph, AttributedGraph]],
    executor: str = "serial",
    max_workers: int | None = None,
    solver_backend: str = "fused-dense",
) -> tuple[list[AlignmentResult], str]:
    """Align every block pair with ``align_pair``, preserving input order.

    Returns ``(results, backend_used)``.  Falls back to the serial
    loop if the process pool fails to start (e.g. a sandbox forbids
    spawning processes) — the results are bitwise-identical either
    way, and ``backend_used`` reports what actually ran so callers
    never attribute serial wall-clock to a pool.
    """
    backend = resolve_executor(executor)
    if backend == "process" and len(blocks) > 1:
        workers = max_workers or min(len(blocks), available_cpus())
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, PermissionError):
            pool = None  # pool construction forbidden: serial fallback
        if pool is not None:
            try:
                with pool:
                    # workers are spawned lazily on submit, so a
                    # sandbox that forbids fork surfaces there, not
                    # at construction
                    try:
                        futures = [
                            pool.submit(
                                align_pair, config, sub_s, sub_t,
                                backend=solver_backend,
                            )
                            for sub_s, sub_t in blocks
                        ]
                    except (OSError, PermissionError) as exc:
                        raise _PoolUnavailable from exc
                    try:
                        return (
                            [future.result() for future in futures],
                            backend,
                        )
                    except BrokenExecutor as exc:
                        # the pool died (partial spawn failure, killed
                        # worker); exceptions raised *by a block
                        # solve* are neither caught nor retried — they
                        # propagate as-is instead of triggering a
                        # serial re-run
                        raise _PoolUnavailable from exc
            except _PoolUnavailable:
                pass  # fall through to the serial loop
    return (
        [
            align_pair(config, sub_s, sub_t, backend=solver_backend)
            for sub_s, sub_t in blocks
        ],
        "serial",
    )
