"""Block execution strategies for the partitioned aligner.

The executor is **pure scheduling**: the serial loop and the engine's
shared worker pool (:mod:`repro.engine.pool`) run the same
:func:`repro.engine.pipeline.align_pair` on the same pickled inputs, so
per-block results are bitwise-identical across ``serial`` and
``process`` (pickling NumPy float64 arrays is exact, and each worker
runs the same BLAS code path).  A regression test pins this contract
the same way ``tests/test_fused_objective.py`` pins the fused hot path.

``process`` buys wall-clock on multi-core machines; ``serial`` is the
reference loop and the fallback wherever the pool does not run the
blocks (see :func:`repro.engine.pool.pool_map`).  ``auto`` picks
``process`` when more than one CPU is visible and ``serial``
otherwise — on a single-core box a pool only adds pickling overhead.
"""

from __future__ import annotations

from repro.core.config import SLOTAlignConfig
from repro.core.result import AlignmentResult
from repro.engine.pipeline import align_pair
from repro.engine.pool import available_cpus, pool_map
from repro.exceptions import GraphError
from repro.graphs.graph import AttributedGraph

EXECUTORS = ("serial", "process", "auto")


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
    solver_backend: str = "fused-dense",
) -> tuple[list[AlignmentResult], str]:
    """Align every block pair with ``align_pair``, preserving input order.

    Returns ``(results, backend_used)``.  ``process`` runs the blocks
    on the shared pool; where the pool does not take them (one block,
    a pool that cannot start or broke) the serial loop runs instead —
    the results are bitwise-identical either way, and ``backend_used``
    reports what actually ran so callers never attribute serial
    wall-clock to a pool.  An exception raised by a block solve
    propagates as-is, with the worker's traceback as its cause, and
    triggers no serial re-run.
    """
    if resolve_executor(executor) == "process":
        results = pool_map(
            align_pair,
            [(config, sub_s, sub_t, solver_backend) for sub_s, sub_t in blocks],
        )
        if results is not None:
            return results, "process"
    return (
        [
            align_pair(config, sub_s, sub_t, backend=solver_backend)
            for sub_s, sub_t in blocks
        ],
        "serial",
    )
