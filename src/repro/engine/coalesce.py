"""Batch-coalescing entry point: many small pairs, one stacked solve.

The serving layer receives bursts of *independent* alignment requests
whose problems are frequently tiny and identically shaped (same
``(n, m)``, same config).  :func:`solve_coalesced` puts the restarts
of **all** pairs into one lockstep batch — the ``(B, n, m)``
generalisation of one pair's ``(R, n, m)`` stack — so one outer
iteration of Algorithm 1 advances every restart of every pair: float64
batches through the stacked step of :mod:`repro.engine.batched`,
float32 batches through the workspace step of :mod:`repro.engine.mixed`.

Bitwise contract
----------------
Each pair's result is **bit-for-bit** what a direct single-pair
``fused-dense`` solve at the same precision produces: every lockstep
operation either acts on a run's own contiguous slice with the exact
serial expression, or is a batched matmul that calls the same
per-slice GEMM kernels as the 2-D code.  A run's iterates therefore
never depend on what else is in the batch; coalescing is pure
scheduling.  Portfolio pruning is applied *within* each pair's restart
group (never across pairs) by the one portfolio scheduler,
:func:`repro.engine.restarts.run_portfolio`.

Coalescibility (:func:`coalescible`) requires an identical config
(shared η schedule, prune schedule and tolerances), identical plan
shape (the stack and the shared uniform marginals), and a dense
balanced problem; pairs may differ in content, features and initial
coupling.
"""

from __future__ import annotations

from repro.engine.batched import _LockstepPortfolio
from repro.engine.mixed import _MixedLockstep
from repro.engine.planning import PreparedProblem
from repro.engine.precision import DEFAULT_PRECISION, ensure_precision
from repro.engine.restarts import (
    portfolio_phase_timings,
    portfolio_result,
    problem_runs,
    run_portfolio,
)
from repro.exceptions import ConfigError
from repro.utils.timer import Timer

COALESCED_BACKEND = "coalesced"
"""Backend label stamped on results produced by a coalesced solve."""


def coalescible(a: PreparedProblem, b: PreparedProblem) -> bool:
    """Whether two prepared problems can share one lockstep batch.

    Requires equal configs (the η/prune schedules and tolerances are
    shared across the batch) and equal plan shapes (one ``(B, n, m)``
    stack, one pair of uniform marginals).  Contents may differ.
    """
    return (
        a.config == b.config
        and a.source.n_nodes == b.source.n_nodes
        and a.target.n_nodes == b.target.n_nodes
    )


def solve_coalesced(problems: list[PreparedProblem], precision: str = DEFAULT_PRECISION):
    """Solve several same-shape problems as one stacked lockstep batch.

    Returns one :class:`~repro.core.result.AlignmentResult` per input
    problem, in order, each bit-for-bit equal to a direct single-pair
    ``fused-dense`` solve of that problem **at the same precision**
    (see the module docstring).  Problems solved at different
    precisions must never share a batch (the serving layer keys
    admission on it).

    Phase timings: a float64 batch reports the stacked step's shared
    totals on every member; a float32 result carries ``precision`` and
    its own pair's share.
    """
    if not problems:
        return []
    resolved = ensure_precision(precision)
    cfg = problems[0].config
    for problem in problems[1:]:
        if not coalescible(problems[0], problem):
            raise ConfigError(
                "coalesced solve requires identical configs and plan "
                "shapes across all problems"
            )
    stacked = resolved.name == DEFAULT_PRECISION
    with Timer() as timer:
        groups = [problem_runs(problem, resolved.dtype) for problem in problems]
        everyone = [run for runs in groups for run in runs]
        mu, nu = everyone[0].mu, everyone[0].nu
        if stacked:
            stepper = _LockstepPortfolio(cfg, mu, nu)
        else:
            stepper = _MixedLockstep(
                cfg, mu, nu, capacity=len(everyone), precision=resolved
            )
        solved = run_portfolio(groups, cfg, stepper._step_all)

    if stacked:
        # the stacked step times the whole batch at once; the runs
        # carry only their own objective evaluations
        shared = {
            key: total + sum(run.timings[key] for run in everyone)
            for key, total in stepper.timings.items()
        }
    results = []
    for index, (problem, runs) in enumerate(zip(problems, groups)):
        outcomes, checkpoints = solved[index]
        phase_timings = portfolio_phase_timings(runs, problem.basis_seconds)
        if stacked:
            phase_timings.update(shared)
        result = portfolio_result(
            COALESCED_BACKEND, outcomes, checkpoints, runs[0].k,
            phase_timings, runtime=sum(run.elapsed for run in runs),
        )
        if not stacked:
            result.extras["precision"] = resolved.name
        result.extras["coalesced"] = {
            "batch_size": len(problems),
            "batch_index": index,
            "batch_runtime": timer.elapsed,
        }
        results.append(result)
    return results
