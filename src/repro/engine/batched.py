"""The float64 lockstep: many restarts, one stacked Sinkhorn projection.

:class:`_LockstepPortfolio` advances all live restarts one outer
iteration together: each run computes the first half of its own step
(:meth:`RestartRun._propose`: the α-update and the π-update's proximal
log kernel), **one** :func:`~repro.ot.sinkhorn.sinkhorn_log_kernel_fast_batched`
call projects the ``(R, n, m)`` stack of kernels, and each run takes
its slice through the second half (:meth:`RestartRun._accept`).  It
serves only the coalesced multi-pair solve
(:func:`repro.engine.coalesce.solve_coalesced`), on the service's
worker threads, where one stacked matvec per Sinkhorn iteration holds
its own against many small ones (DESIGN.md, "Solve paths").

Bitwise contract
----------------
Every restart's iterate sequence is **bit-for-bit identical** to the
serial step's (:meth:`repro.engine.restarts.RestartRun._step_once`):
both halves are the serial step's own code, and the stacked kernel
returns for every slice exactly what the serial kernel returns.  A run
that converges or is pruned leaves the stack without perturbing the
survivors.  ``tests/test_batched_restart.py`` pins the contract.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine.restarts import RestartRun
from repro.ot.sinkhorn import SINKHORN_TOL, sinkhorn_log_kernel_fast_batched


class _LockstepPortfolio:
    """The float64 lockstep stepper over :class:`RestartRun` objects.

    The runs may share one objective (one pair's portfolio) or carry
    one objective each (the cross-pair coalesced solve); they need a
    common ``(n, m)`` plan shape, common marginals and a common config,
    so their kernels stack and share one projection.  A run's phase
    timings take its own halves plus an equal share of the projection;
    its wall clock takes an equal share of the whole iteration.
    """

    def __init__(self, config, mu, nu):
        self.config = config
        self.mu = mu
        self.nu = nu

    def _step_all(self, active: list[RestartRun]) -> None:  #: pinned
        """One outer iteration of Algorithm 1 for every live restart.

        Bitwise-pinned (``repro lint``): each slice must stay
        bit-for-bit equal to the serial ``fused-dense`` step.
        """
        cfg = self.config
        step_start = time.perf_counter()
        proposals = [run._propose() for run in active]
        t0 = time.perf_counter()
        projections = sinkhorn_log_kernel_fast_batched(
            np.stack([log_kernel for _, log_kernel, _ in proposals]),
            self.mu,
            self.nu,
            max_iter=cfg.sinkhorn_iter,
            tol=SINKHORN_TOL,
        )
        share = (time.perf_counter() - t0) / len(active)
        for run, (new_alpha, _, _), projection in zip(
            active, proposals, projections
        ):
            run.timings["pi_update"] += share
            run._accept(new_alpha, projection.plan)
        # wall-clock attribution: the step is shared, so each live
        # restart is charged an equal share of the iteration
        share = (time.perf_counter() - step_start) / len(active)
        for run in active:
            run.elapsed += share
