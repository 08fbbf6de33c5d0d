"""The float64 stacked step: one lockstep over many restarts.

The serial step advances each restart in turn; on every outer
iteration each restart runs the same tensor program (α-gradient,
simplex projection, π-gradient, KL-proximal Sinkhorn projection) on
its own ``(n, m)`` iterate.  :class:`_LockstepPortfolio` advances **all
live restarts in lockstep**, stacking their iterates into ``(R, n, m)``
tensors so each per-iteration contraction becomes one batched matmul
instead of R dispatches.  It serves only the coalesced multi-pair
solve (:func:`repro.engine.coalesce.solve_coalesced`): measured against
the serial step, the stacked one loses on single pairs and on
coalesced serving batches alike (DESIGN.md, "Solve paths").

Bitwise contract
----------------
Every restart's iterate sequence is **bit-for-bit identical** to the
serial step's (:meth:`repro.engine.restarts.RestartRun._step_once`),
because every batched operation used here is bitwise-equal to its
per-slice serial counterpart on the supported BLAS configurations:

* batched ``matmul`` over a C-contiguous stack — including the
  transposed-view operands ``P.swapaxes(1, 2) @ D`` (transA) and
  ``pt @ P.swapaxes(1, 2)`` (transB) — calls the same per-slice GEMM
  kernels as the 2-D expressions ``P.T @ D`` / ``pt @ P.T``;
* the combined matrices ``D(β)`` are produced by the *same*
  sequential-accumulation :func:`repro.core.views.combine_bases` call
  (via ``JointObjective.combined``) and stacked by exact copy;
* elementwise kernels (log, exp, maximum, divide, broadcasting
  products) are order-independent per element;
* reductions keep the serial shapes: per-restart scalars (norms,
  objective values) are evaluated on contiguous slices with the exact
  serial expressions.

Restart lifecycles stay independent: a restart that converges or is
pruned leaves the stack (sliced copies are exact) and the survivors'
trajectories are unaffected.  ``tests/test_batched_restart.py`` pins
the whole contract across seeds, view counts and early-stopped
restarts.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine.restarts import RestartRun, eta_schedule
from repro.exceptions import ConvergenceError
from repro.ot.simplex import project_concatenated_simplices
from repro.ot.sinkhorn import sinkhorn_log_kernel_fast_batched

_BatchedRun = RestartRun
"""The run state the pinned step bodies below are annotated with."""


class _LockstepPortfolio:
    """The float64 stacked stepper over :class:`RestartRun` objects.

    The runs may share one objective (one pair's portfolio) or carry
    one objective each (the cross-pair coalesced solve); the only
    requirements are a common ``(n, m)`` plan shape, common marginals
    and a common config, so the stacked contractions and the shared η
    schedule stay well-defined.  Phase timings are shared by the whole
    stack and accumulate on the stepper; each run is charged an equal
    share of the wall clock.
    """

    def __init__(self, config, mu, nu):
        self.config = config
        self.mu = mu
        self.nu = nu
        self.timings = {
            "alpha_update": 0.0, "pi_update": 0.0, "objective_eval": 0.0,
        }

    # ------------------------------------------------------------------
    def _combined_stacks(self, runs: list[RestartRun], alphas: list[np.ndarray]):
        """Stacked ``(R, n, n)`` / ``(R, m, m)`` combined matrices.

        Each slice comes from the run's own ``JointObjective.combined``
        — the exact sequential accumulation the serial solver uses —
        and ``np.stack`` copies it bit-for-bit into the batch.
        """
        pairs = []
        for run, alpha in zip(runs, alphas):
            k = run.objective.n_bases
            pairs.append(run.objective.combined(alpha[:k], alpha[k:]))
        return (
            np.stack([d_s for d_s, _ in pairs]),
            np.stack([d_t for _, d_t in pairs]),
        )

    def _step_all(self, active: list[_BatchedRun]) -> None:  #: pinned
        """One outer iteration of Algorithm 1 for every live restart.

        Bitwise-pinned (``repro lint``): this is the lockstep update
        whose per-slice results must stay bit-for-bit equal to the
        serial ``fused-dense`` path.
        """
        cfg = self.config
        iteration = active[0].iteration
        step_start = time.perf_counter()

        plans = np.stack([run.plan for run in active])

        t0 = time.perf_counter()
        new_alphas = [run.alpha for run in active]
        learn_rows = [
            row for row, run in enumerate(active) if run.learn_weights
        ]
        if learn_rows:
            for _ in range(cfg.alpha_steps):
                d_s, d_t = self._combined_stacks(
                    [active[row] for row in learn_rows],
                    [new_alphas[row] for row in learn_rows],
                )
                learn_plans = plans[learn_rows]
                # the three transported matrices of the α-gradient,
                # batched over the learning restarts
                pt = np.matmul(learn_plans, d_t)
                transported_t = np.matmul(pt, learn_plans.swapaxes(1, 2))
                transported_s = np.matmul(
                    np.matmul(learn_plans.swapaxes(1, 2), d_s), learn_plans
                )
                for offset, row in enumerate(learn_rows):
                    run = active[row]
                    k = run.objective.n_bases
                    grad = self._alpha_gradient_from(
                        run,
                        new_alphas[row],
                        transported_t[offset],
                        transported_s[offset],
                    )
                    if cfg.tie_weights:
                        mean = 0.5 * (grad[:k] + grad[k:])
                        grad = np.concatenate([mean, mean])
                    new_alphas[row] = project_concatenated_simplices(
                        new_alphas[row] - cfg.structure_lr * grad, k
                    )
        t1 = time.perf_counter()
        self.timings["alpha_update"] += t1 - t0

        d_s, d_t = self._combined_stacks(active, new_alphas)
        sp = np.matmul(d_s, plans)
        fused_rows = [
            row for row, run in enumerate(active) if run.objective.fused
        ]
        if len(fused_rows) == len(active):
            # symmetric bases: −2(D_s π D_tᵀ + D_sᵀ π D_t) = −4 D_s π D_t
            plan_grads = -4.0 * np.matmul(sp, d_t)
        elif not fused_rows:
            spt = np.matmul(sp, d_t.swapaxes(1, 2))
            plan_grads = -2.0 * (
                spt
                + np.matmul(np.matmul(d_s.swapaxes(1, 2), plans), d_t)
            )
        else:
            # mixed batch (coalesced pairs disagreeing on basis
            # symmetry): each sub-stack gets its own formula on a
            # contiguous fancy-indexed copy — per-slice results are
            # identical to the unmixed branches above
            general_rows = [
                row for row, run in enumerate(active)
                if not run.objective.fused
            ]
            plan_grads = np.empty_like(plans)
            plan_grads[fused_rows] = -4.0 * np.matmul(
                sp[fused_rows], d_t[fused_rows]
            )
            spt = np.matmul(
                sp[general_rows], d_t[general_rows].swapaxes(1, 2)
            )
            plan_grads[general_rows] = -2.0 * (
                spt
                + np.matmul(
                    np.matmul(
                        d_s[general_rows].swapaxes(1, 2), plans[general_rows]
                    ),
                    d_t[general_rows],
                )
            )
        eta = eta_schedule(cfg, iteration)
        log_kernels = (
            np.log(np.maximum(plans, 1e-300)) - plan_grads / eta
        )
        projections = sinkhorn_log_kernel_fast_batched(
            log_kernels,
            self.mu,
            self.nu,
            max_iter=cfg.sinkhorn_iter,
            tol=cfg.sinkhorn_tol,
        )
        t2 = time.perf_counter()
        self.timings["pi_update"] += t2 - t1

        t3 = time.perf_counter()
        for row, run in enumerate(active):
            new_plan = projections[row].plan
            if not np.all(np.isfinite(new_plan)):
                raise ConvergenceError("SLOTAlign plan became non-finite")
            new_alpha = new_alphas[row]
            k = run.objective.n_bases
            alpha_delta = float(np.linalg.norm(new_alpha - run.alpha))
            plan_delta = float(np.linalg.norm(new_plan - run.plan))
            value = (
                run.objective.value(new_plan, new_alpha[:k], new_alpha[k:])
                if cfg.track_history
                else None
            )
            run.history.record(value, alpha_delta, plan_delta)
            run.alpha, run.plan = new_alpha, new_plan
            run.iteration += 1
            if alpha_delta < cfg.alpha_tol and plan_delta < cfg.plan_tol:
                run.history.converged = True
        self.timings["objective_eval"] += time.perf_counter() - t3

        # wall-clock attribution: lockstep work is shared, so each live
        # restart is charged an equal share of the iteration
        share = (time.perf_counter() - step_start) / len(active)
        for run in active:
            run.elapsed += share

    def _alpha_gradient_from(
        self,
        run: _BatchedRun,
        alpha: np.ndarray,
        transported_t: np.ndarray,
        transported_s: np.ndarray,
    ) -> np.ndarray:  #: pinned
        """Per-restart α-gradient assembly (Eq. 11 right-hand side).

        Mirrors ``JointObjective.alpha_gradient`` exactly, with the
        transported matrices supplied by the batched contractions.
        """
        objective = run.objective
        k = objective.n_bases
        beta_s, beta_t = alpha[:k], alpha[k:]
        cross_s = (objective.source_stack * transported_t).sum(axis=(1, 2))
        cross_t = (objective.target_stack * transported_s).sum(axis=(1, 2))
        grad_s = np.empty(k)
        grad_t = np.empty(k)
        for q in range(k):
            grad_s[q] = (
                2.0 / objective.n**2 * float(objective.gram_source[q] @ beta_s)
                - 2.0 * float(cross_s[q])
            )
            grad_t[q] = (
                2.0 / objective.m**2 * float(objective.gram_target[q] @ beta_t)
                - 2.0 * float(cross_t[q])
            )
        return np.concatenate([grad_s, grad_t])
