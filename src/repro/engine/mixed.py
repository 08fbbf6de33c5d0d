"""The float32 workspace step: the reduced-precision portfolio.

This module implements the solve stage of ``fused-dense`` at
``precision="float32"`` (:mod:`repro.engine.precision`): the same
restart portfolio policy and scheduler as the float64 path, with the
per-iteration tensor contractions executed in float32 against a
preallocated :class:`~repro.ot.workspace.Workspace`.

Precision split (what stays float64)
------------------------------------
* the **α iterate**, its simplex projection and the K-dimensional
  gradient assembly (Gram terms) — K-vectors cost nothing and the
  simplex geometry is tolerance-sensitive;
* the **combined matrices** ``D_s``/``D_t``, produced once per weight
  iterate by the pinned float64 :meth:`JointObjective.combined` cache
  and then *cast* into workspace buffers — so float32 runs see a
  rounded image of exactly the reference combination;
* every **decision value**: pruning comparisons, history values and
  the final selection re-evaluate the float64 objective on a float64
  cast of the float32 plan
  (:meth:`repro.engine.restarts.RestartRun.current_objective`).

Everything plan-shaped — the transported products, the plan gradient,
the log kernel and the Sinkhorn projection
(:func:`~repro.ot.sinkhorn.sinkhorn_log_kernel_fast_workspace`) — runs
in float32 through ``out=``-targeted calls into workspace buffers.  The
stepper owns that one workspace: it is sized to the solve's runs and
loaded with its marginals at construction, and no other solve or
thread touches it.

Equivalence contract
--------------------
Every contraction is a *per-slice* GEMM into a stack buffer, so a run's
float32 trajectory does not depend on what else shares the step: a
solo ``fused-dense`` float32 solve and the same pair inside a coalesced
float32 batch are bit-for-bit identical (pinned by
``tests/test_precision.py``), while both differ from the float64
reference by rounding.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import SLOTAlignConfig
from repro.engine.precision import FLOAT32, SolverPrecision, ensure_precision
from repro.engine.restarts import ALPHA_TOL, PLAN_TOL, eta_schedule
from repro.exceptions import ConvergenceError
from repro.ot.simplex import project_concatenated_simplices
from repro.ot.sinkhorn import _flush_constants, sinkhorn_log_kernel_fast_workspace
from repro.ot.workspace import Workspace


class _MixedLockstep:
    """The float32 stepper over :class:`~repro.engine.restarts.RestartRun`
    objects whose plan buffers are float32.

    One instance per solve, sized to its number of runs.  Every scratch
    array comes from the one :class:`~repro.ot.workspace.Workspace`
    built here with the solve's marginals loaded; phase timings are
    charged to the runs in equal shares.
    """

    def __init__(
        self,
        config: SLOTAlignConfig,
        mu: np.ndarray,
        nu: np.ndarray,
        capacity: int,
        precision: str | SolverPrecision = FLOAT32,
    ):
        self.config = config
        self.precision = ensure_precision(precision)
        self.dtype = self.precision.dtype
        self.mu = np.asarray(mu, dtype=np.float64)
        self.nu = np.asarray(nu, dtype=np.float64)
        self.n = self.mu.shape[0]
        self.m = self.nu.shape[0]
        self.capacity = max(1, int(capacity))
        self.workspace = Workspace(self.capacity, self.n, self.m, self.dtype)
        self.workspace.set_marginals(self.mu, self.nu)
        _, self.log_tiny = _flush_constants(self.dtype)

    # ------------------------------------------------------------------
    def _step_all(self, active) -> None:  #: pinned
        """One outer iteration for every run in ``active``.

        Every contraction is a per-slice GEMM/ufunc into a workspace
        stack buffer, so a batch step and the equivalent sequence of
        single-run steps issue identical instruction sequences — the
        basis of the solo ↔ coalesced float32 bitwise contract (pinned
        by ``repro lint``).
        """
        cfg = self.config
        r = len(active)
        ws = self.workspace
        t0 = time.perf_counter()
        plans = ws.plans[:r]
        for i, run in enumerate(active):
            np.copyto(plans[i], run.plan)
        new_alphas = [run.alpha for run in active]
        learn = [i for i, run in enumerate(active) if run.learn_weights]
        n_learn = len(learn)
        # the build_starts order keeps the frozen restarts last, so the
        # learned rows are normally a contiguous prefix and the four
        # transported products batch into stacked GEMMs; per-slice GEMMs
        # into the same buffers are the bitwise-equal fallback
        learn_prefix = learn == list(range(n_learn))
        if learn:
            for i in learn:
                run = active[i]
                alpha = new_alphas[i]
                d_s, d_t = run.objective.combined(alpha[:run.k], alpha[run.k:])
                np.copyto(ws.d_s[i], d_s, casting="same_kind")
                np.copyto(ws.d_t[i], d_t, casting="same_kind")
            if learn_prefix:
                lp = plans[:n_learn]
                lp_t = lp.swapaxes(1, 2)
                np.matmul(lp, ws.d_t[:n_learn], out=ws.pt[:n_learn])
                np.matmul(ws.pt[:n_learn], lp_t, out=ws.transported_t[:n_learn])
                np.matmul(lp_t, ws.d_s[:n_learn], out=ws.tp[:n_learn])
                np.matmul(ws.tp[:n_learn], lp, out=ws.transported_s[:n_learn])
            else:
                for i in learn:
                    np.matmul(plans[i], ws.d_t[i], out=ws.pt[i])
                    np.matmul(ws.pt[i], plans[i].T, out=ws.transported_t[i])
                    np.matmul(plans[i].T, ws.d_s[i], out=ws.tp[i])
                    np.matmul(ws.tp[i], plans[i], out=ws.transported_s[i])
            for i in learn:
                run = active[i]
                obj = run.objective
                k = run.k
                alpha = new_alphas[i]
                stack_s = ws.cast("source_stack", obj.source_stack)
                stack_t = ws.cast("target_stack", obj.target_stack)
                cross_s = np.einsum(
                    "qij,ij->q",
                    stack_s,
                    ws.transported_t[i],
                    optimize=ws.einsum_path("qij,ij->q", stack_s, ws.transported_t[i]),
                ).astype(np.float64)
                cross_t = np.einsum(
                    "qij,ij->q",
                    stack_t,
                    ws.transported_s[i],
                    optimize=ws.einsum_path("qij,ij->q", stack_t, ws.transported_s[i]),
                ).astype(np.float64)
                grad_s = (
                    2.0 / obj.n**2 * (obj.gram_source @ alpha[:k]) - 2.0 * cross_s
                )
                grad_t = (
                    2.0 / obj.m**2 * (obj.gram_target @ alpha[k:]) - 2.0 * cross_t
                )
                grad = np.concatenate([grad_s, grad_t])
                if cfg.tie_weights:
                    mean = 0.5 * (grad[:k] + grad[k:])
                    grad = np.concatenate([mean, mean])
                new_alphas[i] = project_concatenated_simplices(
                    alpha - cfg.structure_lr * grad, k
                )
        t1 = time.perf_counter()
        for i, run in enumerate(active):
            alpha = new_alphas[i]
            d_s, d_t = run.objective.combined(alpha[:run.k], alpha[run.k:])
            np.copyto(ws.d_s[i], d_s, casting="same_kind")
            np.copyto(ws.d_t[i], d_t, casting="same_kind")
        etas = np.array(
            [eta_schedule(cfg, run.iteration) for run in active], dtype=self.dtype
        ).reshape(r, 1, 1)
        fused_rows = [run.objective.fused for run in active]
        if all(fused_rows):
            # symmetric bases: ∂F/∂π = −4 D_s π D_t, whole stack at once
            np.matmul(ws.d_s[:r], plans, out=ws.sp[:r])
            np.matmul(ws.sp[:r], ws.d_t[:r], out=ws.grad[:r])
            np.multiply(ws.grad[:r], -4.0, out=ws.grad[:r])
        elif not any(fused_rows):
            # general: −2 (D_s π D_tᵀ + D_sᵀ π D_t)
            np.matmul(ws.d_s[:r], plans, out=ws.sp[:r])
            np.matmul(ws.sp[:r], ws.d_t[:r].swapaxes(1, 2), out=ws.grad[:r])
            np.matmul(ws.d_s[:r].swapaxes(1, 2), plans, out=ws.pt[:r])
            np.matmul(ws.pt[:r], ws.d_t[:r], out=ws.sp[:r])
            np.add(ws.grad[:r], ws.sp[:r], out=ws.grad[:r])
            np.multiply(ws.grad[:r], -2.0, out=ws.grad[:r])
        else:
            # mixed coalesced batch: per-slice GEMMs, same per the
            # stacked-matmul contract
            for i, run in enumerate(active):
                np.matmul(ws.d_s[i], plans[i], out=ws.sp[i])
                if run.objective.fused:
                    np.matmul(ws.sp[i], ws.d_t[i], out=ws.grad[i])
                    np.multiply(ws.grad[i], -4.0, out=ws.grad[i])
                else:
                    np.matmul(ws.sp[i], ws.d_t[i].T, out=ws.grad[i])
                    np.matmul(ws.d_s[i].T, plans[i], out=ws.pt[i])
                    np.matmul(ws.pt[i], ws.d_t[i], out=ws.sp[i])
                    np.add(ws.grad[i], ws.sp[i], out=ws.grad[i])
                    np.multiply(ws.grad[i], -2.0, out=ws.grad[i])
        np.divide(ws.grad[:r], etas, out=ws.grad[:r])
        log_kernel = ws.log_kernel[:r]
        np.maximum(plans, self.log_tiny, out=log_kernel)
        np.log(log_kernel, out=log_kernel)
        np.subtract(log_kernel, ws.grad[:r], out=log_kernel)
        sinkhorn_log_kernel_fast_workspace(
            ws, r, max_iter=cfg.sinkhorn_iter, tol=self.precision.sinkhorn_tol
        )
        new_plans = ws.new_plans[:r]
        if not np.all(np.isfinite(new_plans)):
            raise ConvergenceError("SLOTAlign plan became non-finite")
        t2 = time.perf_counter()
        for i, run in enumerate(active):
            alpha_delta = float(np.linalg.norm(new_alphas[i] - run.alpha))
            np.subtract(new_plans[i], plans[i], out=ws.grad[i])
            plan_delta = float(np.linalg.norm(ws.grad[i]))
            value = None
            if cfg.track_history:
                plan64 = new_plans[i].astype(np.float64)
                k = run.k
                value = run.objective.value(
                    plan64, new_alphas[i][:k], new_alphas[i][k:]
                )
            run.history.record(value, alpha_delta, plan_delta)
            run.alpha = new_alphas[i]
            np.copyto(run.plan, new_plans[i])
            run.iteration += 1
            if alpha_delta < ALPHA_TOL and plan_delta < PLAN_TOL:
                run.history.converged = True
        t3 = time.perf_counter()
        alpha_share = (t1 - t0) / r
        pi_share = (t2 - t1) / r
        eval_share = (t3 - t2) / r
        for run in active:
            run.timings["alpha_update"] += alpha_share
            run.timings["pi_update"] += pi_share
            run.timings["objective_eval"] += eval_share
            run.elapsed += alpha_share + pi_share + eval_share
