"""Entropic optimal transport via the Sinkhorn algorithm (Cuturi 2013).

Two implementations are provided:

* :func:`sinkhorn` — the classical kernel-domain iteration; fast but can
  underflow for small regularisation;
* :func:`sinkhorn_log` — log-domain (logsumexp) iteration, stable for
  any ε > 0; this is the one SLOTAlign's π-update uses.

Both project a positive kernel onto the transport polytope
``Π(μ, ν) = {π >= 0 : π 1 = μ, πᵀ 1 = ν}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConvergenceError, ShapeError
from repro.utils.validation import check_probability_vector


@dataclass
class SinkhornResult:
    """Output of a Sinkhorn run.

    Attributes
    ----------
    plan:
        The transport plan π.
    n_iterations:
        Iterations actually performed.
    marginal_error:
        Final L1 violation of the row marginal — of the column marginal
        for the fast kernels, whose closing u-update makes the rows
        exact.
    converged:
        Whether the tolerance was met before the iteration cap.
    """

    plan: np.ndarray
    n_iterations: int
    marginal_error: float
    converged: bool


def _validate_inputs(cost, mu, nu):
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ShapeError(f"cost must be 2-D, got shape {cost.shape}")
    mu = check_probability_vector(mu, cost.shape[0], "mu")
    nu = check_probability_vector(nu, cost.shape[1], "nu")
    return cost, mu, nu


def sinkhorn(
    cost: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    epsilon: float = 0.01,
    max_iter: int = 1000,
    tol: float = 1e-9,
) -> SinkhornResult:
    """Kernel-domain Sinkhorn for ``min <C, π> + ε H(π)``.

    Raises :class:`ConvergenceError` when the kernel underflows to an
    all-zero row (use :func:`sinkhorn_log` in that regime).
    """
    cost, mu, nu = _validate_inputs(cost, mu, nu)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    kernel = np.exp(-cost / epsilon)
    return sinkhorn_projection(kernel, mu, nu, max_iter=max_iter, tol=tol)


def sinkhorn_projection(
    kernel: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    max_iter: int = 1000,
    tol: float = 1e-9,
) -> SinkhornResult:
    """Project a positive ``kernel`` onto ``Π(μ, ν)`` by scaling.

    This is the generalised (KL) projection used by the proximal-point
    π-update: the KL-prox of a linearised objective is the Sinkhorn
    projection of ``π_k ⊙ exp(-η ∇F)``.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    mu = check_probability_vector(mu, kernel.shape[0], "mu")
    nu = check_probability_vector(nu, kernel.shape[1], "nu")
    if np.any(kernel < 0):
        raise ValueError("kernel must be non-negative")
    if not np.all(np.isfinite(kernel)):
        raise ConvergenceError("Sinkhorn kernel contains non-finite entries")
    u = np.ones_like(mu)
    v = np.ones_like(nu)
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        kv = kernel @ v
        if np.any(kv <= 0):
            raise ConvergenceError(
                "Sinkhorn kernel underflowed (zero row); use sinkhorn_log"
            )
        u = mu / kv
        ktu = kernel.T @ u
        if np.any(ktu <= 0):
            raise ConvergenceError(
                "Sinkhorn kernel underflowed (zero column); use sinkhorn_log"
            )
        v = nu / ktu
        if iteration % 5 == 0 or iteration == max_iter:
            row_marginal = u * (kernel @ v)
            err = float(np.abs(row_marginal - mu).sum())
            if err < tol:
                converged = True
                break
    plan = u[:, None] * kernel * v[None, :]
    err = float(np.abs(plan.sum(axis=1) - mu).sum())
    return SinkhornResult(plan, iteration, err, converged or err < tol)


def sinkhorn_log(
    cost: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    epsilon: float = 0.01,
    max_iter: int = 1000,
    tol: float = 1e-9,
    log_kernel: np.ndarray | None = None,
) -> SinkhornResult:
    """Log-domain Sinkhorn; numerically stable for small ``epsilon``.

    Parameters
    ----------
    cost, mu, nu, epsilon, max_iter, tol:
        As in :func:`sinkhorn`.
    log_kernel:
        When given, ``cost``/``epsilon`` are ignored and the projection
        is applied to ``exp(log_kernel)`` directly — the entry point
        used by the KL-proximal GW solvers.
    """
    if log_kernel is None:
        cost, mu, nu = _validate_inputs(cost, mu, nu)
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        log_k = -cost / epsilon
    else:
        log_k = np.asarray(log_kernel, dtype=np.float64)
        mu = check_probability_vector(mu, log_k.shape[0], "mu")
        nu = check_probability_vector(nu, log_k.shape[1], "nu")
    if not np.all(np.isfinite(log_k)):
        raise ConvergenceError("log kernel contains non-finite entries")
    log_mu = np.log(np.maximum(mu, 1e-300))
    log_nu = np.log(np.maximum(nu, 1e-300))
    f = np.zeros_like(log_mu)
    g = np.zeros_like(log_nu)
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        f = log_mu - _logsumexp_rows(log_k + g[None, :])
        g = log_nu - _logsumexp_rows((log_k + f[:, None]).T)
        if iteration % 5 == 0 or iteration == max_iter:
            log_plan = log_k + f[:, None] + g[None, :]
            err = float(np.abs(np.exp(_logsumexp_rows(log_plan)) - mu).sum())
            if err < tol:
                converged = True
                break
    plan = np.exp(log_k + f[:, None] + g[None, :])
    err = float(np.abs(plan.sum(axis=1) - mu).sum())
    return SinkhornResult(plan, iteration, err, converged or err < tol)


_SUBNORMAL_FLUSH = 3e-308
"""Flush-to-zero threshold just above the smallest normal float64.

Sub-normal kernel/plan entries carry no mass the projection can see
(their contribution to any marginal is far below one ulp of the
accumulated sum) but they poison every subsequent BLAS call with the
10-100x hardware penalty for denormal arithmetic — on the sharp
KL-proximal kernels SLOTAlign produces, that penalty dominated the
whole solver.  Flushing them to exact zero keeps the scaling iteration
on the fast path.
"""

_LOG_FLUSH = -708.2
"""Row-shifted log-kernel entries below this are zeroed, not exponentiated.

``exp(-708.2) ≈ 2.7e-308`` lies below ``_SUBNORMAL_FLUSH``, so because
exp is monotone every such entry would be flushed after the exponential
anyway.  Skipping the exponential is what matters: ``np.exp`` leaves its
vectorised fast path for arguments below about -707.7 and costs 15-20x
more per element when the result underflows to zero, ~100x more when it
is subnormal (see DESIGN.md, "Bitwise policy").
"""


def sinkhorn_log_kernel_fast(
    log_kernel: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    max_iter: int = 50,
    tol: float = 0.0,
) -> SinkhornResult:  #: pinned
    """Fast projection of ``exp(log_kernel)`` onto ``Π(μ, ν)``.

    .. note:: **bitwise-pinned** — the serial/batched/coalesced solver
       equivalence and the committed benchmark baselines depend on this
       exact instruction sequence; ``repro lint`` fails on any semantic
       edit.  Register a divergent variant under a new solver backend
       instead (see ``repro.analysis.pins``).

    Row-shifts the log kernel by its row maxima (a rank-one factor that
    the scaling vector ``u`` absorbs exactly), exponentiates **once**,
    then runs kernel-domain scaling iterations — mathematically the same
    fixed point as :func:`sinkhorn_log` at a fraction of the cost, and
    immune to overflow because the shifted kernel lies in (0, 1].

    Entries more than ~700 nats below their row maximum underflow to
    exactly zero; they carry negligible mass in the projection, and a
    small clamp keeps the column scalings finite regardless.  Entries
    below ``_LOG_FLUSH`` are written as zeros without being
    exponentiated, and entries in the sub-normal range are flushed to
    zero up front (see ``_SUBNORMAL_FLUSH``); the iteration itself
    reuses its matvec buffers and recycles the convergence-check
    product into the next ``u``-update, so the periodic tolerance check
    costs nothing.

    ``marginal_error`` is the L1 error of the returned plan's column
    sums, and ``converged`` is True only when the periodic tolerance
    check stopped the loop before ``max_iter``.
    """
    log_k = np.asarray(log_kernel, dtype=np.float64)
    mu = check_probability_vector(mu, log_k.shape[0], "mu")
    nu = check_probability_vector(nu, log_k.shape[1], "nu")
    if not np.all(np.isfinite(log_k)):
        raise ConvergenceError("log kernel contains non-finite entries")
    row_max = log_k.max(axis=1, keepdims=True)
    shifted = log_k - row_max
    keep = np.greater_equal(shifted, _LOG_FLUSH, out=np.empty_like(shifted))
    np.multiply(shifted, keep, out=shifted)  # dropped entries: exp(-0.0)
    kernel = np.exp(shifted, out=shifted)
    np.multiply(kernel, keep, out=kernel)
    np.greater_equal(kernel, _SUBNORMAL_FLUSH, out=keep)
    np.multiply(kernel, keep, out=kernel)
    kernel_t = kernel.T
    tiny = 1e-300
    u = np.ones_like(mu)
    v = np.ones_like(nu)
    kv = np.empty_like(mu)
    ktu = np.empty_like(nu)
    have_kv = False
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        if not have_kv:
            np.matmul(kernel, v, out=kv)
        have_kv = False
        np.maximum(kv, tiny, out=kv)
        np.divide(mu, kv, out=u)
        np.matmul(kernel_t, u, out=ktu)
        np.maximum(ktu, tiny, out=ktu)
        np.divide(nu, ktu, out=v)
        if tol > 0 and iteration % 10 == 0:
            np.matmul(kernel, v, out=kv)
            have_kv = True  # reuse the check product in the next u-update
            err = float(np.abs(u * kv - mu).sum())
            if err < tol:
                converged = True
                break
    # close with a u-update so the row marginals are satisfied exactly
    if not have_kv:
        np.matmul(kernel, v, out=kv)
    u = mu / np.maximum(kv, tiny)
    plan = u[:, None] * kernel * v[None, :]
    plan[plan < _SUBNORMAL_FLUSH] = 0.0
    err = float(np.abs(plan.sum(axis=0) - nu).sum())
    return SinkhornResult(plan, iteration, err, converged)


def sinkhorn_log_kernel_fast_batched(
    log_kernels: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    max_iter: int = 50,
    tol: float = 0.0,
) -> list[SinkhornResult]:  #: pinned
    """Batched :func:`sinkhorn_log_kernel_fast` over a kernel stack.

    Projects every slice of the ``(R, n, m)`` stack onto ``Π(μ, ν)``
    simultaneously: the per-iteration matvecs become batched matmuls,
    amortising R dispatches into one.  **Every slice's result is
    bit-for-bit what the serial function returns for that kernel**: on
    this library's supported platforms batched ``matmul`` (including
    the transposed-view path) calls the same per-slice GEMM kernels as
    the 2-D code, elementwise ops are order-independent, and slices
    whose marginal error converges early are compressed out of the
    batch without perturbing the survivors (a sliced copy is exact).
    That contract is what lets the coalesced multi-pair solve step
    stacked restarts without changing a single iterate;
    ``tests/test_batched_restart.py`` pins it.
    """
    log_k = np.asarray(log_kernels, dtype=np.float64)
    if log_k.ndim != 3:
        raise ShapeError(
            f"log_kernels must be a (R, n, m) stack, got shape {log_k.shape}"
        )
    n_runs = log_k.shape[0]
    mu = check_probability_vector(mu, log_k.shape[1], "mu")
    nu = check_probability_vector(nu, log_k.shape[2], "nu")
    if n_runs == 0:
        return []
    if not np.all(np.isfinite(log_k)):
        raise ConvergenceError("log kernel contains non-finite entries")
    row_max = log_k.max(axis=2, keepdims=True)
    shifted = log_k - row_max
    keep = np.greater_equal(shifted, _LOG_FLUSH, out=np.empty_like(shifted))
    np.multiply(shifted, keep, out=shifted)  # dropped entries: exp(-0.0)
    kernel = np.exp(shifted, out=shifted)
    np.multiply(kernel, keep, out=kernel)
    np.greater_equal(kernel, _SUBNORMAL_FLUSH, out=keep)
    np.multiply(kernel, keep, out=kernel)
    tiny = 1e-300
    u = np.ones((n_runs, mu.shape[0]))
    v = np.ones((n_runs, nu.shape[0]))
    results: dict[int, SinkhornResult] = {}
    active = np.arange(n_runs)
    kv = None
    have_kv = False
    iteration = 0

    def finalize(rows: np.ndarray, at_iteration: int, converged: bool) -> None:
        # closing u-update (exact row marginals), as in the serial code
        u_close = mu / np.maximum(kv[rows], tiny)
        plans = u_close[:, :, None] * kernel[rows] * v[rows][:, None, :]
        plans[plans < _SUBNORMAL_FLUSH] = 0.0
        errs = np.abs(plans.sum(axis=1) - nu).sum(axis=1)
        for offset, run in enumerate(active[rows]):
            results[int(run)] = SinkhornResult(
                plans[offset], at_iteration, float(errs[offset]), converged
            )

    for iteration in range(1, max_iter + 1):
        if not have_kv:
            kv = np.matmul(kernel, v[:, :, None])[:, :, 0]
        have_kv = False
        kv = np.maximum(kv, tiny)
        u = mu / kv
        ktu = np.matmul(kernel.swapaxes(1, 2), u[:, :, None])[:, :, 0]
        ktu = np.maximum(ktu, tiny)
        v = nu / ktu
        if tol > 0 and iteration % 10 == 0:
            kv = np.matmul(kernel, v[:, :, None])[:, :, 0]
            have_kv = True  # reuse the check product in the next u-update
            errs = np.abs(u * kv - mu).sum(axis=1)
            done = errs < tol
            if np.any(done):
                finalize(np.flatnonzero(done), iteration, converged=True)
                keep = np.flatnonzero(~done)
                if keep.size == 0:
                    return [results[run] for run in range(n_runs)]
                kernel = kernel[keep]
                u, v, kv = u[keep], v[keep], kv[keep]
                active = active[keep]
    if not have_kv:
        kv = np.matmul(kernel, v[:, :, None])[:, :, 0]
    finalize(np.arange(active.size), iteration, converged=False)
    return [results[run] for run in range(n_runs)]


_SUBNORMAL_FLUSH32 = 3e-38
"""Float32 analogue of ``_SUBNORMAL_FLUSH`` (smallest normal ≈1.2e-38)."""

_LOG_FLUSH32 = -86.5
"""Float32 analogue of ``_LOG_FLUSH``: ``exp(-86.5) ≈ 2.7e-38``."""

F32_SINKHORN_TOL = 1e-5
"""Marginal-L1 tolerance floor for float32 Sinkhorn loops.

One float32 rounding per row of a stochastic matrix leaves marginal
violations of order ``eps32 ≈ 1e-7`` per row even at the fixed point,
so float64-grade tolerances (1e-9) can never be met and would silently
burn the full inner budget; 1e-5 sits comfortably above the rounding
noise floor while staying tight against plan entries of order 1e-4.
"""


def _flush_constants(dtype: np.dtype) -> tuple[float, float]:
    """``(subnormal flush threshold, tiny clamp)`` for a working dtype."""
    if np.dtype(dtype) == np.float32:
        return _SUBNORMAL_FLUSH32, 1e-37
    return _SUBNORMAL_FLUSH, 1e-300


def sinkhorn_log_kernel_fast_workspace(
    workspace,
    n_slices: int,
    max_iter: int = 50,
    tol: float = 0.0,
) -> tuple[int, np.ndarray, bool]:  #: pinned
    """Workspace-fused stacked projection onto ``Π(μ, ν)``.

    The allocation-free sibling of the two fast kernels: it reads the
    stacked log kernels from ``workspace.log_kernel[:n_slices]`` and the
    marginals from ``workspace.mu_col`` / ``workspace.nu_col`` (loaded
    via :meth:`repro.ot.workspace.Workspace.set_marginals`), runs the
    same row-shift + kernel-domain scaling iteration as
    :func:`sinkhorn_log_kernel_fast` entirely through ``out=``-targeted
    calls into workspace buffers, and leaves the projected plans in
    ``workspace.new_plans[:n_slices]`` — callers copy out before the
    next lease.  Works at the workspace's dtype; float32 uses its own
    subnormal-flush threshold and tiny clamp (see ``_flush_constants``).

    Per-slice convergence follows the batched kernel's contract, by
    **freezing** instead of compression: a slice whose marginal error
    clears ``tol`` at a check takes its closing u-update immediately
    and its plan stops being written, while the remaining slices keep
    iterating on the full stack — so every slice's plan is bit-for-bit
    what the serial kernel produces for that kernel alone, which is
    what lets heterogeneous coalesced batches keep the single-pair
    bitwise contract.  (Frozen slices ride along in the stack matvecs;
    their scaling vectors become dead state that is never read again.
    No fancy-indexed copies, no allocation.)  Returns ``(iterations,
    per-slice L1 column errors, all-slices-converged)``; a slice counts
    as converged only when a tolerance check froze it.

    .. note:: **bitwise-pinned** — the solo ↔ coalesced float32
       equivalence contract and the precision benchmark baselines
       depend on this exact instruction sequence; register divergent
       variants under a new backend name instead of editing it.
    """
    r = int(n_slices)
    if not 1 <= r <= workspace.capacity:
        raise ShapeError(
            f"n_slices must be in [1, {workspace.capacity}], got {n_slices}"
        )
    flush, tiny = _flush_constants(workspace.dtype)
    log_flush = _LOG_FLUSH32 if workspace.dtype == np.float32 else _LOG_FLUSH
    log_k = workspace.log_kernel[:r]
    if not np.all(np.isfinite(log_k)):
        raise ConvergenceError("log kernel contains non-finite entries")
    row_max = workspace.row_max[:r]
    np.amax(log_k, axis=2, keepdims=True, out=row_max)
    np.subtract(log_k, row_max, out=log_k)
    mask = workspace.mask[:r]
    np.greater_equal(log_k, log_flush, out=mask)
    np.multiply(log_k, mask, out=log_k)  # dropped entries: exp(-0.0)
    kernel = workspace.kernel[:r]
    np.exp(log_k, out=kernel)
    np.multiply(kernel, mask, out=kernel)
    np.greater_equal(kernel, flush, out=mask)
    np.multiply(kernel, mask, out=kernel)
    kernel_t = kernel.swapaxes(1, 2)
    mu_col = workspace.mu_col
    nu_col = workspace.nu_col
    u = workspace.u[:r]
    v = workspace.v[:r]
    kv = workspace.kv[:r]
    ktu = workspace.ktu[:r]
    marg = workspace.marg[:r]
    plans = workspace.new_plans[:r]
    u.fill(1.0)
    v.fill(1.0)
    frozen = np.zeros(r, dtype=bool)
    final_errors = np.zeros(r, dtype=np.float64)
    have_kv = False
    iteration = 0

    def close(index: int) -> None:
        # closing u-update (exact row marginals) for one slice, as in
        # the serial kernel; writes the slice's plan once, for good
        np.maximum(kv[index], tiny, out=kv[index])
        np.divide(mu_col, kv[index], out=u[index])
        np.multiply(kernel[index], u[index], out=plans[index])
        np.multiply(plans[index], v[index].swapaxes(0, 1), out=plans[index])
        np.greater_equal(plans[index], flush, out=mask[index])
        np.multiply(plans[index], mask[index], out=plans[index])
        # column sums into the slice's ktu, which every iteration
        # rewrites before reading
        col = ktu[index]
        np.sum(plans[index], axis=0, keepdims=True, out=col.T)
        np.subtract(col, nu_col, out=col)
        np.abs(col, out=col)
        final_errors[index] = float(col.sum())

    for iteration in range(1, max_iter + 1):
        if not have_kv:
            np.matmul(kernel, v, out=kv)
        have_kv = False
        np.maximum(kv, tiny, out=kv)
        np.divide(mu_col, kv, out=u)
        np.matmul(kernel_t, u, out=ktu)
        np.maximum(ktu, tiny, out=ktu)
        np.divide(nu_col, ktu, out=v)
        if tol > 0 and iteration % 10 == 0:
            np.matmul(kernel, v, out=kv)
            have_kv = True  # reuse the check product in the next u-update
            np.multiply(u, kv, out=marg)
            np.subtract(marg, mu_col, out=marg)
            np.abs(marg, out=marg)
            errs = marg.sum(axis=(1, 2))
            for index in range(r):
                if not frozen[index] and errs[index] < tol:
                    close(index)
                    frozen[index] = True
            if frozen.all():
                return iteration, final_errors, True
    if not have_kv:
        np.matmul(kernel, v, out=kv)
    for index in range(r):
        if not frozen[index]:
            close(index)
    return iteration, final_errors, False


_LSE_FLOOR = -700.0
"""Floor for the max-shifted logsumexp argument on rows with a finite max.

``exp(-700) ≈ 9.9e-305`` is still on ``np.exp``'s fast path, and such a
row holds an exact ``exp(0) = 1`` term, so terms below 1e-304 are
absorbed by its sum whether or not they are floored.
"""


def _logsumexp_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp with max-shift stabilisation.

    Rows whose maximum is not finite are shifted by 0 and not floored,
    so an all ``-inf`` row keeps its exact zero sum (``-inf`` result).
    """
    shift = matrix.max(axis=1)
    finite = np.isfinite(shift)
    shift = np.where(finite, shift, 0.0)
    shifted = matrix - shift[:, None]
    floor = np.where(finite, _LSE_FLOOR, -np.inf)
    np.maximum(shifted, floor[:, None], out=shifted)
    return shift + np.log(np.sum(np.exp(shifted, out=shifted), axis=1))


def transport_cost(plan: np.ndarray, cost: np.ndarray) -> float:
    """Linear transport cost ``<C, π>``."""
    plan = np.asarray(plan, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    if plan.shape != cost.shape:
        raise ShapeError(
            f"plan and cost must share a shape, got {plan.shape} vs {cost.shape}"
        )
    return float(np.sum(plan * cost))
