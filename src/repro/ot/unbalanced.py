"""Unbalanced / partial optimal transport.

The paper's real-world pairs are only *partially* overlapping (Douban:
1,118 of 3,906 online users have an offline copy), and Sec. VII lists
partial alignment as future work.  This module provides the
standard KL relaxation in two forms:

* :func:`sinkhorn_unbalanced` — entropic OT with KL-relaxed marginals
  (Chizat et al. 2018): mass conservation is softened by a penalty
  ``rho``, so unmatched nodes can shed mass instead of being forced
  onto bad partners;
* :func:`sinkhorn_unbalanced_log_kernel` — the same scaling for a log
  kernel hundreds of nats deep (the partial-unbalanced π-update):
  log-domain potentials, with the kernel exponentiated once and again
  only when a scaling is absorbed (Schmitzer 2019), so each iteration
  costs two matvecs.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConvergenceError, ShapeError
from repro.ot.sinkhorn import _LOG_FLUSH, SinkhornResult


def sinkhorn_unbalanced(
    cost: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    epsilon: float = 0.05,
    rho: float = 1.0,
    max_iter: int = 1000,
    tol: float = 1e-9,
) -> SinkhornResult:
    """Entropic unbalanced OT with KL marginal penalties.

    Solves ``min <C, π> + ε KL(π || μ⊗ν) + ρ KL(π1 || μ) + ρ KL(πᵀ1 || ν)``
    by generalised Sinkhorn scaling with exponent ``ρ/(ρ+ε)``.

    Parameters
    ----------
    rho:
        Marginal-relaxation strength; ``rho → ∞`` recovers balanced OT,
        small ``rho`` lets mass be created/destroyed cheaply.

    The returned ``err`` is the KL-relaxed fixed-point residual
    ``max |u − (μ / Kv)^{ρ/(ρ+ε)}|`` — zero exactly when the scalings
    satisfy the relaxed optimality conditions.  (The *balanced*
    row-marginal residual is large by design for small ``rho``, since
    shedding mass is the whole point of the relaxation.)
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ShapeError(f"cost must be 2-D, got shape {cost.shape}")
    mu = _positive_vector(mu, cost.shape[0], "mu")
    nu = _positive_vector(nu, cost.shape[1], "nu")
    if epsilon <= 0 or rho <= 0:
        raise ValueError("epsilon and rho must be positive")
    kernel = np.exp(-cost / epsilon) * np.outer(mu, nu)
    exponent = rho / (rho + epsilon)
    u = np.ones_like(mu)
    v = np.ones_like(nu)
    tiny = 1e-300
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        u_prev = u
        u = (mu / np.maximum(kernel @ v, tiny)) ** exponent
        v = (nu / np.maximum(kernel.T @ u, tiny)) ** exponent
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ConvergenceError("unbalanced Sinkhorn diverged")
        if iteration % 10 == 0 or iteration == max_iter:
            if float(np.abs(u - u_prev).max()) < tol:
                converged = True
                break
    plan = u[:, None] * kernel * v[None, :]
    # the balanced row-marginal residual is large *by design* for small
    # rho (mass destruction is the point), so report the KL-relaxed
    # fixed-point residual instead: at the optimum u = (mu / Kv)^exponent
    u_fixed = (mu / np.maximum(kernel @ v, tiny)) ** exponent
    err = float(np.abs(u - u_fixed).max())
    return SinkhornResult(plan, iteration, err, converged)


_ABSORB_NATS = 100.0
"""Largest log-scaling the KL-relaxed kernel iterates on before absorbing it.

:func:`sinkhorn_unbalanced_log_kernel` keeps two exponentiated kernels
and iterates on the scalings ``exp(g − β)`` and ``exp(f − α)``.  When
one of them leaves ``[exp(−τ), exp(τ)]``, ``τ = _ABSORB_NATS``, its log
is absorbed into its kernel, which alone is exponentiated again.  Every
kernel row holds an exact 1, so the largest term of each matvec is at
least ``exp(−τ)``, while an entry flushed below ``_LOG_FLUSH`` would have
contributed at most ``exp(_LOG_FLUSH + τ)``: every flushed term lies at
least ``708.2 − 2τ`` (here 508) nats below the largest term of its sum,
far beyond float64's 36.7 nats of precision.
"""


def sinkhorn_unbalanced_log_kernel(
    log_kernel: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    epsilon: float,
    rho: float = 1.0,
    max_iter: int = 100,
    tol: float = 0.0,
) -> SinkhornResult:  #: pinned
    """Unbalanced scaling of ``exp(log_kernel)``, exponentiating once.

    .. note:: **pinned** — the partial-unbalanced golden and the
       committed partial cohort depend on this instruction sequence;
       ``repro lint`` fails on any semantic edit until it is re-pinned
       with ``repro lint --update-pins`` and fidelity evidence.

    The KL-proximal π-update of the partial solve mode hands the solver
    a *log* kernel (``log π_k − ∇F/η``, entries routinely hundreds of
    nats apart), so the linear-domain :func:`sinkhorn_unbalanced` would
    underflow before its first scaling.  This variant runs the same
    generalised fixed point — scaling exponent ``x = ρ/(ρ+ε)`` — on
    log-domain potentials:

    ``f ← x · (log μ − LSE_j(L + g))``,
    ``g ← x · (log ν − LSE_i(Lᵀ + f))``,
    ``π = exp(f ⊕ L ⊕ g)``.

    Each log-sum-exp is a matvec against a kernel exponentiated once and
    normalised along the axis it sums over (absorption-stabilised
    scaling, Schmitzer 2019).  The f-update uses ``K_r = exp(L ⊕ β − r)``
    with row maxima ``r`` and the scaling ``exp(g − β)``; the g-update
    uses ``K_c = exp(Lᵀ ⊕ α − c)``, stored ``(m, n)``, and ``exp(f − α)``.
    A scaling that leaves ``exp(±_ABSORB_NATS)`` is absorbed (``β ← g``
    or ``α ← f``) and only its kernel is exponentiated again.  Kernel
    entries below ``_LOG_FLUSH`` are written as exact zeros without being
    exponentiated; ``_ABSORB_NATS`` says why they never matter.  A row
    shift alone would not do: a column lying more than 708 nats below
    every row's maximum would vanish from the g-update.

    ``epsilon`` is the entropic coefficient the log kernel was built
    with (the proximal η); it only enters through the exponent.  Both
    marginals must be strictly positive, since the scaling takes their
    logs.  A ``-inf`` kernel entry is a zero-mass cell; a row or column
    without a finite entry diverges.  The loop stops once
    ``max |f − f_prev| < tol``, and the reported ``err`` is the same
    KL-relaxed fixed-point residual as :func:`sinkhorn_unbalanced` (in
    potential space): ``max |f − f_fixed|`` — zero exactly at the
    relaxed optimum.
    """
    log_k = np.asarray(log_kernel, dtype=np.float64)
    if log_k.ndim != 2:
        raise ShapeError(f"log_kernel must be 2-D, got shape {log_k.shape}")
    n, m = log_k.shape
    mu = _strictly_positive_vector(mu, n, "mu")
    nu = _strictly_positive_vector(nu, m, "nu")
    if epsilon <= 0 or rho <= 0:
        raise ValueError("epsilon and rho must be positive")
    if not np.all(log_k < np.inf):
        raise ConvergenceError("log kernel contains non-finite entries")
    exponent = rho / (rho + epsilon)
    drop = np.empty(n * m, dtype=bool)

    def half_step(potential, other, absorbed, log_marginal, log_view,
                  kernel, offset, scaling, product):
        # potential = x·(log_marginal − LSE_j(log_view[:, j] + other_j))
        # = x·(offset − log(kernel @ exp(other − absorbed))), in place;
        # offset is log_marginal minus the rows' maxima at the last build
        np.subtract(other, absorbed, out=scaling)
        if not float(np.abs(scaling).max()) <= _ABSORB_NATS:  # NaN: unbuilt
            if not np.all(np.isfinite(other)):
                raise ConvergenceError("unbalanced log-kernel Sinkhorn diverged")
            np.copyto(absorbed, other)
            np.add(log_view, absorbed, out=kernel)
            np.amax(kernel, axis=1, out=offset)
            if not np.all(np.isfinite(offset)):  # a row with no finite entry
                raise ConvergenceError("unbalanced log-kernel Sinkhorn diverged")
            np.subtract(kernel, offset[:, None], out=kernel)
            mask = drop.reshape(kernel.shape)
            np.less(kernel, _LOG_FLUSH, out=mask)
            np.copyto(kernel, 0.0, where=mask)  # dropped entries: exp(0)
            np.exp(kernel, out=kernel)
            np.copyto(kernel, 0.0, where=mask)
            np.subtract(log_marginal, offset, out=offset)
            scaling.fill(0.0)
        np.exp(scaling, out=scaling)
        np.dot(kernel, scaling, out=product)
        np.log(product, out=product)
        np.subtract(offset, product, out=potential)
        np.multiply(potential, exponent, out=potential)

    f = np.zeros(n)
    g = np.zeros(m)
    f_prev = np.empty(n)
    # NaN absorbed potentials: each kernel is built at its first update
    alpha = np.full(n, np.nan)
    beta = np.full(m, np.nan)
    k_rows = np.empty((n, m))
    f_side = (beta, np.log(mu), log_k, k_rows,
              np.empty(n), np.empty(m), np.empty(n))
    g_side = (alpha, np.log(nu), log_k.T, np.empty((m, n)),
              np.empty(m), np.empty(n), np.empty(m))
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        f, f_prev = f_prev, f
        half_step(f, g, *f_side)
        half_step(g, f, *g_side)
        np.subtract(f, f_prev, out=f_prev)
        if float(np.abs(f_prev, out=f_prev).max()) < tol:
            converged = True
            break
    f_fixed = f_prev
    half_step(f_fixed, g, *f_side)
    err = float(np.abs(f - f_fixed).max())
    plan = np.add(f[:, None], log_k, out=k_rows)
    np.add(plan, g, out=plan)
    return SinkhornResult(np.exp(plan, out=plan), iteration, err, converged)


def _positive_vector(vec, size, name):
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != size:
        raise ShapeError(f"{name} must be 1-D of length {size}")
    if np.any(arr < 0) or arr.sum() <= 0:
        raise ValueError(f"{name} must be non-negative with positive mass")
    return arr


def _strictly_positive_vector(vec, size, name):
    arr = _positive_vector(vec, size, name)
    if not np.all(arr > 0):
        raise ValueError(
            f"{name} must be strictly positive: the log-domain scaling "
            "takes its log"
        )
    return arr
