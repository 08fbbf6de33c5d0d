"""Unbalanced / partial optimal transport.

The paper's real-world pairs are only *partially* overlapping (Douban:
1,118 of 3,906 online users have an offline copy), and Sec. VII lists
partial alignment as future work.  This module provides the two
standard relaxations:

* :func:`sinkhorn_unbalanced` — entropic OT with KL-relaxed marginals
  (Chizat et al. 2018): mass conservation is softened by a penalty
  ``rho``, so unmatched nodes can shed mass instead of being forced
  onto bad partners;
* :func:`partial_wasserstein` — transport exactly a fraction ``mass``
  of the total (Figalli-style partial OT) via a dummy-sink reduction to
  balanced Sinkhorn.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConvergenceError, ShapeError
from repro.ot.sinkhorn import SinkhornResult, _logsumexp_rows
from repro.utils.validation import check_probability_vector


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


def sinkhorn_unbalanced_log_kernel(
    log_kernel: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    epsilon: float,
    rho: float = 1.0,
    max_iter: int = 100,
    tol: float = 0.0,
) -> SinkhornResult:
    """Unbalanced scaling of ``exp(log_kernel)``, fully in log domain.

    The KL-proximal π-update of the partial solve mode hands the solver
    a *log* kernel (``log π_k − ∇F/η``, entries routinely hundreds of
    nats apart), so the linear-domain :func:`sinkhorn_unbalanced` would
    underflow before its first scaling.  This variant runs the same
    generalised fixed point — scaling exponent ``ρ/(ρ+ε)`` — on
    log-domain potentials via ``logsumexp``:

    ``f ← (ρ/(ρ+ε)) · (log μ − LSE_j(L + g))``,
    ``g ← (ρ/(ρ+ε)) · (log ν − LSE_i(Lᵀ + f))``,
    ``π = exp(f ⊕ L ⊕ g)``.

    ``epsilon`` is the entropic coefficient the log kernel was built
    with (the proximal η); it only enters through the exponent.  The
    reported ``err`` is the same KL-relaxed fixed-point residual as
    :func:`sinkhorn_unbalanced` (in potential space):
    ``max |f − f_fixed|`` — zero exactly at the relaxed optimum.
    """
    log_k = np.asarray(log_kernel, dtype=np.float64)
    if log_k.ndim != 2:
        raise ShapeError(f"log_kernel must be 2-D, got shape {log_k.shape}")
    mu = _positive_vector(mu, log_k.shape[0], "mu")
    nu = _positive_vector(nu, log_k.shape[1], "nu")
    if epsilon <= 0 or rho <= 0:
        raise ValueError("epsilon and rho must be positive")
    exponent = rho / (rho + epsilon)
    log_mu = np.log(mu)
    log_nu = np.log(nu)
    f = np.zeros_like(mu)
    g = np.zeros_like(nu)
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        f_prev = f
        f = exponent * (log_mu - _logsumexp_rows(log_k + g[None, :]))
        g = exponent * (log_nu - _logsumexp_rows((log_k + f[:, None]).T))
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
            raise ConvergenceError("unbalanced log-kernel Sinkhorn diverged")
        if float(np.abs(f - f_prev).max()) < tol:
            converged = True
            break
    plan = np.exp(f[:, None] + log_k + g[None, :])
    f_fixed = exponent * (log_mu - _logsumexp_rows(log_k + g[None, :]))
    err = float(np.abs(f - f_fixed).max())
    return SinkhornResult(plan, iteration, err, converged)


def partial_wasserstein(
    cost: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    mass: float = 0.8,
    epsilon: float = 0.05,
    max_iter: int = 2000,
) -> np.ndarray:
    """Transport exactly ``mass`` of the distributions' weight.

    Reduction: append a dummy row and column absorbing the untransported
    mass at zero cost, solve balanced entropic OT on the extended
    problem, and drop the dummies.  The returned plan has total mass
    ``mass``; rows/columns that shed their weight to the dummies are
    the nodes deemed unmatchable.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ShapeError(f"cost must be 2-D, got shape {cost.shape}")
    mu = check_probability_vector(mu, cost.shape[0], "mu")
    nu = check_probability_vector(nu, cost.shape[1], "nu")
    if not 0.0 < mass <= 1.0:
        raise ValueError(f"mass must be in (0, 1], got {mass}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    n, m = cost.shape
    slack = 1.0 - mass
    # extended problem: dummy column receives mu-mass the plan does not
    # ship, dummy row feeds nu-mass that is not received
    big = float(cost.max()) if cost.size else 1.0
    extended = np.zeros((n + 1, m + 1))
    extended[:n, :m] = cost
    extended[n, :m] = big * 0.0  # dummy row: free absorption
    extended[:n, m] = big * 0.0  # dummy column: free absorption
    extended[n, m] = 2.0 * big + 1.0  # dummies must not pair together
    mu_ext = np.concatenate([mu, [slack]])
    nu_ext = np.concatenate([nu, [slack]])
    mu_ext /= mu_ext.sum()
    nu_ext /= nu_ext.sum()
    from repro.ot.sinkhorn import sinkhorn_log

    result = sinkhorn_log(
        extended, mu_ext, nu_ext, epsilon=epsilon, max_iter=max_iter
    )
    plan = result.plan[:n, :m]
    total = plan.sum()
    if total <= 0:
        raise ConvergenceError("partial OT shipped no mass")
    # the extended problem is normalised by (1 + slack), so the raw
    # retained block carries ~mass/(1 + slack); rescale it to exactly
    # the documented total mass
    return plan * (mass / total)


def _positive_vector(vec, size, name):
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != size:
        raise ShapeError(f"{name} must be 1-D of length {size}")
    if np.any(arr < 0) or arr.sum() <= 0:
        raise ValueError(f"{name} must be non-negative with positive mass")
    return arr
