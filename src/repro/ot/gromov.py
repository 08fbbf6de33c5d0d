"""Gromov-Wasserstein distance solvers.

Implements the discrete GW problem of paper Eq. (1):

    min_{π ∈ Π(μ,ν)}  Σ_{ijkl} |Ds(i,j) − Dt(k,l)|² π_ik π_jl

using the Peyré–Cuturi tensor-product decomposition: for the squared
loss, the GW gradient tensor contracts as

    L(Ds, Dt) ⊗ π = c_{Ds,Dt} − 2 · Ds π Dtᵀ
    c_{Ds,Dt}     = (Ds∘Ds) μ 1ᵀ + 1 νᵀ (Dt∘Dt)ᵀ

The solver is :func:`proximal_gromov_wasserstein`, float64
KL-proximal point iterations (Xu et al. 2019): the GWD baseline, and
SLOTAlign's π-update when the structure weights are frozen.
:mod:`repro.ot.fused` adds a feature cost to the same iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConvergenceError, ShapeError
from repro.ot.sinkhorn import sinkhorn_log_kernel_fast
from repro.utils.validation import check_probability_vector, check_square


@dataclass
class GWResult:
    """Output of a GW solver run."""

    plan: np.ndarray
    distance: float
    n_iterations: int
    converged: bool
    history: list[float] = field(default_factory=list)


def gw_constant_term(
    d_source: np.ndarray, d_target: np.ndarray, mu: np.ndarray, nu: np.ndarray
) -> np.ndarray:
    """The π-independent tensor constant ``c_{Ds,Dt}`` (squared loss)."""
    d_source = check_square(d_source, "d_source")
    d_target = check_square(d_target, "d_target")
    mu = check_probability_vector(mu, d_source.shape[0], "mu")
    nu = check_probability_vector(nu, d_target.shape[0], "nu")
    f1 = (d_source**2) @ mu  # shape (n,)
    f2 = (d_target**2) @ nu  # shape (m,)
    return f1[:, None] + f2[None, :]


def gw_gradient(
    d_source: np.ndarray,
    d_target: np.ndarray,
    plan: np.ndarray,
    constant: np.ndarray | None = None,
    mu: np.ndarray | None = None,
    nu: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of the GW objective at ``plan``: ``2(c − 2 Ds π Dtᵀ)``.

    When ``constant`` is omitted it is recomputed from the marginals.
    For symmetric ``Ds, Dt`` the gradient of ``<L⊗π, π>`` is
    ``2·(L⊗π)``; asymmetric matrices are symmetrised first, which
    leaves the objective unchanged.
    """
    if constant is None:
        if mu is None or nu is None:
            raise ValueError("either constant or (mu, nu) must be provided")
        constant = gw_constant_term(d_source, d_target, mu, nu)
    ds = 0.5 * (d_source + d_source.T)
    dt = 0.5 * (d_target + d_target.T)
    return 2.0 * (constant - 2.0 * ds @ plan @ dt.T)


def gw_objective(
    d_source: np.ndarray,
    d_target: np.ndarray,
    plan: np.ndarray,
    constant: np.ndarray | None = None,
    mu: np.ndarray | None = None,
    nu: np.ndarray | None = None,
) -> float:
    """GW objective value ``<L(Ds,Dt) ⊗ π, π>`` at ``plan``."""
    if constant is None:
        if mu is None or nu is None:
            raise ValueError("either constant or (mu, nu) must be provided")
        constant = gw_constant_term(d_source, d_target, mu, nu)
    tensor_product = constant - 2.0 * d_source @ plan @ d_target.T
    return float(np.sum(tensor_product * plan))


def _prepare(d_source, d_target, mu, nu, init):
    d_source = np.asarray(check_square(d_source, "d_source"), dtype=np.float64)
    d_target = np.asarray(check_square(d_target, "d_target"), dtype=np.float64)
    n, m = d_source.shape[0], d_target.shape[0]
    mu = (
        np.full(n, 1.0 / n)
        if mu is None
        else check_probability_vector(mu, n, "mu")
    )
    nu = (
        np.full(m, 1.0 / m)
        if nu is None
        else check_probability_vector(nu, m, "nu")
    )
    if init is None:
        plan = np.outer(mu, nu)
    else:
        plan = np.asarray(init, dtype=np.float64)
        if plan.shape != (n, m):
            raise ShapeError(f"init plan must have shape {(n, m)}, got {plan.shape}")
        total = plan.sum()
        if total <= 0:
            raise ValueError("init plan must have positive mass")
        plan = plan / total
    return d_source, d_target, mu, nu, plan


def proximal_gromov_wasserstein(
    d_source: np.ndarray,
    d_target: np.ndarray,
    mu: np.ndarray | None = None,
    nu: np.ndarray | None = None,
    step_size: float = 0.01,
    max_iter: int = 200,
    inner_iter: int = 50,
    tol: float = 1e-7,
    init: np.ndarray | None = None,
) -> GWResult:
    """KL-proximal-point GW solver (Xu et al. 2019).

    Each outer iteration linearises the objective at the current plan
    and solves ``argmin <∇F, π> + η KL(π || π_k)`` by a Sinkhorn
    projection of ``π_k ⊙ exp(-∇F / η)`` — the same update as
    SLOTAlign's Eq. (12).  ``step_size`` is the proximal coefficient η
    (smaller = more aggressive steps); the paper operates at 0.01.
    """
    if step_size <= 0:
        raise ValueError(f"step_size must be positive, got {step_size}")
    d_source, d_target, mu, nu, plan = _prepare(d_source, d_target, mu, nu, init)
    constant = gw_constant_term(d_source, d_target, mu, nu)
    history: list[float] = []
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        grad = gw_gradient(d_source, d_target, plan, constant=constant)
        log_kernel = np.log(np.maximum(plan, 1e-300)) - grad / step_size
        result = sinkhorn_log_kernel_fast(
            log_kernel, mu, nu, max_iter=inner_iter, tol=1e-9
        )
        new_plan = result.plan
        if not np.all(np.isfinite(new_plan)):
            raise ConvergenceError("GW proximal iterate became non-finite")
        delta = float(np.abs(new_plan - plan).sum())
        plan = new_plan
        history.append(gw_objective(d_source, d_target, plan, constant=constant))
        if delta < tol:
            converged = True
            break
    distance = gw_objective(d_source, d_target, plan, constant=constant)
    return GWResult(plan, distance, iteration, converged, history)
