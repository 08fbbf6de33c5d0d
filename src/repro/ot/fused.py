"""Fused Gromov-Wasserstein distance (Titouan et al., ICML 2019).

The FusedGW baseline combines a cross-graph feature cost ``M`` with the
intra-graph GW term:

    min_π  (1-α) <M, π> + α Σ |Ds(i,j) − Dt(k,l)|² π_ik π_jl

Because ``M`` compares features *across* graphs, FusedGW inherits the
feature-inconsistency fragility the paper demonstrates (Fig. 7): when
the two feature spaces are unaligned, ``M`` is meaningless noise.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.ot.gromov import GWResult, _prepare, gw_constant_term, gw_objective
from repro.ot.sinkhorn import sinkhorn_log_kernel_fast


def feature_cost_matrix(
    source_features: np.ndarray, target_features: np.ndarray, metric: str = "sqeuclidean"
) -> np.ndarray:
    """Cross-graph feature cost ``M[i, k] = d(xs_i, xt_k)``.

    Raises :class:`ShapeError` when the feature dimensionalities differ
    — precisely the situation feature truncation/compression creates,
    in which case FusedGW cannot even form its cost matrix and callers
    must fall back to a padded/rescaled comparison.
    """
    xs = np.asarray(source_features, dtype=np.float64)
    xt = np.asarray(target_features, dtype=np.float64)
    if xs.ndim != 2 or xt.ndim != 2:
        raise ShapeError("features must be 2-D matrices")
    if xs.shape[1] != xt.shape[1]:
        raise ShapeError(
            f"cross-graph feature cost needs equal dims, got {xs.shape[1]} vs {xt.shape[1]}"
        )
    if metric == "sqeuclidean":
        sq_s = np.sum(xs**2, axis=1)[:, None]
        sq_t = np.sum(xt**2, axis=1)[None, :]
        cost = sq_s + sq_t - 2.0 * xs @ xt.T
        return np.maximum(cost, 0.0)
    if metric == "cosine":
        norm_s = np.linalg.norm(xs, axis=1, keepdims=True)
        norm_t = np.linalg.norm(xt, axis=1, keepdims=True)
        norm_s = np.where(norm_s < 1e-12, 1.0, norm_s)
        norm_t = np.where(norm_t < 1e-12, 1.0, norm_t)
        return 1.0 - (xs / norm_s) @ (xt / norm_t).T
    raise ValueError(f"unknown metric {metric!r}")


def fused_gromov_wasserstein(
    feature_cost: np.ndarray,
    d_source: np.ndarray,
    d_target: np.ndarray,
    mu: np.ndarray | None = None,
    nu: np.ndarray | None = None,
    alpha: float = 0.5,
    step_size: float = 0.01,
    max_iter: int = 200,
    inner_iter: int = 50,
    tol: float = 1e-7,
    init: np.ndarray | None = None,
) -> GWResult:
    """KL-proximal solver for the fused GW objective.

    Parameters
    ----------
    feature_cost:
        ``n × m`` cross-graph feature cost ``M``.
    alpha:
        Structure/feature trade-off; ``alpha=1`` recovers pure GW,
        ``alpha=0`` a pure (linear) Wasserstein problem.

    ``d_source``, ``d_target``, ``mu``, ``nu`` and ``init`` are checked
    as :func:`repro.ot.gromov.proximal_gromov_wasserstein` checks them.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if step_size <= 0:
        raise ValueError(f"step_size must be positive, got {step_size}")
    d_source, d_target, mu, nu, plan = _prepare(d_source, d_target, mu, nu, init)
    feature_cost = np.asarray(feature_cost, dtype=np.float64)
    if feature_cost.shape != plan.shape:
        raise ShapeError(
            f"feature_cost must have shape {plan.shape}, got {feature_cost.shape}"
        )
    # renormalised even though _prepare's plan is a coupling already:
    # the uniform start's bits depend on this division
    plan = plan / plan.sum()
    constant = gw_constant_term(d_source, d_target, mu, nu)
    history: list[float] = []
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        gw_grad = 2.0 * (constant - 2.0 * d_source @ plan @ d_target.T)
        grad = (1.0 - alpha) * feature_cost + alpha * gw_grad
        # KL-proximal step with coefficient eta = step_size
        log_kernel = np.log(np.maximum(plan, 1e-300)) - grad / step_size
        new_plan = sinkhorn_log_kernel_fast(
            log_kernel, mu, nu, max_iter=inner_iter, tol=1e-9
        ).plan
        delta = float(np.abs(new_plan - plan).sum())
        plan = new_plan
        value = (1.0 - alpha) * float(np.sum(feature_cost * plan)) + alpha * (
            gw_objective(d_source, d_target, plan, constant=constant)
        )
        history.append(value)
        if delta < tol:
            converged = True
            break
    distance = history[-1] if history else 0.0
    return GWResult(plan, distance, iteration, converged, history)
