"""Solver precision model: the opt-in float32 fast path.

``fused-dense`` iterates in float64 by default and is bitwise-pinned.
Its ``precision="float32"`` mode trades that determinism contract for
speed on the ``pi_update`` hot path, under three rules that keep it
honest:

1. **Opt-in, never a silent swap.**  float32 is an explicit option of
   ``fused-dense`` (:func:`repro.engine.backends.get_backend`); the
   default float64 never reaches the float32 step, and a backend
   without a float32 variant refuses it with a choice-naming
   :class:`ConfigError`.
2. **Decisions stay float64.**  Portfolio pruning and final selection
   compare objective values re-evaluated in float64 from the float32
   iterate (:meth:`repro.engine.restarts.RestartRun.current_objective`),
   so reduced precision never changes *which* restart survives for
   reasons of accumulated rounding in the score itself.
3. **A tolerance per precision.**  The float64 projection tolerance
   (:data:`~repro.ot.sinkhorn.SINKHORN_TOL` = 1e-9, marginal
   violations measured in L1) sits far below float32 resolution — a
   float32 Sinkhorn loop can never satisfy it and would silently burn
   its full inner budget every projection.  Each precision therefore
   carries its own inner tolerance, and float32 projects to
   :data:`F32_SINKHORN_TOL`.

When is float32 safe?  The alternating scheme is a fixed-point
iteration, not an accumulation: each outer step re-projects onto the
simplex/polytope, so rounding does not compound across iterations.
Plans at bench scale hold entries of order ``1/n² ≈ 1e-4`` against a
float32 epsilon of ``~1e-7`` — three decimal digits of headroom per
entry — and the decode stage consumes row-relative *order*, not exact
mass.  Expect matching Hit@1/MRR to within ~:data:`HIT1_PARITY_POINTS`
points on converged solves; use float64 whenever bitwise
reproducibility, objective values below ``1e-6`` resolution, or
ill-conditioned (near-degenerate) structure bases are in play.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigError
from repro.ot.sinkhorn import F32_SINKHORN_TOL, SINKHORN_TOL

#: Documented Hit@1 / (100·MRR) parity budget, in percentage points,
#: between a float32 solve and its float64 reference on the seeded
#: bench pairs.  Reduced precision perturbs a nonconvex trajectory, so
#: individual matches can flip; the gate is that ranking quality stays
#: within this band, not that plans agree entrywise.
HIT1_PARITY_POINTS = 3.0


@dataclass(frozen=True)
class SolverPrecision:
    """One named working precision for the solve stage."""

    name: str
    dtype: np.dtype = field(repr=False)
    #: marginal-L1 tolerance of the π-update's Sinkhorn projection
    sinkhorn_tol: float


FLOAT64 = SolverPrecision("float64", np.dtype(np.float64), SINKHORN_TOL)
FLOAT32 = SolverPrecision("float32", np.dtype(np.float32), F32_SINKHORN_TOL)

PRECISIONS: dict[str, SolverPrecision] = {
    FLOAT64.name: FLOAT64,
    FLOAT32.name: FLOAT32,
}

DEFAULT_PRECISION = FLOAT64.name


def ensure_precision(precision: str | SolverPrecision) -> SolverPrecision:
    """Resolve a precision name (or pass through an instance)."""
    if isinstance(precision, SolverPrecision):
        return precision
    resolved = PRECISIONS.get(precision)
    if resolved is None:
        choices = ", ".join(sorted(PRECISIONS))
        raise ConfigError(
            f"unknown solver precision {precision!r}; choose one of: {choices}"
        )
    return resolved


__all__ = [
    "DEFAULT_PRECISION",
    "F32_SINKHORN_TOL",
    "FLOAT32",
    "FLOAT64",
    "HIT1_PARITY_POINTS",
    "PRECISIONS",
    "SolverPrecision",
    "ensure_precision",
]
