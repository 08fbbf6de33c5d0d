"""Array validation helpers shared across solvers."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConvergenceError, ShapeError


def check_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``matrix`` is a square 2-D array and return it."""
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{name} must be square 2-D, got shape {arr.shape}")
    return arr


def check_probability_vector(p, size: int | None = None, name: str = "p") -> np.ndarray:
    """Validate a non-negative vector summing to one (within tolerance)."""
    vec = np.asarray(p, dtype=np.float64)
    if vec.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {vec.shape}")
    if size is not None and vec.shape[0] != size:
        raise ShapeError(f"{name} must have length {size}, got {vec.shape[0]}")
    if np.any(vec < -1e-12):
        raise ValueError(f"{name} has negative entries")
    total = float(vec.sum())
    # np.isclose(total, 1.0, atol=1e-6) written out (rtol 1e-5): the
    # same predicate, nan and inf included, without its call overhead
    if not abs(total - 1.0) <= 1e-6 + 1e-5:
        raise ValueError(f"{name} must sum to 1, sums to {total}")
    return vec


def check_plan(plan):
    """Validate a plan for decoding or scoring and return it as float64.

    Dense plans come back as 2-D arrays, sparse ones as CSR with sorted
    indices (see :func:`sorted_csr`).  Raises :class:`ShapeError` for a
    plan that is not 2-D or has no rows or columns, and
    :class:`ConvergenceError` when any entry of a dense plan, or any
    stored value of a sparse one, is NaN or infinite: a diverged solve
    must not score or decode as an alignment.
    """
    if sp.issparse(plan):
        plan = sorted_csr(plan).astype(np.float64)
        values = plan.data
    else:
        plan = np.asarray(plan, dtype=np.float64)
        if plan.ndim != 2:
            raise ShapeError(f"plan must be 2-D, got shape {plan.shape}")
        values = plan
    if 0 in plan.shape:
        raise ShapeError("plan must be non-empty")
    if not np.isfinite(values).all():
        raise ConvergenceError("plan contains non-finite entries")
    return plan


def sorted_csr(plan) -> sp.csr_array:
    """CSR with sorted indices, copying first if sorting would mutate.

    ``sp.csr_array(other_csr)`` shares the underlying buffers, so an
    in-place ``sort_indices()`` would reorder the *caller's* arrays as
    a side effect.
    """
    csr = sp.csr_array(plan)
    if not csr.has_sorted_indices:
        csr = csr.copy()
        csr.sort_indices()
    return csr
