"""Array validation helpers shared across solvers."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError


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
