"""Exact (unregularised) optimal transport via linear programming.

``emd`` solves the Kantorovich LP with scipy's HiGHS backend.  Tests
use it as a ground truth for Sinkhorn with ε → 0.
"""

from __future__ import annotations

import numpy as np
import scipy  # scipy.optimize loads on first use: DESIGN.md, "Import cost"
import scipy.sparse as sp

from repro.exceptions import ConvergenceError, ShapeError
from repro.utils.validation import check_probability_vector


def emd(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Solve ``min <C, π>`` over ``Π(μ, ν)`` exactly.

    Returns the optimal plan.  Suitable for small problems (the LP has
    ``n·m`` variables); larger problems should use Sinkhorn.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ShapeError(f"cost must be 2-D, got shape {cost.shape}")
    n, m = cost.shape
    mu = check_probability_vector(mu, n, "mu")
    nu = check_probability_vector(nu, m, "nu")

    # equality constraints: row sums = mu, column sums = nu.  One row
    # constraint is redundant; dropping it improves conditioning.
    row_blocks = []
    for i in range(n):
        row = sp.coo_array(
            (np.ones(m), (np.zeros(m, dtype=int), np.arange(i * m, (i + 1) * m))),
            shape=(1, n * m),
        )
        row_blocks.append(row)
    col_entries_rows = []
    col_entries_cols = []
    for j in range(m):
        col_entries_rows.extend([j] * n)
        col_entries_cols.extend(range(j, n * m, m))
    col_block = sp.coo_array(
        (np.ones(n * m), (col_entries_rows, col_entries_cols)), shape=(m, n * m)
    )
    a_eq = sp.vstack(row_blocks[:-1] + [col_block]).tocsr()
    b_eq = np.concatenate([mu[:-1], nu])

    result = scipy.optimize.linprog(
        c=cost.ravel(),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if not result.success:
        raise ConvergenceError(f"EMD linear program failed: {result.message}")
    return result.x.reshape(n, m)


def emd_cost(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    """Optimal transport cost (Wasserstein objective value)."""
    plan = emd(cost, mu, nu)
    return float(np.sum(plan * np.asarray(cost, dtype=np.float64)))
