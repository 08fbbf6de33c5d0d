"""Extracting discrete node correspondences from a transport plan.

Paper Eq. (2): ``M = argmax_M Σ_{(u,v)∈M} π_uv``.  The exact maximiser
is a linear assignment problem (Hungarian); the common cheap surrogates
are row-argmax (what Hit@k evaluation implicitly uses) and greedy
one-to-one matching.
"""

from __future__ import annotations

import numpy as np
import scipy  # scipy.optimize loads on first use: DESIGN.md, "Import cost"

from repro.exceptions import ShapeError


def argmax_matching(plan: np.ndarray) -> np.ndarray:
    """For each source row, the highest-scoring target column.

    Not necessarily one-to-one; this mirrors top-1 retrieval.
    """
    plan = _validate(plan)
    return np.argmax(plan, axis=1)


def hungarian_matching(plan: np.ndarray) -> np.ndarray:
    """Exact maximum-weight one-to-one assignment (Eq. 2).

    For rectangular plans with ``n <= m`` every source node is matched;
    returns the matched target index per source row.
    """
    plan = _validate(plan)
    if plan.shape[0] > plan.shape[1]:
        raise ShapeError(
            "hungarian_matching requires n_source <= n_target; transpose the plan"
        )
    rows, cols = scipy.optimize.linear_sum_assignment(-plan)
    matching = np.empty(plan.shape[0], dtype=np.int64)
    matching[rows] = cols
    return matching


def greedy_matching(plan: np.ndarray) -> np.ndarray:
    """Greedy one-to-one matching by descending score.

    A 1/2-approximation to the assignment optimum, linearithmic in the
    number of entries; unmatched sources (possible when n > m) get -1.
    """
    plan = _validate(plan)
    n, m = plan.shape
    order = np.argsort(plan, axis=None)[::-1]
    matched_rows = np.zeros(n, dtype=bool)
    matched_cols = np.zeros(m, dtype=bool)
    matching = np.full(n, -1, dtype=np.int64)
    n_matched = 0
    limit = min(n, m)
    for flat in order:
        i, j = divmod(int(flat), m)
        if matched_rows[i] or matched_cols[j]:
            continue
        matching[i] = j
        matched_rows[i] = True
        matched_cols[j] = True
        n_matched += 1
        if n_matched == limit:
            break
    return matching


def top_k_candidates(plan: np.ndarray, k: int) -> np.ndarray:
    """``n × k`` array of each row's top-k target columns (best first)."""
    plan = _validate(plan)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, plan.shape[1])
    part = np.argpartition(-plan, kth=k - 1, axis=1)[:, :k]
    row_scores = np.take_along_axis(plan, part, axis=1)
    order = np.argsort(-row_scores, axis=1, kind="stable")
    return np.take_along_axis(part, order, axis=1)


def _validate(plan: np.ndarray) -> np.ndarray:
    plan = np.asarray(plan, dtype=np.float64)
    if plan.ndim != 2:
        raise ShapeError(f"plan must be 2-D, got shape {plan.shape}")
    if plan.size == 0:
        raise ShapeError("plan must be non-empty")
    return plan
