"""Adjacency normalisation used by the subgraph view (paper Eq. 5).

``Â = M^{-1/2} (A + I) M^{-1/2}`` where ``M`` is the degree matrix of
``A + I`` — the symmetric normalisation with self-loops of SGC / GCN.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError


def add_self_loops(adjacency: sp.csr_array) -> sp.csr_array:
    """Return ``A + I`` as CSR."""
    n = adjacency.shape[0]
    return sp.csr_array(adjacency + sp.eye_array(n, format="csr"))


def symmetric_normalize(adjacency, add_loops: bool = True) -> sp.csr_array:
    """Symmetrically normalised adjacency ``M^{-1/2}(A+I)M^{-1/2}``.

    Parameters
    ----------
    adjacency:
        Sparse or dense square adjacency.
    add_loops:
        If True (the paper's setting) add the identity before
        normalising so isolated nodes keep a well-defined row.
    """
    if not sp.issparse(adjacency):
        adjacency = sp.csr_array(np.asarray(adjacency, dtype=np.float64))
    else:
        adjacency = sp.csr_array(adjacency).astype(np.float64)
    if adjacency.shape[0] != adjacency.shape[1]:
        raise GraphError(f"adjacency must be square, got {adjacency.shape}")
    mat = add_self_loops(adjacency) if add_loops else adjacency
    degrees = np.asarray(mat.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(degrees)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    d_inv = sp.dia_array((inv_sqrt[None, :], [0]), shape=mat.shape).tocsr()
    return sp.csr_array(d_inv @ mat @ d_inv)


def row_normalize(matrix: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """L2-normalise rows of a dense matrix; zero rows stay zero."""
    arr = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    norms = np.where(norms < eps, 1.0, norms)
    return arr / norms
