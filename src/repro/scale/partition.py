"""Joint graph partitioning for the divide-and-conquer pipeline.

The source graph is cut by :func:`kway_partition`: recursive spectral
bisection *generalised to direct k-way with size balancing*.  The
recursion splits the requested part count ``k`` into
``⌈k/2⌉ + ⌊k/2⌋`` and cuts the Fiedler-sorted node order at the
proportional position, so exactly ``k`` parts come out with sizes
differing by at most one.  Balanced parts give the parallel executor
balanced worker loads.

Target nodes are then assigned to the source parts through cheap
intra-graph signatures (:func:`assign_target`), mimicking LIME's
bi-directional partition matching, and rebalanced so no part receives
more than twice its source size (:func:`rebalance`).

All spectral steps are *sign-canonical*: the Fiedler vector is flipped
so its largest-magnitude entry is positive, which keeps partitions
equivariant under node relabelling (eigensolvers return eigenvectors
up to sign, and the sign would otherwise depend on the input
ordering).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graphs.graph import AttributedGraph
from repro.graphs.normalization import row_normalize, symmetric_normalize

_DENSE_BISECT_CUTOFF = 64
"""Below this block size the dense eigendecomposition wins: ARPACK's
per-iteration overhead dominates and ``eigh`` on a tiny block is exact
and branch-free."""


def fiedler_vector(graph: AttributedGraph) -> np.ndarray:
    """Second-largest eigenvector of the normalised adjacency.

    Large blocks use ``scipy.sparse.linalg.eigsh(k=2)`` on the sparse
    matrix — O(iters · nnz) instead of the dense O(n³) ``eigh`` — with
    a fixed start vector.  Tiny blocks, and any block where the Lanczos
    iteration fails to converge, fall back to the dense path.  The
    returned vector is sign-canonical (largest-magnitude entry
    positive).  On a disconnected graph the top eigenvalue repeats
    once per component and ``eigsh`` may return a different vector of
    that eigenspace from call to call, so partitions of such graphs
    are not reproducible.
    """
    norm = symmetric_normalize(graph.adjacency)
    n = norm.shape[0]
    if n <= 1:
        return np.zeros(n)
    vec = None
    if n > _DENSE_BISECT_CUTOFF:
        try:
            eigvals, eigvecs = sp.linalg.eigsh(
                norm, k=2, which="LA", v0=np.full(n, 1.0 / np.sqrt(n))
            )
            # eigsh orders ascending for LA; the Fiedler direction is
            # the second-largest eigenvalue's vector
            vec = eigvecs[:, np.argsort(eigvals)[-2]]
        except (sp.linalg.ArpackNoConvergence, RuntimeError):
            vec = None  # dense fallback below
    if vec is None:
        # dense fallback is size-guarded: only blocks at or below
        # _DENSE_BISECT_CUTOFF (or failed Lanczos solves) reach it
        eigvals, eigvecs = np.linalg.eigh(norm.toarray())  # repro-lint: ignore[no-densify]
        vec = eigvecs[:, -2]
    peak = np.argmax(np.abs(vec))
    if vec[peak] < 0:
        vec = -vec
    return vec


def kway_partition(graph: AttributedGraph, n_parts: int) -> list[np.ndarray]:
    """Direct k-way spectral partition with size balancing.

    Recursive bisection generalised to an arbitrary part count: each
    recursion level sorts the block's nodes by Fiedler value and cuts
    at the position proportional to the child part counts
    (``⌈k/2⌉ : ⌊k/2⌋``), so the final parts have sizes within one node
    of ``n / k`` while still following the spectral geometry.
    Returns exactly ``n_parts`` index arrays (sorted within each part).
    """
    if n_parts < 1:
        raise GraphError(f"n_parts must be >= 1, got {n_parts}")
    if n_parts > graph.n_nodes:
        raise GraphError(
            f"cannot cut {graph.n_nodes} nodes into {n_parts} parts"
        )
    parts: list[np.ndarray] = []
    stack = [(np.arange(graph.n_nodes), n_parts)]
    while stack:
        idx, k = stack.pop()
        if k == 1:
            parts.append(np.sort(idx))
            continue
        k_left = (k + 1) // 2
        fiedler = fiedler_vector(graph.subgraph(idx))
        order = np.argsort(fiedler, kind="stable")
        split = int(round(idx.size * k_left / k))
        split = min(max(split, k_left), idx.size - (k - k_left))
        stack.append((idx[order[split:]], k - k_left))
        stack.append((idx[order[:split]], k_left))
    return parts


def assign_target(
    source: AttributedGraph,
    target: AttributedGraph,
    source_parts: list[np.ndarray],
) -> list[np.ndarray]:
    """Assign each target node to the most similar source part.

    Uses cheap intra-graph signatures — degree percentile plus (when
    available) feature centroids — so the assignment is
    feature-space-agnostic when features are incomparable.
    """
    scores = assignment_scores(source, target, source_parts)
    assignment = np.argmax(scores, axis=1)
    # balance: cap each part's target size at twice its source size
    target_parts = [
        np.flatnonzero(assignment == p) for p in range(len(source_parts))
    ]
    return rebalance(target_parts, source_parts, scores)


def features_comparable(
    source: AttributedGraph, target: AttributedGraph
) -> bool:
    """Whether the two graphs carry directly comparable feature spaces."""
    return (
        source.features is not None
        and target.features is not None
        and source.features.shape[1] == target.features.shape[1]
    )


def assignment_scores(
    source: AttributedGraph,
    target: AttributedGraph,
    source_parts: list[np.ndarray],
) -> np.ndarray:
    """``m × p`` affinity of every target node to every source part."""
    if features_comparable(source, target):
        src_sig = row_normalize(source.features)
        tgt_sig = row_normalize(target.features)
        centroids = np.stack(
            [
                src_sig[part].mean(axis=0)
                if part.size
                else np.zeros(src_sig.shape[1])
                for part in source_parts
            ]
        )
        return tgt_sig @ centroids.T
    # structure-only fallback: degree percentile matching
    src_deg = source.degrees
    tgt_deg = target.degrees
    centroids = np.array(
        [
            np.mean(np.log1p(src_deg[part])) if part.size else 0.0
            for part in source_parts
        ]
    )
    return -np.abs(np.log1p(tgt_deg)[:, None] - centroids[None, :])


def rebalance(
    target_parts: list[np.ndarray],
    source_parts: list[np.ndarray],
    scores: np.ndarray,
) -> list[np.ndarray]:
    """Cap over-full target parts, spilling nodes to their next-best part.

    Nodes are (re)assigned in order of decreasing confidence; each
    takes its best-scoring part with free capacity (twice the source
    part's size).  When every part is full — possible only if the
    caller passes more target nodes than twice the total source size —
    the node falls back to its top preference regardless of capacity,
    so no node is ever dropped.
    """
    capacities = [max(2 * part.size, 1) for part in source_parts]
    order = np.argsort(-scores.max(axis=1), kind="stable")  # most confident first
    filled: list[list[int]] = [[] for _ in source_parts]
    preference = np.argsort(-scores, axis=1, kind="stable")
    for node in order:
        for part in preference[node]:
            if len(filled[part]) < capacities[part]:
                filled[part].append(int(node))
                break
        else:
            filled[int(preference[node][0])].append(int(node))
    return [np.array(sorted(members), dtype=np.int64) for members in filled]
