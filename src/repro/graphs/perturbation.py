"""Inconsistency simulators (paper Sec. III and Sec. V-B).

Structure inconsistency
    ``perturb_edges`` moves a fraction ``p`` of edges to previously
    unconnected positions — exactly the paper's protocol ("randomly
    perturb p% edges in Gt to other previous unconnected positions").

Feature inconsistency (three simulators, Fig. 7)
    * ``permute_features``  — randomly permute p% feature columns;
    * ``truncate_features`` — randomly delete p% feature columns;
    * ``compress_features`` — PCA-compress features by ratio p%.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.graph import AttributedGraph
from repro.utils.random import check_random_state


def perturb_edges(
    graph: AttributedGraph, ratio: float, seed=None
) -> AttributedGraph:
    """Move ``ratio`` of edges to previously unconnected positions.

    Each selected edge is removed and a new edge is inserted between a
    uniformly random currently-unconnected node pair, keeping the edge
    count constant (the paper's structure-noise model).
    """
    if not 0.0 <= ratio <= 1.0:
        raise GraphError(f"ratio must be in [0, 1], got {ratio}")
    if ratio == 0.0:
        return graph.copy()
    rng = check_random_state(seed)
    n = graph.n_nodes
    edges = graph.edge_list()
    m = edges.shape[0]
    n_move = int(round(ratio * m))
    if n_move == 0:
        return graph.copy()
    move_idx = rng.choice(m, size=n_move, replace=False)
    keep_mask = np.ones(m, dtype=bool)
    keep_mask[move_idx] = False
    edge_set = {tuple(e) for e in edges}
    kept = [tuple(e) for e in edges[keep_mask]]
    current: set[tuple[int, int]] = set(kept)
    removed = {tuple(e) for e in edges[move_idx]}
    added: list[tuple[int, int]] = []
    max_attempts = 100 * n_move + 1000
    attempts = 0
    while len(added) < n_move and attempts < max_attempts:
        attempts += 1
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        # "previously unconnected": not in the original graph and not
        # already chosen as a replacement
        if key in edge_set or key in current or key in removed:
            continue
        current.add(key)
        added.append(key)
    new_graph = AttributedGraph.from_edges(
        n, kept + added, features=None, name=f"{graph.name}-perturbed"
    )
    new_graph = new_graph.with_features(graph.features)
    new_graph.node_labels = (
        None if graph.node_labels is None else graph.node_labels.copy()
    )
    return new_graph


def permute_features(
    graph: AttributedGraph, ratio: float, seed=None
) -> AttributedGraph:
    """Randomly permute ``ratio`` of feature columns (Definition 3).

    The selected columns are shuffled among themselves with a random
    derangement-like permutation; the remaining columns stay in place.
    """
    _check_has_features(graph)
    if not 0.0 <= ratio <= 1.0:
        raise GraphError(f"ratio must be in [0, 1], got {ratio}")
    rng = check_random_state(seed)
    d = graph.n_features
    n_permute = int(round(ratio * d))
    if n_permute < 2:
        return graph.copy()
    cols = rng.choice(d, size=n_permute, replace=False)
    shuffled = cols.copy()
    rng.shuffle(shuffled)
    order = np.arange(d)
    order[cols] = shuffled
    out = graph.with_features(graph.features[:, order])
    out.name = f"{graph.name}-featperm"
    return out


def truncate_features(
    graph: AttributedGraph, ratio: float, seed=None
) -> AttributedGraph:
    """Randomly delete ``ratio`` of feature columns."""
    _check_has_features(graph)
    if not 0.0 <= ratio < 1.0:
        raise GraphError(f"ratio must be in [0, 1), got {ratio}")
    rng = check_random_state(seed)
    d = graph.n_features
    n_drop = int(round(ratio * d))
    if n_drop == 0:
        return graph.copy()
    drop = rng.choice(d, size=n_drop, replace=False)
    keep = np.setdiff1d(np.arange(d), drop)
    out = graph.with_features(graph.features[:, keep])
    out.name = f"{graph.name}-feattrunc"
    return out


def compress_features(
    graph: AttributedGraph, ratio: float, seed=None
) -> AttributedGraph:
    """PCA-compress features with compression ratio ``ratio``.

    A ratio of 0.3 keeps 70 % of the dimensions: the features are
    projected onto the top ``d·(1-ratio)`` principal components, which
    simulates aligning sparse bag-of-words features against dense
    low-dimensional features.
    """
    _check_has_features(graph)
    if not 0.0 <= ratio < 1.0:
        raise GraphError(f"ratio must be in [0, 1), got {ratio}")
    if ratio == 0.0:
        return graph.copy()
    feats = graph.features
    d = feats.shape[1]
    n_keep = max(1, int(round((1.0 - ratio) * d)))
    n_keep = min(n_keep, min(feats.shape))
    centered = feats - feats.mean(axis=0, keepdims=True)
    # principal axes via thin SVD; deterministic given input
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    compressed = centered @ vt[:n_keep].T
    out = graph.with_features(compressed)
    out.name = f"{graph.name}-featpca"
    return out


def inject_nodes(
    graph: AttributedGraph, n_new: int, seed=None
) -> AttributedGraph:
    """Append ``n_new`` impostor nodes with resampled edges and features.

    Each injected node receives the degree of a uniformly sampled
    existing node (at least 1) and connects to uniformly random
    endpoints; its feature vector is a bootstrap resample of existing
    per-column feature values, so impostors match the marginal feature
    statistics without copying any real node.  Used by the
    partial-overlap pair builder to model unmatchable nodes that exist
    on one side only (fake accounts, non-overlapping users).
    """
    if n_new < 0:
        raise GraphError(f"n_new must be non-negative, got {n_new}")
    if n_new == 0:
        return graph.copy()
    rng = check_random_state(seed)
    n = graph.n_nodes
    if n == 0:
        raise GraphError("cannot inject nodes into an empty graph")
    total = n + n_new
    edges = [tuple(e) for e in graph.edge_list()]
    existing: set[tuple[int, int]] = set(edges)
    degrees = np.maximum(graph.degrees.astype(np.int64), 1)
    for new_node in range(n, total):
        target_degree = int(degrees[int(rng.integers(0, n))])
        attached = 0
        attempts = 0
        while attached < target_degree and attempts < 50 * target_degree + 100:
            attempts += 1
            other = int(rng.integers(0, new_node))
            key = (other, new_node)
            if key in existing:
                continue
            existing.add(key)
            edges.append(key)
            attached += 1
    features = None
    if graph.features is not None:
        feats = graph.features
        # per-column bootstrap: marginals match, joint rows are novel
        sampled = np.empty((n_new, feats.shape[1]))
        for col in range(feats.shape[1]):
            sampled[:, col] = feats[rng.integers(0, n, size=n_new), col]
        features = np.vstack([feats, sampled])
    out = AttributedGraph.from_edges(
        total, edges, features=features, name=f"{graph.name}-injected"
    )
    if graph.node_labels is not None:
        pad = np.zeros(n_new, dtype=graph.node_labels.dtype)
        out.node_labels = np.concatenate([graph.node_labels, pad])
    return out


def drop_edges(graph: AttributedGraph, ratio: float, seed=None) -> AttributedGraph:
    """Delete ``ratio`` of edges without replacement (missing-edge noise)."""
    if not 0.0 <= ratio <= 1.0:
        raise GraphError(f"ratio must be in [0, 1], got {ratio}")
    rng = check_random_state(seed)
    edges = graph.edge_list()
    m = edges.shape[0]
    n_drop = int(round(ratio * m))
    keep_mask = np.ones(m, dtype=bool)
    if n_drop:
        keep_mask[rng.choice(m, size=n_drop, replace=False)] = False
    out = AttributedGraph.from_edges(
        graph.n_nodes, edges[keep_mask], name=f"{graph.name}-dropped"
    )
    out = out.with_features(graph.features)
    out.node_labels = None if graph.node_labels is None else graph.node_labels.copy()
    return out


def _check_has_features(graph: AttributedGraph) -> None:
    if graph.features is None:
        raise GraphError("graph has no features to perturb")
