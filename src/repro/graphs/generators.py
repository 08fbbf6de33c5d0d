"""Random-graph topology generators.

These provide the structural substrates for the dataset stand-ins:
citation and social networks are modelled with power-law-cluster
graphs, PPI with a dense stochastic block model, and knowledge graphs
with degree-skewed multi-relational topologies (see
:mod:`repro.datasets.kg`).

All generators are seeded and return edge lists consumed by
:class:`repro.graphs.AttributedGraph`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.graph import AttributedGraph
from repro.utils.random import check_random_state


def erdos_renyi_graph(n_nodes: int, p: float, seed=None, name="er") -> AttributedGraph:
    """G(n, p) random graph."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = check_random_state(seed)
    iu, ju = np.triu_indices(n_nodes, k=1)
    mask = rng.random(iu.shape[0]) < p
    edges = np.column_stack([iu[mask], ju[mask]])
    return AttributedGraph.from_edges(n_nodes, edges, name=name)


def powerlaw_cluster_graph(
    n_nodes: int, n_attach: int, triangle_p: float, seed=None, name="plc"
) -> AttributedGraph:
    """Holme–Kim power-law graph with tunable clustering.

    Like Barabási–Albert, but after each preferential attachment a
    triangle is closed with probability ``triangle_p`` — giving the high
    clustering typical of citation and social networks.
    """
    if n_attach < 1 or n_attach >= n_nodes:
        raise GraphError(f"n_attach must be in [1, n_nodes), got {n_attach}")
    if not 0.0 <= triangle_p <= 1.0:
        raise GraphError(f"triangle_p must be in [0, 1], got {triangle_p}")
    rng = check_random_state(seed)
    edge_set: set[tuple[int, int]] = set()
    neighbors: list[list[int]] = [[] for _ in range(n_nodes)]
    repeated: list[int] = list(range(n_attach))

    def add_edge(u: int, v: int) -> bool:
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        if key in edge_set:
            return False
        edge_set.add(key)
        neighbors[u].append(v)
        neighbors[v].append(u)
        repeated.extend([u, v])
        return True

    for new in range(n_attach, n_nodes):
        added = 0
        last_target: int | None = None
        guard = 0
        while added < n_attach and guard < 100 * n_attach:
            guard += 1
            close_triangle = (
                last_target is not None
                and neighbors[last_target]
                and rng.random() < triangle_p
            )
            if close_triangle:
                cands = neighbors[last_target]
                target = cands[rng.integers(0, len(cands))]
            else:
                target = (
                    repeated[rng.integers(0, len(repeated))]
                    if repeated
                    else int(rng.integers(0, new))
                )
            if add_edge(new, target):
                added += 1
                last_target = target
    return AttributedGraph.from_edges(n_nodes, sorted(edge_set), name=name)


def watts_strogatz_graph(
    n_nodes: int, n_neighbors: int, rewire_p: float, seed=None, name="ws"
) -> AttributedGraph:
    """Small-world ring lattice with random rewiring."""
    if n_neighbors % 2 or n_neighbors < 2:
        raise GraphError(f"n_neighbors must be even and >= 2, got {n_neighbors}")
    if not 0.0 <= rewire_p <= 1.0:
        raise GraphError(f"rewire_p must be in [0, 1], got {rewire_p}")
    rng = check_random_state(seed)
    edge_set: set[tuple[int, int]] = set()
    half = n_neighbors // 2
    for u in range(n_nodes):
        for k in range(1, half + 1):
            v = (u + k) % n_nodes
            edge_set.add((u, v) if u < v else (v, u))
    edges = sorted(edge_set)
    result: set[tuple[int, int]] = set(edges)
    for u, v in edges:
        if rng.random() < rewire_p:
            result.discard((u, v))
            for _ in range(100):
                w = int(rng.integers(0, n_nodes))
                key = (u, w) if u < w else (w, u)
                if w != u and key not in result:
                    result.add(key)
                    break
            else:
                result.add((u, v))
    return AttributedGraph.from_edges(n_nodes, sorted(result), name=name)


def stochastic_block_model(
    block_sizes,
    p_within: float,
    p_between: float,
    seed=None,
    name="sbm",
) -> AttributedGraph:
    """Stochastic block model with uniform within/between densities.

    Returns a graph whose ``node_labels`` carry the block index, which
    the feature synthesisers use to correlate attributes with
    communities.
    """
    sizes = [int(s) for s in block_sizes]
    if any(s <= 0 for s in sizes):
        raise GraphError("block sizes must be positive")
    for p in (p_within, p_between):
        if not 0.0 <= p <= 1.0:
            raise GraphError(f"probabilities must be in [0, 1], got {p}")
    rng = check_random_state(seed)
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    probs = np.where(same, p_within, p_between)
    mask = rng.random(iu.shape[0]) < probs
    graph = AttributedGraph.from_edges(
        n, np.column_stack([iu[mask], ju[mask]]), name=name
    )
    graph.node_labels = labels
    return graph


def random_bipartite_expansion(
    core: AttributedGraph, extra_nodes: int, attach_p: float, seed=None
) -> AttributedGraph:
    """Grow ``core`` by ``extra_nodes`` peripheral nodes.

    Each new node attaches to existing nodes independently with
    probability ``attach_p`` (at least one edge is forced so the graph
    stays connected to the periphery).  Used by the Douban simulator
    where the online graph strictly contains the offline graph.
    """
    rng = check_random_state(seed)
    n_old = core.n_nodes
    n_new = n_old + extra_nodes
    edges = [tuple(e) for e in core.edge_list()]
    for new in range(n_old, n_new):
        attached = np.flatnonzero(rng.random(new) < attach_p)
        if attached.size == 0:
            attached = np.array([rng.integers(0, new)])
        edges.extend((int(a), new) for a in attached)
    graph = AttributedGraph.from_edges(n_new, edges, name=core.name)
    return graph
