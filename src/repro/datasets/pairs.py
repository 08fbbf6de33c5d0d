"""Alignment-pair protocol (paper Sec. V-A).

``AlignmentPair`` bundles a source graph, a target graph and the
ground-truth correspondences.  ``make_semi_synthetic_pair`` implements
the paper's generation protocol for the four semi-synthetic datasets:

1. treat the original graph as ``Gs``;
2. build ``Gt`` by node permutation (``At = Pᵀ As P``, ``Xt = Pᵀ Xs``);
3. inject structure noise (edge perturbation) and/or one of the three
   feature-inconsistency transformations into ``Gt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DatasetError
from repro.graphs.graph import AttributedGraph
from repro.graphs.permutation import ground_truth_from_permutation, permute_graph
from repro.graphs.perturbation import (
    compress_features,
    inject_nodes,
    permute_features,
    perturb_edges,
    truncate_features,
)
from repro.utils.random import check_random_state, spawn_seeds

FEATURE_TRANSFORMS = ("permutation", "truncation", "compression")


@dataclass
class AlignmentPair:
    """A source/target graph pair with ground-truth correspondences.

    Attributes
    ----------
    source, target:
        The two attributed graphs.
    ground_truth:
        ``k × 2`` array of (source node, target node) anchor links.
        For partially-overlapping pairs only overlapping nodes appear.
    name:
        Dataset label used in reports.
    """

    source: AttributedGraph
    target: AttributedGraph
    ground_truth: np.ndarray
    name: str = "pair"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        gt = np.asarray(self.ground_truth, dtype=np.int64)
        if gt.ndim != 2 or gt.shape[1] != 2:
            raise DatasetError(f"ground_truth must be k x 2, got shape {gt.shape}")
        if gt.size:
            if gt[:, 0].min() < 0 or gt[:, 0].max() >= self.source.n_nodes:
                raise DatasetError("ground_truth source indices out of range")
            if gt[:, 1].min() < 0 or gt[:, 1].max() >= self.target.n_nodes:
                raise DatasetError("ground_truth target indices out of range")
            if np.unique(gt[:, 0]).size != gt.shape[0]:
                raise DatasetError("duplicate source nodes in ground truth")
        self.ground_truth = gt

    @property
    def n_anchors(self) -> int:
        """Number of ground-truth correspondences."""
        return self.ground_truth.shape[0]


def make_semi_synthetic_pair(
    graph: AttributedGraph,
    edge_noise: float = 0.0,
    feature_transform: str | None = None,
    feature_noise: float = 0.0,
    seed=None,
) -> AlignmentPair:
    """Build a semi-synthetic pair following the paper's protocol.

    Parameters
    ----------
    graph:
        Original graph, used directly as the source.
    edge_noise:
        Fraction of target edges moved to unconnected positions.
    feature_transform:
        One of ``permutation`` / ``truncation`` / ``compression`` or
        ``None``.
    feature_noise:
        Intensity ``p`` of the chosen feature transformation; must be
        0 when there is none.

    Noise that would go unapplied raises :class:`DatasetError`, so
    ``metadata`` always describes the pair returned.
    """
    if feature_transform is not None and feature_transform not in FEATURE_TRANSFORMS:
        raise DatasetError(
            f"feature_transform must be one of {FEATURE_TRANSFORMS}, "
            f"got {feature_transform!r}"
        )
    if edge_noise < 0:
        raise DatasetError(f"edge_noise must be >= 0, got {edge_noise}")
    if feature_transform is None and feature_noise != 0:
        raise DatasetError(
            f"feature_noise={feature_noise} needs a feature_transform "
            f"(one of {FEATURE_TRANSFORMS})"
        )
    seeds = spawn_seeds(seed, 3)
    target, perm = permute_graph(graph, seed=seeds[0])
    if edge_noise > 0:
        target = perturb_edges(target, edge_noise, seed=seeds[1])
    if feature_transform == "permutation":
        target = permute_features(target, feature_noise, seed=seeds[2])
    elif feature_transform == "truncation":
        target = truncate_features(target, feature_noise, seed=seeds[2])
    elif feature_transform == "compression":
        target = compress_features(target, feature_noise, seed=seeds[2])
    return AlignmentPair(
        source=graph,
        target=target,
        ground_truth=ground_truth_from_permutation(perm),
        name=graph.name,
        metadata={
            "edge_noise": edge_noise,
            "feature_transform": feature_transform,
            "feature_noise": feature_noise,
        },
    )


@dataclass
class PartialPairSpec:
    """How much of a pair overlaps, and how much supervision is given.

    Attributes
    ----------
    overlap:
        Fraction of the base graph's nodes present (and matchable) on
        **both** sides.  ``1.0`` is the classical full-bijective
        setting; anything lower drops the remaining nodes from one
        side each, making their counterparts unmatchable.
    anchor_fraction:
        Fraction of the surviving ground-truth correspondences revealed
        to the solver as semi-supervised anchor seeds.
    drop_balance:
        How the non-overlapping nodes split between the two sides:
        this fraction survives only in the *source* (its target copy is
        dropped); the rest survives only in the target.
    inject_target:
        Extra impostor nodes appended to the target, as a fraction of
        the base node count — unmatchable by construction (they have no
        source counterpart at all), modelling e.g. fake accounts.
    """

    overlap: float = 1.0
    anchor_fraction: float = 0.0
    drop_balance: float = 0.5
    inject_target: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.overlap <= 1.0:
            raise DatasetError(f"overlap must be in (0, 1], got {self.overlap}")
        if not 0.0 <= self.anchor_fraction <= 1.0:
            raise DatasetError(
                f"anchor_fraction must be in [0, 1], got {self.anchor_fraction}"
            )
        if not 0.0 <= self.drop_balance <= 1.0:
            raise DatasetError(
                f"drop_balance must be in [0, 1], got {self.drop_balance}"
            )
        if self.inject_target < 0.0:
            raise DatasetError(
                f"inject_target must be non-negative, got {self.inject_target}"
            )


@dataclass
class PartialAlignmentPair(AlignmentPair):
    """An :class:`AlignmentPair` whose overlap is only partial.

    ``ground_truth`` covers exactly the matchable (overlapping) nodes;
    the boolean masks flag which nodes on each side have a counterpart
    at all, and ``anchors`` is the (possibly empty) subset of the
    ground truth revealed to the solver as semi-supervised seeds.
    """

    anchors: np.ndarray = field(default_factory=lambda: np.empty((0, 2), np.int64))
    source_matchable: np.ndarray | None = None
    target_matchable: np.ndarray | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        anchors = np.asarray(self.anchors, dtype=np.int64).reshape(-1, 2)
        if anchors.size:
            gt_pairs = {tuple(row) for row in self.ground_truth}
            for row in anchors:
                if tuple(row) not in gt_pairs:
                    raise DatasetError(
                        f"anchor {tuple(row)} is not a ground-truth pair"
                    )
        self.anchors = anchors
        if self.source_matchable is None:
            self.source_matchable = np.zeros(self.source.n_nodes, dtype=bool)
            self.source_matchable[self.ground_truth[:, 0]] = True
        if self.target_matchable is None:
            self.target_matchable = np.zeros(self.target.n_nodes, dtype=bool)
            self.target_matchable[self.ground_truth[:, 1]] = True
        self.source_matchable = np.asarray(self.source_matchable, dtype=bool)
        self.target_matchable = np.asarray(self.target_matchable, dtype=bool)
        if self.source_matchable.shape[0] != self.source.n_nodes:
            raise DatasetError("source_matchable length must equal source nodes")
        if self.target_matchable.shape[0] != self.target.n_nodes:
            raise DatasetError("target_matchable length must equal target nodes")

    @property
    def overlap_fraction(self) -> float:
        """Matchable fraction of the source side (the solver's mass)."""
        return float(self.source_matchable.mean())


def make_partial_pair(
    graph: AttributedGraph,
    spec: PartialPairSpec | None = None,
    edge_noise: float = 0.0,
    feature_transform: str | None = None,
    feature_noise: float = 0.0,
    seed=None,
) -> PartialAlignmentPair:
    """Build a partially-overlapping pair from one base graph.

    Protocol: a full bijective pair is generated first (the paper's
    Sec. V-A permutation protocol, via :func:`make_semi_synthetic_pair`);
    then ``1 − overlap`` of the nodes are made unmatchable by dropping
    each from exactly one side (split by ``drop_balance``), impostor
    nodes are optionally injected into the target, and a fraction of
    the surviving ground truth is sampled as anchor seeds.

    At ``overlap == 1.0`` with ``inject_target == 0`` the graphs are
    the *same objects* as the bijective pair's — nothing is re-indexed
    — so a partial solve on such a pair can be pinned bitwise against
    the classical path (see ``tests/test_partial_overlap.py``).
    """
    spec = spec or PartialPairSpec()
    seeds = spawn_seeds(seed, 4)
    base = make_semi_synthetic_pair(
        graph,
        edge_noise=edge_noise,
        feature_transform=feature_transform,
        feature_noise=feature_noise,
        seed=seeds[0],
    )
    n = graph.n_nodes
    perm = base.ground_truth[:, 1]  # source i ↔ target perm[i]
    if spec.overlap == 1.0:
        source, target = base.source, base.target
        ground_truth = base.ground_truth
        source_matchable = np.ones(n, dtype=bool)
        target_matchable = np.ones(n, dtype=bool)
    else:
        n_overlap = max(1, int(round(spec.overlap * n)))
        rng = check_random_state(seeds[1])
        shuffled = rng.permutation(n)
        overlap_nodes = shuffled[:n_overlap]
        rest = shuffled[n_overlap:]
        n_source_only = int(round(spec.drop_balance * rest.shape[0]))
        source_only = rest[:n_source_only]  # their target copies vanish
        target_only = rest[n_source_only:]  # their source copies vanish
        keep_source = np.sort(np.concatenate([overlap_nodes, source_only]))
        keep_target = np.sort(
            np.concatenate([perm[overlap_nodes], perm[target_only]])
        )
        source = base.source.subgraph(keep_source)
        target = base.target.subgraph(keep_target)
        new_source_index = np.searchsorted(keep_source, overlap_nodes)
        new_target_index = np.searchsorted(keep_target, perm[overlap_nodes])
        ground_truth = np.column_stack([new_source_index, new_target_index])
        order = np.argsort(ground_truth[:, 0])
        ground_truth = ground_truth[order]
        source_matchable = np.zeros(keep_source.shape[0], dtype=bool)
        source_matchable[ground_truth[:, 0]] = True
        target_matchable = np.zeros(keep_target.shape[0], dtype=bool)
        target_matchable[ground_truth[:, 1]] = True
    if spec.inject_target > 0.0:
        n_inject = int(round(spec.inject_target * n))
        if n_inject:
            target = inject_nodes(target, n_inject, seed=seeds[3])
            target_matchable = np.concatenate(
                [target_matchable, np.zeros(n_inject, dtype=bool)]
            )
    n_anchor = int(round(spec.anchor_fraction * ground_truth.shape[0]))
    if n_anchor:
        rng = check_random_state(seeds[2])
        picked = rng.choice(ground_truth.shape[0], size=n_anchor, replace=False)
        anchors = ground_truth[np.sort(picked)]
    else:
        anchors = np.empty((0, 2), dtype=np.int64)
    return PartialAlignmentPair(
        source=source,
        target=target,
        ground_truth=ground_truth,
        name=f"{graph.name}-partial",
        metadata={
            **base.metadata,
            "overlap": spec.overlap,
            "anchor_fraction": spec.anchor_fraction,
            "drop_balance": spec.drop_balance,
            "inject_target": spec.inject_target,
        },
        anchors=anchors,
        source_matchable=source_matchable,
        target_matchable=target_matchable,
    )


def truncate_feature_columns(
    graph: AttributedGraph, n_columns: int
) -> AttributedGraph:
    """Keep only the first ``n_columns`` feature columns.

    The paper uses "the first 100 feature columns" of Cora/Citeseer/
    Facebook in the robustness studies so methods cannot align on
    features alone.
    """
    if graph.features is None:
        raise DatasetError("graph has no features")
    if n_columns < 1:
        raise DatasetError(f"n_columns must be >= 1, got {n_columns}")
    n_columns = min(n_columns, graph.n_features)
    out = graph.with_features(graph.features[:, :n_columns])
    out.node_labels = None if graph.node_labels is None else graph.node_labels.copy()
    return out
