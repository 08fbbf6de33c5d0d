"""Configuration for SLOTAlign (paper Algorithm 1 inputs)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from repro.exceptions import ConfigError

ETA_START = 0.5
"""The KL-proximal coefficient η annealing starts from (see ``anneal``)."""

ANNEAL_FRACTION = 0.6
"""Share of ``max_outer_iter`` over which annealing decays η."""


@dataclass
class SLOTAlignConfig:
    """Hyperparameters of Algorithm 1.

    Fixed solver numbers are constants of the module that reads them:
    the stopping tolerances ``ε₁``/``ε₂`` and pruning checkpoints in
    :mod:`repro.engine.restarts`, the Sinkhorn tolerance in
    :mod:`repro.ot.sinkhorn`, the annealing schedule here.

    Attributes
    ----------
    n_bases:
        ``K`` — number of candidate structure bases.  ``K=2`` is
        edge-view + node-view; each increment adds one subgraph-view
        hop.  Paper defaults: 2 on semi-synthetic data, 4 on the
        real-world datasets.
    structure_lr:
        ``τ`` — step size of the projected-gradient α-update (Eq. 11).
    sinkhorn_lr:
        ``η`` — step size of the KL-proximal π-update (Eq. 12); at most
        :data:`ETA_START`, the value annealing starts from.
    max_outer_iter:
        ``kmax`` — cap on alternating iterations.
    sinkhorn_iter:
        Inner Sinkhorn iterations per π-update.
    normalize_bases:
        Max-abs normalise every structure basis so the views live on
        comparable scales (matches the released implementation).
    use_feature_similarity_init:
        Initialise π from cross-graph feature similarity rather than
        the uniform coupling — the paper enables this on DBP15K
        (Sec. V-C) to ease large-scale optimisation.
    track_history:
        Record the objective after every outer iteration (needed by the
        convergence tests, costs one tensor contraction per iteration).
    multi_start:
        Run the alternating scheme from several initial weight vectors
        (the uniform mixture plus the edge-/node-view vertices of the
        simplex) and keep the iterate with the lowest objective value.
        Problem (8) is nonconvex; restart-and-select is the standard
        remedy and every restart ingredient is intra-graph, so the
        feature-permutation invariance of Proposition 4 is preserved.
        Ignored when an informative initial plan is supplied.
    single_start_view:
        Weight initialisation when ``multi_start`` is disabled (it has
        no effect while the portfolio is enabled): ``"uniform"`` (the
        default mixture) or a view name (``"edge"``/``"node"``) to
        start from that vertex of the simplex.  Committing to the
        empirically dominant vertex is the reduced-fidelity benchmark
        profile's way of skipping the portfolio without giving up its
        usual winner.
    anneal:
        Warm-start the KL-proximal coefficient: η is decayed
        geometrically from :data:`ETA_START` to ``sinkhorn_lr`` over the
        first :data:`ANNEAL_FRACTION` of iterations.  Large early η keeps
        the plan smooth while the structure weights settle; the final
        phase runs at the constant paper value, to which Theorem 5's
        analysis applies.
    tie_weights:
        Share one weight vector across both graphs (``β_s = β_t``,
        updated with the averaged gradient).  Independently learned
        weights can collapse onto *different* views per graph, after
        which the cross term compares incomparable mixtures — the
        asymmetric-collapse failure mode behind the seed-era Table
        II/III losses.  Tying keeps ``D_s(β)`` and ``D_t(β)`` the same
        mixture of the same view family, as the paper's learned-weight
        plots assume.
    center_kernels:
        Double-center the feature-kernel views (node/subgraph):
        ``D ← H D H`` with ``H = I − 11ᵀ/n``.  Uncentred similarity
        kernels carry a large constant component whose GW cross term
        is maximal under *any* coupling, so the β-update rewards the
        smoothest view regardless of alignment information (the
        degenerate β-update).  Centring removes exactly that
        plan-independent component; it is permutation-equivariant, so
        Proposition 4 is unaffected.
    renormalize_hops:
        Row-L2-normalise the propagated features of every subgraph
        view before taking the Gram, giving each hop cosine semantics.
        Without this, high-degree hubs dominate the propagated norms
        and the hop kernels collapse toward rank one — another face of
        the degenerate β-update.
    hop_mix:
        Lazy-walk mixing coefficient λ of the subgraph views (only
        used with ``renormalize_hops``): each hop propagates
        ``Z ← (1−λ) Z + λ Â Z``.  ``1.0`` is the paper's plain ``Â``
        propagation; smaller values retain the node's own attributes,
        so one view can blend "my attributes" with "my neighbourhood's
        attributes".
    partial_mass:
        Fraction of the marginal mass the **partial** solve mode
        transports (the "fraction assumed aligned").  ``1.0`` keeps
        classical balanced transport; lower values let unmatchable
        nodes shed their mass instead of being forced onto bad
        partners.  Consumed only by the ``partial-dummy`` /
        ``partial-unbalanced`` solver backends — the classical dense
        backends *refuse* a config with ``partial_mass < 1`` rather
        than silently ignoring it.
    partial_rho:
        Marginal-relaxation strength of the ``partial-unbalanced``
        backend's KL-relaxed π-update; ``ρ → ∞`` recovers balanced
        transport, small ρ makes shedding mass cheap.
    """

    n_bases: int = 4
    structure_lr: float = 1.0
    sinkhorn_lr: float = 0.01
    max_outer_iter: int = 100
    sinkhorn_iter: int = 100
    normalize_bases: bool = True
    use_feature_similarity_init: bool = False
    track_history: bool = True
    include_views: tuple[str, ...] = field(
        default=("edge", "node", "subgraph")
    )
    learn_weights: bool = True
    multi_start: bool = True
    single_start_view: str = "uniform"
    anneal: bool = True
    tie_weights: bool = False
    center_kernels: bool = False
    renormalize_hops: bool = False
    hop_mix: float = 1.0
    partial_mass: float = 1.0
    partial_rho: float = 1.0

    def __post_init__(self) -> None:
        # NaN fails every comparison below, so it is refused up front
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{spec.name} must be finite, got {value}")
        if self.n_bases < 1:
            raise ConfigError(f"n_bases must be >= 1, got {self.n_bases}")
        if self.structure_lr <= 0:
            raise ConfigError(f"structure_lr must be positive, got {self.structure_lr}")
        if self.sinkhorn_lr <= 0:
            raise ConfigError(f"sinkhorn_lr must be positive, got {self.sinkhorn_lr}")
        if self.sinkhorn_lr > ETA_START:
            raise ConfigError(
                f"sinkhorn_lr must be <= {ETA_START} (annealing decays from "
                f"{ETA_START} towards it), got {self.sinkhorn_lr}"
            )
        if self.max_outer_iter < 1:
            raise ConfigError(
                f"max_outer_iter must be >= 1, got {self.max_outer_iter}"
            )
        if self.sinkhorn_iter < 1:
            raise ConfigError(f"sinkhorn_iter must be >= 1, got {self.sinkhorn_iter}")
        unknown = set(self.include_views) - {"edge", "node", "subgraph"}
        if unknown:
            raise ConfigError(f"unknown views: {sorted(unknown)}")
        if not self.include_views:
            raise ConfigError("at least one view must be included")
        if not 0.0 < self.hop_mix <= 1.0:
            raise ConfigError(f"hop_mix must be in (0, 1], got {self.hop_mix}")
        if not 0.0 < self.partial_mass <= 1.0:
            raise ConfigError(
                f"partial_mass must be in (0, 1], got {self.partial_mass}"
            )
        if self.partial_rho <= 0:
            raise ConfigError(
                f"partial_rho must be positive, got {self.partial_rho}"
            )
        if self.single_start_view not in {"uniform", "edge", "node"}:
            raise ConfigError(
                f"single_start_view must be 'uniform', 'edge' or 'node', "
                f"got {self.single_start_view!r}"
            )
        if self.single_start_view != "uniform":
            if self.single_start_view not in self.include_views:
                raise ConfigError(
                    f"single_start_view {self.single_start_view!r} requires "
                    f"that view to be included, got {self.include_views}"
                )
            # views are materialised in order edge, node, subgraph...,
            # truncated to n_bases — the requested vertex must survive
            needed = 1 if self.single_start_view == "edge" else (
                1 + ("edge" in self.include_views)
            )
            if self.n_bases < needed:
                raise ConfigError(
                    f"single_start_view {self.single_start_view!r} needs "
                    f"n_bases >= {needed} with views {self.include_views}, "
                    f"got {self.n_bases}"
                )


SEMI_SYNTHETIC_CONFIG = SLOTAlignConfig(
    n_bases=2,
    structure_lr=0.1,
    sinkhorn_lr=0.01,
    tie_weights=True,
    center_kernels=True,
)
"""Paper defaults for the semi-synthetic robustness experiments."""

REAL_WORLD_CONFIG = SLOTAlignConfig(
    n_bases=4,
    structure_lr=1.0,
    sinkhorn_lr=0.01,
    tie_weights=True,
    center_kernels=True,
    renormalize_hops=True,
    hop_mix=0.5,
    use_feature_similarity_init=True,
    anneal=False,
)
"""Paper defaults for Douban / ACM-DBLP and the DBP15K KG benchmark
(plus the degenerate-view fixes and the Sec. V-C similarity
initialisation, which the stand-in protocol extends to the real-world
pairs; annealing exists to break uniform-init symmetry, so it is off
whenever the informative init is on)."""
