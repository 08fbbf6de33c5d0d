"""Configuration for SLOTAlign (paper Algorithm 1 inputs)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from repro.exceptions import ConfigError


@dataclass
class SLOTAlignConfig:
    """Hyperparameters of Algorithm 1.

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
        ``η`` — step size of the KL-proximal π-update (Eq. 12).
    max_outer_iter:
        ``kmax`` — cap on alternating iterations.
    sinkhorn_iter:
        Inner Sinkhorn iterations per π-update.
    alpha_tol / plan_tol:
        ``ε₁``/``ε₂`` stopping tolerances on successive iterates.
    sinkhorn_tol:
        Marginal-violation tolerance of the inner Sinkhorn projection
        (previously hardcoded to ``1e-9`` in the solver).
    normalize_bases:
        Max-abs normalise every structure basis so the views live on
        comparable scales (matches the released implementation).
    use_feature_similarity_init:
        Initialise π from cross-graph feature similarity rather than
        the uniform coupling — the paper enables this on DBP15K
        (Sec. V-C) to ease large-scale optimisation.
    alpha_steps:
        Gradient steps on α per outer iteration (1 in Algorithm 1).
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
        geometrically from ``eta_start`` to ``sinkhorn_lr`` over the
        first ``anneal_fraction`` of iterations.  Large early η keeps
        the plan smooth while the structure weights settle; the final
        phase runs at the constant paper value, to which Theorem 5's
        analysis applies.
    eta_start / anneal_fraction:
        Annealing schedule parameters (see ``anneal``).
    fused_contractions:
        Use the fused symmetric contraction engine: ``∂F/∂π`` drops to
        two matmuls instead of four and the objective's cross term
        shares the same ``(D_s π) D_t`` product — both equal to the
        general formulas up to accumulated ulps.  Disable to force the
        bitwise-exact serial formulas.
    portfolio_prune_iter:
        Offset of the successive-halving checkpoint(s) of the
        multi-start portfolio.  With annealing enabled the (single)
        checkpoint fires this many iterations *after* the annealing
        horizon — mid-annealing objective values cannot rank restarts
        (see ``repro.engine.restarts.prune_schedule``); without annealing an
        early generous-margin checkpoint fires here and a tighter one
        at three times it.  ``0`` disables pruning (every restart runs
        its full budget, the pre-portfolio behaviour).  Survivors
        continue their exact iterate path, so whenever the eventual
        winner survives pruning the selected plan is bit-for-bit the
        one the unpruned portfolio returns.
    portfolio_prune_margin:
        Objective margin of the early non-annealed checkpoint: a
        restart is pruned only when its objective exceeds the current
        leader's by more than this.
    portfolio_refine_margin:
        Tighter margin applied once the ranking has stabilised (the
        post-anneal checkpoint, and the later non-annealed one).
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
    partial_anchor_weight:
        Log-domain reward added to each anchor cell of the π-update
        kernel every outer iteration (and subtracted from the anchor
        rows' dummy cells), expressing semi-supervised seed
        correspondences as a sustained prior.  ``exp(weight)`` is the
        multiplicative pull towards an anchor cell per update.
    """

    n_bases: int = 4
    structure_lr: float = 1.0
    sinkhorn_lr: float = 0.01
    max_outer_iter: int = 100
    sinkhorn_iter: int = 100
    alpha_tol: float = 1e-6
    plan_tol: float = 1e-7
    sinkhorn_tol: float = 1e-9
    normalize_bases: bool = True
    use_feature_similarity_init: bool = False
    alpha_steps: int = 1
    track_history: bool = True
    include_views: tuple[str, ...] = field(
        default=("edge", "node", "subgraph")
    )
    learn_weights: bool = True
    multi_start: bool = True
    single_start_view: str = "uniform"
    anneal: bool = True
    eta_start: float = 0.5
    anneal_fraction: float = 0.6
    fused_contractions: bool = True
    portfolio_prune_iter: int = 20
    portfolio_prune_margin: float = 0.25
    portfolio_refine_margin: float = 0.05
    tie_weights: bool = False
    center_kernels: bool = False
    renormalize_hops: bool = False
    hop_mix: float = 1.0
    partial_mass: float = 1.0
    partial_rho: float = 1.0
    partial_anchor_weight: float = 10.0

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
        if self.max_outer_iter < 1:
            raise ConfigError(
                f"max_outer_iter must be >= 1, got {self.max_outer_iter}"
            )
        if self.sinkhorn_iter < 1:
            raise ConfigError(f"sinkhorn_iter must be >= 1, got {self.sinkhorn_iter}")
        if self.alpha_tol < 0 or self.plan_tol < 0:
            raise ConfigError("tolerances must be non-negative")
        if self.alpha_steps < 1:
            raise ConfigError(f"alpha_steps must be >= 1, got {self.alpha_steps}")
        unknown = set(self.include_views) - {"edge", "node", "subgraph"}
        if unknown:
            raise ConfigError(f"unknown views: {sorted(unknown)}")
        if not self.include_views:
            raise ConfigError("at least one view must be included")
        if self.eta_start < self.sinkhorn_lr:
            raise ConfigError(
                "eta_start must be >= sinkhorn_lr (annealing decays towards it)"
            )
        if not 0.0 < self.anneal_fraction <= 1.0:
            raise ConfigError(
                f"anneal_fraction must be in (0, 1], got {self.anneal_fraction}"
            )
        if self.sinkhorn_tol < 0:
            raise ConfigError(
                f"sinkhorn_tol must be non-negative, got {self.sinkhorn_tol}"
            )
        if not 0.0 < self.hop_mix <= 1.0:
            raise ConfigError(f"hop_mix must be in (0, 1], got {self.hop_mix}")
        if self.portfolio_prune_iter < 0:
            raise ConfigError(
                f"portfolio_prune_iter must be >= 0, got {self.portfolio_prune_iter}"
            )
        if self.portfolio_prune_margin < 0 or self.portfolio_refine_margin < 0:
            raise ConfigError("portfolio prune margins must be non-negative")
        if not 0.0 < self.partial_mass <= 1.0:
            raise ConfigError(
                f"partial_mass must be in (0, 1], got {self.partial_mass}"
            )
        if self.partial_rho <= 0:
            raise ConfigError(
                f"partial_rho must be positive, got {self.partial_rho}"
            )
        if self.partial_anchor_weight < 0:
            raise ConfigError(
                "partial_anchor_weight must be non-negative, "
                f"got {self.partial_anchor_weight}"
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
