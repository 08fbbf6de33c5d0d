"""Shared experiment configuration.

Every experiment module accepts a ``scale`` knob trading fidelity for
speed and a ``seed`` for reproducibility.  ``default_aligners`` builds
the paper's eight-method comparison set with the hyperparameters used
throughout Sec. V.

Two protocol rules keep reduced-fidelity runs honest:

* **lazy, per-method seeding** — aligners are constructed only after
  the ``include`` filter is applied, and every stochastic method
  derives its seed from ``(scale.seed, method name)``.  Selecting a
  method subset therefore neither shifts any other method's RNG draws
  nor pays for setup it will not use.
* **budget-consistent schedules** — iteration-dependent quantities
  (the Fig. 8 η grid, the annealing horizon) are expressed relative to
  the iteration budget, so the ``fast`` profile tests the paper's
  claim rather than the budget mismatch (see ``eta_budget_scale``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

from repro.baselines import (
    FusedGWAligner,
    GATAlignAligner,
    GCNAlignAligner,
    GWDAligner,
    KNNAligner,
    REGALAligner,
    WAlignAligner,
)
from repro.core import REAL_WORLD_CONFIG, SEMI_SYNTHETIC_CONFIG, SLOTAlign

#: iteration budget the paper-protocol hyperparameters are stated for;
#: reduced budgets rescale η against it (see ``eta_budget_scale``)
REFERENCE_SLOT_ITERS = 500


def method_seed(base_seed: int, method: str) -> int:
    """Stable per-method seed: mixing ``base_seed`` with the method name.

    CRC32 of the name keeps the derivation deterministic across runs
    and Python processes (``hash()`` is salted), so excluding one
    method never shifts another's draws.
    """
    return (int(base_seed) * 1_000_003 + zlib.crc32(method.encode())) % (2**31)


@dataclass
class ExperimentScale:
    """Speed/fidelity knobs for an experiment run.

    ``dataset_scale`` shrinks the stand-in datasets; ``fast`` trims
    iteration counts of the slower baselines.  ``engine_backend``
    selects the dense solver backend every SLOTAlign variant routes
    through (default ``fused-dense``).
    ``decoder`` selects the decode stage every sweep/table evaluation
    routes its plans through (a registered decoder name); ``None``
    scores the raw posterior, which is the paper's protocol and
    bitwise-identical to the pre-decode-stage pipeline.
    ``precision`` sets the solve-stage working precision
    (``"float32"`` steps ``fused-dense`` in reduced precision; expect
    Hit@1 parity within the documented band, not bitwise equality).
    """

    dataset_scale: float = 0.07
    fast: bool = True
    seed: int = 0
    engine_backend: str = "fused-dense"
    decoder: str | None = None
    precision: str = "float64"

    @property
    def gnn_epochs(self) -> int:
        return 25 if self.fast else 80

    @property
    def gw_iters(self) -> int:
        return 60 if self.fast else 200

    @property
    def slot_iters(self) -> int:
        return 150 if self.fast else REFERENCE_SLOT_ITERS

    @property
    def real_world_n_bases(self) -> int:
        """Scale-aware K for the Table II profile.

        The paper's real-world K=4 includes two propagated-feature
        hops; at stand-in sizes (≤ 5 % scale, ~100-600 nodes) two hops
        of smoothing blur the ~100-node Douban pair past usefulness —
        the hop views end with learned weight ≈ 0 yet their noise
        during the interior phase of the β-trajectory costs ~8 Hit@1.
        Reduced-scale runs therefore keep the edge + node views only;
        full-scale runs keep the paper's K=4.
        """
        return 2 if self.dataset_scale <= 0.05 else 4

    @property
    def eta_budget_scale(self) -> float:
        """Multiplier keeping ``η × iterations`` constant across budgets.

        The KL-proximal step η is stated for ``REFERENCE_SLOT_ITERS``
        outer iterations; a trimmed budget takes proportionally fewer
        proximal steps, so sweeping the *paper's* η values at bench
        scale probes the budget mismatch, not the sensitivity claim.
        Hyperparameter sweeps multiply their η grid by this factor.
        """
        return REFERENCE_SLOT_ITERS / self.slot_iters


def slotalign_semi_synthetic(scale: ExperimentScale) -> SLOTAlign:
    """SLOTAlign with the paper's semi-synthetic defaults (K=2, τ=0.1).

    In ``fast`` mode the solver gets the same iteration economy as the
    GW family it is compared against (the Fig. 7 runtime column claims
    they are comparable): a committed node-view start instead of the
    restart portfolio, 60 outer iterations and 30 inner Sinkhorn
    scalings — roughly GWD's proximal budget.  The seed's fast profile
    trimmed the GNN baselines 3x but left SLOTAlign at 150x100 inner
    iterations, which is what made it the slowest method in the panel.
    Full fidelity (``fast=False``) keeps the paper protocol: the
    multi-start portfolio at 500x100.

    Both profiles carry the degenerate-view fixes (tied weights +
    centred kernels, see DESIGN.md): without them the committed
    node-view start cannot shed a feature view that truncation has
    emptied of signal, and SLOTAlign falls below feature-blind GWD.
    """
    if scale.fast:
        cfg = replace(
            SEMI_SYNTHETIC_CONFIG,
            max_outer_iter=60,
            sinkhorn_iter=30,
            multi_start=False,
            single_start_view="node",
            track_history=False,
        )
    else:
        cfg = replace(
            SEMI_SYNTHETIC_CONFIG,
            max_outer_iter=scale.slot_iters,
            track_history=False,
        )
    return SLOTAlign(cfg, backend=scale.engine_backend, precision=scale.precision)


def slotalign_real_world(scale: ExperimentScale, **overrides) -> SLOTAlign:
    """SLOTAlign with the paper's real-world defaults (K=4, τ=1).

    ``K`` is scale-aware (``real_world_n_bases``): the paper's K=4 at
    full fidelity, edge + node views only at stand-in scale, where two
    propagated hops over-smooth the ~100-node pairs.

    The real-world profile carries the full Sec. IV base construction
    (centred kernels, attribute-propagated cosine hops with the lazy
    walk) plus the Sec. V-C feature-similarity initialisation, which
    the stand-in protocol extends from DBP15K to Douban/ACM-DBLP:
    at bench sizes the uniform coupling has no symmetry-breaking
    signal to anneal towards, while the informative init needs no
    annealing at all (annealing exists to break uniform-init
    symmetry, so it is disabled whenever the init is on).
    """
    use_init = overrides.get(
        "use_feature_similarity_init",
        REAL_WORLD_CONFIG.use_feature_similarity_init,
    )
    params = dict(
        n_bases=scale.real_world_n_bases,
        max_outer_iter=scale.slot_iters,
        track_history=False,
        use_feature_similarity_init=use_init,
        anneal=not use_init,
    )
    params.update(overrides)
    return SLOTAlign(
        replace(REAL_WORLD_CONFIG, **params), backend=scale.engine_backend,
        precision=scale.precision,
    )


DEFAULT_METHODS = (
    "SLOTAlign", "KNN", "REGAL", "GCNAlign", "GATAlign",
    "WAlign", "GWD", "FusedGW",
)
"""The paper's eight-method comparison panel, in report order."""


def default_aligners(scale: ExperimentScale, include=None) -> dict:
    """The eight-method comparison set of Figures 6-7.

    Aligners are built lazily: the ``include`` filter is applied to
    factories, so deselected methods are neither constructed nor
    seeded, and every stochastic method draws from its own
    ``method_seed`` stream.
    """
    factories = {
        "SLOTAlign": lambda: slotalign_semi_synthetic(scale),
        "KNN": KNNAligner,
        "REGAL": lambda: REGALAligner(seed=method_seed(scale.seed, "REGAL")),
        "GCNAlign": lambda: GCNAlignAligner(
            n_epochs=scale.gnn_epochs, seed=method_seed(scale.seed, "GCNAlign")
        ),
        "GATAlign": lambda: GATAlignAligner(
            n_epochs=max(10, scale.gnn_epochs // 2),
            seed=method_seed(scale.seed, "GATAlign"),
        ),
        "WAlign": lambda: WAlignAligner(
            n_epochs=scale.gnn_epochs, seed=method_seed(scale.seed, "WAlign")
        ),
        "GWD": lambda: GWDAligner(max_iter=scale.gw_iters),
        "FusedGW": lambda: FusedGWAligner(max_iter=scale.gw_iters),
    }
    if include is not None:
        factories = {k: v for k, v in factories.items() if k in include}
    return {name: build() for name, build in factories.items()}
