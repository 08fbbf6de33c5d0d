"""SLOTAlign: joint structure learning and optimal transport alignment.

This module is the paper-facing entry point for Algorithm 1.  Given
two attributed graphs it

1. constructs multi-view structure bases per graph (Eq. 6),
2. alternates a projected-gradient update on the basis weights
   ``α = [β_s, β_t]`` (Eq. 11) with a KL-proximal Sinkhorn update on the
   transport plan ``π`` (Eq. 12),
3. stops when both iterates move less than the tolerances, and
4. exposes the plan through :class:`repro.core.result.AlignmentResult`.

Since the engine refactor the mechanics live in :mod:`repro.engine`:
:class:`SLOTAlign` is a thin shim that routes ``fit`` through the
plan → solve → evaluate pipeline.  The practical solver devices —
η annealing, the multi-start restart portfolio with successive-halving
pruning, tied structure weights — are documented on
:class:`repro.core.config.SLOTAlignConfig` and implemented in
:mod:`repro.engine.restarts`; the solver *backends* (the reference
``fused-dense`` portfolio and the partial-overlap portfolios) are
registered in :mod:`repro.engine.backends` and selectable per
aligner.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SLOTAlignConfig
from repro.core.convergence import IterateHistory
from repro.core.result import AlignmentResult
from repro.engine.planning import (  # noqa: F401  # repro-lint: ignore[unused-name]
    feature_similarity_plan,  # re-exported via repro.core
)
from repro.graphs.graph import AttributedGraph


class SLOTAlign:
    """Unsupervised attributed-graph aligner (the paper's contribution).

    Parameters
    ----------
    config:
        Hyperparameters of Algorithm 1.
    backend:
        Dense solver backend name from the engine registry (default
        ``"fused-dense"``).
    precision:
        Solve-stage working precision, ``"float64"`` (default) or
        ``"float32"`` — ``fused-dense``'s reduced-precision fast path
        (see :mod:`repro.engine.precision`).

    Example
    -------
    >>> from repro.graphs import erdos_renyi_graph, permute_graph
    >>> import numpy as np
    >>> g = erdos_renyi_graph(30, 0.2, seed=0).with_features(np.eye(30))
    >>> h, perm = permute_graph(g, seed=1)
    >>> result = SLOTAlign().fit(g, h)
    >>> result.plan.shape
    (30, 30)
    """

    def __init__(
        self,
        config: SLOTAlignConfig | None = None,
        backend: str | None = None,
        precision: str | None = None,
    ):
        self.config = config or SLOTAlignConfig()
        self.backend = backend or "fused-dense"
        self.precision = precision
        self.history: IterateHistory | None = None
        self.beta_source: np.ndarray | None = None
        self.beta_target: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _engine(self):
        # imported lazily so repro.core and repro.engine can be
        # imported in either order without a partial-init cycle
        from repro.engine.backends import ensure_dense_backend
        from repro.engine.pipeline import AlignmentEngine

        # SLOTAlign's contract is a dense AlignmentResult; the sparse
        # pipeline has its own front door (DivideAndConquerAligner /
        # the engine's "sparse" backend)
        ensure_dense_backend(self.backend, "SLOTAlign")
        kwargs = {}
        if self.precision is not None:
            kwargs["precision"] = self.precision
        return AlignmentEngine(self.config, backend=self.backend, **kwargs)

    def prepare_bases(
        self, source: AttributedGraph, target: AttributedGraph
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Build the structure bases for a graph pair, for reuse.

        Block-level reuse hook: callers that solve the same (sub)graph
        pair repeatedly — trajectory capture, sensitivity sweeps, the
        partitioned pipeline's diagnostics — can pay the basis
        construction once and pass the result to :meth:`fit` via
        ``bases=``.  Routed through the engine's content-keyed plan
        cache, so even independent callers hitting the same pair share
        the construction.
        """
        return self._engine().plan(source, target).bases

    def fit(
        self,
        source: AttributedGraph,
        target: AttributedGraph,
        init_plan: np.ndarray | None = None,
        bases: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
    ) -> AlignmentResult:
        """Align ``source`` to ``target`` and return the soft plan.

        ``bases`` injects the output of :meth:`prepare_bases` so
        repeated solves of the same pair skip the basis construction.
        """
        result = self._engine().align(
            source, target, init_plan=init_plan, bases=bases
        )
        self.history = result.extras["history"]
        self.beta_source = result.extras["beta_source"]
        self.beta_target = result.extras["beta_target"]
        return result


def slotalign(
    source: AttributedGraph,
    target: AttributedGraph,
    config: SLOTAlignConfig | None = None,
    init_plan: np.ndarray | None = None,
) -> AlignmentResult:
    """Functional one-shot interface: ``slotalign(gs, gt)``."""
    return SLOTAlign(config).fit(source, target, init_plan=init_plan)
