"""The unified alignment engine: plan → solve → decode → evaluate.

:class:`AlignmentEngine` is the one front door every caller goes
through — ``SLOTAlign.fit``, the partitioned block solves, the
experiment drivers and the CLI are all thin shims over it.  Each stage
is explicit and separately callable:

* :meth:`AlignmentEngine.plan` — base/view construction through the
  content-keyed :class:`~repro.engine.planning.PlanCache`;
* :meth:`AlignmentEngine.solve` — dispatch to a registered solver
  backend (``fused-dense`` / ``partial-dummy`` /
  ``partial-unbalanced`` / ``sparse``);
* :meth:`AlignmentEngine.decode` — turn the solved transport plan
  into a discrete matching through a registered decoder
  (``row-argmax`` / ``mutual-argmax`` / ``hungarian`` / ``mea``);
* :meth:`AlignmentEngine.evaluate` — the representation-agnostic
  metric adapter.

Batching, caching and new backends therefore land once, here, and
benefit every workload — the seam the ROADMAP's serving ambitions
(async jobs, multi-pair throughput) build on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SLOTAlignConfig
from repro.engine.backends import DEFAULT_BACKEND, get_backend
from repro.engine.decode import DEFAULT_DECODER, DecodedMatching, decode_plan
from repro.engine.precision import DEFAULT_PRECISION, ensure_precision
from repro.engine.evaluate import evaluate_alignment
from repro.engine.planning import (
    PlanCache,
    PreparedProblem,
    prepare_problem,
    shared_plan_cache,
)
from repro.graphs.graph import AttributedGraph

_SHARED = object()
"""Sentinel: "use the process-wide shared plan cache"."""


@dataclass
class EngineRun:
    """One full pipeline pass: the result plus per-stage diagnostics.

    ``decoded`` carries the decode stage's
    :class:`~repro.engine.decode.DecodedMatching` when the run used a
    decoder (``decoder=None`` skips the stage and scores the plan
    posterior directly — the pre-decode pipeline, bit for bit).
    """

    result: object
    metrics: dict[str, float] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    decoded: DecodedMatching | None = None


class AlignmentEngine:
    """plan → solve → evaluate pipeline over a solver-backend registry.

    Parameters
    ----------
    config:
        The :class:`SLOTAlignConfig` applied by every stage.
    backend:
        Name of the registered solver backend (see
        :func:`repro.engine.available_backends`); validated lazily at
        solve time so construction never raises on registry changes.
    cache:
        A :class:`PlanCache` for the plan stage.  Defaults to the
        process-wide shared cache; pass ``None`` to disable caching.
    backend_options:
        Keyword arguments forwarded to the backend constructor (e.g.
        the sparse backend's ``n_parts``/``executor``).
    decoder:
        Registered decoder name (see
        :func:`repro.engine.available_decoders`) used by the decode
        stage of :meth:`run`, or ``None`` to skip decoding and score
        the plan posterior directly (the pre-decode behaviour, which
        ``row-argmax`` reproduces bit for bit).  Like ``backend`` it
        is validated lazily, at decode time.
    precision:
        Working precision of the solve stage — ``"float64"`` (the
        default, every backend's bitwise-pinned reference path) or
        ``"float32"`` (``fused-dense`` only; other backends refuse it
        at solve time with a choice-naming error).  The name is
        validated eagerly so a typo fails at construction, not
        mid-solve.
    """

    def __init__(
        self,
        config: SLOTAlignConfig | None = None,
        backend: str = DEFAULT_BACKEND,
        cache=_SHARED,
        backend_options: dict | None = None,
        decoder: str | None = None,
        precision: str = DEFAULT_PRECISION,
    ):
        self.config = config or SLOTAlignConfig()
        self.backend = backend
        self.cache: PlanCache | None = (
            shared_plan_cache() if cache is _SHARED else cache
        )
        self.backend_options = dict(backend_options or {})
        self.decoder = decoder
        self.precision = ensure_precision(precision).name

    # ------------------------------------------------------------------
    def plan(
        self,
        source: AttributedGraph,
        target: AttributedGraph,
        init_plan: np.ndarray | None = None,
        bases=None,
        anchors: np.ndarray | None = None,
    ) -> PreparedProblem:
        """Stage 1: prepare the problem (bases built lazily, cached).

        ``anchors`` are semi-supervised seed correspondences consumed
        by the partial backends; the classical backends refuse a
        problem that carries any (never silently ignored).
        """
        return prepare_problem(
            source,
            target,
            self.config,
            init_plan=init_plan,
            bases=bases,
            cache=self.cache,
            anchors=anchors,
        )

    def solve(self, problem: PreparedProblem):
        """Stage 2: run the configured solver backend.

        The engine's precision is checked against the backend here,
        per solve; an explicit ``precision`` in ``backend_options``
        wins over it.
        """
        backend = get_backend(
            self.backend,
            **{"precision": self.precision, **self.backend_options},
        )
        return backend.solve(problem)

    def decode(self, result, decoder: str | None = None) -> DecodedMatching:
        """Stage 3: discrete matching from the solved plan.

        ``decoder`` overrides the engine's configured decoder for this
        call; with neither set, the registry default
        (``row-argmax``) applies.
        """
        chosen = decoder if decoder is not None else self.decoder
        return decode_plan(result, chosen if chosen is not None else DEFAULT_DECODER)

    def evaluate(
        self, result, ground_truth: np.ndarray, ks=(1, 5, 10, 30),
        with_runtime: bool = False,
    ) -> dict[str, float]:
        """Stage 4: metrics from a plan, result, or decoded matching."""
        return evaluate_alignment(
            result, ground_truth, ks=ks, with_runtime=with_runtime
        )

    # ------------------------------------------------------------------
    def align(
        self,
        source: AttributedGraph,
        target: AttributedGraph,
        init_plan: np.ndarray | None = None,
        bases=None,
        anchors: np.ndarray | None = None,
    ):
        """plan + solve in one call (the ``fit``-shaped entry point)."""
        problem = self.plan(
            source, target, init_plan=init_plan, bases=bases, anchors=anchors
        )
        return self.solve(problem)

    def run(
        self,
        source: AttributedGraph,
        target: AttributedGraph,
        ground_truth: np.ndarray | None = None,
        init_plan: np.ndarray | None = None,
        ks=(1, 5, 10, 30),
        anchors: np.ndarray | None = None,
    ) -> EngineRun:
        """All pipeline stages with per-stage wall-clock accounting.

        The decode stage runs only when the engine was constructed
        with a ``decoder``; without one the plan posterior is scored
        directly and ``stage_seconds`` carries no ``"decode"`` entry —
        the pre-decode-stage pipeline, bit for bit.
        """
        t0 = time.perf_counter()
        problem = self.plan(source, target, init_plan=init_plan, anchors=anchors)
        t1 = time.perf_counter()
        result = self.solve(problem)
        t2 = time.perf_counter()
        decoded = None
        if self.decoder is not None:
            decoded = self.decode(result)
        t_decode = time.perf_counter()
        metrics: dict[str, float] = {}
        if ground_truth is not None:
            metrics = self.evaluate(
                decoded if decoded is not None else result, ground_truth, ks=ks
            )
        t3 = time.perf_counter()
        stage_seconds = {
            "plan": (t1 - t0) + problem.basis_seconds,
            "solve": (t2 - t1) - problem.basis_seconds,
        }
        if decoded is not None:
            stage_seconds["decode"] = t_decode - t2
        stage_seconds["evaluate"] = t3 - t_decode
        return EngineRun(
            result=result,
            metrics=metrics,
            stage_seconds=stage_seconds,
            decoded=decoded,
        )


def align_pair(
    config: SLOTAlignConfig,
    source: AttributedGraph,
    target: AttributedGraph,
    backend: str = DEFAULT_BACKEND,
):
    """Module-level one-shot engine alignment.

    Top-level (picklable) so process pools can ship it to workers —
    the partitioned pipeline's block solves route through here.

    Block solves deliberately bypass the shared plan cache: process
    workers could never see it anyway, so an in-process warm cache
    would make ``serial`` block timings incomparable to pool timings
    (the executor-isolation contract of the scalability bench), and a
    fit's blocks are distinct subgraphs with nothing to share.
    """
    engine = AlignmentEngine(config, backend=backend, cache=None)
    return engine.align(source, target)
