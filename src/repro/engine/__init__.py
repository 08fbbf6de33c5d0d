"""Unified alignment engine: **plan → solve → decode → evaluate**.

Every alignment in the library decomposes into four explicit stages:

1. **plan** (:mod:`repro.engine.planning`) — multi-view base
   construction behind a content-keyed cache, the marginals and the
   initial coupling;
2. **solve** (:mod:`repro.engine.backends`) — a table of four
   solver backends: the ``fused-dense`` restart portfolio (float64
   reference or float32), the two ``partial-*`` portfolios, and the
   ``sparse`` divide-and-conquer pipeline;
3. **decode** (:mod:`repro.engine.decode`) — a table of plan
   decoders (``row-argmax`` / ``mutual-argmax`` / ``hungarian`` /
   ``mea``) turning the transport-plan posterior into a discrete
   :class:`DecodedMatching`;
4. **evaluate** (:mod:`repro.engine.evaluate`) — one metric adapter
   for dense and CSR plans and decoded matchings.

``SLOTAlign.fit``, ``DivideAndConquerAligner``'s block solves, the
experiment drivers and the CLI are all thin shims over
:class:`AlignmentEngine`, so batching/caching/backends land once and
reach every workload.
"""

from repro.engine.planning import (
    PlanCache,
    PreparedProblem,
    feature_similarity_plan,
    graph_digest,
    prepare_problem,
    shared_plan_cache,
    view_spec,
)
from repro.engine.backends import (
    DEFAULT_BACKEND,
    available_backends,
    backend_kind,
    dense_backends,
    ensure_backend_precision,
    ensure_classical_problem,
    ensure_dense_backend,
    get_backend,
    partial_backends,
)
from repro.engine.coalesce import coalescible, solve_coalesced
from repro.engine.decode import (
    DEFAULT_DECODER,
    DecodedMatching,
    available_decoders,
    decode_plan,
    ensure_decoder,
    get_decoder,
)
from repro.engine.evaluate import evaluate_alignment, extract_plan
from repro.engine.pipeline import AlignmentEngine, EngineRun, align_pair
from repro.engine.precision import (
    DEFAULT_PRECISION,
    FLOAT32,
    FLOAT64,
    PRECISIONS,
    SolverPrecision,
    ensure_precision,
)

__all__ = [
    "AlignmentEngine",
    "EngineRun",
    "DEFAULT_BACKEND",
    "DEFAULT_DECODER",
    "DEFAULT_PRECISION",
    "DecodedMatching",
    "FLOAT32",
    "FLOAT64",
    "PRECISIONS",
    "SolverPrecision",
    "ensure_precision",
    "coalescible",
    "solve_coalesced",
    "PlanCache",
    "PreparedProblem",
    "align_pair",
    "available_backends",
    "available_decoders",
    "backend_kind",
    "decode_plan",
    "dense_backends",
    "ensure_backend_precision",
    "ensure_classical_problem",
    "ensure_decoder",
    "ensure_dense_backend",
    "evaluate_alignment",
    "extract_plan",
    "feature_similarity_plan",
    "get_backend",
    "get_decoder",
    "graph_digest",
    "partial_backends",
    "prepare_problem",
    "shared_plan_cache",
    "view_spec",
]
