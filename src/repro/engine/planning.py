"""Stage 1 of the alignment engine: **plan**.

Planning turns a graph pair plus a :class:`SLOTAlignConfig` into a
:class:`PreparedProblem` — the structure bases (Eq. 6), the marginals
and the initial coupling — without committing to any solver.  Base
construction is routed through a **content-keyed cache**
(:class:`PlanCache`): the cache key is a digest of the graph's actual
adjacency/feature contents plus the view-construction parameters, so

* repeated solves of the same pair (sensitivity sweeps, trajectory
  capture, the partitioned pipeline's diagnostics),
* multi-method tables where several SLOTAlign variants share one view
  configuration, and
* multi-backend comparisons of the same problem

all pay the kernel construction once.  Keying on content rather than
object identity makes the cache safe under the repo's idiom of
rebuilding graph objects per experiment; two structurally identical
graphs hit the same entry no matter how they were loaded.

Cached basis arrays are shared read-only, matching the contract of
:class:`repro.core.objective.JointObjective` (which copies them into
its contiguous stacks at construction).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SLOTAlignConfig
from repro.core.views import build_structure_bases
from repro.exceptions import ConfigError, GraphError
from repro.graphs.graph import AttributedGraph
from repro.graphs.normalization import row_normalize
from repro.ot.sinkhorn import sinkhorn_log


_VIEW_FIELDS = (
    "n_bases",
    "include_views",
    "normalize_bases",
    "center_kernels",
    "renormalize_hops",
    "hop_mix",
)
"""Config fields that determine the structure bases.

Single source of truth for the cache key *and* the build call: a new
view-affecting knob must be added here and consumed in
:func:`build_bases`, or two configs could silently share a cache entry
(wrong results, no error).
"""


def view_spec(config: SLOTAlignConfig) -> tuple:
    """The subset of the config that determines the structure bases.

    Two configs with equal view specs build bit-identical bases, so
    this tuple (plus the graph content digest) is the cache key.
    Floats enter via ``float.hex()`` so the key is exact, not
    repr-rounded.
    """
    spec = []
    for name in _VIEW_FIELDS:
        value = getattr(config, name)
        if isinstance(value, float):
            value = value.hex()
        elif isinstance(value, (list, tuple)):
            value = tuple(value)
        spec.append(value)
    return tuple(spec)


def build_bases(graph: AttributedGraph, config: SLOTAlignConfig) -> list[np.ndarray]:
    """Build one graph's structure bases from the ``_VIEW_FIELDS``.

    The one place the view-affecting config is consumed — both the
    cache and the uncached path go through here, so the key and the
    construction cannot drift apart.
    """
    return build_structure_bases(
        graph,
        config.n_bases,
        config.include_views,
        config.normalize_bases,
        center_kernels=config.center_kernels,
        renormalize_hops=config.renormalize_hops,
        hop_mix=config.hop_mix,
    )


def graph_digest(graph: AttributedGraph) -> bytes:
    """Content digest of a graph: adjacency structure + feature bytes.

    Node labels are excluded — the basis construction never reads
    them.  The digest is recomputed per call (no staleness risk if a
    caller mutates arrays in place); at stand-in sizes hashing costs
    milliseconds against solver seconds.
    """
    digest = hashlib.sha256()
    adjacency = graph.adjacency
    digest.update(np.int64(adjacency.shape[0]).tobytes())
    digest.update(adjacency.indptr.tobytes())
    digest.update(adjacency.indices.tobytes())
    digest.update(adjacency.data.tobytes())
    if graph.features is None:
        digest.update(b"\x00no-features")
    else:
        features = np.ascontiguousarray(graph.features, dtype=np.float64)
        digest.update(np.asarray(features.shape, dtype=np.int64).tobytes())
        digest.update(features.tobytes())
    return digest.digest()


class _InFlightBuild:
    """Rendezvous for one in-progress basis construction.

    Waiters park on ``event``; the builder publishes either ``bases``
    (frozen, shared directly — valid even when the finished entry is
    too large to cache) or ``error`` before setting the event.
    """

    __slots__ = ("event", "bases", "error")

    def __init__(self):
        self.event = threading.Event()
        self.bases: list[np.ndarray] | None = None
        self.error: BaseException | None = None


class PlanCache:
    """Content-keyed LRU cache of structure-basis lists.

    Entries are keyed on ``(graph_digest, view_spec)`` and evicted
    least-recently-used once the held arrays exceed ``max_bytes``
    (basis tensors dominate the footprint, so the budget is expressed
    in bytes rather than entry counts).

    Thread-safe: the shared process-wide cache is reached from the
    serving worker pool's threads, so lookups, LRU bookkeeping and
    eviction run under one lock.
    Basis *construction* happens outside the lock under a
    **single-flight** discipline: the first requester of a key becomes
    its builder, concurrent requesters park on a per-key event and
    receive the builder's arrays when it publishes — a burst of
    identical requests pays for exactly one kernel construction
    (``builds`` counts actual constructions; ``misses`` counts
    requests that found no ready entry, parked waiters included).
    """

    def __init__(self, max_bytes: int = 128 * 1024 * 1024):
        if max_bytes < 0:
            raise ConfigError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, list[np.ndarray]] = OrderedDict()  #: guarded-by: _lock
        self._bytes = 0  #: guarded-by: _lock
        self._in_flight: dict[tuple, _InFlightBuild] = {}  #: guarded-by: _lock
        self.hits = 0  #: guarded-by: _lock
        self.misses = 0  #: guarded-by: _lock
        self.builds = 0  #: guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._bytes

    def bases_for(
        self, graph: AttributedGraph, config: SLOTAlignConfig
    ) -> list[np.ndarray]:
        """Bases for one graph under one view spec, cached by content.

        Returns a fresh list container per call (so callers may extend
        it, as the KG pipeline does with relation views); the basis
        arrays themselves are shared and must be treated as read-only.

        Concurrent misses on one key are **single-flight**: exactly
        one thread constructs the bases, the rest wait on the in-flight
        build and share its (frozen) arrays — even when the entry is
        too large to retain in the cache afterwards.
        """
        key = (graph_digest(graph), view_spec(config))
        while True:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self.hits += 1
                    self._entries.move_to_end(key)
                    return list(cached)
                self.misses += 1
                flight = self._in_flight.get(key)
                if flight is None:
                    flight = _InFlightBuild()
                    self._in_flight[key] = flight
                    break  # this thread is the builder
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            if flight.bases is not None:
                return list(flight.bases)
            # builder vanished without publishing (should not happen);
            # loop and retry from the cache
        try:
            bases = build_bases(graph, config)
            for basis in bases:
                # enforce the read-only contract before *any* sharing:
                # waiters receive these arrays even when the entry is
                # too large to cache, and an in-place mutation would
                # silently poison every concurrent content-equal solve
                basis.setflags(write=False)
            with self._lock:
                self.builds += 1
                self._store(key, bases)
            flight.bases = bases
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._in_flight.pop(key, None)
            flight.event.set()
        return list(bases)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def info(self) -> dict:
        """Hit/miss counters and current footprint, for diagnostics."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "builds": self.builds,
            }

    def _store(self, key: tuple, bases: list[np.ndarray]) -> None:  #: requires: _lock
        """Insert under the held lock, evicting LRU past the budget.

        Arrays must already be frozen by the caller (the single-flight
        builder freezes before any sharing happens).
        """
        if key in self._entries:
            return  # a concurrent miss already stored identical bases
        size = sum(basis.nbytes for basis in bases)
        if size > self.max_bytes:
            return  # larger than the whole budget: never cached
        while self._bytes + size > self.max_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= sum(basis.nbytes for basis in evicted)
        self._entries[key] = list(bases)
        self._bytes += size


_SHARED_CACHE: PlanCache | None = None
_SHARED_CACHE_LOCK = threading.Lock()


def shared_plan_cache() -> PlanCache:
    """The process-wide default plan cache (created on first use).

    Creation is guarded by a double-checked lock: two threads racing
    on first use must receive the *same* cache, or cross-request
    sharing (the whole point of the process-wide instance) is silently
    lost for one of them.
    """
    global _SHARED_CACHE
    if _SHARED_CACHE is None:
        with _SHARED_CACHE_LOCK:
            if _SHARED_CACHE is None:
                _SHARED_CACHE = PlanCache()
    return _SHARED_CACHE


def feature_similarity_plan(
    source_features: np.ndarray,
    target_features: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
) -> np.ndarray:
    """Feasible plan built from cross-graph cosine similarity.

    The similarity matrix is sharpened in log domain and Sinkhorn-
    projected onto ``Π(μ, ν)`` so the first π-update starts from a
    valid coupling (paper Sec. V-C initialisation for DBP15K).

    Falls back to the independent coupling when the feature
    dimensionalities differ (similarity is then undefined).
    """
    xs = np.asarray(source_features, dtype=np.float64)
    xt = np.asarray(target_features, dtype=np.float64)
    if xs.shape[1] != xt.shape[1]:
        return np.outer(mu, nu)
    sim = row_normalize(xs) @ row_normalize(xt).T
    log_kernel = sim * 10.0
    result = sinkhorn_log(
        cost=None, mu=mu, nu=nu, max_iter=200, tol=1e-10, log_kernel=log_kernel
    )
    return result.plan


@dataclass
class PreparedProblem:
    """Stage-1 output: everything a solver backend consumes.

    Bases are built lazily through the cache on first access (the
    sparse backend partitions the graphs instead and never triggers
    the whole-pair construction); ``basis_seconds`` records the actual
    construction cost (0.0 on a cache hit or injected bases).
    """

    source: AttributedGraph
    target: AttributedGraph
    config: SLOTAlignConfig
    init_plan: np.ndarray | None = None
    cache: PlanCache | None = None
    basis_seconds: float = 0.0
    anchors: np.ndarray | None = None
    _bases: tuple[list[np.ndarray], list[np.ndarray]] | None = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        for side, graph in (("source", self.source), ("target", self.target)):
            if graph.n_nodes == 0:
                raise GraphError(f"{side} graph has no nodes")
        if self.anchors is not None:
            anchors = np.asarray(self.anchors, dtype=np.int64).reshape(-1, 2)
            if anchors.size:
                if anchors.min() < 0 or (
                    anchors[:, 0].max() >= self.source.n_nodes
                    or anchors[:, 1].max() >= self.target.n_nodes
                ):
                    raise GraphError("anchor indices out of range for the pair")
            self.anchors = anchors

    @property
    def bases(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """``(source_bases, target_bases)``, built through the cache."""
        if self._bases is None:
            t0 = time.perf_counter()
            if self.cache is not None:
                built = (
                    self.cache.bases_for(self.source, self.config),
                    self.cache.bases_for(self.target, self.config),
                )
            else:
                built = (
                    build_bases(self.source, self.config),
                    build_bases(self.target, self.config),
                )
            self.basis_seconds = time.perf_counter() - t0
            self._bases = built
        source_bases, target_bases = self._bases
        if len(source_bases) != len(target_bases):
            raise GraphError(
                "source and target produced different numbers of bases"
            )
        return self._bases

    def inject_bases(
        self, bases: tuple[list[np.ndarray], list[np.ndarray]]
    ) -> None:
        """Use caller-supplied bases (e.g. relation-augmented KG views)."""
        self._bases = (list(bases[0]), list(bases[1]))

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """Uniform marginals sized to the basis dimensions."""
        source_bases, target_bases = self.bases
        n = source_bases[0].shape[0]
        m = target_bases[0].shape[0]
        return np.full(n, 1.0 / n), np.full(m, 1.0 / m)

    def initial_coupling(
        self, mu: np.ndarray, nu: np.ndarray
    ) -> tuple[np.ndarray, bool]:
        """π₁ plus a flag for "informative" (non-uniform) inits.

        Uniform coupling by default; a user-supplied plan or (for the
        KG setting) the feature-similarity initialisation of Sec. V-C
        skips the multi-start portfolio.  When the feature spaces are
        incomparable (different dimensionalities) the similarity init
        degenerates to the uniform coupling, so the flag stays False
        and the multi-start portfolio remains enabled.
        """
        n, m = mu.shape[0], nu.shape[0]
        if self.init_plan is not None:
            plan = np.asarray(self.init_plan, dtype=np.float64)
            if plan.shape != (n, m):
                raise GraphError(
                    f"init_plan must have shape {(n, m)}, got {plan.shape}"
                )
            if not np.all(np.isfinite(plan)):
                # NaN and inf pass both checks below and poison the
                # normalised start; refuse them here, before any solve
                raise GraphError("init_plan must be finite")
            if plan.min() < 0 or plan.sum() <= 0:
                raise GraphError(
                    "init_plan must be non-negative with positive mass"
                )
            return plan / plan.sum(), True
        if self.config.use_feature_similarity_init:
            if self.source.features is None or self.target.features is None:
                raise GraphError(
                    "feature-similarity init requires features on both graphs"
                )
            if self.source.features.shape[1] != self.target.features.shape[1]:
                return np.outer(mu, nu), False
            return (
                feature_similarity_plan(
                    self.source.features, self.target.features, mu, nu
                ),
                True,
            )
        return np.outer(mu, nu), False


def prepare_problem(
    source: AttributedGraph,
    target: AttributedGraph,
    config: SLOTAlignConfig,
    init_plan: np.ndarray | None = None,
    bases: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
    cache: PlanCache | None = None,
    anchors: np.ndarray | None = None,
) -> PreparedProblem:
    """Run the plan stage for a pair and return the prepared problem.

    ``anchors`` (``k × 2`` source/target pairs) are semi-supervised
    seed correspondences carried on the problem for the partial
    backends; classical backends refuse a problem that has any.
    """
    problem = PreparedProblem(
        source=source,
        target=target,
        config=config,
        init_plan=init_plan,
        cache=cache,
        anchors=anchors,
    )
    if bases is not None:
        problem.inject_bases(bases)
    return problem
