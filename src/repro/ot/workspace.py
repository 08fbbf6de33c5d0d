"""Preallocated kernel workspaces for the mixed-precision fast path.

``pi_update`` dominates solver wall-clock, and profiling shows a large
slice of it is allocator traffic: every outer iteration of the
reference loop materialises fresh ``(n, m)`` arrays for the gradient,
the log-kernel, the Sinkhorn kernel and every scaling vector.  The
fast backends instead run against a :class:`Workspace` — one object
owning *every* scratch array needed to step a stack of up to ``R``
restarts of a given ``(n, m, dtype)`` problem — and issue exclusively
``out=``-targeted BLAS/ufunc calls into those buffers, so the steady
state of the inner loop performs no array allocation at all
(asserted by ``tests/test_workspace.py`` via ``tracemalloc``).

Ownership rules
---------------
* A workspace is **single-threaded state**: exactly one thread may
  step against it at a time.  Concurrent restart strategies lease one
  workspace per thread from a :class:`WorkspaceArena` (keyed by
  ``threading.get_ident()``), so buffers are never shared across
  threads — the no-aliasing property the racecheck tests pin down.
* Buffers are sized for a **capacity** ``R`` and sliced ``[:r]`` per
  call; a lease with a larger ``r`` or a different ``(n, m, dtype)``
  reallocates (growing is the caller's explicit signal, never implicit
  per-iteration behaviour).
* Buffer contents are undefined between calls: every kernel writes
  before it reads.  Nothing returned to callers may alias a workspace
  buffer unless documented (the stacked Sinkhorn kernel leaves plans
  in ``new_plans`` by contract; consumers copy out immediately).

The workspace also memoises two pure derivations so the hot loop can
stay allocation-free: contraction paths from :func:`numpy.einsum_path`
(keyed by subscripts and operand shapes) and reduced-precision casts
of read-only float64 arrays such as the objective's base stacks
(keyed by a caller-chosen name and the source array's identity).
"""

from __future__ import annotations

import threading

import numpy as np


class Workspace:
    """Every scratch buffer for stepping ``<= capacity`` restarts of an
    ``(n, m)`` problem in ``dtype``."""

    def __init__(self, capacity: int, n: int, m: int, dtype=np.float64):
        if capacity < 1:
            raise ValueError(f"workspace capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.n = int(n)
        self.m = int(m)
        self.dtype = np.dtype(dtype)
        shape = (self.capacity, self.n, self.m)
        # (R, n, m): plan stacks and everything plan-shaped
        self.plans = np.empty(shape, dtype=self.dtype)
        self.new_plans = np.empty(shape, dtype=self.dtype)
        self.grad = np.empty(shape, dtype=self.dtype)
        self.sp = np.empty(shape, dtype=self.dtype)
        self.pt = np.empty(shape, dtype=self.dtype)
        self.log_kernel = np.empty(shape, dtype=self.dtype)
        self.kernel = np.empty(shape, dtype=self.dtype)
        self.mask = np.empty(shape, dtype=self.dtype)
        # transposed-plan-shaped intermediate for πᵀ D_s π
        self.tp = np.empty((self.capacity, self.m, self.n), dtype=self.dtype)
        # combined structure matrices and their transported images
        self.d_s = np.empty((self.capacity, self.n, self.n), dtype=self.dtype)
        self.d_t = np.empty((self.capacity, self.m, self.m), dtype=self.dtype)
        self.transported_t = np.empty(
            (self.capacity, self.n, self.n), dtype=self.dtype
        )
        self.transported_s = np.empty(
            (self.capacity, self.m, self.m), dtype=self.dtype
        )
        # Sinkhorn scaling columns (kept (R, n|m, 1) so matmul/ufunc
        # broadcasting needs no reshapes in the loop)
        self.row_max = np.empty((self.capacity, self.n, 1), dtype=self.dtype)
        self.u = np.empty((self.capacity, self.n, 1), dtype=self.dtype)
        self.kv = np.empty((self.capacity, self.n, 1), dtype=self.dtype)
        self.marg = np.empty((self.capacity, self.n, 1), dtype=self.dtype)
        self.v = np.empty((self.capacity, self.m, 1), dtype=self.dtype)
        self.ktu = np.empty((self.capacity, self.m, 1), dtype=self.dtype)
        self.mu_col = np.empty((self.n, 1), dtype=self.dtype)
        self.nu_col = np.empty((self.m, 1), dtype=self.dtype)
        self._einsum_paths: dict[tuple, list] = {}
        self._cast_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def fits(self, n_runs: int, n: int, m: int, dtype) -> bool:
        """Whether this workspace can serve the requested shape as-is."""
        return (
            n_runs <= self.capacity
            and n == self.n
            and m == self.m
            and np.dtype(dtype) == self.dtype
        )

    def set_marginals(self, mu: np.ndarray, nu: np.ndarray) -> None:
        """Load the (shared) marginals into their broadcast columns."""
        np.copyto(self.mu_col, np.asarray(mu).reshape(self.n, 1), casting="same_kind")
        np.copyto(self.nu_col, np.asarray(nu).reshape(self.m, 1), casting="same_kind")

    @property
    def nbytes(self) -> int:
        """Total bytes owned by the arena's array buffers."""
        return sum(
            value.nbytes
            for value in self.__dict__.values()
            if isinstance(value, np.ndarray)
        )

    # ------------------------------------------------------------------
    def einsum_path(self, subscripts: str, *operands: np.ndarray):
        """Memoised :func:`numpy.einsum_path` for a contraction shape."""
        key = (subscripts,) + tuple(op.shape for op in operands)
        path = self._einsum_paths.get(key)
        if path is None:
            path = np.einsum_path(subscripts, *operands, optimize="optimal")[0]
            self._einsum_paths[key] = path
        return path

    def cast(self, name: str, array: np.ndarray) -> np.ndarray:
        """Memoised ``array.astype(self.dtype)`` of a read-only source.

        Keyed on ``(name, id(array))``; the source reference is held so
        the identity key can never alias a freed array.  Intended for
        per-objective constants (base stacks) that every step would
        otherwise re-cast.
        """
        key = (name, id(array))
        cached = self._cast_cache.get(key)
        if cached is not None:
            return cached[1]
        if len(self._cast_cache) >= 16:
            self._cast_cache.clear()
        converted = np.ascontiguousarray(array, dtype=self.dtype)
        self._cast_cache[key] = (array, converted)
        return converted


class WorkspaceArena:
    """Thread-keyed pool of workspaces.

    ``lease`` hands the calling thread its own :class:`Workspace`,
    creating or regrowing it when the requested ``(n_runs, n, m,
    dtype)`` does not fit the one it already holds.  Because the key is
    the thread identity, two threads can never observe the same buffer.
    """

    def __init__(self):
        self._lock = threading.Lock()
        # thread ident -> Workspace  #: guarded-by: _lock
        self._by_thread: dict[int, Workspace] = {}

    def lease(self, n_runs: int, n: int, m: int, dtype=np.float64) -> Workspace:
        ident = threading.get_ident()
        with self._lock:
            workspace = self._by_thread.get(ident)
        if workspace is None or not workspace.fits(n_runs, n, m, dtype):
            workspace = Workspace(max(1, n_runs), n, m, dtype)
            with self._lock:
                self._by_thread[ident] = workspace
        return workspace

    def workspaces(self) -> list[Workspace]:
        """Snapshot of the live workspaces (test/introspection hook)."""
        with self._lock:
            return list(self._by_thread.values())

    def clear(self) -> None:
        with self._lock:
            self._by_thread.clear()


__all__ = ["Workspace", "WorkspaceArena"]
