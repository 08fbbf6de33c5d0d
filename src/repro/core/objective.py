"""The SLOTAlign objective ``F(π, β_s, β_t)`` and its gradients (Eq. 9).

With ``D_s = Σ_q β_s^{(q)} D_s^{(q)}`` and ``D_t = Σ_q β_t^{(q)} D_t^{(q)}``:

    F = (1/n²)‖D_s‖_F² + (1/m²)‖D_t‖_F² − 2 tr(D_s π D_t πᵀ)

Gradients (all matrices symmetric):

    ∂F/∂β_s^{(p)} = (2/n²)⟨D_s, D_s^{(p)}⟩ − 2⟨D_s^{(p)}, π D_t πᵀ⟩
    ∂F/∂β_t^{(p)} = (2/m²)⟨D_t, D_t^{(p)}⟩ − 2⟨D_t^{(p)}, πᵀ D_s π⟩
    ∂F/∂π        = −2 (D_s π D_tᵀ + D_sᵀ π D_t)

The β-gradient uses precomputed Gram matrices
``G_s[p,q] = ⟨D_s^{(p)}, D_s^{(q)}⟩`` so the α-update costs
O(K² + K n²) instead of K² full contractions per iteration.

Fused contraction engine
------------------------
The solver's outer loop evaluates ``value``, ``plan_gradient`` and
``alpha_gradient`` several times per iteration, historically rebuilding
the combined matrices ``D_s``/``D_t`` for every call and running ~9
dense n²-matmuls where ~4 suffice.  This module now

* stacks the K bases into ``(K, n, n)`` tensors once at construction,
* caches ``(D_s, D_t)`` keyed on the current weight iterate — the
  combination itself uses the same sequential accumulation as
  :func:`repro.core.views.combine_bases`, so cached and uncached
  evaluations are bitwise identical,
* memoises the transport products ``D_s π`` / ``π D_t`` per evaluation
  point ``(π, β_s, β_t)`` so value/gradient calls at the same iterate
  share their dominant contractions, and
* when every basis is exactly symmetric (the Eq. 6 views always are)
  and ``fused=True``, collapses ``∂F/∂π`` to ``−4 D_s π D_t`` — two
  matmuls instead of four.  The fused form equals the general formula
  up to one ulp per entry (BLAS transpose kernels accumulate in a
  different order); with ``fused=False`` this class reproduces the
  pre-fusion serial formulas bit for bit, which is pinned by
  ``tests/test_fused_objective.py``.

Returned ``D`` matrices and gradients may be cached — treat them as
read-only.  Input plans are identity-memoised: do not mutate a plan
array in place between evaluations (pass a fresh array instead, as the
solver does), or the memo will serve results for the old contents.
A pickled objective carries neither cache.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.core.views import combine_bases, stack_bases


class JointObjective:
    """Caches bases, Gram matrices and transport products for fast
    F/∇F evaluation.

    Parameters
    ----------
    source_bases / target_bases:
        The candidate structure bases ``{D^{(q)}}`` per graph.
    fused:
        Enable the symmetric fast path for ``plan_gradient`` (used only
        when every basis is exactly symmetric; see the module
        docstring).  ``False`` forces the general serial formulas.
    """

    def __init__(
        self,
        source_bases: list[np.ndarray],
        target_bases: list[np.ndarray],
        fused: bool = True,
    ):
        if not source_bases or not target_bases:
            raise ShapeError("need at least one basis per graph")
        if len(source_bases) != len(target_bases):
            raise ShapeError(
                f"basis count mismatch: {len(source_bases)} vs {len(target_bases)}"
            )
        source_bases = [np.asarray(b, dtype=np.float64) for b in source_bases]
        target_bases = [np.asarray(b, dtype=np.float64) for b in target_bases]
        self.n = source_bases[0].shape[0]
        self.m = target_bases[0].shape[0]
        for basis in source_bases:
            if basis.shape != (self.n, self.n):
                raise ShapeError("source bases must share shape (n, n)")
        for basis in target_bases:
            if basis.shape != (self.m, self.m):
                raise ShapeError("target bases must share shape (m, m)")
        self.source_stack = stack_bases(source_bases)
        self.target_stack = stack_bases(target_bases)
        self.source_bases = list(self.source_stack)
        self.target_bases = list(self.target_stack)
        self.n_bases = len(self.source_bases)
        self.gram_source = _gram(self.source_bases)
        self.gram_target = _gram(self.target_bases)
        self.symmetric = all(
            np.array_equal(basis, basis.T)
            for basis in (*self.source_bases, *self.target_bases)
        )
        self.fused = bool(fused) and self.symmetric
        # combined-matrix cache keyed on the weight iterates; transport-
        # product memo keyed on the evaluation point.  Both hold strong
        # references, so id()-keys cannot alias freed arrays.
        self._combined_cache: dict[tuple[bytes, bytes], tuple] = {}
        self._product_cache: dict[tuple, dict] = {}

    def __getstate__(self) -> dict:
        # a pickled copy (a pool worker's) starts with empty caches: an
        # id() key means nothing in another process and could match an
        # unrelated plan there.  The per-basis views are rebuilt from
        # the stacks, so each basis travels once.
        state = dict(self.__dict__)
        for name in ("_combined_cache", "_product_cache",
                     "source_bases", "target_bases"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.source_bases = list(self.source_stack)
        self.target_bases = list(self.target_stack)
        self._combined_cache = {}
        self._product_cache = {}

    # ------------------------------------------------------------------
    def combined(self, beta_s: np.ndarray, beta_t: np.ndarray):  #: pinned
        """``(D_s, D_t)`` for the given weights (cached; read-only)."""
        beta_s = np.asarray(beta_s, dtype=np.float64)
        beta_t = np.asarray(beta_t, dtype=np.float64)
        key = (beta_s.tobytes(), beta_t.tobytes())
        cached = self._combined_cache.get(key)
        if cached is None:
            if len(self._combined_cache) >= 8:
                self._combined_cache.clear()
            cached = (
                combine_bases(self.source_bases, beta_s),
                combine_bases(self.target_bases, beta_t),
            )
            self._combined_cache[key] = cached
        return cached

    def _products(
        self, plan: np.ndarray, beta_s: np.ndarray, beta_t: np.ndarray
    ) -> dict:
        """Memo of transport products at one evaluation point.

        Lazily filled with ``sp = D_s π``, ``spt = (D_s π) D_t`` (or the
        general ``(D_s π) D_tᵀ``) and ``pt = π D_t`` — the contractions
        shared across ``value``/``plan_gradient``/``alpha_gradient``.
        Keyed on object identity plus the weight bytes; the memo keeps
        references to the two most recent iterates only.
        """
        key = (id(plan), beta_s.tobytes(), beta_t.tobytes())
        memo = self._product_cache.get(key)
        if memo is None:
            if len(self._product_cache) >= 2:
                self._product_cache.clear()
            memo = {"plan": plan}  # strong ref pins id() for the key
            self._product_cache[key] = memo
        return memo

    def value(
        self, plan: np.ndarray, beta_s: np.ndarray, beta_t: np.ndarray
    ) -> float:  #: pinned
        """Objective value ``F(π, β_s, β_t)``."""
        d_s, d_t = self.combined(beta_s, beta_t)
        term_s = float(beta_s @ self.gram_source @ beta_s) / self.n**2
        term_t = float(beta_t @ self.gram_target @ beta_t) / self.m**2
        memo = self._products(plan, beta_s, beta_t)
        spt = memo.get("spt")
        if spt is None:
            sp = memo.get("sp")
            if sp is None:
                sp = memo["sp"] = d_s @ plan
            spt = memo["spt"] = sp @ d_t if self.fused else sp @ d_t.T
        cross = -2.0 * float(np.sum(spt * plan))
        return term_s + term_t + cross

    def plan_gradient(
        self, plan: np.ndarray, beta_s: np.ndarray, beta_t: np.ndarray
    ) -> np.ndarray:  #: pinned
        """``∂F/∂π`` at the current iterate.

        The fused-contraction core is **bitwise-pinned** (``repro
        lint``): divergent numeric variants register a new solver
        backend instead of editing this path.
        """
        d_s, d_t = self.combined(beta_s, beta_t)
        memo = self._products(plan, beta_s, beta_t)
        if self.fused:
            # symmetric bases: −2(D_s π D_tᵀ + D_sᵀ π D_t) = −4 D_s π D_t
            spt = memo.get("spt")
            if spt is None:
                sp = memo.get("sp")
                if sp is None:
                    sp = memo["sp"] = d_s @ plan
                spt = memo["spt"] = sp @ d_t
            return -4.0 * spt
        spt = memo.get("spt")
        if spt is None:
            sp = memo.get("sp")
            if sp is None:
                sp = memo["sp"] = d_s @ plan
            spt = memo["spt"] = sp @ d_t.T
        return -2.0 * (spt + d_s.T @ plan @ d_t)

    def alpha_gradient(
        self, plan: np.ndarray, beta_s: np.ndarray, beta_t: np.ndarray
    ) -> np.ndarray:  #: pinned
        """Concatenated gradient ``[∂F/∂β_s, ∂F/∂β_t]``."""
        d_s, d_t = self.combined(beta_s, beta_t)
        memo = self._products(plan, beta_s, beta_t)
        # transported structure matrices reused across all K components
        pt = memo.get("pt")
        if pt is None:
            pt = memo["pt"] = plan @ d_t
        transported_t = pt @ plan.T  # (n, n)
        transported_s = plan.T @ d_s @ plan  # (m, m)
        # stacked contraction: sums each contiguous (n, n) slice exactly
        # as np.sum(basis * transported) does, so the batched form is
        # bitwise-equal to the per-basis loop it replaces
        cross_s = (self.source_stack * transported_t).sum(axis=(1, 2))
        cross_t = (self.target_stack * transported_s).sum(axis=(1, 2))
        grad_s = np.empty(self.n_bases)
        grad_t = np.empty(self.n_bases)
        for q in range(self.n_bases):
            grad_s[q] = (
                2.0 / self.n**2 * float(self.gram_source[q] @ beta_s)
                - 2.0 * float(cross_s[q])
            )
            grad_t[q] = (
                2.0 / self.m**2 * float(self.gram_target[q] @ beta_t)
                - 2.0 * float(cross_t[q])
            )
        return np.concatenate([grad_s, grad_t])

    def lipschitz_estimates(self) -> tuple[float, float]:
        """Crude upper bounds ``(L_α, L_π)`` on the gradient Lipschitz
        moduli used by Theorem 5's step-size condition.

        ``∇_α F`` is linear in α with Hessian blocks
        ``(2/n²)G_s`` and ``(2/m²)G_t``; ``∇_π F`` is linear in π with
        operator norm bounded by ``4‖D_s‖₂‖D_t‖₂ <= 4‖D_s‖_F‖D_t‖_F``.
        """
        l_alpha = 2.0 * max(
            np.linalg.norm(self.gram_source, 2) / self.n**2,
            np.linalg.norm(self.gram_target, 2) / self.m**2,
        )
        max_norm_s = max(np.linalg.norm(b) for b in self.source_bases)
        max_norm_t = max(np.linalg.norm(b) for b in self.target_bases)
        l_pi = 4.0 * max_norm_s * max_norm_t
        return float(l_alpha), float(l_pi)


def _gram(bases: list[np.ndarray]) -> np.ndarray:
    k = len(bases)
    gram = np.empty((k, k))
    for p in range(k):
        for q in range(p, k):
            gram[p, q] = gram[q, p] = float(np.sum(bases[p] * bases[q]))
    return gram
