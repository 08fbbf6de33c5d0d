"""Anchor-based boundary repair for stitched partition plans.

Partitioned alignment loses exactly the correspondences that cross the
partition cut: a ground-truth pair ``(s, t)`` whose target node ``t``
was assigned to a different part than ``s`` gets plan mass zero, no
matter how well the blocks themselves are solved.  This pass recovers
those pairs from the information the blocks *did* get right:

1. **anchors** — high-confidence matched pairs (mutual argmax of the
   stitched plan): the blocks align the interiors of well-assigned
   regions correctly, and those pairs act as a noisy seed alignment;
2. **agreement scores** — for a candidate pair ``(u, t)`` count the
   anchors ``(a_s, a_t)`` with ``a_s ∈ N(u)`` and ``a_t ∈ N(t)``.
   With anchor selector ``S`` (ones at anchor pairs) this is one sparse
   triple product ``A_src · S · A_tgt``, never densified;
3. **re-scoring** — every *boundary* target node (≥ 1 cut edge under
   the target partition; a misassigned node's neighbours live in the
   part it should have joined, so it is essentially always on the cut)
   is re-scored against source rows of **adjacent** blocks.  When the
   cross-part agreement strictly beats the row's current in-part
   agreement, the stitched plan is patched: the new pair receives just
   over the row's current maximum and the row is rescaled to preserve
   its mass, so the patched plan keeps the original marginals up to
   the (few) repaired rows.

The pass is plain post-processing on the stitched plan — it never
re-runs a block solver — so parallel and serial pipelines feed it
bit-identical inputs and it cannot break the executor's bitwise
contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import AttributedGraph
from repro.graphs.partition import (
    adjacent_parts,
    boundary_nodes,
    partition_assignment,
)

_MIN_AGREEMENT = 2.0
"""Minimum anchor-agreement count for a cross-part patch: a pair
supported by a single anchor is indistinguishable from noise."""

_PATCH_BOOST = 1.0625
"""A repaired entry is set to this multiple of the row's previous
maximum: enough to win the argmax outright (and survive the row's mass
rescaling) without distorting the row distribution."""


@dataclass
class RepairStats:
    """Bookkeeping from one boundary-repair pass."""

    n_anchors: int = 0
    n_boundary_source: int = 0
    n_boundary_target: int = 0
    n_candidates: int = 0
    n_patched: int = 0
    patched_pairs: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "n_anchors": self.n_anchors,
            "n_boundary_source": self.n_boundary_source,
            "n_boundary_target": self.n_boundary_target,
            "n_candidates": self.n_candidates,
            "n_patched": self.n_patched,
            "patched_pairs": [tuple(p) for p in self.patched_pairs],
        }


def collect_anchors(plan: sp.csr_array) -> np.ndarray:
    """Mutual-argmax pairs of a sparse plan, as a ``k × 2`` array.

    A pair ``(u, t)`` is an anchor when ``t`` is the (unique-by-first)
    argmax of row ``u`` *and* ``u`` is the argmax of column ``t`` —
    the standard reciprocal-best-match filter, cheap and surprisingly
    precise on block-solved plans.
    """
    csr = sp.csr_array(plan)
    row_best = _sparse_row_argmax(csr)
    col_best = _sparse_row_argmax(sp.csr_array(csr.T))
    rows = np.flatnonzero(row_best >= 0)
    mutual = rows[col_best[row_best[rows]] == rows]
    return np.column_stack([mutual, row_best[mutual]]).astype(np.int64)


def anchor_agreement(
    source: AttributedGraph,
    target: AttributedGraph,
    anchors: np.ndarray,
) -> sp.csr_array:
    """``n × m`` sparse count of neighbouring anchors per candidate pair.

    ``agreement[u, t] = |{(a_s, a_t) ∈ anchors : a_s ~ u, a_t ~ t}|``.
    """
    n, m = source.n_nodes, target.n_nodes
    anchors = np.asarray(anchors, dtype=np.int64).reshape(-1, 2)
    if anchors.shape[0] == 0:
        return sp.csr_array((n, m))
    selector = sp.csr_array(
        (
            np.ones(anchors.shape[0]),
            (anchors[:, 0], anchors[:, 1]),
        ),
        shape=(n, m),
    )
    return sp.csr_array(source.adjacency @ selector @ target.adjacency)


def repair_plan(
    source: AttributedGraph,
    target: AttributedGraph,
    plan: sp.csr_array,
    source_parts: list[np.ndarray],
    target_parts: list[np.ndarray],
) -> tuple[sp.csr_array, RepairStats]:
    """Patch cross-part correspondences back into a stitched plan.

    A candidate needs at least :data:`_MIN_AGREEMENT` supporting
    anchors.  Returns the patched plan (CSR, same shape) and a
    :class:`RepairStats`.
    """
    stats = RepairStats()
    n, m = plan.shape
    src_assign = partition_assignment(source_parts, n)
    tgt_assign = partition_assignment(target_parts, m)
    boundary_t = boundary_nodes(target, tgt_assign)
    stats.n_boundary_source = int(boundary_nodes(source, src_assign).size)
    stats.n_boundary_target = int(boundary_t.size)
    if boundary_t.size == 0:
        return sp.csr_array(plan), stats

    anchors = collect_anchors(plan)
    stats.n_anchors = int(anchors.shape[0])
    if anchors.shape[0] == 0:
        return sp.csr_array(plan), stats
    agreement = anchor_agreement(source, target, anchors)

    # candidate entries: boundary target column, different (assigned)
    # parts, and the part pair adjacent across the source cut
    neighbours = adjacent_parts(source, src_assign)
    coo = agreement.tocoo()
    is_boundary_t = np.zeros(m, dtype=bool)
    is_boundary_t[boundary_t] = True
    part_u = src_assign[coo.row]
    part_t = tgt_assign[coo.col]
    keep = (
        is_boundary_t[coo.col]
        & (part_u >= 0)
        & (part_t >= 0)
        & (part_u != part_t)
        & (coo.data >= _MIN_AGREEMENT)
    )
    # adjacency restriction (vectorised lookup table — the agreement
    # matrix scales with anchor-degree products, so a per-entry Python
    # loop here would dominate the repair pass on large pairs); with
    # no adjacent part pairs there is nothing to re-score against and
    # every cross-part candidate is rejected
    n_parts = len(source_parts)
    adj_table = np.zeros((n_parts, n_parts), dtype=bool)
    for i, j in neighbours:
        adj_table[i, j] = adj_table[j, i] = True
    surviving = np.flatnonzero(keep)
    keep[surviving] &= adj_table[part_u[surviving], part_t[surviving]]
    cand_row = coo.row[keep]
    cand_col = coo.col[keep]
    cand_val = coo.data[keep]
    stats.n_candidates = int(cand_row.size)
    if cand_row.size == 0:
        return sp.csr_array(plan), stats

    # normalise agreement by degree: a raw anchor count scales with the
    # endpoint degrees (hub columns collect spurious agreement), while
    # count / sqrt(deg_u · deg_t) ≈ 1 exactly when u's matched
    # neighbourhood is t's neighbourhood — the true correspondence
    deg_s = np.maximum(source.degrees, 1.0)
    deg_t = np.maximum(target.degrees, 1.0)

    def normalised(u: int, t: int, count: float) -> float:
        return count / float(np.sqrt(deg_s[u] * deg_t[t]))

    # per candidate row: best cross-part agreement vs the agreement of
    # the row's current in-part match
    best_val: dict[int, float] = {}
    best_col: dict[int, int] = {}
    for u, t, v in zip(cand_row, cand_col, cand_val):
        u, t = int(u), int(t)
        v = normalised(u, t, float(v))
        if v > best_val.get(u, 0.0):
            best_val[u] = v
            best_col[u] = t
    csr = sp.csr_array(plan)
    row_best = _sparse_row_argmax(csr)
    agreement_csr = sp.csr_array(agreement)

    # gate first: a claimant must beat its own current in-part
    # agreement before it may compete for a column — gating after the
    # per-column selection would let a strong but already-well-matched
    # row shadow the genuinely misassigned runner-up and leave the
    # column unpatched entirely
    for u in list(best_val):
        cur = int(row_best[u])
        current_agreement = (
            normalised(u, cur, float(agreement_csr[u, cur]))
            if cur >= 0
            else 0.0
        )
        if best_val[u] <= current_agreement:
            del best_val[u]
            del best_col[u]

    # one claim per target column: when several surviving rows want
    # the same boundary target, only the strongest agreement can be
    # the true correspondence — patching them all would smear the
    # column
    strongest: dict[int, int] = {}
    for u, t in best_col.items():
        if t not in strongest or best_val[u] > best_val[strongest[t]]:
            strongest[t] = u
    winners = set(strongest.values())

    add_rows: list[int] = []
    add_cols: list[int] = []
    add_vals: list[float] = []
    row_scale = np.ones(n)
    for u in sorted(winners):
        t_new = best_col[u]
        lo, hi = csr.indptr[u], csr.indptr[u + 1]
        row_sum = float(csr.data[lo:hi].sum()) if hi > lo else 0.0
        row_max = float(csr.data[lo:hi].max()) if hi > lo else 0.0
        new_val = _PATCH_BOOST * row_max if row_max > 0 else 1.0 / m
        add_rows.append(u)
        add_cols.append(t_new)
        add_vals.append(new_val)
        if row_sum > 0:
            # preserve the row's mass after the new entry is added
            row_scale[u] = row_sum / (row_sum + new_val)
        stats.patched_pairs.append((int(u), int(t_new)))
    stats.n_patched = len(stats.patched_pairs)
    if not add_rows:
        return csr, stats
    # patched entries are structural zeros of the stitched plan (they
    # cross the partition), so sparse addition acts as assignment
    additions = sp.csr_array(
        (np.asarray(add_vals), (np.asarray(add_rows), np.asarray(add_cols))),
        shape=(n, m),
    )
    scaled = sp.diags_array(row_scale) @ (csr + additions)
    return sp.csr_array(scaled), stats


def _sparse_row_argmax(csr: sp.csr_array) -> np.ndarray:
    """Argmax column per row of a non-negative CSR (−1 for empty rows).

    Ties break to the lowest column index among stored entries, which
    is deterministic and matches ``np.argmax`` on the dense row when
    the maximum is positive.  Rows whose stored maximum is ≤ 0 report
    no confident match (a dense argmax would pick an implicit zero).
    Fully vectorised over the CSR segments — this runs three times per
    repair pass, over every row and column of the stitched plan.
    """
    csr = sp.csr_array(csr)
    if not csr.has_sorted_indices:
        # copy before sorting: csr_array(other) shares buffers and an
        # in-place sort would reorder the caller's arrays
        csr = csr.copy()
        csr.sort_indices()
    n = csr.shape[0]
    out = np.full(n, -1, dtype=np.int64)
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    if data.size == 0:
        return out
    counts = np.diff(indptr)
    nonempty = np.flatnonzero(counts > 0)
    row_max = np.zeros(n)
    row_max[nonempty] = np.maximum.reduceat(data, indptr[nonempty])
    row_of = np.repeat(np.arange(n), counts)
    hits = np.flatnonzero(data == row_max[row_of])
    # entries are sorted by column within each row, so the first
    # maximal entry per row is the lowest-column tie-break
    hit_rows, first = np.unique(row_of[hits], return_index=True)
    out[hit_rows] = indices[hits[first]]
    out[row_max <= 0] = -1
    return out
