"""Alignment quality metrics.

The paper evaluates with Hit@k: the percentage of ground-truth source
nodes whose true target lands in the top-k candidates of the plan row.
All ground-truth correspondences are used (no train/test split — the
methods are unsupervised).

Every metric accepts either a dense ``n × m`` array or a
``scipy.sparse`` matrix (the partitioned pipeline's stitched plans).
The sparse path ranks each row's stored entries against its implicit
zeros directly — it never densifies — and is **exactly** equal to the
dense computation: the mid-rank counts are integers either way, so the
two paths agree bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ShapeError
from repro.utils.validation import check_plan, sorted_csr


def hits_at_k(plan, ground_truth: np.ndarray, k: int) -> float:
    """Hit@k in **percent** (0-100), matching the paper's tables.

    Parameters
    ----------
    plan:
        ``n × m`` soft correspondence scores (dense array or sparse
        matrix; sparse plans are evaluated without densification).
    ground_truth:
        ``t × 2`` array of (source, target) anchor pairs.
    k:
        Number of candidates considered per source node.
    """
    plan, gt = _validate(plan, ground_truth)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if gt.shape[0] == 0:
        return 0.0
    rank = _rank_true_targets(plan, gt)
    return float(np.mean(rank < k) * 100.0)


def mean_reciprocal_rank(plan, ground_truth: np.ndarray) -> float:
    """MRR of the true target within each plan row (in [0, 1])."""
    plan, gt = _validate(plan, ground_truth)
    if gt.shape[0] == 0:
        return 0.0
    rank = _rank_true_targets(plan, gt) + 1.0
    return float(np.mean(1.0 / rank))


def _rank_true_targets(plan, gt: np.ndarray) -> np.ndarray:
    """Mid-rank of every ground-truth target, dense or sparse plan."""
    if sp.issparse(plan):
        return _sparse_mid_rank(plan, gt)
    rows = plan[gt[:, 0]]
    true_scores = rows[np.arange(gt.shape[0]), gt[:, 1]]
    return _mid_rank(rows, true_scores)


def _mid_rank(rows: np.ndarray, true_scores: np.ndarray) -> np.ndarray:
    """0-based rank of the true score with mid-rank tie handling.

    A plan row where every candidate ties (e.g. a zero feature vector
    under cosine similarity) must not count its true target as rank 0;
    mid-rank places it in the middle of its tie group, the standard
    unbiased convention.
    """
    strictly_larger = np.sum(rows > true_scores[:, None], axis=1)
    ties = np.sum(rows == true_scores[:, None], axis=1) - 1  # exclude self
    return strictly_larger + 0.5 * ties


def _sparse_mid_rank(plan: sp.csr_array, gt: np.ndarray) -> np.ndarray:
    """Mid-rank over a CSR plan, counting implicit zeros analytically.

    Per ground-truth pair: the stored entries of the row are compared
    against the true score directly, and the ``m − nnz`` implicit
    zeros join the strictly-larger count (when the true score is
    negative) or the tie group (when it is zero).  Identical, bit for
    bit, to :func:`_mid_rank` on the densified row.
    """
    m = plan.shape[1]
    indptr, indices, data = plan.indptr, plan.indices, plan.data
    ranks = np.empty(gt.shape[0])
    for i, (row, col) in enumerate(gt):
        lo, hi = indptr[row], indptr[row + 1]
        row_idx = indices[lo:hi]
        row_val = data[lo:hi]
        pos = np.searchsorted(row_idx, col)
        stored = pos < row_idx.size and row_idx[pos] == col
        true = float(row_val[pos]) if stored else 0.0
        implicit = m - row_val.size
        larger = int(np.sum(row_val > true))
        ties = int(np.sum(row_val == true)) - 1
        if true < 0.0:
            larger += implicit
        elif true == 0.0:
            # the implicit zeros tie with the true score; when the true
            # entry is itself implicit it is part of ``implicit`` and
            # the −1 self-exclusion above already accounts for it
            ties += implicit
        ranks[i] = larger + 0.5 * ties
    return ranks


def sparse_topk(plan, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k candidate columns and scores per row, without densifying.

    Returns ``(cols, scores)`` of shape ``(n, k)``: per row the stored
    entries ordered by decreasing score (ties by increasing column),
    padded with column ``-1`` / score ``0.0`` when a row stores fewer
    than ``k`` entries.  Accepts dense input too (for API symmetry).
    The plan passes :func:`~repro.utils.validation.check_plan` first,
    so a non-finite entry raises instead of ranking.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    csr = sorted_csr(check_plan(plan))
    n = csr.shape[0]
    cols = np.full((n, k), -1, dtype=np.int64)
    scores = np.zeros((n, k))
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    if data.size == 0:
        return cols, scores
    counts = np.diff(indptr)
    row_of = np.repeat(np.arange(n), counts)
    # one global sort: by row, then decreasing score, then column —
    # each row's span comes out in exactly the per-row ranking order
    order = np.lexsort((indices, -data, row_of))
    take = np.minimum(counts, k)
    starts = indptr[:-1]
    # slot j of row i reads the j-th entry of the row's sorted span
    out_rows = np.repeat(np.arange(n), take)
    slots = np.arange(take.sum()) - np.repeat(
        np.cumsum(take) - take, take
    )
    picked = order[np.repeat(starts, take) + slots]
    cols[out_rows, slots] = indices[picked]
    scores[out_rows, slots] = data[picked]
    return cols, scores


def alignment_accuracy(matching: np.ndarray, ground_truth: np.ndarray) -> float:
    """Fraction (percent) of anchors whose discrete match is correct.

    Ground-truth indices must be non-negative in both columns: a
    negative source index would wrap to the last rows, and a negative
    target would count a row the decoder left unmatched (``-1``) as
    correct.
    """
    matching = np.asarray(matching, dtype=np.int64)
    gt = np.asarray(ground_truth, dtype=np.int64)
    if gt.ndim != 2 or gt.shape[1] != 2:
        raise ShapeError(f"ground_truth must be t x 2, got shape {gt.shape}")
    if gt.shape[0] == 0:
        return 0.0
    if gt[:, 0].max() >= matching.shape[0]:
        raise ShapeError("ground truth references nodes beyond the matching")
    if gt.min() < 0:
        raise ShapeError("ground truth indices must be non-negative")
    return float(np.mean(matching[gt[:, 0]] == gt[:, 1]) * 100.0)


def evaluate_plan(
    plan, ground_truth: np.ndarray, ks=(1, 5, 10, 30)
) -> dict[str, float]:
    """Hit@k for each requested k plus MRR, as a flat dict.

    The mid-ranks are computed once and every metric is derived from
    them — on sparse plans this avoids re-validating (and re-copying)
    the matrix per metric.
    """
    for k in ks:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
    plan, gt = _validate(plan, ground_truth)
    if gt.shape[0] == 0:
        return {f"hits@{k}": 0.0 for k in ks} | {"mrr": 0.0}
    rank = _rank_true_targets(plan, gt)
    report = {f"hits@{k}": float(np.mean(rank < k) * 100.0) for k in ks}
    report["mrr"] = float(np.mean(1.0 / (rank + 1.0)))
    return report


def decoded_ranks(decoded, gt: np.ndarray) -> np.ndarray:  #: pinned
    """Per-ground-truth-pair mid-ranks of a decoded matching.

    For ``posterior_ranked`` decodings (row-argmax) the decoder's
    candidate ordering *is* the plan's own, so the ranks are exactly
    :func:`_rank_true_targets` on the plan — the pre-decode-stage
    evaluate path, bit for bit (pinned by ``repro lint``).

    For every other decoder the discrete matching overrides the
    posterior at rank 0: the matched cell is promoted to the front of
    its row's ranking and the remaining candidates keep the plan's
    mid-rank order behind it.  Concretely, relative to the plan
    mid-rank ``base`` of the true target:

    * decoder matched the true target → rank 0 (a Hit@1);
    * decoder left the source unmatched → ``max(base, 1)`` — an
      unmatch hypothesis occupies rank 0, everything else shifts
      behind it;
    * decoder matched a different target → ``base`` plus the promoted
      cell's displacement (0 when the plan already ranked it above the
      true target, 0.5 when they tied, 1 when it was below).

    Under this convention ``mean(rank < 1)`` is exactly the decoder's
    discrete matching accuracy, while Hit@k for k > 1 and MRR still
    reward a posterior that kept the true target near the front.
    """
    plan = decoded.plan
    if decoded.posterior_ranked:
        return _rank_true_targets(plan, gt)
    # lazy import: decode.py lazily imports this module for sparse_topk
    from repro.engine.decode import _cell_scores

    base = _rank_true_targets(plan, gt)
    matched_col = decoded.matching[gt[:, 0]]
    true_scores = _cell_scores(plan, gt[:, 0], gt[:, 1])
    ranks = np.maximum(base, 1.0)  # default: unmatched source rows
    matched = matched_col >= 0
    if np.any(matched):
        m_scores = _cell_scores(plan, gt[matched, 0], matched_col[matched])
        displaced = (
            base[matched]
            + np.where(m_scores > true_scores[matched], 0.0, 0.5)
            + np.where(m_scores < true_scores[matched], 0.5, 0.0)
        )
        ranks[matched] = displaced
    ranks[matched_col == gt[:, 1]] = 0.0
    return ranks


def evaluate_decoded(
    decoded, ground_truth: np.ndarray, ks=(1, 5, 10, 30)
) -> dict[str, float]:
    """Hit@k plus MRR of a :class:`DecodedMatching`, as a flat dict.

    The same report shape as :func:`evaluate_plan`, computed from
    :func:`decoded_ranks` — on ``posterior_ranked`` decodings the two
    are bitwise-identical.
    """
    for k in ks:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
    _, gt = _validate(decoded.plan, ground_truth)
    if gt.shape[0] == 0:
        return {f"hits@{k}": 0.0 for k in ks} | {"mrr": 0.0}
    rank = decoded_ranks(decoded, gt)
    report = {f"hits@{k}": float(np.mean(rank < k) * 100.0) for k in ks}
    report["mrr"] = float(np.mean(1.0 / (rank + 1.0)))
    return report


def unmatchable_detection(
    scores: np.ndarray,
    matchable_mask: np.ndarray,
    threshold: float = 0.5,
) -> dict[str, float]:
    """Precision/recall of unmatchable-node detection from shed scores.

    The partial backends emit a per-node score in [0, 1] — the
    fraction of the node's mass shed to the dummy sink (or, for the
    unbalanced solve, its marginal shortfall).  Against the pair's
    matchable mask this is a binary detection problem with the
    **unmatchable** nodes as the positive class.

    Returns ``precision``/``recall``/``f1`` at ``threshold`` plus the
    threshold-free ``average_precision`` (area under the PR curve via
    the standard rank-then-average construction) and the class counts.
    A pair with no unmatchable nodes (overlap 1.0) has vacuous targets:
    recall and average precision are 1.0, and precision is 1.0 exactly
    when nothing is flagged.
    """
    scores = np.asarray(scores, dtype=np.float64)
    mask = np.asarray(matchable_mask, dtype=bool)
    if scores.ndim != 1 or mask.shape != scores.shape:
        raise ShapeError(
            f"scores and matchable_mask must be 1-D of equal length, got "
            f"{scores.shape} and {mask.shape}"
        )
    positives = ~mask
    n_pos = int(positives.sum())
    predicted = scores >= threshold
    tp = int(np.sum(predicted & positives))
    fp = int(np.sum(predicted & ~positives))
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / n_pos if n_pos else 1.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if (precision + recall)
        else 0.0
    )
    if n_pos:
        order = np.argsort(-scores, kind="stable")
        hits = positives[order]
        cum_tp = np.cumsum(hits)
        prec_at_rank = cum_tp / np.arange(1, scores.size + 1)
        average_precision = float(prec_at_rank[hits].sum() / n_pos)
    else:
        average_precision = 1.0
    return {
        "precision": float(precision),
        "recall": float(recall),
        "f1": float(f1),
        "average_precision": average_precision,
        "n_unmatchable": n_pos,
        "n_flagged": tp + fp,
    }


def _validate(plan, ground_truth):
    plan = check_plan(plan)
    gt = np.asarray(ground_truth, dtype=np.int64)
    if gt.ndim != 2 or gt.shape[1] != 2:
        raise ShapeError(f"ground_truth must be t x 2, got shape {gt.shape}")
    if gt.size:
        if gt[:, 0].max() >= plan.shape[0] or gt[:, 1].max() >= plan.shape[1]:
            raise ShapeError("ground truth indices exceed plan dimensions")
        if gt.min() < 0:
            raise ShapeError("ground truth indices must be non-negative")
    return plan, gt
