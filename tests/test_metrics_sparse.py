"""Sparse evaluation path: exact dense parity and the no-densify guard.

Two contracts:

1. ``hits_at_k`` / ``mean_reciprocal_rank`` / ``evaluate_plan`` on a
   CSR plan equal the dense computation **exactly** (the mid-rank
   counts are integers on both paths — not approximately, bit for bit);
2. nothing in the sparse evaluation pipeline densifies: with
   ``toarray`` monkeypatched to raise, metrics, top-k and the
   partitioned aligner's accessors all still work, and
   ``PartitionedAlignment.dense_plan`` refuses plans above the guard
   threshold.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.eval import (
    evaluate_plan,
    hits_at_k,
    mean_reciprocal_rank,
    sparse_topk,
)
from repro.exceptions import GraphError, ShapeError
from repro.scale import DENSE_GUARD_ENTRIES, PartitionedAlignment


def random_sparse_case(seed, with_negatives=False, with_empty_row=False):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(3, 40)), int(rng.integers(3, 40))
    dense = rng.random((n, m))
    dense[rng.random((n, m)) < 0.7] = 0.0
    if with_negatives:
        dense[rng.integers(0, n), rng.integers(0, m)] = -0.5
    if with_empty_row:
        dense[rng.integers(0, n), :] = 0.0
    t = int(rng.integers(1, min(n, m)))
    gt = np.column_stack(
        [rng.permutation(n)[:t], rng.integers(0, m, size=t)]
    )
    return dense, sp.csr_array(dense), gt


class TestSparseDenseParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_hits_and_mrr_exactly_equal(self, seed):
        dense, csr, gt = random_sparse_case(
            seed, with_negatives=seed % 3 == 0, with_empty_row=seed % 4 == 0
        )
        for k in (1, 2, 5, 100):
            assert hits_at_k(dense, gt, k) == hits_at_k(csr, gt, k)
        assert mean_reciprocal_rank(dense, gt) == mean_reciprocal_rank(csr, gt)

    def test_evaluate_plan_parity(self):
        dense, csr, gt = random_sparse_case(99)
        assert evaluate_plan(dense, gt) == evaluate_plan(csr, gt)

    def test_other_sparse_formats_accepted(self):
        dense, csr, gt = random_sparse_case(7)
        for converted in (csr.tocoo(), csr.tocsc(), sp.lil_array(csr)):
            assert hits_at_k(converted, gt, 1) == hits_at_k(dense, gt, 1)

    def test_sparse_validation_errors(self):
        csr = sp.csr_array(np.eye(4))
        with pytest.raises(ShapeError):
            hits_at_k(csr, np.array([[0, 9]]), 1)  # column out of range
        with pytest.raises(ValueError):
            hits_at_k(csr, np.array([[0, 0]]), 0)  # bad k


class TestSparseTopk:
    def test_matches_dense_ranking(self):
        dense, csr, _ = random_sparse_case(3)
        cols, scores = sparse_topk(csr, 3)
        for i in range(dense.shape[0]):
            nonzero = np.flatnonzero(dense[i])
            expected = sorted(nonzero, key=lambda j: (-dense[i, j], j))[:3]
            got = [c for c in cols[i] if c != -1]
            assert got == list(expected)
            np.testing.assert_array_equal(
                scores[i, : len(got)], dense[i, got]
            )

    def test_short_rows_padded(self):
        csr = sp.csr_array(np.array([[0.0, 0.5], [0.0, 0.0]]))
        cols, scores = sparse_topk(csr, 3)
        assert cols[0].tolist() == [1, -1, -1]
        assert cols[1].tolist() == [-1, -1, -1]
        assert scores[1].tolist() == [0.0, 0.0, 0.0]

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            sparse_topk(sp.csr_array((2, 2)), 0)


class TestNoDensification:
    """Above the guard threshold nothing may call ``toarray``."""

    def big_alignment(self):
        # 2100 x 2100 > DENSE_GUARD_ENTRIES, but only a diagonal stored
        n = 2100
        assert n * n > DENSE_GUARD_ENTRIES
        plan = sp.csr_array(
            (np.full(n, 0.9), (np.arange(n), np.arange(n))), shape=(n, n)
        )
        return PartitionedAlignment(
            plan=plan, partitions=[(np.arange(n), np.arange(n))],
            block_results=[],
        )

    def test_metrics_never_densify(self, monkeypatch):
        out = self.big_alignment()
        gt = np.column_stack([np.arange(0, 2000, 7), np.arange(0, 2000, 7)])

        def boom(self, *a, **k):  # pragma: no cover - must not trigger
            raise AssertionError("sparse evaluation path called toarray()")

        monkeypatch.setattr(sp.csr_array, "toarray", boom)
        monkeypatch.setattr(sp.coo_array, "toarray", boom)
        assert hits_at_k(out.plan, gt, 1) == 100.0
        assert mean_reciprocal_rank(out.plan, gt) == 1.0
        cols, _ = sparse_topk(out.plan, 5)
        assert np.array_equal(cols[:, 0], np.arange(2100))
        assert np.array_equal(out.decode().matching, np.arange(2100))
        report = evaluate_plan(out.plan, gt, ks=(1, 5))
        assert report["hits@1"] == 100.0

    def test_dense_plan_guard(self):
        out = self.big_alignment()
        with pytest.raises(GraphError):
            out.dense_plan()
        forced = out.dense_plan(force=True)
        assert forced.shape == (2100, 2100)

    def test_small_plans_still_densify(self):
        n = 10
        plan = sp.csr_array(np.eye(n))
        out = PartitionedAlignment(
            plan=plan, partitions=[(np.arange(n), np.arange(n))],
            block_results=[],
        )
        np.testing.assert_array_equal(out.dense_plan(), np.eye(n))
