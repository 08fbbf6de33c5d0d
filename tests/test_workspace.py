"""Tests for the preallocated kernel workspace (repro.ot.workspace).

The float32 fast path's performance claim rests on two structural
properties of :mod:`repro.ot.workspace`:

* a :class:`Workspace` owns every scratch buffer for a given
  ``(capacity, n, m, dtype)``, sized once at construction;
* the steady state of the workspace Sinkhorn kernel performs **no
  plan-sized allocation** — the ``tracemalloc`` assertion that pins
  the "allocator traffic eliminated from ``pi_update``" claim.
"""

import tracemalloc

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.ot.sinkhorn import (
    F32_SINKHORN_TOL,
    sinkhorn_log_kernel_fast,
    sinkhorn_log_kernel_fast_workspace,
)
from repro.ot.workspace import Workspace


def load_kernels(workspace, r, seed=0):
    """Seeded log kernels into the workspace; returns (mu, nu)."""
    rng = np.random.default_rng(seed)
    n, m = workspace.n, workspace.m
    workspace.log_kernel[:r] = rng.standard_normal((r, n, m)).astype(
        workspace.dtype
    )
    mu = np.full(n, 1.0 / n)
    nu = np.full(m, 1.0 / m)
    workspace.set_marginals(mu, nu)
    return mu, nu


class TestWorkspace:
    def test_buffers_have_the_contracted_shapes_and_dtype(self):
        ws = Workspace(4, 9, 7, np.float32)
        assert ws.plans.shape == (4, 9, 7)
        assert ws.new_plans.shape == (4, 9, 7)
        assert ws.tp.shape == (4, 7, 9)
        assert ws.d_s.shape == (4, 9, 9)
        assert ws.d_t.shape == (4, 7, 7)
        assert ws.u.shape == (4, 9, 1)
        assert ws.v.shape == (4, 7, 1)
        assert ws.mu_col.shape == (9, 1)
        assert ws.nu_col.shape == (7, 1)
        for name in ("plans", "grad", "kernel", "u", "v", "mu_col"):
            assert getattr(ws, name).dtype == np.float32, name

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Workspace(0, 4, 4)

    def test_set_marginals_casts_into_the_broadcast_columns(self):
        ws = Workspace(1, 5, 4, np.float32)
        mu = np.full(5, 0.2)
        nu = np.full(4, 0.25)
        ws.set_marginals(mu, nu)
        np.testing.assert_allclose(ws.mu_col[:, 0], mu, rtol=1e-6)
        np.testing.assert_allclose(ws.nu_col[:, 0], nu, rtol=1e-6)
        assert ws.mu_col.dtype == np.float32

    def test_nbytes_counts_every_buffer(self):
        small = Workspace(1, 4, 4, np.float32)
        large = Workspace(8, 4, 4, np.float32)
        assert 0 < small.nbytes < large.nbytes

    def test_einsum_path_is_memoised_per_shape(self):
        ws = Workspace(2, 6, 5)
        a = np.zeros((6, 5))
        b = np.zeros((5, 5))
        first = ws.einsum_path("ij,jk->ik", a, b)
        assert ws.einsum_path("ij,jk->ik", a, b) is first

    def test_cast_is_memoised_by_source_identity(self):
        ws = Workspace(1, 4, 4, np.float32)
        source = np.arange(6, dtype=np.float64)
        first = ws.cast("bases", source)
        assert first.dtype == np.float32
        assert ws.cast("bases", source) is first
        # a different array under the same name is a different entry
        other = ws.cast("bases", source.copy())
        assert other is not first


class TestWorkspaceKernel:
    def test_rejects_out_of_capacity_slices(self):
        ws = Workspace(2, 6, 5, np.float32)
        load_kernels(ws, 2)
        with pytest.raises(ShapeError):
            sinkhorn_log_kernel_fast_workspace(ws, 3)
        with pytest.raises(ShapeError):
            sinkhorn_log_kernel_fast_workspace(ws, 0)

    def test_matches_the_serial_fast_kernel_per_slice(self):
        """Float64 workspace kernel ≡ the pinned serial kernel, slice by
        slice — the per-slice bitwise contract coalescing relies on."""
        r, n, m = 3, 12, 10
        ws = Workspace(r, n, m, np.float64)
        mu, nu = load_kernels(ws, r, seed=3)
        log_kernels = ws.log_kernel[:r].copy()
        sinkhorn_log_kernel_fast_workspace(ws, r, max_iter=40, tol=0.0)
        for index in range(r):
            reference = sinkhorn_log_kernel_fast(
                log_kernels[index], mu, nu, max_iter=40, tol=0.0
            )
            np.testing.assert_array_equal(
                ws.new_plans[index], reference.plan,
                err_msg=f"slice {index} diverged from the serial kernel",
            )

    def test_inner_loop_allocates_no_plan_sized_buffers(self):
        """The workspace claim itself: after warm-up, a full kernel run
        performs no allocation as large as one ``(n, m)`` plan."""
        r, n, m = 3, 48, 40
        ws = Workspace(r, n, m, np.float32)
        load_kernels(ws, r, seed=1)
        sinkhorn_log_kernel_fast_workspace(
            ws, r, max_iter=30, tol=F32_SINKHORN_TOL
        )  # warm-up: einsum paths, lazily-created ufunc state
        load_kernels(ws, r, seed=2)
        plan_bytes = n * m * ws.dtype.itemsize
        tracemalloc.start()
        sinkhorn_log_kernel_fast_workspace(
            ws, r, max_iter=30, tol=F32_SINKHORN_TOL
        )
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        stats = snapshot.statistics("lineno")
        big = [stat for stat in stats if stat.size >= plan_bytes]
        assert big == [], (
            "plan-sized allocations in the steady-state kernel: "
            + "; ".join(str(stat) for stat in big)
        )
        # belt and braces: bookkeeping scalars are all that remains
        assert sum(stat.size for stat in stats) < 4 * plan_bytes
