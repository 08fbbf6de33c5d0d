"""Bitwise pins for the π-update projections' exp fast path.

The balanced fast kernels write row-shifted log-kernel entries below
``_LOG_FLUSH`` (float32: ``_LOG_FLUSH32``) as exact zeros instead of
exponentiating them, and the shared ``_logsumexp_rows`` floors its
shifted argument at ``_LSE_FLOOR`` on rows with a finite maximum.  Both
only keep ``np.exp`` off its underflow slow path: every plan bit,
iteration count and error must stay what the code computed before.

The ``_ref_*`` functions below are copies of that earlier code (every
entry exponentiated, nothing floored).  The balanced-kernel copies
report the column-marginal error and the in-loop convergence flag, the
reporting the kernels use now.  ``_ref_unbalanced`` is the log-domain
loop the KL-relaxed kernel replaced by an exponentiate-once scaling;
that kernel sums in a different order, so it is held to fixed
tolerances instead of bits.  Hypothesis draws log kernels whose
row-shifted entries straddle every band edge of ``np.exp``:

* float64: -745.2 (result underflows to zero), -708.4 (subnormal
  results), -708.2 (``_LOG_FLUSH``), -708.1 (``_SUBNORMAL_FLUSH``),
  -700 (``_LSE_FLOOR``), plus normal values;
* float32: -103 (subnormal results), -87.3 (smallest normal), -86.4
  (``_SUBNORMAL_FLUSH32``) and ``_LOG_FLUSH32`` itself;
* for the logsumexp helper, also whole rows of -inf.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ot import sinkhorn_log
from repro.ot.sinkhorn import (
    _LOG_FLUSH,
    _LOG_FLUSH32,
    _LSE_FLOOR,
    _SUBNORMAL_FLUSH,
    F32_SINKHORN_TOL,
    SinkhornResult,
    _flush_constants,
    _logsumexp_rows,
    sinkhorn_log_kernel_fast,
    sinkhorn_log_kernel_fast_batched,
    sinkhorn_log_kernel_fast_workspace,
)
from repro.ot.unbalanced import sinkhorn_unbalanced_log_kernel
from repro.ot.workspace import Workspace
from repro.utils.validation import check_probability_vector

EDGES64 = (-745.2, -708.4, _LOG_FLUSH, -708.1, _LSE_FLOOR)
EDGES32 = (-103.0, -87.3, _LOG_FLUSH32, -86.4)
JITTER64 = (-1e-3, -1e-9, -1e-13, 0.0, 1e-13, 1e-9, 1e-3)
JITTER32 = (-1e-3, -1e-5, 0.0, 1e-5, 1e-3)


# ---------------------------------------------------------------------------
# reference copies of the code before the fast path
# ---------------------------------------------------------------------------
def _ref_serial(log_kernel, mu, nu, max_iter, tol):
    log_k = np.asarray(log_kernel, dtype=np.float64)
    row_max = log_k.max(axis=1, keepdims=True)
    kernel = np.exp(log_k - row_max)
    kernel[kernel < _SUBNORMAL_FLUSH] = 0.0
    tiny = 1e-300
    u = np.ones_like(mu)
    v = np.ones_like(nu)
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        u = mu / np.maximum(kernel @ v, tiny)
        v = nu / np.maximum(kernel.T @ u, tiny)
        if tol > 0 and iteration % 10 == 0:
            err = float(np.abs(u * (kernel @ v) - mu).sum())
            if err < tol:
                converged = True
                break
    u = mu / np.maximum(kernel @ v, tiny)
    plan = u[:, None] * kernel * v[None, :]
    plan[plan < _SUBNORMAL_FLUSH] = 0.0
    err = float(np.abs(plan.sum(axis=0) - nu).sum())
    return SinkhornResult(plan, iteration, err, converged)


def _ref_workspace(workspace, r, max_iter, tol):
    flush, tiny = _flush_constants(workspace.dtype)
    log_k = workspace.log_kernel[:r]
    row_max = workspace.row_max[:r]
    np.amax(log_k, axis=2, keepdims=True, out=row_max)
    np.subtract(log_k, row_max, out=log_k)
    kernel = workspace.kernel[:r]
    np.exp(log_k, out=kernel)
    mask = workspace.mask[:r]
    np.greater_equal(kernel, flush, out=mask)
    np.multiply(kernel, mask, out=kernel)
    kernel_t = kernel.swapaxes(1, 2)
    mu_col, nu_col = workspace.mu_col, workspace.nu_col
    u, v = workspace.u[:r], workspace.v[:r]
    kv, ktu = workspace.kv[:r], workspace.ktu[:r]
    marg = workspace.marg[:r]
    plans = workspace.new_plans[:r]
    u.fill(1.0)
    v.fill(1.0)
    frozen = np.zeros(r, dtype=bool)
    errors = np.zeros(r, dtype=np.float64)
    have_kv = False
    iteration = 0

    def close(index):
        np.maximum(kv[index], tiny, out=kv[index])
        np.divide(mu_col, kv[index], out=u[index])
        np.multiply(kernel[index], u[index], out=plans[index])
        np.multiply(plans[index], v[index].swapaxes(0, 1), out=plans[index])
        np.greater_equal(plans[index], flush, out=mask[index])
        np.multiply(plans[index], mask[index], out=plans[index])
        col = plans[index].sum(axis=0, keepdims=True).T
        errors[index] = float(np.abs(col - nu_col).sum())

    for iteration in range(1, max_iter + 1):
        if not have_kv:
            np.matmul(kernel, v, out=kv)
        have_kv = False
        np.maximum(kv, tiny, out=kv)
        np.divide(mu_col, kv, out=u)
        np.matmul(kernel_t, u, out=ktu)
        np.maximum(ktu, tiny, out=ktu)
        np.divide(nu_col, ktu, out=v)
        if tol > 0 and iteration % 10 == 0:
            np.matmul(kernel, v, out=kv)
            have_kv = True
            np.multiply(u, kv, out=marg)
            np.subtract(marg, mu_col, out=marg)
            np.abs(marg, out=marg)
            errs = marg.sum(axis=(1, 2))
            for index in range(r):
                if not frozen[index] and errs[index] < tol:
                    close(index)
                    frozen[index] = True
            if frozen.all():
                return iteration, errors, True
    if not have_kv:
        np.matmul(kernel, v, out=kv)
    for index in range(r):
        if not frozen[index]:
            close(index)
    return iteration, errors, False


def _ref_lse_sinkhorn(log_matrix):
    row_max = np.max(log_matrix, axis=1, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    return row_max.ravel() + np.log(np.sum(np.exp(log_matrix - row_max), axis=1))


def _ref_lse_unbalanced(matrix):
    shift = matrix.max(axis=1)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    return shift + np.log(np.sum(np.exp(matrix - shift[:, None]), axis=1))


def _ref_sinkhorn_log(log_k, mu, nu, max_iter, tol):
    log_mu = np.log(np.maximum(mu, 1e-300))
    log_nu = np.log(np.maximum(nu, 1e-300))
    f = np.zeros_like(log_mu)
    g = np.zeros_like(log_nu)
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        f = log_mu - _ref_lse_sinkhorn(log_k + g[None, :])
        g = log_nu - _ref_lse_sinkhorn((log_k + f[:, None]).T)
        if iteration % 5 == 0 or iteration == max_iter:
            log_plan = log_k + f[:, None] + g[None, :]
            err = float(np.abs(np.exp(_ref_lse_sinkhorn(log_plan)) - mu).sum())
            if err < tol:
                converged = True
                break
    plan = np.exp(log_k + f[:, None] + g[None, :])
    err = float(np.abs(plan.sum(axis=1) - mu).sum())
    return SinkhornResult(plan, iteration, err, converged or err < tol)


def _ref_unbalanced(log_k, mu, nu, epsilon, rho, max_iter, tol):
    exponent = rho / (rho + epsilon)
    log_mu = np.log(mu)
    log_nu = np.log(nu)
    f = np.zeros_like(mu)
    g = np.zeros_like(nu)
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        f_prev = f
        f = exponent * (log_mu - _ref_lse_unbalanced(log_k + g[None, :]))
        g = exponent * (log_nu - _ref_lse_unbalanced((log_k + f[:, None]).T))
        if float(np.abs(f - f_prev).max()) < tol:
            converged = True
            break
    plan = np.exp(f[:, None] + log_k + g[None, :])
    f_fixed = exponent * (log_mu - _ref_lse_unbalanced(log_k + g[None, :]))
    err = float(np.abs(f - f_fixed).max())
    return SinkhornResult(plan, iteration, err, converged)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
@st.composite
def band_kernels(draw, edges, jitter, offsets, stack=1, max_side=7):
    """A ``(stack, n, m)`` log kernel whose row-shifted entries sit on,
    just above and just below the given band edges."""
    n = draw(st.integers(2, max_side))
    m = draw(st.integers(2, max_side))
    entry = st.one_of(
        st.builds(
            lambda edge, delta: edge + delta,
            st.sampled_from(edges),
            st.sampled_from(jitter),
        ),
        st.floats(-60.0, 0.0),
        st.floats(-800.0, -650.0),
        st.floats(-1500.0, -750.0),
    )
    values = np.array(
        draw(st.lists(entry, min_size=stack * n * m, max_size=stack * n * m))
    ).reshape(stack, n, m)
    # every row holds its maximum 0 exactly once, at a drawn column
    columns = draw(
        st.lists(st.integers(0, m - 1), min_size=stack * n, max_size=stack * n)
    )
    values.reshape(stack * n, m)[np.arange(stack * n), columns] = 0.0
    shift = np.array(
        draw(st.lists(st.sampled_from(offsets), min_size=n, max_size=n))
    )
    return values + shift[None, :, None]


def _marginals(n, m, uniform):
    if uniform:
        return np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    rng = np.random.default_rng(n * 31 + m)
    return rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))


def _same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


OFFSETS64 = (0.0, 17.25, -350.5, 1200.0)
OFFSETS32 = (0.0, 5.5, -40.25)
kernels64 = band_kernels(EDGES64, JITTER64, OFFSETS64)
DEEP_COLUMN = np.array([[[0.0, -1113.735], [0.0, -708.2], [0.0, -1110.413]]])
budgets = st.tuples(st.sampled_from((1, 7, 20, 40)), st.sampled_from((0.0, 1e-9, 1e-3)))


# ---------------------------------------------------------------------------
# balanced kernels
# ---------------------------------------------------------------------------
class TestBalancedKernels:
    @settings(max_examples=60, deadline=None)
    @given(kernels64, budgets, st.booleans())
    def test_serial_matches_reference(self, stack, budget, uniform):
        log_kernel = stack[0]
        max_iter, tol = budget
        mu, nu = _marginals(*log_kernel.shape, uniform)
        fast = sinkhorn_log_kernel_fast(log_kernel, mu, nu, max_iter, tol)
        ref = _ref_serial(log_kernel, mu, nu, max_iter, tol)
        _same(fast.plan, ref.plan)
        assert fast.n_iterations == ref.n_iterations
        assert fast.marginal_error == ref.marginal_error
        assert fast.converged == ref.converged

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda r: band_kernels(EDGES64, JITTER64, OFFSETS64, stack=r)
        ),
        budgets,
    )
    def test_batched_matches_reference(self, stack, budget):
        max_iter, tol = budget
        mu, nu = _marginals(*stack.shape[1:], uniform=False)
        results = sinkhorn_log_kernel_fast_batched(stack, mu, nu, max_iter, tol)
        for log_kernel, fast in zip(stack, results):
            ref = _ref_serial(log_kernel, mu, nu, max_iter, tol)
            _same(fast.plan, ref.plan)
            assert fast.n_iterations == ref.n_iterations
            assert fast.marginal_error == ref.marginal_error
            assert fast.converged == ref.converged

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_workspace_matches_reference(self, dtype, data):
        f32 = dtype == np.float32
        r = data.draw(st.integers(1, 4))
        stack = data.draw(
            band_kernels(EDGES32, JITTER32, OFFSETS32, stack=r)
            if f32
            else band_kernels(EDGES64, JITTER64, OFFSETS64, stack=r)
        )
        max_iter = data.draw(st.sampled_from((1, 10, 30)))
        tol = data.draw(
            st.sampled_from((0.0, F32_SINKHORN_TOL) if f32 else (0.0, 1e-9, 1e-3))
        )
        _, n, m = stack.shape
        mu, nu = _marginals(n, m, uniform=data.draw(st.booleans()))
        outcomes = []
        for kernel_fn in (sinkhorn_log_kernel_fast_workspace, _ref_workspace):
            ws = Workspace(r, n, m, dtype)
            ws.set_marginals(mu, nu)
            ws.log_kernel[:r] = stack
            outcome = kernel_fn(ws, r, max_iter=max_iter, tol=tol)
            outcomes.append((outcome, ws.new_plans[:r].copy()))
        (its, errors, converged), plans = outcomes[0]
        (ref_its, ref_errors, ref_converged), ref_plans = outcomes[1]
        _same(plans, ref_plans)
        assert its == ref_its
        _same(errors, ref_errors)
        assert converged == ref_converged

    @pytest.mark.parametrize("edge", EDGES64)
    def test_exact_edges_serial(self, edge):
        """Entries exactly on each edge and one ulp either side."""
        row = np.array(
            [0.0, edge, np.nextafter(edge, 0.0), np.nextafter(edge, -np.inf), -3.0]
        )
        log_kernel = np.stack([row, np.roll(row, 2), row[::-1]])
        mu, nu = _marginals(3, 5, uniform=True)
        fast = sinkhorn_log_kernel_fast(log_kernel, mu, nu, 30, 1e-9)
        ref = _ref_serial(log_kernel, mu, nu, 30, 1e-9)
        _same(fast.plan, ref.plan)
        assert fast.marginal_error == ref.marginal_error

    def test_dropped_entries_are_exact_zeros(self):
        log_kernel = np.array([[0.0, _LOG_FLUSH - 1e-9, -750.0], [-2.0, 0.0, -1e4]])
        mu, nu = _marginals(2, 3, uniform=True)
        plan = sinkhorn_log_kernel_fast(log_kernel, mu, nu, 5).plan
        assert plan[0, 1] == 0.0 and plan[0, 2] == 0.0 and plan[1, 2] == 0.0
        assert not np.signbit(plan).any()

    def test_log_flush_constants_sit_below_the_subnormal_flush(self):
        """The correctness argument: exp is monotone, so everything
        below the log cut-off exponentiates below the flush."""
        assert np.exp(np.float64(_LOG_FLUSH)) < _SUBNORMAL_FLUSH
        flush32, _ = _flush_constants(np.float32)
        assert np.exp(np.float32(_LOG_FLUSH32)) < np.float32(flush32)


# ---------------------------------------------------------------------------
# log-domain helper and its callers
# ---------------------------------------------------------------------------
@st.composite
def lse_matrices(draw):
    stack = draw(kernels64)
    matrix = stack[0].copy()
    n, m = matrix.shape
    for row in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        matrix[row] = -np.inf  # whole row of -inf: exact zero sum
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), max_size=4))
    for row, col in cells:
        if np.isfinite(matrix[row]).sum() > 1 and matrix[row, col] != matrix[row].max():
            matrix[row, col] = -np.inf
    return matrix


class TestLogDomain:
    @settings(max_examples=80, deadline=None)
    @given(lse_matrices(), st.booleans())
    def test_logsumexp_matches_both_former_copies(self, matrix, transpose):
        if transpose:
            matrix = np.ascontiguousarray(matrix.T).T  # the callers' .T views
        with np.errstate(divide="ignore"):
            out = _logsumexp_rows(matrix)
            _same(out, _ref_lse_sinkhorn(matrix))
            _same(out, _ref_lse_unbalanced(matrix))
        assert np.isneginf(out[np.isneginf(matrix).all(axis=1)]).all()

    @settings(max_examples=60, deadline=None)
    @given(
        kernels64,
        st.sampled_from((1, 5, 12, 30)),
        st.sampled_from((0.0, 1e-6, 1e-9)),
        st.sampled_from((0.01, 0.05, 0.3, 0.5)),
    )
    # a column more than 708 nats below every row's maximum: a kernel
    # normalised by row maxima alone loses its plan entry (7.2e-4)
    @example(DEEP_COLUMN, 1, 0.0, 0.01)
    def test_unbalanced_matches_reference(self, stack, max_iter, tol, epsilon):
        """The exponentiate-once kernel against the log-domain loop:
        summation order differs, so plans and residuals agree within
        fixed tolerances and the iteration counts and flags exactly."""
        log_kernel = stack[0]
        log_kernel = log_kernel - log_kernel.max()
        mu, nu = _marginals(*log_kernel.shape, uniform=False)
        fast = sinkhorn_unbalanced_log_kernel(
            log_kernel, mu, nu, epsilon, rho=1.0, max_iter=max_iter, tol=tol
        )
        ref = _ref_unbalanced(log_kernel, mu, nu, epsilon, 1.0, max_iter, tol)
        np.testing.assert_allclose(fast.plan, ref.plan, rtol=0, atol=1e-12)
        assert abs(fast.marginal_error - ref.marginal_error) <= 1e-10
        assert fast.n_iterations == ref.n_iterations
        assert fast.converged == ref.converged

    @settings(max_examples=40, deadline=None)
    @given(kernels64, st.sampled_from((1, 5, 12)), st.sampled_from((1e-9, 1e-3)))
    def test_sinkhorn_log_matches_reference(self, stack, max_iter, tol):
        log_kernel = stack[0]
        mu, nu = _marginals(*log_kernel.shape, uniform=False)
        fast = sinkhorn_log(
            None, mu, nu, max_iter=max_iter, tol=tol, log_kernel=log_kernel
        )
        ref = _ref_sinkhorn_log(log_kernel, mu, nu, max_iter, tol)
        _same(fast.plan, ref.plan)
        assert fast.n_iterations == ref.n_iterations
        assert fast.marginal_error == ref.marginal_error
        assert fast.converged == ref.converged


# ---------------------------------------------------------------------------
# validation predicate
# ---------------------------------------------------------------------------
def _around(value, ulps=3):
    out = [value]
    for direction in (np.inf, -np.inf):
        x = value
        for _ in range(ulps):
            x = np.nextafter(x, direction)
            out.append(float(x))
    return out


TOTALS = [
    *_around(1.0 + 1.1e-5),
    *_around(1.0 - 1.1e-5),
    *_around(1.0 + 1e-6, ulps=1),
    1.0,
    0.0,
    2.0,
    float("nan"),
    float("inf"),
    float("-inf"),
]


@pytest.mark.parametrize("total", TOTALS)
def test_probability_check_is_isclose(total):
    """The written-out predicate accepts exactly what
    ``np.isclose(total, 1.0, atol=1e-6)`` accepted."""
    accepted = bool(np.isclose(total, 1.0, atol=1e-6))
    assert (abs(total - 1.0) <= 1e-6 + 1e-5) == accepted
    if accepted:
        check_probability_vector(np.array([total]))
    else:
        with pytest.raises(ValueError):
            check_probability_vector(np.array([total]))
