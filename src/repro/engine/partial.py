"""Partial-alignment solver backends.

The paper's real pairs are only partially overlapping (Douban: 1,118 of
3,906 online users have an offline copy), yet the classical engine
backends solve *balanced* transport — every source node is forced onto
some target node.  This module adds the two standard relaxations as
first-class registry entries (new names; ``fused-dense`` is never
silently replaced):

* ``partial-dummy`` — Figalli-style partial OT by reduction: every
  structure basis gains a zero dummy row/column, the marginals gain a
  slack atom of weight ``1 − partial_mass``, and the balanced portfolio
  runs unchanged on the extended problem.  Zero dummy interactions keep
  the bases symmetric so the fused contractions stay on; a large
  negative log-kernel offset blocks the dummy–dummy cell, which makes
  exactly ``partial_mass`` of each side's real mass transport.  Mass a
  node sheds to the dummy is its *unmatchable score*.  At
  ``partial_mass == 1`` with no anchors the reduction is the identity,
  so the backend delegates to :class:`FusedDenseBackend` and is
  bit-for-bit the reference solver (pinned by
  ``tests/test_partial_overlap.py``).
* ``partial-unbalanced`` — KL-relaxed marginals (Chizat et al. 2018):
  the π-update's balanced Sinkhorn projection is swapped for the
  generalised scaling
  :func:`repro.ot.unbalanced.sinkhorn_unbalanced_log_kernel` with
  strength ``partial_rho`` (log-domain potentials, a kernel
  exponentiated once and re-exponentiated only on absorption);
  marginals are scaled to total mass
  ``partial_mass`` so the soft constraint pulls the plan toward the
  requested overlap.  Mass conservation is soft — a node's shortfall
  against its (scaled) marginal is its unmatchable score.

Anchor seeds (semi-supervised known correspondences carried on
:attr:`PreparedProblem.anchors`) enter both backends the same way: a
``+_ANCHOR_WEIGHT`` log-domain offset on the anchor cells of every
π-update kernel (and, for the dummy reduction, ``−_ANCHOR_WEIGHT`` on
the anchor rows'/columns' dummy cells so seeded nodes are not declared
unmatchable).  The offset is a prior, re-applied each iteration, not a
hard constraint.
"""

from __future__ import annotations

import numpy as np

from repro.core.objective import JointObjective
from repro.core.result import AlignmentResult
from repro.engine.backends import FusedDenseBackend
from repro.engine.planning import PreparedProblem
from repro.engine.restarts import (
    portfolio_phase_timings,
    portfolio_result,
    restart_runs,
    run_portfolio,
)
from repro.exceptions import ConvergenceError
from repro.ot.sinkhorn import SINKHORN_TOL, sinkhorn_log_kernel_fast
from repro.ot.unbalanced import sinkhorn_unbalanced_log_kernel
from repro.utils.timer import Timer

_DUMMY_BLOCK_PENALTY = 50.0
"""Margin (nats) below the kernel's worst finite entry for the
dummy–dummy cell.

If the dummies were allowed to pair, the slack atoms would absorb each
other and the extended problem would degenerate back to (nearly)
balanced transport on the real block.  A *fixed* offset is not enough:
the proximal kernel ``log π_k − ∇F/η`` swings by hundreds of nats as η
anneals, so the cell is re-pinned below the kernel's own minimum every
iteration instead.
"""

_ANCHOR_WEIGHT = 10.0
"""Log-domain reward on each anchor cell of the π-update kernel: a
pull of ``exp(10)`` towards the seeded correspondence per update."""


def _problem_anchors(problem: PreparedProblem) -> np.ndarray | None:
    """The problem's anchor array, or ``None`` when there are none."""
    anchors = problem.anchors
    if anchors is None or anchors.size == 0:
        return None
    return anchors


class OffsetProjection:
    """Balanced projection with a log-domain prior on the π-update.

    ``offset`` (same shape as the plan) is added to every iteration's
    proximal kernel before the Sinkhorn projection — the anchor prior
    rides on it.  ``block`` (an index pair, or ``None``) marks the
    dummy–dummy cell, which is re-pinned ``_DUMMY_BLOCK_PENALTY`` nats
    below the kernel's minimum each iteration — an offset relative to
    the kernel's own scale, because the proximal kernel's dynamic range
    grows with ``1/η`` and would swallow any fixed penalty.  A
    module-level class, so a run carrying it pickles to a pool worker.
    """

    def __init__(self, offset: np.ndarray, block: tuple[int, int] | None):
        self.offset = offset
        self.block = block

    def __call__(self, run, log_kernel: np.ndarray, eta: float) -> np.ndarray:
        kernel = log_kernel + self.offset
        if self.block is not None:
            kernel[self.block] = float(kernel.min()) - _DUMMY_BLOCK_PENALTY
        result = sinkhorn_log_kernel_fast(
            kernel,
            run.mu,
            run.nu,
            max_iter=run.config.sinkhorn_iter,
            tol=SINKHORN_TOL,
        )
        return result.plan


class UnbalancedProjection:
    """Projection with KL-relaxed marginals (plus an optional prior).

    ``η`` — the proximal coefficient the log kernel was built with — is
    handed to the unbalanced scaling as its entropic ``epsilon`` (the
    kernel *is* ``exp(log π_k − ∇F/η)``), so the scaling exponent
    ``ρ/(ρ+η)`` anneals together with the proximal schedule.  The
    scaling exponentiates the max-pinned kernel once per absorption and
    iterates with matvecs; the run's marginals are ``partial_mass``
    times the uniform ones, so never zero, as its log-domain potentials
    require.  A module-level class, so a run carrying it pickles to a
    pool worker.
    """

    def __init__(self, offset: np.ndarray | None):
        self.offset = offset

    def __call__(self, run, log_kernel: np.ndarray, eta: float) -> np.ndarray:
        if self.offset is not None:
            log_kernel = log_kernel + self.offset
        # the unbalanced fixed point is NOT shift-invariant in the
        # kernel (a constant shift c rescales the plan's total mass by
        # exp(c(1-x)/(1+x)) for scaling exponent x), and the proximal
        # kernel's absolute scale swings with 1/eta — so pin max = 0:
        # relative costs decide *where* mass sheds, the scaled
        # marginals decide *how much*, and exp() cannot overflow
        result = sinkhorn_unbalanced_log_kernel(
            log_kernel - float(log_kernel.max()),
            run.mu,
            run.nu,
            epsilon=eta,
            rho=run.config.partial_rho,
            max_iter=run.config.sinkhorn_iter,
            tol=SINKHORN_TOL,
        )
        return result.plan


def _extend_bases(bases: list[np.ndarray]) -> list[np.ndarray]:
    """Zero-pad each basis with a dummy row/column.

    The cached arrays are shared read-only, so the extension always
    copies.  Zero dummy interactions preserve symmetry, keeping the
    fused contraction path valid on the extended objective.
    """
    extended = []
    for basis in bases:
        size = basis.shape[0]
        padded = np.zeros((size + 1, size + 1))
        padded[:size, :size] = basis
        extended.append(padded)
    return extended


class PartialDummyBackend:
    """Partial-overlap portfolio via the dummy-mass reduction.

    Extended marginals ``μ_ext = [μ, s] / (1+s)`` with slack
    ``s = 1 − partial_mass`` (same for ν); with the dummy–dummy cell
    blocked the real block carries ``(1−s)/(1+s)`` of the extended
    mass, i.e. exactly ``partial_mass`` of each side's real mass is
    transported.  The returned plan is the real block rescaled to total
    mass ``partial_mass``; per-node shed fractions land in
    ``extras["partial"]``.
    """

    name = "partial-dummy"
    kind = "dense"
    partial = True

    def solve(self, problem: PreparedProblem) -> AlignmentResult:
        cfg = problem.config
        slack = 1.0 - cfg.partial_mass
        anchors = _problem_anchors(problem)
        if slack == 0.0 and anchors is None:
            # the reduction is the identity: no slack atom to append, no
            # prior to apply.  Delegating (rather than re-deriving) makes
            # the overlap=1.0 parity bitwise by construction.
            result = FusedDenseBackend().solve(problem)
            result.extras["backend"] = self.name
            result.extras["partial"] = {
                "mode": "dummy",
                "mass": 1.0,
                "slack": 0.0,
                "n_anchors": 0,
                "delegated": True,
                "matched_mass": 1.0,
                "source_unmatchable": np.zeros(problem.source.n_nodes),
                "target_unmatchable": np.zeros(problem.target.n_nodes),
            }
            return result

        with Timer() as timer:
            source_bases, target_bases = problem.bases
            mu, nu = problem.marginals()
            plan0, informative_init = problem.initial_coupling(mu, nu)
            n, m = mu.shape[0], nu.shape[0]
            if slack > 0.0:
                run_source = _extend_bases(source_bases)
                run_target = _extend_bases(target_bases)
                scale = 1.0 / (1.0 + slack)
                mu_run = np.concatenate([mu, [slack]]) * scale
                nu_run = np.concatenate([nu, [slack]]) * scale
                # feasible extended start: the real block keeps plan0's
                # shape at mass/(1+s), each real atom feeds its slack
                # share straight to the opposite dummy
                plan0_run = np.zeros((n + 1, m + 1))
                plan0_run[:n, :m] = plan0 * (cfg.partial_mass * scale)
                plan0_run[:n, m] = mu * (slack * scale)
                plan0_run[n, :m] = nu * (slack * scale)
                offset = np.zeros((n + 1, m + 1))
                block = (n, m)
            else:
                # anchors without slack: nothing to shed, so skip the
                # extension entirely (a zero-mass slack atom would put
                # log(0) into the balanced projection)
                run_source, run_target = source_bases, target_bases
                mu_run, nu_run, plan0_run = mu, nu, plan0
                offset = np.zeros((n, m))
                block = None
            if anchors is not None:
                offset[anchors[:, 0], anchors[:, 1]] += _ANCHOR_WEIGHT
                if slack > 0.0:
                    offset[anchors[:, 0], m] -= _ANCHOR_WEIGHT
                    offset[n, anchors[:, 1]] -= _ANCHOR_WEIGHT
            objective = JointObjective(run_source, run_target)
            runs = restart_runs(
                objective, cfg, plan0_run, mu_run, nu_run, informative_init,
                project=OffsetProjection(offset, block),
            )
            [(outcomes, checkpoints)] = run_portfolio([runs], cfg)
        result = portfolio_result(
            self.name, outcomes, checkpoints, objective.n_bases,
            portfolio_phase_timings(runs, problem.basis_seconds),
            runtime=timer.elapsed,
        )
        if slack > 0.0:
            plan_ext = result.plan
            real = plan_ext[:n, :m]
            shed_source = plan_ext[:n, m]
            shed_target = plan_ext[n, :m]
            total = float(real.sum())
            if total <= 0.0:
                raise ConvergenceError("partial-dummy solve shipped no mass")
            # the extended normalisation carries mass/(1+s) in the real
            # block; rescale to the documented total mass exactly
            result.plan = real * (cfg.partial_mass / total)
            source_scores = np.clip(shed_source / mu_run[:n], 0.0, 1.0)
            target_scores = np.clip(shed_target / nu_run[:m], 0.0, 1.0)
            matched_mass = total * (1.0 + slack)
        else:
            source_scores = np.zeros(n)
            target_scores = np.zeros(m)
            matched_mass = float(result.plan.sum())
        result.extras["partial"] = {
            "mode": "dummy",
            "mass": cfg.partial_mass,
            "slack": slack,
            "n_anchors": 0 if anchors is None else int(anchors.shape[0]),
            "delegated": False,
            "matched_mass": matched_mass,
            "source_unmatchable": source_scores,
            "target_unmatchable": target_scores,
        }
        return result


class PartialUnbalancedBackend:
    """Partial-overlap portfolio with KL-relaxed marginals.

    The portfolio, restarts and α-updates are the reference machinery;
    only the π-update's projection differs (see
    :class:`UnbalancedProjection`).
    Marginals are scaled to total mass ``partial_mass`` so the KL
    penalty pulls the transported mass toward the requested overlap;
    ``partial_rho`` sets how expensive deviating from the (scaled)
    marginals is — ``rho → ∞`` recovers the balanced solve on the
    scaled problem.
    """

    name = "partial-unbalanced"
    kind = "dense"
    partial = True

    def solve(self, problem: PreparedProblem) -> AlignmentResult:
        cfg = problem.config
        anchors = _problem_anchors(problem)
        with Timer() as timer:
            source_bases, target_bases = problem.bases
            objective = JointObjective(source_bases, target_bases)
            mu, nu = problem.marginals()
            plan0, informative_init = problem.initial_coupling(mu, nu)
            mass = cfg.partial_mass
            mu_run = mu * mass
            nu_run = nu * mass
            plan0_run = plan0 * mass
            offset = None
            if anchors is not None:
                offset = np.zeros((mu.shape[0], nu.shape[0]))
                offset[anchors[:, 0], anchors[:, 1]] += _ANCHOR_WEIGHT
            runs = restart_runs(
                objective, cfg, plan0_run, mu_run, nu_run, informative_init,
                project=UnbalancedProjection(offset),
            )
            [(outcomes, checkpoints)] = run_portfolio([runs], cfg)
        result = portfolio_result(
            self.name, outcomes, checkpoints, objective.n_bases,
            portfolio_phase_timings(runs, problem.basis_seconds),
            runtime=timer.elapsed,
        )
        row_mass = result.plan.sum(axis=1)
        col_mass = result.plan.sum(axis=0)
        # shortfall against the scaled marginal: a fully-served node
        # scores ~0, a node the solver abandoned scores ~1 (unbalanced
        # scalings can overshoot their target, hence the clip)
        source_scores = np.clip(1.0 - row_mass / mu_run, 0.0, 1.0)
        target_scores = np.clip(1.0 - col_mass / nu_run, 0.0, 1.0)
        result.extras["partial"] = {
            "mode": "unbalanced",
            "mass": mass,
            "rho": cfg.partial_rho,
            "n_anchors": 0 if anchors is None else int(anchors.shape[0]),
            "delegated": False,
            "matched_mass": float(result.plan.sum()),
            "source_unmatchable": source_scores,
            "target_unmatchable": target_scores,
        }
        return result
