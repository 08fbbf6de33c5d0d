"""The restart portfolio: policy, run state and the one scheduler.

The multi-start portfolio (uniform + vertex restarts, successive-
halving pruning, η annealing) is solver policy, not solver mechanics:
every solve path runs the *same* portfolio — same starts, same
schedule, same pruning decisions — and differs only in the stepper
that advances the runs.  Everything policy-level therefore lives here,
once:

* :class:`RestartRun` is the one run state.  Its ``_step_once`` is the
  float64 step, a faithful transcription of the original single-shot
  loop: as long as a run is advanced to the full budget, its iterate
  sequence (and therefore its final plan) is bit-for-bit what the
  unscheduled solver produced.  The step's halves around the
  projection, ``_propose`` and ``_accept``, are also what the float64
  lockstep (:class:`repro.engine.batched._LockstepPortfolio`) runs
  around one stacked projection; the float32 workspace step
  (:class:`repro.engine.mixed._MixedLockstep`) advances the same run
  objects with its own body.
* :func:`run_portfolio` is the one scheduler: checkpoints, pruning
  within each pair's restart group, then the final advance, whatever
  the stepper.  The serial step may advance the live runs on the
  shared worker pool (:mod:`repro.engine.pool`); checkpoints, pruning
  and selection stay in the caller, so the pool changes no bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import ANNEAL_FRACTION, ETA_START, SLOTAlignConfig
from repro.core.convergence import IterateHistory
from repro.core.objective import JointObjective
from repro.core.result import AlignmentResult
from repro.engine.planning import PreparedProblem
from repro.engine.pool import blas_threads, pool_map
from repro.exceptions import ConvergenceError, GraphError
from repro.ot.simplex import project_concatenated_simplices
from repro.ot.sinkhorn import SINKHORN_TOL, sinkhorn_log_kernel_fast

ALPHA_TOL = 1e-6
"""``ε₁``: bound on the weight step's norm in the convergence test."""

PLAN_TOL = 1e-7
"""``ε₂``: bound on the plan step's norm; a run converges when both hold."""

PRUNE_ITER = 20
"""Offset of the portfolio's pruning checkpoints (see :func:`prune_schedule`)."""

PRUNE_MARGIN = 0.25
"""Objective margin over the leader of the early non-annealed checkpoint."""

REFINE_MARGIN = 0.05
"""Tighter margin of the checkpoints that fire once the ranking is stable."""


@dataclass
class RunOutcome:
    """One restart's final iterates (the plan always float64)."""

    plan: np.ndarray
    alpha: np.ndarray
    objective: float
    history: IterateHistory
    label: str
    pruned: bool = False
    iterations: int = 0


def eta_schedule(config: SLOTAlignConfig, iteration: int) -> float:
    """Annealed KL-proximal coefficient for one outer iteration."""
    if not config.anneal or ETA_START <= config.sinkhorn_lr:
        return config.sinkhorn_lr
    horizon = max(1, int(ANNEAL_FRACTION * config.max_outer_iter))
    if iteration >= horizon:
        return config.sinkhorn_lr
    decay = (config.sinkhorn_lr / ETA_START) ** (1.0 / horizon)
    return ETA_START * decay**iteration


def vertex_views(config: SLOTAlignConfig, k: int) -> list[tuple[str, int]]:
    """(label, basis index) of the single-view restarts to try."""
    index = 0
    vertices = []
    if "edge" in config.include_views:
        vertices.append(("edge", index))
        index += 1
    if "node" in config.include_views and index < k:
        vertices.append(("node", index))
    return vertices


def build_starts(
    config: SLOTAlignConfig, k: int, informative_init: bool
) -> list[tuple[str, np.ndarray, bool]]:
    """The portfolio's ``(label, β₀, learn_weights)`` start list.

    Uniform mixture first; with the portfolio enabled (and no
    informative initial plan) vertex restarts for the two first-order
    views follow — a learned run per vertex plus a frozen node-view
    run, the feature-only fallback when structure is hopeless.
    """
    uniform_beta = np.full(k, 1.0 / k)
    first_label, first_beta = "uniform", uniform_beta
    if config.single_start_view != "uniform" and not config.multi_start:
        # committed single start: begin at the requested view's vertex
        # of the simplex instead of the uniform mixture
        for label, view_index in vertex_views(config, k):
            if label == config.single_start_view:
                vertex = np.zeros(k)
                vertex[view_index] = 1.0
                first_label, first_beta = label, vertex
                break
        else:
            raise GraphError(
                f"single_start_view {config.single_start_view!r} has no "
                "matching basis for this graph pair"
            )
    starts: list[tuple[str, np.ndarray, bool]] = [
        (first_label, first_beta, config.learn_weights)
    ]
    if config.multi_start and not informative_init and k > 1:
        for label, view_index in vertex_views(config, k):
            vertex = np.zeros(k)
            vertex[view_index] = 1.0
            starts.append((label, vertex, config.learn_weights))
            if label == "node":
                starts.append((f"{label}-frozen", vertex, False))
    return starts


def prune_schedule(config: SLOTAlignConfig) -> list[tuple[int, float]]:
    """Successive-halving checkpoints ``(iteration, margin)``.

    Mid-annealing objective values are unusable for ranking: the
    exploration phase deliberately keeps iterates smooth, so a
    restart's value can lag arbitrarily while η is large and the
    ordering routinely inverts as η decays.  With annealing enabled
    the only checkpoint therefore fires :data:`PRUNE_ITER` iterations
    after the annealing horizon, with :data:`REFINE_MARGIN`.  Without
    annealing the ranking is meaningful early, so a checkpoint with the
    generous :data:`PRUNE_MARGIN` fires at :data:`PRUNE_ITER` and one
    with :data:`REFINE_MARGIN` at three times it.
    """
    if PRUNE_ITER >= config.max_outer_iter:
        return []
    if config.anneal and ETA_START > config.sinkhorn_lr:
        horizon = max(1, int(ANNEAL_FRACTION * config.max_outer_iter))
        checkpoint = horizon + PRUNE_ITER
        if checkpoint < config.max_outer_iter:
            return [(checkpoint, REFINE_MARGIN)]
        return []
    schedule = [(PRUNE_ITER, PRUNE_MARGIN)]
    if 3 * PRUNE_ITER < config.max_outer_iter:
        schedule.append((3 * PRUNE_ITER, REFINE_MARGIN))
    return schedule


def project_balanced(
    run: "RestartRun", log_kernel: np.ndarray, eta: float
) -> np.ndarray:
    """Sinkhorn projection of ``exp(log_kernel)`` onto ``Π(μ, ν)``.

    The reference π-update projection, exactly as the pre-engine
    solver ran it; ``η`` only matters to the partial projections in
    :mod:`repro.engine.partial`.
    """
    result = sinkhorn_log_kernel_fast(
        log_kernel,
        run.mu,
        run.nu,
        max_iter=run.config.sinkhorn_iter,
        tol=SINKHORN_TOL,
    )
    return result.plan


class RestartRun:
    """Stepping state of one restart of the alternating scheme.

    ``project`` is the π-update's projection ``(run, log_kernel, η) →
    plan`` used by the serial step.  ``dtype`` is the plan iterate's
    working precision: a float32 run is stepped only by the workspace
    lockstep, which writes its plan buffer in place.
    """

    def __init__(
        self,
        objective: JointObjective,
        config: SLOTAlignConfig,
        beta0: np.ndarray,
        learn_weights: bool,
        plan0: np.ndarray,
        mu: np.ndarray,
        nu: np.ndarray,
        label: str,
        project=project_balanced,
        dtype=np.float64,
    ):
        self.objective = objective
        self.config = config
        self.learn_weights = learn_weights
        self.label = label
        self.mu = mu
        self.nu = nu
        self.project = project
        self.k = objective.n_bases
        self.alpha = np.concatenate([beta0, beta0])
        # a float64 run owns a C-ordered copy, as the serial solver
        # always did; a float32 buffer keeps plan0's memory layout
        self.plan = (
            plan0.copy() if dtype == np.float64 else np.array(plan0, dtype=dtype)
        )
        self.history = IterateHistory()
        self.iteration = 0
        self.pruned = False
        self.elapsed = 0.0
        self.timings = {"alpha_update": 0.0, "pi_update": 0.0, "objective_eval": 0.0}

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return (
            self.history.converged
            or self.iteration >= self.config.max_outer_iter
        )

    @property
    def active(self) -> bool:
        return not self.pruned and not self.finished

    def step_until(self, target_iteration: int) -> None:
        """Advance to ``min(target, max_outer_iter)`` or convergence."""
        target = min(target_iteration, self.config.max_outer_iter)
        start = time.perf_counter()
        while self.iteration < target and not self.history.converged:
            self._step_once()
        self.elapsed += time.perf_counter() - start

    def state(self) -> tuple:
        """What a step changes: β, plan, history, iteration, timings."""
        return (
            self.alpha, self.plan, self.history, self.iteration,
            self.timings, self.elapsed,
        )

    def adopt(self, state: tuple) -> None:
        """Take the :meth:`state` of a copy advanced elsewhere."""
        (
            self.alpha, self.plan, self.history, self.iteration,
            self.timings, self.elapsed,
        ) = state

    def plan64(self) -> np.ndarray:
        """The plan iterate in float64.

        A float32 buffer is written in place, so it reaches the
        objective's identity-keyed product memo only as a fresh cast.
        """
        if self.plan.dtype == np.float64:
            return self.plan
        return self.plan.astype(np.float64)

    def current_objective(self) -> float:
        """Float64 objective at the current iterate (a pure read)."""
        t0 = time.perf_counter()
        value = self.objective.value(
            self.plan64(), self.alpha[:self.k], self.alpha[self.k:]
        )
        self.timings["objective_eval"] += time.perf_counter() - t0
        return value

    def prune(self) -> None:
        self.pruned = True

    def outcome(self) -> RunOutcome:
        return RunOutcome(
            plan=self.plan64(),
            alpha=self.alpha,
            objective=self.current_objective(),
            history=self.history,
            label=self.label,
            pruned=self.pruned,
            iterations=self.iteration,
        )

    # ------------------------------------------------------------------
    def _step_once(self) -> None:
        """One outer iteration of Algorithm 1 (Eq. 11 then Eq. 12)."""
        new_alpha, log_kernel, eta = self._propose()
        t0 = time.perf_counter()
        new_plan = self._project_plan(log_kernel, eta)
        self.timings["pi_update"] += time.perf_counter() - t0
        self._accept(new_alpha, new_plan)

    def _propose(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The step's first half: the α-update, then the π-update's kernel.

        Returns ``(new_alpha, log_kernel, η)``: the Eq. 11 weights and
        the Eq. 12 proximal log kernel at those weights, which the
        stepper projects onto the plan's feasible set.
        """
        cfg = self.config
        objective = self.objective
        k = self.k
        plan = self.plan

        t0 = time.perf_counter()
        new_alpha = self.alpha
        if self.learn_weights:
            grad = objective.alpha_gradient(plan, new_alpha[:k], new_alpha[k:])
            if cfg.tie_weights:
                # shared weights: both halves take the averaged
                # gradient, so beta_s == beta_t is an invariant of
                # the iteration (the halves start equal)
                mean = 0.5 * (grad[:k] + grad[k:])
                grad = np.concatenate([mean, mean])
            new_alpha = project_concatenated_simplices(
                new_alpha - cfg.structure_lr * grad, k
            )
        t1 = time.perf_counter()
        self.timings["alpha_update"] += t1 - t0

        plan_grad = objective.plan_gradient(plan, new_alpha[:k], new_alpha[k:])
        # KL-proximal step (Eq. 12): minimising
        # <grad, pi> + eta * KL(pi || pi_k) yields the kernel
        # pi_k * exp(-grad / eta), projected onto Pi(mu, nu)
        eta = eta_schedule(cfg, self.iteration)
        log_kernel = (
            np.log(np.maximum(plan, 1e-300)) - plan_grad / eta
        )
        self.timings["pi_update"] += time.perf_counter() - t1
        return new_alpha, log_kernel, eta

    def _accept(self, new_alpha: np.ndarray, new_plan: np.ndarray) -> None:
        """The step's second half: take the projected iterate.

        Checks the plan is finite, records the iterate deltas (and the
        objective with ``track_history``) and tests convergence.
        """
        cfg = self.config
        k = self.k
        if not np.all(np.isfinite(new_plan)):
            raise ConvergenceError("SLOTAlign plan became non-finite")
        t0 = time.perf_counter()
        alpha_delta = float(np.linalg.norm(new_alpha - self.alpha))
        plan_delta = float(np.linalg.norm(new_plan - self.plan))
        value = (
            self.objective.value(new_plan, new_alpha[:k], new_alpha[k:])
            if cfg.track_history
            else None
        )
        self.timings["objective_eval"] += time.perf_counter() - t0
        self.history.record(value, alpha_delta, plan_delta)
        self.alpha, self.plan = new_alpha, new_plan
        self.iteration += 1
        if alpha_delta < ALPHA_TOL and plan_delta < PLAN_TOL:
            self.history.converged = True

    def _project_plan(self, log_kernel: np.ndarray, eta: float) -> np.ndarray:
        """Project ``exp(log_kernel)`` onto the plan's feasible set.

        The seam the partial solve modes reroute through ``project``
        (``η`` is the proximal coefficient the kernel was built with).
        """
        return self.project(self, log_kernel, eta)


def _advanced(run: RestartRun, target: int) -> tuple:
    """Pool task: advance a shipped copy of ``run``, return its state.

    Only the mutable state travels back; the caller's run keeps its
    objective, so the caller holds no second copy of the bases.
    """
    run.step_until(target)
    return run.state()


def restart_runs(
    objective: JointObjective,
    config: SLOTAlignConfig,
    plan0: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    informative_init: bool,
    project=project_balanced,
    dtype=np.float64,
) -> list[RestartRun]:
    """One pair's restart group, in :func:`build_starts` order."""
    return [
        RestartRun(
            objective, config, beta0, learn, plan0, mu, nu, label,
            project=project, dtype=dtype,
        )
        for label, beta0, learn in build_starts(
            config, objective.n_bases, informative_init
        )
    ]


def problem_runs(problem: PreparedProblem, dtype=np.float64) -> list[RestartRun]:
    """The balanced restart group of one prepared problem."""
    cfg = problem.config
    source_bases, target_bases = problem.bases
    objective = JointObjective(source_bases, target_bases)
    mu, nu = problem.marginals()
    plan0, informative_init = problem.initial_coupling(mu, nu)
    return restart_runs(
        objective, cfg, plan0, mu, nu, informative_init, dtype=dtype
    )


def run_portfolio(
    groups: list[list[RestartRun]],
    config: SLOTAlignConfig,
    step_all=None,
) -> list[tuple[list[RunOutcome], list[tuple[int, float]]]]:
    """The portfolio scheduler: checkpoints, pruning, final advance.

    ``groups`` holds one restart group per graph pair, all sharing
    ``config``.  At each :func:`prune_schedule` checkpoint every live
    run is advanced to it, then each group of two or more runs prunes
    the restarts whose objective trails its leader by more than the
    margin; pruning never compares runs of different pairs.  The final
    advance runs the survivors to ``max_outer_iter``.  Returns, per
    group, its run outcomes and the checkpoints it pruned at.

    ``step_all`` is the stepper.  ``None`` is the serial step: each live
    run is advanced to the target on its own, exactly as the historical
    single-pair loop did: on the shared worker pool when BLAS runs one
    thread per call and :func:`~repro.engine.pool.pool_map` takes the
    runs, in turn otherwise.  A worker steps a copy and sends back its
    :meth:`RestartRun.state`; after a broken pool the runs, untouched,
    are advanced in turn.  Otherwise ``step_all(runs)`` takes every
    listed run one outer iteration together (the stacked and workspace
    lockstep bodies); live runs then share one iteration counter.
    Trajectories never depend on the stepper, the process or the other
    runs, so every choice yields the same bits per precision.
    """
    everyone = [run for runs in groups for run in runs]

    def advance(target: int) -> None:
        if step_all is None:
            live = [run for run in everyone if run.active]
            states = None
            if blas_threads() == 1:
                # with threaded BLAS the workers oversubscribe the CPUs:
                # a pooled n=108 solve ran 2-3x slower than in turn
                states = pool_map(_advanced, [(run, target) for run in live])
            if states is None:
                for run in live:
                    run.step_until(target)
            else:
                for run, state in zip(live, states):
                    run.adopt(state)
            return
        while True:
            live = [
                run for run in everyone
                if run.active and run.iteration < target
            ]
            if not live:
                return
            step_all(live)

    schedule = (
        prune_schedule(config) if any(len(runs) > 1 for runs in groups) else []
    )
    for checkpoint, margin in schedule:
        advance(checkpoint)
        for runs in groups:
            if len(runs) <= 1:
                continue
            contenders = {
                run.label: run.current_objective()
                for run in runs
                if not run.pruned
            }
            leader = min(contenders.values())
            for run in runs:
                if run.active and contenders[run.label] > leader + margin:
                    run.prune()
    advance(config.max_outer_iter)
    return [
        ([run.outcome() for run in runs], schedule if len(runs) > 1 else [])
        for runs in groups
    ]


def portfolio_phase_timings(runs: list[RestartRun], basis_seconds: float) -> dict:
    """The per-phase timing dict of one pair's restart group."""
    return {
        "basis_build": basis_seconds,
        "alpha_update": sum(r.timings["alpha_update"] for r in runs),
        "pi_update": sum(r.timings["pi_update"] for r in runs),
        "objective_eval": sum(r.timings["objective_eval"] for r in runs),
        "per_restart": {run.label: run.elapsed for run in runs},
    }


def select_best(outcomes: list[RunOutcome]) -> RunOutcome:
    """The unpruned restart with the lowest objective value."""
    survivors = [out for out in outcomes if not out.pruned]
    return min(survivors, key=lambda run: run.objective)


def portfolio_result(
    backend: str,
    outcomes: list[RunOutcome],
    checkpoints: list[tuple[int, float]],
    k: int,
    phase_timings: dict,
    runtime: float,
) -> AlignmentResult:
    """Assemble the :class:`AlignmentResult` of one restart group."""
    best = select_best(outcomes)
    return AlignmentResult(
        plan=best.plan,
        runtime=runtime,
        method="SLOTAlign",
        extras={
            "beta_source": best.alpha[:k].copy(),
            "beta_target": best.alpha[k:].copy(),
            "history": best.history,
            "n_bases": k,
            "objective": best.objective,
            "selected_start": best.label,
            "backend": backend,
            "start_objectives": {
                run.label: run.objective for run in outcomes
            },
            "portfolio": {
                "checkpoints": [list(cp) for cp in checkpoints],
                "pruned": {
                    run.label: run.iterations
                    for run in outcomes
                    if run.pruned
                },
                "iterations": {
                    run.label: run.iterations for run in outcomes
                },
            },
            "phase_timings": phase_timings,
        },
    )
