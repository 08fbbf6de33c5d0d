"""The restart portfolio: policy, run state and the one scheduler.

The multi-start portfolio (uniform + vertex restarts, successive-
halving pruning, η annealing) is solver policy, not solver mechanics:
every solve path runs the *same* portfolio — same starts, same
schedule, same pruning decisions — and differs only in the stepper
that advances the runs.  Everything policy-level therefore lives here,
once:

* :class:`RestartRun` is the one run state.  Its ``_step_once`` is the
  float64 serial step, a faithful transcription of the original
  single-shot loop: as long as a run is advanced to the full budget,
  its iterate sequence (and therefore its final plan) is bit-for-bit
  what the unscheduled solver produced.  The stacked float64 step
  (:class:`repro.engine.batched._LockstepPortfolio`) and the float32
  workspace step (:class:`repro.engine.mixed._MixedLockstep`) advance
  the same run objects.
* :func:`run_portfolio` is the one scheduler: checkpoints, pruning
  within each pair's restart group, then the final advance, whatever
  the stepper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import SLOTAlignConfig
from repro.core.convergence import IterateHistory
from repro.core.objective import JointObjective
from repro.core.result import AlignmentResult
from repro.engine.planning import PreparedProblem
from repro.exceptions import ConvergenceError, GraphError
from repro.ot.simplex import project_concatenated_simplices
from repro.ot.sinkhorn import sinkhorn_log_kernel_fast


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
    if not config.anneal or config.eta_start <= config.sinkhorn_lr:
        return config.sinkhorn_lr
    horizon = max(1, int(config.anneal_fraction * config.max_outer_iter))
    if iteration >= horizon:
        return config.sinkhorn_lr
    decay = (config.sinkhorn_lr / config.eta_start) ** (1.0 / horizon)
    return config.eta_start * decay**iteration


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
    the only checkpoint therefore fires ``portfolio_prune_iter``
    iterations after the annealing horizon, with the tight refine
    margin.  Without annealing the ranking is meaningful early, so a
    generous-margin checkpoint fires at ``portfolio_prune_iter`` and a
    tighter one at three times it.
    """
    first = config.portfolio_prune_iter
    if first <= 0 or first >= config.max_outer_iter:
        return []
    if config.anneal and config.eta_start > config.sinkhorn_lr:
        horizon = max(1, int(config.anneal_fraction * config.max_outer_iter))
        checkpoint = horizon + first
        if checkpoint < config.max_outer_iter:
            return [(checkpoint, config.portfolio_refine_margin)]
        return []
    schedule = [(first, config.portfolio_prune_margin)]
    second = 3 * first
    if first < second < config.max_outer_iter:
        schedule.append((second, config.portfolio_refine_margin))
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
        tol=run.config.sinkhorn_tol,
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
        cfg = self.config
        objective = self.objective
        k = self.k
        alpha, plan = self.alpha, self.plan

        t0 = time.perf_counter()
        new_alpha = alpha
        if self.learn_weights:
            for _ in range(cfg.alpha_steps):
                grad = objective.alpha_gradient(
                    plan, new_alpha[:k], new_alpha[k:]
                )
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
        new_plan = self._project_plan(log_kernel, eta)
        if not np.all(np.isfinite(new_plan)):
            raise ConvergenceError("SLOTAlign plan became non-finite")
        t2 = time.perf_counter()
        self.timings["pi_update"] += t2 - t1

        alpha_delta = float(np.linalg.norm(new_alpha - alpha))
        plan_delta = float(np.linalg.norm(new_plan - plan))
        value = (
            objective.value(new_plan, new_alpha[:k], new_alpha[k:])
            if cfg.track_history
            else None
        )
        self.timings["objective_eval"] += time.perf_counter() - t2
        self.history.record(value, alpha_delta, plan_delta)
        self.alpha, self.plan = new_alpha, new_plan
        self.iteration += 1
        if alpha_delta < cfg.alpha_tol and plan_delta < cfg.plan_tol:
            self.history.converged = True

    def _project_plan(self, log_kernel: np.ndarray, eta: float) -> np.ndarray:
        """Project ``exp(log_kernel)`` onto the plan's feasible set.

        The seam the partial solve modes reroute through ``project``
        (``η`` is the proximal coefficient the kernel was built with).
        """
        return self.project(self, log_kernel, eta)


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
    objective = JointObjective(
        source_bases, target_bases, fused=cfg.fused_contractions
    )
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
    run is advanced to the target in turn, exactly as the historical
    single-pair loop did.  Otherwise ``step_all(runs)`` takes every
    listed run one outer iteration together (the stacked and workspace
    lockstep bodies); live runs then share one iteration counter.
    Trajectories never depend on the stepper or on the other runs, so
    every choice yields the same bits per precision.
    """
    everyone = [run for runs in groups for run in runs]

    def advance(target: int) -> None:
        if step_all is None:
            for run in everyone:
                if run.active:
                    run.step_until(target)
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
