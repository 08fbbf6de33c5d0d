"""Stage 2 of the alignment engine: **solve** — the backend table.

A solver backend consumes a :class:`~repro.engine.planning.PreparedProblem`
and returns a result object carrying a plan:

* ``fused-dense`` — the restart portfolio over the fused contraction
  engine (:class:`repro.core.objective.JointObjective`).  At the
  default ``precision="float64"`` it is the reference serial solver
  every other path is defined against; ``precision="float32"`` steps
  the same portfolio in float32 against a preallocated workspace
  (:mod:`repro.engine.mixed`).
* ``partial-dummy`` / ``partial-unbalanced`` — the partial-overlap
  portfolios of :mod:`repro.engine.partial`.
* ``sparse`` — the divide-and-conquer pipeline of :mod:`repro.scale`:
  partition, per-block dense solves (each routed back through this
  engine), sparse stitching and boundary repair.  Returns a
  :class:`~repro.scale.aligner.PartitionedAlignment` whose plan is CSR.

The four classes sit in one table keyed by their ``name``; each
carries a one-line ``description``.  Unknown names fail with an error
that lists the valid choices (never a bare ``KeyError``), so CLI/runner
validation can surface the table verbatim.  A backend class lists the
working precisions it solves at in ``precisions`` (float64 only when
absent); asking a backend for a precision it lacks fails the same
choice-naming way.
"""

from __future__ import annotations

from repro.core.config import SLOTAlignConfig
from repro.engine.mixed import _MixedLockstep
from repro.engine.planning import PreparedProblem
from repro.engine.precision import (
    DEFAULT_PRECISION,
    FLOAT32,
    FLOAT64,
    SolverPrecision,
    ensure_precision,
)
from repro.engine.restarts import (
    portfolio_phase_timings,
    portfolio_result,
    problem_runs,
    run_portfolio,
)
from repro.exceptions import ConfigError
from repro.utils.timer import Timer

DEFAULT_BACKEND = "fused-dense"


def available_backends() -> dict[str, str]:
    """``{name: one-line description}`` of every backend."""
    return {name: cls.description for name, cls in sorted(_BACKENDS.items())}


def _lookup(name: str) -> type:
    """The backend class named ``name``, or a choice-naming ConfigError."""
    backend_cls = _BACKENDS.get(name)
    if backend_cls is None:
        choices = ", ".join(sorted(_BACKENDS))
        raise ConfigError(
            f"unknown solver backend {name!r}; valid backends: {choices}"
        )
    return backend_cls


def _precisions(backend_cls: type) -> tuple[str, ...]:
    return getattr(backend_cls, "precisions", (DEFAULT_PRECISION,))


def ensure_backend_precision(name: str, precision: str | SolverPrecision) -> str:
    """Validate that backend ``name`` solves at ``precision``.

    Returns the precision's name.  Unknown backends and precisions fail
    as :func:`get_backend` and :func:`ensure_precision` do; a backend
    without the requested precision fails naming the backends that have
    it, so the engine, the service and the CLI all surface one message.
    """
    resolved = ensure_precision(precision).name
    if resolved not in _precisions(_lookup(name)):
        choices = ", ".join(
            other for other, cls in sorted(_BACKENDS.items())
            if resolved in _precisions(cls)
        )
        raise ConfigError(
            f"backend {name!r} has no {resolved} variant; "
            f"backends with one: {choices}"
        )
    return resolved


def get_backend(
    name: str, precision: str | SolverPrecision = DEFAULT_PRECISION, **options
):
    """Instantiate the backend named ``name``.

    Raises :class:`ConfigError` naming the valid choices when the
    backend is unknown, or lacks ``precision`` — callers (CLI,
    experiment runner, service) surface this message directly instead
    of a bare ``KeyError``.  A non-default precision is handed to the
    backend as its ``precision`` option.
    """
    backend_cls = _lookup(name)
    resolved = ensure_backend_precision(name, precision)
    if resolved != DEFAULT_PRECISION:
        options["precision"] = resolved
    return backend_cls(**options)


def backend_kind(name: str) -> str:
    """``"dense"`` or ``"sparse"``: the plan representation returned.

    Unknown names raise the same choice-naming :class:`ConfigError` as
    :func:`get_backend`; no backend instance is constructed, so this
    is the cheap way to validate a name.
    """
    return getattr(_lookup(name), "kind", "dense")


def dense_backends() -> list[str]:
    """Names of the backends returning dense results."""
    return [name for name in sorted(_BACKENDS) if backend_kind(name) == "dense"]


def ensure_dense_backend(name: str, context: str) -> str:
    """Validate that ``name`` is a dense backend, for ``context``.

    Callers whose result contract is dense (``SLOTAlign``, per-block
    solves) cannot consume the sparse pipeline's
    ``PartitionedAlignment`` — and a sparse block backend would nest a
    partition pipeline inside every block.  Fails with a message
    naming the dense choices.
    """
    if backend_kind(name) != "dense":
        choices = ", ".join(dense_backends())
        raise ConfigError(
            f"{context} requires a dense solver backend, got {name!r}; "
            f"dense backends: {choices}"
        )
    return name


def partial_backends() -> list[str]:
    """Names of the partial-alignment backends."""
    return [
        name for name, cls in sorted(_BACKENDS.items())
        if getattr(cls, "partial", False)
    ]


def ensure_balanced_config(config: SLOTAlignConfig, backend_name: str) -> None:
    """Refuse a ``partial_mass < 1`` config on a balanced backend, with
    a :class:`ConfigError` naming the partial backends."""
    if config.partial_mass != 1.0:
        raise ConfigError(
            f"config has partial_mass={config.partial_mass} but "
            f"backend {backend_name!r} solves balanced transport only; "
            f"use a partial backend: {', '.join(partial_backends())}"
        )


def ensure_classical_problem(problem: PreparedProblem, backend_name: str) -> None:
    """Refuse partial-alignment inputs on a classical balanced backend.

    The partial workload must never be *silently* served by the
    full-bijective solvers: a ``partial_mass < 1`` config or anchor
    seeds on the prepared problem mean the caller asked for partial
    semantics, which only the ``partial-*`` backends implement.
    """
    ensure_balanced_config(problem.config, backend_name)
    if problem.anchors is not None and problem.anchors.size:
        raise ConfigError(
            f"the prepared problem carries anchor seeds but backend "
            f"{backend_name!r} cannot honour them; use a partial "
            f"backend: {', '.join(partial_backends())}"
        )


class FusedDenseBackend:
    """The restart portfolio over the fused dense contraction engine.

    At ``precision="float64"`` the loop is a faithful move of the
    original ``SLOTAlign.fit`` body: restart construction,
    successive-halving checkpoints and the final full-budget advance
    are unchanged, so the output is bit-for-bit the historical
    solver's (pinned by the trajectory golden in
    ``tests/test_goldens.py``).  At ``precision="float32"`` the same
    portfolio is stepped in lockstep through the float32 workspace step;
    decisions and the returned plan stay float64, and the result
    carries ``extras["precision"]``.
    """

    name = "fused-dense"
    description = (
        "restart portfolio over the fused dense contraction engine; "
        "float64 reference, or float32 via precision"
    )
    kind = "dense"
    precisions = (FLOAT64.name, FLOAT32.name)

    def __init__(self, precision: str | SolverPrecision = DEFAULT_PRECISION):
        self.precision = ensure_precision(precision)

    def solve(self, problem: PreparedProblem):
        cfg = problem.config
        ensure_classical_problem(problem, self.name)
        reference = self.precision.name == DEFAULT_PRECISION
        with Timer() as timer:
            runs = problem_runs(problem, self.precision.dtype)
            step_all = None
            if not reference:
                step_all = _MixedLockstep(
                    cfg, runs[0].mu, runs[0].nu, capacity=len(runs),
                    precision=self.precision,
                )._step_all
            [(outcomes, checkpoints)] = run_portfolio([runs], cfg, step_all)
        result = portfolio_result(
            self.name, outcomes, checkpoints, runs[0].k,
            portfolio_phase_timings(runs, problem.basis_seconds),
            runtime=timer.elapsed,
        )
        if not reference:
            result.extras["precision"] = self.precision.name
        return result


class SparsePartitionBackend:
    """Divide-and-conquer backend over :mod:`repro.scale`.

    Partitions both graphs, solves every block pair with a dense
    engine backend, stitches the block plans into a global CSR matrix
    and runs anchor-based boundary repair.  The whole-pair structure
    bases are never built — the plan stage's laziness is what makes
    one engine front both regimes.  Keyword options go to
    :class:`~repro.scale.aligner.DivideAndConquerAligner` unchanged;
    only the executor default differs: ``"auto"``, the engine's shared
    process pool wherever more than one CPU is visible.
    """

    name = "sparse"
    description = (
        "divide-and-conquer partition pipeline with sparse stitching and "
        "boundary repair (CSR plans)"
    )
    kind = "sparse"

    def __init__(self, executor: str = "auto", **options):
        self.options = dict(options, executor=executor)

    def solve(self, problem: PreparedProblem):
        # imported lazily: repro.scale pulls in the executor machinery,
        # which routes block solves back through this engine
        from repro.scale.aligner import DivideAndConquerAligner

        aligner = DivideAndConquerAligner(problem.config, **self.options)
        if problem.init_plan is not None:
            raise ConfigError(
                "the sparse backend partitions the pair and cannot consume "
                "a whole-pair init_plan; use a dense backend instead"
            )
        return aligner.fit(problem.source, problem.target)


def _builtin_backends() -> dict[str, type]:
    # imported here, once the classes above exist: partial.py imports
    # this module for FusedDenseBackend
    from repro.engine.partial import (
        PartialDummyBackend,
        PartialUnbalancedBackend,
    )

    return {
        cls.name: cls
        for cls in (
            FusedDenseBackend,
            SparsePartitionBackend,
            PartialDummyBackend,
            PartialUnbalancedBackend,
        )
    }


#: ``{name: backend class}``: the four solver backends
_BACKENDS = _builtin_backends()
