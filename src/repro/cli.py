"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the available dataset stand-ins.
``stats``
    Print structural statistics of a stand-in graph.
``align``
    Build a semi-synthetic pair from a stand-in, run an aligner, print
    Hit@k.  ``--backend`` selects the engine solver backend for the
    SLOTAlign-based methods.
``engine``
    Drive the plan → solve → evaluate pipeline explicitly: pick any
    registered solver backend (``--backend``), inspect the registry
    (``--list-backends``) and see per-stage wall-clock.  ``--partial
    {dummy,unbalanced}`` builds a partially-overlapping pair instead
    (``--overlap`` / ``--anchor-fraction``) and routes the solve
    through the matching partial backend, reporting Hit@k on the
    matchable nodes plus unmatchable-detection precision/recall.
``serve``
    Run the in-process alignment service against a synthetic traffic
    burst and print the service-level report: pairs/sec, plan-cache
    hit rate, p50/p99 latency, coalescing counters and the bitwise
    fidelity check against a direct engine run.
``lint``
    Run the project static-analysis rules (:mod:`repro.analysis`) over
    the package tree: guarded-by, pinned-path, no-densify and
    unused-name.  Exits non-zero on any finding; ``--update-pins``
    deliberately regenerates the bitwise-pin fingerprints.
``experiments``
    Alias for ``python -m repro.experiments`` (see that module).

Unknown ``--method``/``--backend`` values fail with a message naming
the valid choices (never a bare ``KeyError``).
"""

from __future__ import annotations

import argparse

from repro.baselines import (
    FusedGWAligner,
    GWDAligner,
    KNNAligner,
    REGALAligner,
)
from repro.core import SLOTAlign, SLOTAlignConfig
from repro.datasets import (
    available_datasets,
    load_graph_dataset,
    make_semi_synthetic_pair,
    truncate_feature_columns,
)
from repro.engine import (
    DEFAULT_BACKEND,
    AlignmentEngine,
    available_backends,
    available_decoders,
    ensure_backend_precision,
    ensure_decoder,
    ensure_dense_backend,
)
from repro.eval import evaluate_plan
from repro.exceptions import ConfigError
from repro.graphs import structural_summary
from repro.scale import DivideAndConquerAligner


def _slot_config(args) -> SLOTAlignConfig:
    if args.hop_mix != 1.0 and not args.cosine_hops:
        raise SystemExit(
            "--hop-mix only takes effect with --cosine-hops "
            "(lazy-walk propagation is part of the renormalised hops)"
        )
    return SLOTAlignConfig(
        n_bases=args.n_bases,
        structure_lr=args.tau,
        sinkhorn_lr=args.eta,
        max_outer_iter=args.iters,
        track_history=False,
        tie_weights=args.tie_weights,
        center_kernels=args.center_kernels,
        renormalize_hops=args.cosine_hops,
        hop_mix=args.hop_mix,
        use_feature_similarity_init=args.similarity_init,
        anneal=not args.similarity_init,
    )


ALIGNER_FACTORIES = {
    "slotalign": lambda args: SLOTAlign(
        _slot_config(args),
        backend=_resolve_backend(
            args.backend, dense_only=True, precision=args.precision
        ),
        precision=args.precision,
    ),
    "partitioned": lambda args: DivideAndConquerAligner(
        _slot_config(args),
        max_block_size=args.max_block_size,
        n_parts=args.n_parts,
        executor=args.executor,
        boundary_repair=not args.no_boundary_repair,
        solver_backend=_resolve_backend(args.backend, dense_only=True),
    ),
    "knn": lambda args: KNNAligner(),
    "gwd": lambda args: GWDAligner(max_iter=args.iters),
    "fusedgw": lambda args: FusedGWAligner(max_iter=args.iters),
    "regal": lambda args: REGALAligner(seed=args.seed),
}


def _resolve_method(name: str):
    """The aligner factory for ``name``, or a choice-naming exit."""
    factory = ALIGNER_FACTORIES.get(name)
    if factory is None:
        choices = ", ".join(sorted(ALIGNER_FACTORIES))
        raise SystemExit(
            f"unknown method {name!r}; valid methods: {choices}"
        )
    return factory


def _resolve_backend(
    name: str, dense_only: bool = False, precision: str = "float64"
) -> str:
    """Validate a solver-backend name against the engine registry.

    ``dense_only`` additionally rejects backends that return sparse
    results (the SLOTAlign-shaped methods consume dense plans; the
    sparse pipeline is reachable via ``--method partitioned`` or
    ``engine --backend sparse``), and ``precision`` must be one the
    backend solves at.  No backend instance is constructed.
    """
    try:
        if dense_only:
            ensure_dense_backend(name, "this method")
        ensure_backend_precision(name, precision)
    except ConfigError as exc:
        raise SystemExit(str(exc)) from exc
    return name


def _resolve_decoder(name: str | None) -> str | None:
    """Validate a decoder name against the engine's decoder registry."""
    if name is None:
        return None
    try:
        return ensure_decoder(name)
    except ConfigError as exc:
        raise SystemExit(str(exc)) from exc


def _add_pair_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``align`` and ``engine``: pair construction."""
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--edge-noise", type=float, default=0.0)
    parser.add_argument(
        "--feature-transform",
        choices=("permutation", "truncation", "compression"),
        default=None,
    )
    parser.add_argument("--feature-noise", type=float, default=0.0)
    parser.add_argument("--truncate-columns", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)


def _add_solver_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``align`` and ``engine``: the solver config."""
    parser.add_argument("--n-bases", type=int, default=2)
    parser.add_argument("--tau", type=float, default=0.1)
    parser.add_argument("--eta", type=float, default=0.01)
    parser.add_argument("--iters", type=int, default=150)
    # multi-view base construction (PR 4 degenerate-view fixes)
    parser.add_argument(
        "--tie-weights", action="store_true",
        help="share one structure-weight vector across both graphs",
    )
    parser.add_argument(
        "--center-kernels", action="store_true",
        help="double-centre feature-kernel views (degenerate-view fix)",
    )
    parser.add_argument(
        "--cosine-hops", action="store_true",
        help="row-normalise propagated features per subgraph hop",
    )
    parser.add_argument(
        "--hop-mix", type=float, default=1.0,
        help="lazy-walk mixing coefficient for subgraph hops (with "
        "--cosine-hops); 1.0 is plain propagation",
    )
    parser.add_argument(
        "--similarity-init", action="store_true",
        help="initialise the plan from cross-graph feature similarity "
        "(Sec. V-C; disables annealing)",
    )
    parser.add_argument(
        "--backend", default=DEFAULT_BACKEND,
        help="engine solver backend (see `repro engine --list-backends`)",
    )
    parser.add_argument(
        "--precision", choices=("float64", "float32"), default="float64",
        help="solve-stage working precision; float32 steps fused-dense "
        "in reduced precision (decisions stay float64)",
    )
    # partitioned-pipeline knobs (method "partitioned" / backend "sparse")
    parser.add_argument(
        "--n-parts", type=int, default=None,
        help="direct k-way partition count (default: size-driven bisection)",
    )
    parser.add_argument("--max-block-size", type=int, default=400)
    parser.add_argument(
        "--executor", choices=("serial", "thread", "process", "auto"),
        default="auto",
        help="block execution backend (results are bitwise-identical)",
    )
    parser.add_argument(
        "--no-boundary-repair", action="store_true",
        help="disable the anchor-based boundary-repair pass",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SLOTAlign reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list available dataset stand-ins")

    stats = sub.add_parser("stats", help="structural statistics of a dataset")
    stats.add_argument("dataset")
    stats.add_argument("--scale", type=float, default=0.1)

    align = sub.add_parser("align", help="align a semi-synthetic pair")
    align.add_argument("dataset")
    align.add_argument(
        "--method", default="slotalign",
        help=f"one of: {', '.join(sorted(ALIGNER_FACTORIES))}",
    )
    _add_pair_options(align)
    _add_solver_options(align)

    engine = sub.add_parser(
        "engine",
        help="run the plan→solve→evaluate pipeline with an explicit backend",
    )
    engine.add_argument(
        "dataset", nargs="?",
        help="dataset stand-in (omit with --list-backends/--list-decoders)",
    )
    engine.add_argument(
        "--list-backends", action="store_true",
        help="list the registered solver backends and exit",
    )
    engine.add_argument(
        "--decoder", default=None,
        help="decode the solved plan with a registered decoder "
        "(row-argmax / mutual-argmax / hungarian / mea); default: rank "
        "the plan posterior directly",
    )
    engine.add_argument(
        "--list-decoders", action="store_true",
        help="list the registered plan decoders and exit",
    )
    engine.add_argument(
        "--partial", choices=("dummy", "unbalanced"), default=None,
        help="build a partially-overlapping pair and solve it with the "
        "matching partial backend (partial-dummy / partial-unbalanced)",
    )
    engine.add_argument(
        "--overlap", type=float, default=0.8,
        help="fraction of nodes with a counterpart on both sides "
        "(with --partial)",
    )
    engine.add_argument(
        "--anchor-fraction", type=float, default=0.0,
        help="fraction of the ground truth revealed as anchor seeds "
        "(with --partial)",
    )
    engine.add_argument(
        "--partial-mass", type=float, default=None,
        help="transported-mass budget in (0, 1] (default: the pair's "
        "actual matchable fraction)",
    )
    engine.add_argument(
        "--partial-rho", type=float, default=1.0,
        help="KL marginal-relaxation strength for --partial unbalanced",
    )
    _add_pair_options(engine)
    _add_solver_options(engine)

    serve = sub.add_parser(
        "serve",
        help="drive the alignment service with synthetic traffic",
    )
    serve.add_argument("dataset")
    serve.add_argument(
        "--n-jobs", type=int, default=24,
        help="total alignment requests in the burst",
    )
    serve.add_argument(
        "--n-distinct", type=int, default=4,
        help="distinct pairs the requests cycle over (repeats hit the "
        "plan cache)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="worker-thread count"
    )
    serve.add_argument(
        "--max-batch", type=int, default=8,
        help="largest coalesced batch one worker may solve",
    )
    serve.add_argument(
        "--iters", type=int, default=25,
        help="outer-iteration budget per request",
    )
    serve.add_argument("--scale", type=float, default=0.05)
    serve.add_argument("--seed", type=int, default=0)

    lint = sub.add_parser(
        "lint",
        help="run the project static-analysis rules (CI gate)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package; "
        "stale-pin verification only runs on full-tree lints)",
    )
    lint.add_argument(
        "--update-pins", action="store_true",
        help="regenerate src/repro/analysis/pins.json from the tree's "
        "`#: pinned` markers (a deliberate re-pin), then lint",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _build_pair(args):
    graph = load_graph_dataset(args.dataset, scale=args.scale)
    if args.truncate_columns:
        graph = truncate_feature_columns(graph, args.truncate_columns)
    return make_semi_synthetic_pair(
        graph,
        edge_noise=args.edge_noise,
        feature_transform=args.feature_transform,
        feature_noise=args.feature_noise,
        seed=args.seed,
    )


_ENGINE_METHODS = ("partitioned", "slotalign")
"""``align`` methods that consume the ``--backend`` selection."""


def _run_align(args) -> int:
    if args.method not in _ENGINE_METHODS and args.backend != DEFAULT_BACKEND:
        raise SystemExit(
            f"--backend only applies to the engine-routed methods "
            f"({', '.join(_ENGINE_METHODS)}); method {args.method!r} "
            "ignores it"
        )
    if args.precision != "float64" and args.method != "slotalign":
        raise SystemExit(
            "--precision float32 only applies to the dense engine path "
            f"(method slotalign); method {args.method!r} ignores it"
        )
    pair = _build_pair(args)
    aligner = _resolve_method(args.method)(args)
    result = aligner.fit(pair.source, pair.target)
    print(f"method   {args.method}")
    print(f"runtime  {result.runtime:.2f}s")
    if args.method == "partitioned":
        repair = result.extras.get("repair", {})
        print(f"parts    {result.extras['n_parts']}")
        print(f"executor {result.extras['executor']}")
        print(f"patched  {repair.get('n_patched', 0)}")
    for key, value in evaluate_plan(
        result.plan, pair.ground_truth, ks=(1, 5, 10)
    ).items():
        print(f"{key:8s} {value:.2f}")
    return 0


def _run_engine_partial(args) -> int:
    """The ``engine --partial`` path: partial pair + partial backend."""
    from dataclasses import replace

    from repro.datasets import PartialPairSpec, make_partial_pair
    from repro.eval import unmatchable_detection

    if args.backend != DEFAULT_BACKEND:
        raise SystemExit(
            "--partial selects its own backend (partial-dummy / "
            "partial-unbalanced); drop --backend"
        )
    if args.precision != "float64":
        raise SystemExit(
            "the partial backends have no float32 variant; drop --precision"
        )
    graph = load_graph_dataset(args.dataset, scale=args.scale)
    if args.truncate_columns:
        graph = truncate_feature_columns(graph, args.truncate_columns)
    spec = PartialPairSpec(
        overlap=args.overlap, anchor_fraction=args.anchor_fraction
    )
    pair = make_partial_pair(
        graph,
        spec,
        edge_noise=args.edge_noise,
        feature_transform=args.feature_transform,
        feature_noise=args.feature_noise,
        seed=args.seed,
    )
    mass = (
        args.partial_mass
        if args.partial_mass is not None
        else float(pair.source_matchable.mean())
    )
    config = replace(
        _slot_config(args), partial_mass=mass, partial_rho=args.partial_rho
    )
    backend = f"partial-{args.partial}"
    anchors = pair.anchors if pair.anchors.size else None
    engine = AlignmentEngine(
        config, backend=backend, decoder=_resolve_decoder(args.decoder)
    )
    run = engine.run(
        pair.source, pair.target, pair.ground_truth, ks=(1, 5, 10),
        anchors=anchors,
    )
    partial = run.result.extras["partial"]
    print(f"backend  {backend}")
    if run.decoded is not None:
        print(
            f"decoder  {run.decoded.decoder}  "
            f"(matched {run.decoded.n_matched}/{run.decoded.n_source})"
        )
    print(f"overlap  {pair.overlap_fraction:.3f}  (mass budget {mass:.3f})")
    print(f"anchors  {0 if anchors is None else anchors.shape[0]}")
    for stage, seconds in run.stage_seconds.items():
        print(f"{stage:8s} {seconds:.3f}s")
    for key, value in run.metrics.items():
        print(f"{key:8s} {value:.2f}")
    print(f"matched  {partial['matched_mass']:.3f}")
    detection = unmatchable_detection(
        partial["source_unmatchable"], pair.source_matchable
    )
    print(
        f"unmatchable-detection  precision {detection['precision']:.2f}  "
        f"recall {detection['recall']:.2f}  "
        f"AP {detection['average_precision']:.2f}"
    )
    return 0


def _run_engine(args) -> int:
    if args.list_backends:
        for name, description in available_backends().items():
            print(f"{name:16s} {description}")
        return 0
    if args.list_decoders:
        for name, description in available_decoders().items():
            print(f"{name:16s} {description}")
        return 0
    if args.dataset is None:
        raise SystemExit(
            "engine: a dataset is required unless --list-backends/"
            "--list-decoders"
        )
    if args.partial:
        return _run_engine_partial(args)
    backend = _resolve_backend(args.backend, precision=args.precision)
    decoder = _resolve_decoder(args.decoder)
    pair = _build_pair(args)
    backend_options = {}
    if backend == "sparse":
        backend_options = {
            "n_parts": args.n_parts,
            "max_block_size": args.max_block_size,
            "executor": args.executor,
            "boundary_repair": not args.no_boundary_repair,
        }
    engine = AlignmentEngine(
        _slot_config(args), backend=backend, backend_options=backend_options,
        decoder=decoder, precision=args.precision,
    )
    run = engine.run(
        pair.source, pair.target, pair.ground_truth, ks=(1, 5, 10)
    )
    solved = getattr(run.result, "extras", {}).get("backend", backend)
    print(f"backend  {solved}")
    if args.precision != "float64":
        print(f"precision {args.precision}")
    if run.decoded is not None:
        print(
            f"decoder  {run.decoded.decoder}  "
            f"(matched {run.decoded.n_matched}/{run.decoded.n_source})"
        )
    for stage, seconds in run.stage_seconds.items():
        print(f"{stage:8s} {seconds:.3f}s")
    extras = getattr(run.result, "extras", {})
    if backend == "sparse":
        print(f"parts    {extras.get('n_parts', 1)}")
    elif "selected_start" in extras:
        print(f"start    {extras['selected_start']}")
    for key, value in run.metrics.items():
        print(f"{key:8s} {value:.2f}")
    return 0


def _run_serve(args) -> int:
    # lazy import: the serving stack is only needed by this subcommand
    from repro.experiments.serve_traffic import (
        format_serve_report,
        run_serve_traffic,
    )

    report = run_serve_traffic(
        dataset=args.dataset,
        scale=args.scale,
        seed=args.seed,
        n_jobs=args.n_jobs,
        n_distinct=args.n_distinct,
        workers=args.workers,
        max_batch=args.max_batch,
        iters=args.iters,
    )
    print(format_serve_report(report))
    return 0 if report["single_pair_bitwise_equal"] else 1


def _run_lint(args) -> int:
    # lazy import: the analysis stack is only needed by this subcommand
    from pathlib import Path

    from repro.analysis import default_rules, run_lint, update_pins
    from repro.analysis.pins import PinnedPathRule

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.rule_id:16s} {rule.description}")
        return 0
    if args.update_pins:
        pins = update_pins()
        print(f"pinned {len(pins)} definitions -> src/repro/analysis/pins.json")
    roots = [Path(p) for p in args.paths] or [None]
    findings = []
    for root in roots:
        rules = default_rules()
        if root is not None:
            # partial-tree runs cannot tell a stale pin from an unseen one
            rules = [
                PinnedPathRule(check_stale=False)
                if isinstance(rule, PinnedPathRule)
                else rule
                for rule in rules
            ]
        findings.extend(run_lint(root=root, rules=rules))
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"repro lint: {len(findings)} finding(s)")
        return 1
    print("repro lint: clean")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        catalogue = available_datasets()
        print("graphs:", ", ".join(catalogue["graphs"]))
        print("pairs: ", ", ".join(catalogue["pairs"]))
        return 0
    if args.command == "stats":
        graph = load_graph_dataset(args.dataset, scale=args.scale)
        for key, value in structural_summary(graph).items():
            print(f"{key:18s} {value:.4f}")
        return 0
    if args.command == "align":
        return _run_align(args)
    if args.command == "engine":
        return _run_engine(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "lint":
        return _run_lint(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
