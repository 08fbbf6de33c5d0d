"""Command-line experiment runner: ``python -m repro.experiments <exp>``.

Prints the paper-style tables/series for any of the reproduced
artefacts (fig3, fig6, fig7, table2, table3, fig8); ``fidelity``
regenerates both accuracy tables and refreshes the
SLOTAlign-vs-best-baseline margins in ``BENCH_fidelity.json``.
"""

from __future__ import annotations

import argparse

from repro.engine import (
    ensure_backend_precision,
    ensure_decoder,
    ensure_dense_backend,
)
from repro.eval.fidelity import (
    format_fidelity,
    record_decoders,
    record_fidelity,
    record_partial,
)
from repro.exceptions import ConfigError
from repro.eval.reporting import format_sweep, format_table
from repro.experiments.config import ExperimentScale
from repro.experiments.decoders import format_decoders, run_decoder_comparison
from repro.experiments.fig3_motivation import run_fig3
from repro.experiments.partial_overlap import format_partial, run_partial_overlap
from repro.experiments.fig6_structure import run_fig6
from repro.experiments.fig7_feature import run_fig7
from repro.experiments.fig8_sensitivity import run_fig8
from repro.experiments.scalability import run_scalability
from repro.experiments.serve_traffic import (
    format_serve_report,
    run_serve_traffic,
)
from repro.experiments.table2_realworld import run_table2
from repro.experiments.table3_dbp15k import run_table3

EXPERIMENTS = (
    "fig3", "fig6", "fig7", "table2", "table3", "fig8", "scale", "fidelity",
    "serve", "partial", "decoders",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate the paper's tables and figures",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument(
        "--scale", type=float, default=0.07, help="dataset scale in (0, 1]"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--full", action="store_true", help="disable fast mode (longer runs)"
    )
    parser.add_argument(
        "--backend", default="fused-dense",
        help="dense engine backend for every SLOTAlign solve "
        "(see `repro engine --list-backends`)",
    )
    parser.add_argument(
        "--decoder", default=None,
        help="decode stage applied to every evaluated plan (a "
        "registered decoder name); default scores the raw posterior, "
        "the paper's protocol",
    )
    parser.add_argument(
        "--precision", choices=("float64", "float32"), default="float64",
        help="solve-stage working precision for every SLOTAlign solve; "
        "float32 steps fused-dense in reduced precision",
    )
    args = parser.parse_args(argv)
    try:
        # the experiment drivers run whole-pair dense solves; this also
        # names the valid choices on unknown names (no bare KeyError)
        ensure_dense_backend(args.backend, "the experiment runner")
        ensure_backend_precision(args.backend, args.precision)
        if args.decoder is not None:
            ensure_decoder(args.decoder)
    except ConfigError as exc:
        raise SystemExit(str(exc)) from exc
    scale = ExperimentScale(
        dataset_scale=args.scale, fast=not args.full, seed=args.seed,
        engine_backend=args.backend, decoder=args.decoder,
        precision=args.precision,
    )
    print(run_experiment(args.experiment, scale))
    return 0


def run_experiment(name: str, scale: ExperimentScale) -> str:
    """Run one experiment and render its report."""
    if name == "fig3":
        out = run_fig3(scale)
        return "\n\n".join(
            format_sweep(out[panel], title=f"Fig. 3 — {panel} inconsistency")
            for panel in ("structure", "feature")
        )
    if name == "fig6":
        out = run_fig6(scale)
        return "\n\n".join(
            format_sweep(res, title=f"Fig. 6 — {ds} (Hit@1 vs edge noise)")
            for ds, res in out.items()
        )
    if name == "fig7":
        out = run_fig7(scale)
        chunks = []
        for ds, transforms in out.items():
            for transform, res in transforms.items():
                chunks.append(
                    format_sweep(res, title=f"Fig. 7 — {ds} / {transform}")
                )
        return "\n\n".join(chunks)
    if name == "table2":
        out = run_table2(scale)
        return "\n\n".join(
            format_table(rows, title=f"Table II — {ds}")
            for ds, rows in out.items()
        )
    if name == "table3":
        out = run_table3(scale)
        return "\n\n".join(
            format_table(rows, title=f"Table III — DBP15K {subset}")
            for subset, rows in out.items()
        )
    if name == "scale":
        out = run_scalability(scale)
        return format_table(
            out["curve"],
            title=(
                "Scalability — whole-graph vs partitioned "
                f"(cpu_count={out['cpu_count']})"
            ),
        )
    if name == "serve":
        report = run_serve_traffic(scale=scale.dataset_scale, seed=scale.seed)
        return format_serve_report(report)
    if name == "fidelity":
        table2 = run_table2(scale, with_ablations=False)
        for dataset, rows in table2.items():
            record_fidelity(
                f"table2_{dataset}", rows, fixed=True,
                dataset_scale=scale.dataset_scale,
            )
        table3 = run_table3(scale)
        for subset, rows in table3.items():
            record_fidelity(
                f"table3_{subset}", rows, fixed=True,
                dataset_scale=scale.dataset_scale,
            )
        return format_fidelity()
    if name == "partial":
        out = run_partial_overlap(scale)
        record_partial(
            out["points"],
            dataset_scale=scale.dataset_scale,
            full_bijective_hits1=out["full_bijective_hits1"],
        )
        return format_partial(out)
    if name == "decoders":
        cohort = run_decoder_comparison(scale)
        record_decoders(cohort, dataset_scale=scale.dataset_scale)
        return format_decoders(cohort)
    if name == "fig8":
        out = run_fig8(scale)
        chunks = []
        for parameter, curves in out.items():
            rows = {
                ds: {f"{v:g}": hit for v, hit in curve}
                for ds, curve in curves.items()
            }
            chunks.append(
                format_table(rows, title=f"Fig. 8 — sensitivity to {parameter}")
            )
        return "\n\n".join(chunks)
    raise ValueError(f"unknown experiment {name!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
