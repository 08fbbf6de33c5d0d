"""Paper-fidelity accuracy tracking: SLOTAlign-vs-best-baseline margins.

Runtime has been tracked machine-readably since PR 1
(``BENCH_solver.json`` / ``BENCH_scale.json``); accuracy was only
asserted.  This module gives accuracy the same treatment: every
benchmark that regenerates a paper table reports the margin between
SLOTAlign's Hit@1 and the best baseline's, and the margins accumulate
in ``BENCH_fidelity.json`` (written into ``$REPRO_BENCH_DIR``, see
:mod:`repro.utils.benchdir`; the committed copy at the repo root is the
baseline) so a regression shows up as a sign flip against version
control, not only as a red test four minutes into the suite.

The artefact maps ``table → {slotalign, best_baseline,
best_baseline_name, margin, fixed}``; ``fixed`` records whether the
table is part of the recovered set (margins there must be
non-negative — since PR 4 that is every Table II/III cell) or
tracked-red, in which case the negative margin is recorded honestly
instead of asserted away (see DESIGN.md).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.utils.benchdir import bench_path

METHOD = "SLOTAlign"
METRIC = "hits@1"


def fidelity_margin(
    rows: dict[str, dict[str, float]],
    method: str = METHOD,
    metric: str = METRIC,
) -> dict:
    """Margin of ``method`` over the best other method in a table.

    Parameters
    ----------
    rows:
        ``{method: {metric: value, ...}}`` — one regenerated paper
        table (the ``evaluate_on_pair`` / ``run_table3`` shape).
    """
    if method not in rows:
        raise KeyError(f"{method!r} missing from table ({sorted(rows)})")
    ours = float(rows[method][metric])
    baselines = {
        name: float(row[metric]) for name, row in rows.items() if name != method
    }
    if not baselines:
        raise ValueError("table has no baselines to compare against")
    best_name = max(baselines, key=baselines.get)
    best = baselines[best_name]
    return {
        "slotalign": ours,
        "best_baseline": best,
        "best_baseline_name": best_name,
        "margin": ours - best,
    }


def record_fidelity(
    table_name: str,
    rows: dict[str, dict[str, float]],
    fixed: bool,
    path: Path | None = None,
    method: str = METHOD,
    metric: str = METRIC,
    dataset_scale: float | None = None,
) -> dict:
    """Compute a table's margin and merge it into ``BENCH_fidelity.json``.

    Read-modify-write so independently-run benchmarks (Table II,
    Table III, each subset) contribute to one artefact.  Returns the
    entry written.  ``dataset_scale`` stamps the stand-in scale the
    margin was measured at — the margins are scale-sensitive (the
    recovery is asserted at the benchmark protocol's 0.03, and e.g.
    0.02 flips Table II negative), so an artefact regenerated at a
    different scale must be distinguishable from a regression.
    """
    path = _artifact_path(path)
    entry = fidelity_margin(rows, method=method, metric=metric)
    entry["fixed"] = bool(fixed)
    if dataset_scale is not None:
        entry["dataset_scale"] = float(dataset_scale)
    # start from the existing artefact so independently-written cohorts
    # (e.g. the "partial" sweep) survive a tables rewrite, then assert
    # this write's own keys over it
    payload = _load_artifact(path)
    payload["metric"] = metric
    payload.setdefault("tables", {})
    payload["tables"][table_name] = entry
    # the aggregate flag is computed over the current write's scale
    # cohort only: margins are scale-sensitive, so an off-protocol
    # regeneration (e.g. --scale 0.07) must not be able to flip the
    # flag against entries measured at the asserted 0.03 protocol —
    # nor vice versa
    current_scale = entry.get("dataset_scale")
    payload["all_fixed_margins_nonnegative"] = all(
        e["margin"] >= 0
        for e in payload["tables"].values()
        if e.get("fixed") and e.get("dataset_scale") == current_scale
    )
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return entry


def _artifact_path(path: Path | None) -> Path:
    return bench_path("BENCH_fidelity.json") if path is None else Path(path)


def _load_artifact(path: Path) -> dict:
    """The existing artefact as a dict (empty on absence/corruption).

    Every writer merges into the loaded payload instead of rebuilding
    it, so cohorts owned by *other* writers — ``tables`` vs the
    ``partial`` sweep — are never silently dropped by a rewrite.
    """
    if not path.exists():
        return {}
    try:
        existing = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return {}
    return existing if isinstance(existing, dict) else {}


def record_partial(
    points: list[dict],
    dataset_scale: float | None = None,
    full_bijective_hits1: float | None = None,
    path: Path | None = None,
) -> dict:
    """Merge a partial-overlap sweep cohort into ``BENCH_fidelity.json``.

    ``points`` is the :func:`repro.eval.robustness.run_partial_sweep`
    output (overlap × anchor-fraction grid).  ``full_bijective_hits1``
    stamps the reference ``fused-dense`` Hit@1 on the unperturbed
    bijective pair — the value the overlap=1.0, zero-anchor sweep point
    must reproduce exactly (the parity gate in ``compare_bench.py``).
    """
    path = _artifact_path(path)
    cohort: dict = {"points": [dict(point) for point in points]}
    if dataset_scale is not None:
        cohort["dataset_scale"] = float(dataset_scale)
    if full_bijective_hits1 is not None:
        cohort["full_bijective_hits1"] = float(full_bijective_hits1)
    payload = _load_artifact(path)
    payload.setdefault("metric", METRIC)
    payload.setdefault("tables", {})
    payload["partial"] = cohort
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return cohort


def record_decoders(
    pairs: dict[str, dict[str, dict[str, float]]],
    dataset_scale: float | None = None,
    baseline_decoder: str = "row-argmax",
    path: Path | None = None,
) -> dict:
    """Merge a decoder-comparison cohort into ``BENCH_fidelity.json``.

    ``pairs`` maps bench-pair name → decoder name → metric dict (the
    ``evaluate_decoded`` report shape).  The solver runs *once* per
    pair; every decoder consumes the same plan, so the cohort measures
    decode quality at zero solver cost.  Each pair entry is stamped
    with ``improved_over_baseline``: the decoders that beat
    ``baseline_decoder`` on Hit@1 or MRR — the ledger behind the
    PR-9 acceptance gate (``compare_bench.check_decoders`` requires at
    least two pairs where some decoder improves on row-argmax).
    """
    path = _artifact_path(path)
    cohort: dict = {"baseline_decoder": baseline_decoder, "pairs": {}}
    if dataset_scale is not None:
        cohort["dataset_scale"] = float(dataset_scale)
    for pair_name, decoders in pairs.items():
        base = decoders.get(baseline_decoder)
        if base is None:
            raise KeyError(
                f"pair {pair_name!r} lacks the baseline decoder "
                f"{baseline_decoder!r} ({sorted(decoders)})"
            )
        improved = sorted(
            name
            for name, report in decoders.items()
            if name != baseline_decoder
            and (
                report.get("hits@1", 0.0) > base.get("hits@1", 0.0)
                or report.get("mrr", 0.0) > base.get("mrr", 0.0)
            )
        )
        cohort["pairs"][pair_name] = {
            "decoders": {
                name: dict(report) for name, report in decoders.items()
            },
            "improved_over_baseline": improved,
        }
    payload = _load_artifact(path)
    payload.setdefault("metric", METRIC)
    payload.setdefault("tables", {})
    payload["decoders"] = cohort
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return cohort


def format_fidelity(path: Path | None = None) -> str:
    """One-line-per-table rendering of the current artefact."""
    path = _artifact_path(path)
    if not path.exists():
        return "(no fidelity artefact)"
    payload = json.loads(path.read_text())
    lines = []
    for name, entry in sorted(payload.get("tables", {}).items()):
        status = "fixed" if entry.get("fixed") else "tracked-red"
        lines.append(
            f"{name}: SLOTAlign {entry['slotalign']:.2f} vs "
            f"{entry['best_baseline_name']} {entry['best_baseline']:.2f} "
            f"(margin {entry['margin']:+.2f}, {status})"
        )
    return "\n".join(lines) if lines else "(no fidelity artefact)"
