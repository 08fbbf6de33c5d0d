"""Bench-regression gate: compare fresh BENCH_*.json against baselines.

The benchmarks write fresh artefacts into ``$REPRO_BENCH_DIR`` (see
:mod:`repro.utils.benchdir`) and leave the *committed* ``BENCH_*.json``
at the repo root alone, so CI gates the fresh directory against them::

    python benchmarks/compare_bench.py . --current-dir "$REPRO_BENCH_DIR"

The gate fails (exit 1) when

* the solver microbench slowed down by more than ``--max-slowdown``
  (default 20 %) against the committed ``fit_seconds`` — or any
  individual backend did, both normalised by each side's
  ``reference_seconds`` machine calibration,
* the ``precision`` section is missing, its within-run float32
  ``pi_update`` speedup fell below ``--min-f32-speedup``, or a parity
  pair's Hit@1 drifted past the tolerance recorded in the JSON,
* the serving bench (``BENCH_serve.json``) lost its invariants (zero
  cache hit rate, no coalescing, a bitwise divergence from the direct
  engine) or its calibrated pairs/sec regressed past the slowdown
  budget, or
* the scalability bench (``BENCH_scale.json``) lost a correctness
  invariant (parallel blocks no longer bitwise the serial loop,
  injected cross-partition links no longer fully recovered) or its
  within-run ``block_speedup`` (serial/parallel on the same box, so no
  machine-reference normalisation needed) fell more than the slowdown
  budget below the committed value — the parallel partition path
  quietly becoming slower than serial must land as a red X, not as a
  silently re-recorded artefact, or
* any SLOTAlign-vs-best-baseline Hit@1 margin in the fresh
  ``BENCH_fidelity.json`` went negative (an accuracy regression, which
  no runner-speed excuse can explain away), or
* the ``partial`` cohort is missing, its overlap=1.0 zero-anchor
  ``partial-dummy`` point drifted from the full-bijective
  ``fused-dense`` reference (the delegation is bitwise), or its
  unanchored Hit@1 curve stopped being monotone non-increasing in
  overlap (within ``--partial-tolerance``), or
* the ``decoders`` cohort is missing, lacks one of the four
  registered decoders on some pair, or no longer has at least two
  pairs where a one-to-one decoder improves Hit@1 or MRR over
  ``row-argmax`` (the decode stage stopped earning its keep).

A missing *baseline* file is reported and skipped (first run on a
branch that introduces the artefact); a missing *fresh* file fails —
it means the benchmark that should have produced it did not run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def load(path: Path) -> dict | None:
    if not path.exists():
        return None
    return json.loads(path.read_text())


def check_solver(baseline_dir: Path, current_dir: Path, max_slowdown: float):
    """Yield failure messages for the solver microbench comparison."""
    fresh = load(current_dir / "BENCH_solver.json")
    if fresh is None:
        yield "BENCH_solver.json missing from the current run"
        return
    baseline = load(baseline_dir / "BENCH_solver.json")
    if baseline is None:
        print("note: no baseline BENCH_solver.json; skipping solver gate")
        return
    base_fit = baseline.get("fit_seconds")
    fresh_fit = fresh.get("fit_seconds")
    if base_fit is None or fresh_fit is None:
        print("note: fit_seconds absent on one side; skipping solver gate")
        return
    # normalise by the per-run machine reference when both sides carry
    # one: the committed baseline comes from a different box than the
    # CI runner, and raw wall-clock would gate hardware speed, not code
    base_ref = baseline.get("reference_seconds")
    fresh_ref = fresh.get("reference_seconds")
    if base_ref and fresh_ref:
        base_value = base_fit / base_ref
        fresh_value = fresh_fit / fresh_ref
        unit = "x reference workload"
        print(
            f"machine calibration: baseline ref {base_ref:.4f}s, "
            f"fresh ref {fresh_ref:.4f}s"
        )
    else:
        base_value, fresh_value, unit = base_fit, fresh_fit, "s (uncalibrated)"
        print("note: no reference_seconds on one side; comparing raw seconds")
    allowed = base_value * (1.0 + max_slowdown)
    print(
        f"solver fit: baseline {base_value:.3f}{unit}, "
        f"fresh {fresh_value:.3f}{unit} (allowed <= {allowed:.3f})"
    )
    if fresh_value > allowed:
        yield (
            f"solver microbench regressed: {fresh_value:.3f}{unit} vs "
            f"committed {base_value:.3f}{unit} (> {max_slowdown:.0%} slowdown)"
        )
    backends = fresh.get("backend_fit_seconds", {})
    # per-backend regression gate, normalised by each side's machine
    # reference exactly like the headline fit gate — a backend can
    # regress while the headline (which only times the default path)
    # stays green, and raw per-backend seconds would gate hardware
    base_backends = baseline.get("backend_fit_seconds", {})
    if base_ref and fresh_ref:
        for name in sorted(set(backends) & set(base_backends)):
            base_value = base_backends[name] / base_ref
            fresh_value = backends[name] / fresh_ref
            allowed = base_value * (1.0 + max_slowdown)
            print(
                f"backend {name}: baseline {base_value:.3f}x reference, "
                f"fresh {fresh_value:.3f}x (allowed <= {allowed:.3f})"
            )
            if fresh_value > allowed:
                yield (
                    f"backend {name} regressed: {fresh_value:.3f}x reference "
                    f"vs committed {base_value:.3f}x "
                    f"(> {max_slowdown:.0%} slowdown)"
                )
    elif base_backends:
        print("note: no reference_seconds on one side; per-backend gate skipped")


def check_precision(current_dir: Path, min_speedup: float = 1.05):
    """Yield failure messages for the precision section.

    The gates are *within-run* invariants of the fresh
    ``BENCH_solver.json`` — the float64 reference and the float32 solve
    are timed back to back on the same box, so their ratio needs no
    machine-reference normalisation: the ``precision`` section must
    exist, its ``pi_update_speedup`` must clear ``min_speedup`` (the
    float32 path must keep paying for itself; DESIGN.md, "Measured,
    gated", says how the floor leaves headroom for shared-runner
    noise), and every parity pair's Hit@1 delta must sit within the
    tolerance the benchmark wrote into the JSON.
    """
    fresh = load(current_dir / "BENCH_solver.json")
    if fresh is None:
        yield "BENCH_solver.json missing from the current run"
        return
    section = fresh.get("precision")
    if not isinstance(section, dict):
        yield (
            "BENCH_solver.json has no precision section "
            "(precision bench did not run)"
        )
        return
    speedup = section.get("pi_update_speedup")
    if speedup is None:
        yield "precision section lacks pi_update_speedup"
    else:
        print(
            f"float32 pi_update speedup: {speedup:.2f}x "
            f"(required >= {min_speedup:.2f}x)"
        )
        if speedup < min_speedup:
            yield (
                f"float32 pi_update speedup {speedup:.2f}x fell below "
                f"{min_speedup:.2f}x — the reduced-precision fast path "
                "stopped paying for itself"
            )
    tolerance = section.get("hit1_tolerance")
    parity = section.get("parity")
    if not isinstance(parity, dict) or not parity or tolerance is None:
        yield "precision section lacks the Hit@1 parity pairs/tolerance"
    else:
        for name, entry in sorted(parity.items()):
            delta = entry.get("hit1_delta")
            if delta is None:
                yield f"precision parity pair {name!r} lacks hit1_delta"
                continue
            print(f"precision parity {name}: Hit@1 delta {delta:.2f}")
            if delta > tolerance:
                yield (
                    f"precision parity broken on {name}: float32 Hit@1 "
                    f"drifted {delta:.2f} points from float64 "
                    f"(tolerance {tolerance})"
                )


def check_serve(baseline_dir: Path, current_dir: Path, max_slowdown: float):
    """Yield failure messages for the serving-bench comparison.

    The fresh file carries its own correctness invariants (cache hits,
    coalescing engaged, bitwise fidelity) — those gate unconditionally.
    Throughput gates only against a committed baseline, normalised by
    each side's ``reference_seconds`` so machine speed cancels out:
    ``pairs_per_second × reference_seconds`` is pairs per reference
    workload, comparable across boxes.
    """
    fresh = load(current_dir / "BENCH_serve.json")
    if fresh is None:
        yield "BENCH_serve.json missing from the current run"
        return
    if fresh.get("cache", {}).get("hit_rate", 0.0) <= 0.0:
        yield "serve bench: plan-cache hit rate is zero (sharing broken)"
    if fresh.get("coalesced_batches", 0) <= 0:
        yield "serve bench: no coalesced batches (coalescing disengaged)"
    if fresh.get("single_pair_bitwise_equal") is not True:
        yield (
            "serve bench: served plan diverged bitwise from the direct "
            "engine run"
        )
    baseline = load(baseline_dir / "BENCH_serve.json")
    if baseline is None:
        print("note: no baseline BENCH_serve.json; skipping serve gate")
        return
    base_pps = baseline.get("pairs_per_second")
    fresh_pps = fresh.get("pairs_per_second")
    if base_pps is None or fresh_pps is None:
        print("note: pairs_per_second absent on one side; skipping serve gate")
        return
    base_ref = baseline.get("reference_seconds")
    fresh_ref = fresh.get("reference_seconds")
    if base_ref and fresh_ref:
        base_value = base_pps * base_ref
        fresh_value = fresh_pps * fresh_ref
        unit = " pairs/reference"
        print(
            f"machine calibration: baseline ref {base_ref:.4f}s, "
            f"fresh ref {fresh_ref:.4f}s"
        )
    else:
        base_value, fresh_value = base_pps, fresh_pps
        unit = " pairs/s (uncalibrated)"
        print("note: no reference_seconds on one side; comparing raw pairs/s")
    allowed = base_value / (1.0 + max_slowdown)
    print(
        f"serve throughput: baseline {base_value:.3f}{unit}, "
        f"fresh {fresh_value:.3f}{unit} (allowed >= {allowed:.3f})"
    )
    if fresh_value < allowed:
        yield (
            f"serve bench regressed: {fresh_value:.3f}{unit} vs committed "
            f"{base_value:.3f}{unit} (> {max_slowdown:.0%} slowdown)"
        )


def check_scale(baseline_dir: Path, current_dir: Path, max_slowdown: float):
    """Yield failure messages for the scalability-bench comparison.

    The fresh file carries its own correctness invariants — the
    process-parallel block solves must stay bitwise-equal to the
    serial loop and the seeded boundary repair must keep recovering
    every injected cross-partition link — and those gate
    unconditionally.  ``block_speedup`` is a within-run ratio (serial
    and parallel timed back to back on the same box), so it gates
    directly against the committed value without machine-reference
    normalisation.  The comparison is skipped with a note when the
    fresh box has fewer cpus than the baseline box: a parallel path
    cannot be expected to hold its speedup with fewer cores.
    """
    fresh = load(current_dir / "BENCH_scale.json")
    if fresh is None:
        yield "BENCH_scale.json missing from the current run"
        return
    four_block = fresh.get("four_block", {})
    if four_block.get("bitwise_equal") is not True:
        yield (
            "scale bench: parallel block solves diverged bitwise from "
            "the serial loop"
        )
    recovery = four_block.get("injected_recovery", {})
    rate = recovery.get("recovery_rate")
    if rate is not None and rate < 1.0:
        yield (
            f"scale bench: boundary repair recovered only "
            f"{recovery.get('recovered_links')}/{recovery.get('lost_links')} "
            f"injected cross-partition links (rate {rate:.2f} < 1.0)"
        )
    baseline = load(baseline_dir / "BENCH_scale.json")
    if baseline is None:
        print("note: no baseline BENCH_scale.json; skipping scale gate")
        return
    base_speedup = baseline.get("four_block", {}).get("block_speedup")
    fresh_speedup = four_block.get("block_speedup")
    if base_speedup is None or fresh_speedup is None:
        print("note: block_speedup absent on one side; skipping scale gate")
        return
    base_cpus = baseline.get("cpu_count")
    fresh_cpus = fresh.get("cpu_count")
    if base_cpus and fresh_cpus and fresh_cpus < base_cpus:
        print(
            f"note: fresh box has {fresh_cpus} cpu(s) vs baseline "
            f"{base_cpus}; skipping block_speedup gate"
        )
        return
    allowed = base_speedup / (1.0 + max_slowdown)
    print(
        f"scale block_speedup: baseline {base_speedup:.2f}x, "
        f"fresh {fresh_speedup:.2f}x (allowed >= {allowed:.2f}x)"
    )
    if fresh_speedup < allowed:
        yield (
            f"scale bench regressed: block_speedup {fresh_speedup:.2f}x vs "
            f"committed {base_speedup:.2f}x (> {max_slowdown:.0%} drop) — "
            "the parallel partition path is losing to serial"
        )


def check_fidelity(current_dir: Path):
    """Yield failure messages for negative accuracy margins."""
    fresh = load(current_dir / "BENCH_fidelity.json")
    if fresh is None:
        yield "BENCH_fidelity.json missing from the current run"
        return
    tables = fresh.get("tables", {})
    if not tables:
        yield "BENCH_fidelity.json contains no tables"
        return
    for name, entry in sorted(tables.items()):
        margin = entry.get("margin")
        if margin is None:
            print(f"fidelity margin {name}: (absent; skipped)")
            continue
        print(f"fidelity margin {name}: {margin:+.2f}")
        if margin < 0.0:
            yield (
                f"fidelity regression: {name} margin {margin:.2f} < 0 "
                f"(SLOTAlign {entry.get('slotalign')} vs "
                f"{entry.get('best_baseline_name')} {entry.get('best_baseline')})"
            )


def check_partial(current_dir: Path, tolerance: float = 10.0):
    """Yield failure messages for the partial-overlap cohort.

    The cohort (written by ``benchmarks/test_partial_bench.py``) must
    exist, its ``partial-dummy`` overlap=1.0 zero-anchor point must
    reproduce the full-bijective ``fused-dense`` Hit@1 *exactly* (the
    delegation is bitwise — any drift means the partial plumbing
    touched the classical path), and the unanchored Hit@1 curve must
    be monotone non-increasing (within ``tolerance``) as overlap
    drops.
    """
    fresh = load(current_dir / "BENCH_fidelity.json")
    if fresh is None:
        yield "BENCH_fidelity.json missing from the current run"
        return
    cohort = fresh.get("partial")
    if not isinstance(cohort, dict) or not cohort.get("points"):
        yield "BENCH_fidelity.json has no partial cohort (partial bench did not run)"
        return
    points = cohort["points"]
    dummy = [p for p in points if p.get("backend") == "partial-dummy"]
    overlaps = sorted({p["overlap"] for p in dummy})
    anchored = any(p.get("anchor_fraction", 0.0) > 0.0 for p in dummy)
    print(
        f"partial cohort: {len(points)} points, overlaps {overlaps}, "
        f"anchored points: {anchored}"
    )
    if len(overlaps) < 3:
        yield f"partial cohort covers {len(overlaps)} overlap fractions (< 3)"
    if not anchored:
        yield "partial cohort has no anchor-seeded points"
    reference = cohort.get("full_bijective_hits1")
    parity = [
        p for p in dummy
        if p["overlap"] == 1.0 and p.get("anchor_fraction", 0.0) == 0.0
    ]
    if reference is None or not parity:
        yield "partial cohort lacks the overlap=1.0 parity point/reference"
    else:
        drift = abs(parity[0]["hits@1"] - reference)
        print(
            f"partial parity: sweep {parity[0]['hits@1']:.4f} vs "
            f"full-bijective {reference:.4f} (drift {drift:.2e})"
        )
        if drift > 1e-9:
            yield (
                f"partial parity broken: overlap=1.0 point {parity[0]['hits@1']}"
                f" != full-bijective fused-dense {reference} (delegation must "
                "be bitwise)"
            )
    unanchored = sorted(
        (p for p in dummy if p.get("anchor_fraction", 0.0) == 0.0),
        key=lambda p: -p["overlap"],
    )
    for higher, lower in zip(unanchored, unanchored[1:]):
        if lower["hits@1"] > higher["hits@1"] + tolerance:
            yield (
                f"partial curve not monotone: overlap {lower['overlap']} "
                f"Hit@1 {lower['hits@1']:.2f} exceeds overlap "
                f"{higher['overlap']} Hit@1 {higher['hits@1']:.2f} "
                f"by more than {tolerance}"
            )


def check_decoders(current_dir: Path, min_improved: int = 2):
    """Yield failure messages for the decoder-comparison cohort.

    The cohort (written by ``benchmarks/test_decoder_bench.py``) must
    exist, carry all four registered decoders on every pair, and keep
    at least ``min_improved`` pairs whose ``improved_over_baseline``
    list is non-empty — the PR-9 acceptance gate that a one-to-one
    decoder actually buys Hit@1/MRR somewhere, at zero solver cost.
    """
    expected = {"hungarian", "mea", "mutual-argmax", "row-argmax"}
    fresh = load(current_dir / "BENCH_fidelity.json")
    if fresh is None:
        yield "BENCH_fidelity.json missing from the current run"
        return
    cohort = fresh.get("decoders")
    if not isinstance(cohort, dict) or not cohort.get("pairs"):
        yield (
            "BENCH_fidelity.json has no decoders cohort "
            "(decoder bench did not run)"
        )
        return
    pairs = cohort["pairs"]
    improved = []
    for name, entry in sorted(pairs.items()):
        present = set(entry.get("decoders", {}))
        if present != expected:
            yield (
                f"decoder cohort pair {name!r} carries {sorted(present)} "
                f"(expected {sorted(expected)})"
            )
        winners = entry.get("improved_over_baseline", [])
        print(f"decoder cohort {name}: improved_over_baseline={winners}")
        if winners:
            improved.append(name)
    print(
        f"decoder cohort: {len(improved)}/{len(pairs)} pairs improved "
        f"over {cohort.get('baseline_decoder', 'row-argmax')}"
    )
    if len(improved) < min_improved:
        yield (
            f"decoder cohort: only {len(improved)} pairs improve on the "
            f"baseline decoder (need {min_improved}) — the one-to-one "
            "decoders stopped beating row-argmax"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "baseline_dir", type=Path,
        help="directory holding the committed BENCH_*.json copies",
    )
    parser.add_argument(
        "--current-dir", type=Path, default=REPO_ROOT,
        help="directory holding the freshly generated BENCH_*.json",
    )
    parser.add_argument(
        "--max-slowdown", type=float, default=0.20,
        help="allowed fractional fit_seconds slowdown (default 0.20)",
    )
    parser.add_argument(
        "--partial-tolerance", type=float, default=10.0,
        help="Hit@1 points of slack for the partial-curve monotonicity "
        "gate (default 10.0, matching test_partial_bench.SHAPE_TOLERANCE)",
    )
    parser.add_argument(
        "--min-f32-speedup", type=float, default=1.05,
        help="required within-run float32 pi_update speedup over the "
        "float64 serial reference (default 1.05)",
    )
    args = parser.parse_args(argv)
    failures = [
        *check_solver(args.baseline_dir, args.current_dir, args.max_slowdown),
        *check_precision(args.current_dir, min_speedup=args.min_f32_speedup),
        *check_serve(args.baseline_dir, args.current_dir, args.max_slowdown),
        *check_scale(args.baseline_dir, args.current_dir, args.max_slowdown),
        *check_fidelity(args.current_dir),
        *check_partial(args.current_dir, tolerance=args.partial_tolerance),
        *check_decoders(args.current_dir),
    ]
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("bench regression gate: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
