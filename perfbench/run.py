"""The repository benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload engine-pair --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same requests untraced and then traced, and
reports the per-layer metrics, the tracing overhead and whether the
plans stayed bitwise identical.  ``--smoke`` shrinks every input to
a few seconds' work.  Human-readable lines go to standard output
first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (with the
environment fingerprint and every check) is written under
``perfbench/out/``, which git ignores.  ``README.md`` documents the
workloads and every metric.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One BLAS thread per process: two pool workers (or two serving
# threads) on two CPUs then never oversubscribe them.  Must be set
# before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: Cold set-ups per run, the run's own and the rest each in a fresh
#: interpreter; their median is ``setup_s``.  One set-up varies by about
#: a fifth from process to process on a shared machine.  A smoke run
#: times only its own.
SETUP_ROUNDS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_pairs_per_s": "1/s",
    "latency_p50_s": "s",
    "slo_met_frac": "frac",
    "hit1": "%",
    "mrr": "frac",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "ot.sinkhorn.calls": "1/req",
    "ot.sinkhorn.busy_s": "s/req",
    "ot.sinkhorn.inner_iters": "1/req",
    "ot.sinkhorn.cap_hit_frac": "frac",
    "ot.sinkhorn.bytes_computed": "B/req",
    "ot.unbalanced.calls": "1/req",
    "ot.unbalanced.busy_s": "s/req",
    "ot.unbalanced.inner_iters": "1/req",
    "ot.unbalanced.cap_hit_frac": "frac",
    "solve.calls": "1/req",
    "solve.busy_s": "s/req",
    "solve.alpha_update_s": "s/req",
    "solve.pi_update_s": "s/req",
    "solve.outer_iters": "1/req",
    "solve.useful_iter_frac": "frac",
    "solve.restarts_pruned": "1/req",
    "plan.calls": "1/req",
    "plan.busy_s": "s/req",
    "plan.build_s": "s/req",
    "plan.cache_hit_rate": "frac",
    "plan.builds": "1/req",
    "serve.queue_wait_p50_s": "s",
    "serve.queue_wait_tail_s": "s",
    "serve.solve_s": "s",
    "serve.batch_size_mean": "jobs",
    "serve.coalesced_frac": "frac",
    "serve.queue_depth_max": "jobs",
    "serve.gen_lag_max_s": "s",
    "scale.partition_s": "s/req",
    "scale.blocks_s": "s/req",
    "scale.block_max_s": "s/req",
    "scale.block_sum_s": "s/req",
    "scale.parallel_eff": "frac",
    "scale.repair_s": "s/req",
    "scale.repair_patched": "1/req",
    "scale.cut_frac": "frac",
    "decode.calls": "1/req",
    "decode.busy_s": "s/req",
    "evaluate.busy_s": "s/req",
    "trace.overhead_frac": "frac",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default 20, or 2 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and short windows")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else 20.0
    return args


# ----------------------------------------------------------------------
# windows


def closed_window(workload, seconds, tally):
    """Requests back to back until ``seconds`` pass and enough have run."""
    keys = workload.keys()
    records = []
    start = time.perf_counter()
    index = 0
    while True:
        records.append(timed_request(workload, keys[index % len(keys)], tally))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and index >= workload.min_requests():
            return records, elapsed


def keyed_pass(workload, keys, tally, tracer=None):
    records = []
    for position, key in enumerate(keys):
        if tracer is not None:
            tracer.request = position
        records.append(timed_request(workload, key, tally))
    return records


def timed_request(workload, key, tally):
    from workloads import Record

    t0 = time.perf_counter()
    try:
        record = workload.request(key)
    except Exception as exc:  # noqa: BLE001 - a failed request is a result
        record = Record(key=key, error=f"{type(exc).__name__}: {exc}")
    record.latency = time.perf_counter() - t0
    tally.request(record.error)
    return record


def open_window(workload, due, tally):
    records, meta = workload.window(due)
    for record in records:
        tally.request(record.error)
    return records, meta


# ----------------------------------------------------------------------
# metrics


def accuracy(records) -> dict:
    """Mean accuracy over the distinct pairs served (first record each)."""
    first = {}
    for record in records:
        if record.error is None and record.key not in first:
            first[record.key] = record
    chosen = list(first.values())

    def mean(field):
        values = [v for r in chosen for v in getattr(r, field)]
        return sum(values) / len(values) if values else None

    return {"hit1": mean("hit1"), "mrr": mean("mrr"),
            "unmatched_f1": mean("unmatched_f1"), "pairs": len(chosen)}


def end_to_end(workload, records, elapsed, tally, open_timing=None):
    from harness import median, peak_rss_mb, tail

    ok = [r for r in records if r.error is None]
    if open_timing is not None:
        latencies = open_timing.latencies
        met = open_timing.met
        throughput = len(ok) / max(
            r.extra["finished"] for r in ok
        ) if ok else 0.0
    else:
        latencies = [r.latency for r in ok]
        met = sum(1 for value in latencies if value <= workload.latency_limit_s)
        throughput = len(ok) / elapsed
    if not latencies:
        latencies = [0.0]  # nothing completed; the failures fail the run
    tail_latency = tail(latencies)
    quality = accuracy(records)
    metrics = {
        "throughput_pairs_per_s": throughput,
        "latency_p50_s": median(latencies),
        "slo_met_frac": met / max(tally.attempted, 1),
        "hit1": quality["hit1"] or 0.0,
        "mrr": quality["mrr"] or 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "latency_tail_s": tail_latency.value,
        "latency_tail_percentile": tail_latency.percentile,
        "latency_samples": tail_latency.samples,
        "latency_samples_beyond_tail": tail_latency.beyond,
        "latency_limit_s": workload.latency_limit_s,
        "accuracy_pairs": quality["pairs"],
    }
    if quality["unmatched_f1"] is not None:
        info["unmatched_f1"] = quality["unmatched_f1"]
    return metrics, info


def solve_counters(results) -> dict:
    """α/π seconds and restart iterations from the solver results.

    A float64 coalesced batch reports the batch's shared lockstep
    timings on every member, so only its first member counts them.
    """
    totals = {"alpha": 0.0, "pi": 0.0, "iters": 0, "selected": 0, "pruned": 0}
    stack = list(results)
    while stack:
        result = stack.pop()
        blocks = getattr(result, "block_results", None)
        if blocks is not None:
            stack.extend(blocks)
            continue
        extras = result.extras
        coalesced = extras.get("coalesced")
        shared = coalesced is not None and "precision" not in extras
        if not shared or coalesced["batch_index"] == 0:
            totals["alpha"] += extras["phase_timings"]["alpha_update"]
            totals["pi"] += extras["phase_timings"]["pi_update"]
        iterations = extras["portfolio"]["iterations"]
        totals["iters"] += sum(iterations.values())
        totals["selected"] += iterations[extras["selected_start"]]
        totals["pruned"] += len(extras["portfolio"]["pruned"])
    return totals


def per_layer(records, tracer, overhead, open_info=None):
    from harness import median, tail
    from repro.scale import available_cpus

    ok = [r for r in records if r.error is None]
    n = max(len(ok), 1)
    layers = tracer.layer_totals()

    def layer(name, key):
        return layers.get(name, {}).get(key, 0.0)

    sinkhorn = tracer.kernel_totals("ot.sinkhorn")
    unbalanced = tracer.kernel_totals("ot.unbalanced")
    cache = tracer.plan_cache()
    solve = solve_counters([res for r in ok for res in r.results])
    metrics = {
        "ot.sinkhorn.calls": sinkhorn["calls"] / n,
        "ot.sinkhorn.busy_s": sinkhorn["busy_s"] / n,
        "ot.sinkhorn.inner_iters": sinkhorn["inner_iters"] / n,
        "ot.sinkhorn.cap_hit_frac": sinkhorn["cap_hit_frac"],
        "ot.sinkhorn.bytes_computed": sinkhorn["bytes_computed"] / n,
        "ot.unbalanced.calls": unbalanced["calls"] / n,
        "ot.unbalanced.busy_s": unbalanced["busy_s"] / n,
        "ot.unbalanced.inner_iters": unbalanced["inner_iters"] / n,
        "ot.unbalanced.cap_hit_frac": unbalanced["cap_hit_frac"],
        "solve.calls": layer("solve", "calls") / n,
        "solve.busy_s": layer("solve", "busy_s") / n,
        "solve.alpha_update_s": solve["alpha"] / n,
        "solve.pi_update_s": solve["pi"] / n,
        "solve.outer_iters": solve["iters"] / n,
        "solve.useful_iter_frac": (
            solve["selected"] / solve["iters"] if solve["iters"] else 0.0
        ),
        "solve.restarts_pruned": solve["pruned"] / n,
        "plan.calls": len(tracer.named("plan.prepare")) / n,
        "plan.busy_s": layer("plan", "busy_s") / n,
        "plan.build_s": cache["build_s"] / n,
        "plan.cache_hit_rate": cache["hit_rate"],
        "plan.builds": cache["builds"] / n,
        "decode.calls": layer("decode", "calls") / n,
        "decode.busy_s": layer("decode", "busy_s") / n,
        "evaluate.busy_s": layer("evaluate", "busy_s") / n,
        "trace.overhead_frac": overhead,
    }
    serve = dict.fromkeys(
        [k for k in PER_LAYER_UNITS if k.startswith("serve.")], 0.0
    )
    if open_info is not None:
        waits = [r.extra["queue_s"] for r in ok if r.extra["queue_s"] is not None]
        sizes = [r.extra["batch_size"] for r in ok]
        serve.update({
            "serve.queue_wait_p50_s": median(waits),
            "serve.queue_wait_tail_s": tail(waits).value,
            "serve.solve_s": sum(r.extra["solve_s"] for r in ok) / n,
            "serve.batch_size_mean": sum(sizes) / n,
            "serve.coalesced_frac": sum(1 for s in sizes if s > 1) / n,
            "serve.queue_depth_max": float(max(open_info["queue_depths"], default=0)),
            "serve.gen_lag_max_s": open_info["gen_lag_max"],
        })
    metrics.update(serve)
    scale = dict.fromkeys(
        [k for k in PER_LAYER_UNITS if k.startswith("scale.")], 0.0
    )
    partitioned = [r.results[0] for r in ok if hasattr(r.results[0], "block_results")]
    if partitioned:
        spans = {
            name: sum(s["end"] - s["start"] for s in tracer.named(name))
            for name in ("scale.partition", "scale.blocks", "scale.repair")
        }
        block_sum = [sum(b.runtime for b in p.block_results) for p in partitioned]
        workers = [
            1 if p.extras["executor"] == "serial"
            else min(len(p.block_results), available_cpus())
            for p in partitioned
        ]
        weighted = sum(
            w * (s["end"] - s["start"])
            for w, s in zip(workers, tracer.named("scale.blocks"))
        )
        scale.update({
            "scale.partition_s": spans["scale.partition"] / n,
            "scale.blocks_s": spans["scale.blocks"] / n,
            "scale.block_max_s": sum(
                max(b.runtime for b in p.block_results) for p in partitioned
            ) / n,
            "scale.block_sum_s": sum(block_sum) / n,
            "scale.parallel_eff": sum(block_sum) / weighted if weighted else 0.0,
            "scale.repair_s": spans["scale.repair"] / n,
            "scale.repair_patched": sum(
                p.extras.get("repair", {}).get("n_patched", 0) for p in partitioned
            ) / n,
            "scale.cut_frac": sum(
                p.extras["source_cut_fraction"] for p in partitioned
            ) / n,
        })
    metrics.update(scale)
    return metrics


# ----------------------------------------------------------------------
# set-up


def setup_workload(args):
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    workload.setup()
    return workload, time.perf_counter() - START


def probe_setups(args, tally) -> list[float]:
    """Further cold set-ups, each in a fresh interpreter, one at a time."""
    times = []
    for _ in range(0 if args.smoke else SETUP_ROUNDS - 1):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-only",
        ]
        try:
            done = subprocess.run(
                command, capture_output=True, text=True, timeout=150,
                cwd=ROOT, check=True,
            )
            times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
        except (subprocess.SubprocessError, ValueError, IndexError, KeyError) as exc:
            tally.check("setup-probe", False, repr(exc))
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload, setup_s = setup_workload(args)
    if args.setup_only:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from harness import Tally, fingerprint

    tally = Tally()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info: dict = {"fingerprint": fingerprint(args.seed), "workload": args.workload,
                  "seconds": args.seconds, "smoke": args.smoke}
    try:
        if args.trace:
            metrics, units = run_traced(args, workload, tally, info, stem)
        else:
            metrics, units = run_untraced(args, workload, tally, info, setup_s)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()

    correct = tally.failed == 0
    info.update({
        "metrics": metrics, "error_rate": tally.error_rate,
        "attempted": tally.attempted, "failures": tally.failures[:50],
        "checks": tally.checks,
    })
    (OUT / f"{stem}.json").write_text(json.dumps(info, indent=1, default=str))
    report(args, metrics, units, info, tally)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def run_untraced(args, workload, tally, info, setup_s):
    from harness import median, open_loop_timing

    if workload.open_loop:
        due = workload.schedule(args.seconds)
        records, meta = open_window(workload, due, tally)
        timing = open_loop_timing(
            due, meta["sent"], [r.extra["finished"] for r in records],
            workload.latency_limit_s,
        )
        metrics, extra = end_to_end(workload, records, None, tally, timing)
        extra["gen_lag_max_s"] = timing.gen_lag_max
        extra["arrival_rate_per_s"] = workload.RATE
    else:
        records, elapsed = closed_window(workload, args.seconds, tally)
        metrics, extra = end_to_end(workload, records, elapsed, tally)
    workload.check(records, tally)
    setups = [setup_s] + probe_setups(args, tally)
    metrics = {"setup_s": median(setups), **metrics}
    info.update(extra)
    info["setup_rounds_s"] = setups
    return metrics, END_TO_END_UNITS


def run_traced(args, workload, tally, info, stem):
    """Untraced requests, then the same requests traced; compare them."""
    from harness import open_loop_timing
    from tracer import Tracer

    half = args.seconds / 2
    tracer = Tracer()
    open_info = None
    if workload.open_loop:
        due = workload.schedule(half)
        plain, _ = open_window(workload, due, tally)
        with tracer:
            traced, meta = open_window(workload, due, tally)
        timing = open_loop_timing(
            due, meta["sent"], [r.extra["finished"] for r in traced],
            workload.latency_limit_s,
        )
        open_info = {"queue_depths": meta["queue_depths"],
                     "gen_lag_max": timing.gen_lag_max}
        cost = (lambda rs: sum(r.extra["solve_s"] for r in rs if r.error is None))
    else:
        plain, _ = closed_window(workload, half, tally)
        with tracer:
            traced = keyed_pass(workload, [r.key for r in plain], tally, tracer)
        cost = (lambda rs: sum(r.latency for r in rs if r.error is None))
    untraced_cost = cost(plain)
    overhead = cost(traced) / untraced_cost - 1.0 if untraced_cost else 0.0
    mismatched = [
        index for index, (a, b) in enumerate(zip(plain, traced))
        if _plans(a) != _plans(b)
    ]
    tally.check(
        "traced-bitwise", not mismatched,
        f"{len(traced)} requests; mismatched at {mismatched[:10]}",
    )
    # a renamed or rebound entry point would read as a layer that got free
    tally.check(
        "trace-entry-points", not tracer.missing,
        f"missing {tracer.missing}" if tracer.missing else "all wrapped",
    )
    workload.check(traced, tally)
    tracer.write(OUT / f"{stem.replace('-trace1', '')}-spans.json")
    info["missing_entry_points"] = tracer.missing
    info["self_time_s"] = {
        name: round(totals["self_s"], 6)
        for name, totals in sorted(tracer.layer_totals().items())
    }
    info["traced_requests"] = len(traced)
    return per_layer(traced, tracer, overhead, open_info), PER_LAYER_UNITS


def _plans(record):
    from workloads import plan_bytes

    return [plan_bytes(plan) for plan in record.plans]


def report(args, metrics, units, info, tally) -> None:
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'error_rate':32s} {tally.error_rate:14.6g} frac")
    if "unmatched_f1" in info:
        print(f"{'unmatched_f1':32s} {info['unmatched_f1']:14.6g} frac")
    if "latency_tail_s" in info:
        print(f"{'latency_tail_s':32s} {info['latency_tail_s']:14.6g} s"
              f"  (p{info['latency_tail_percentile']:.1f} of "
              f"{info['latency_samples']} samples, "
              f"{info['latency_samples_beyond_tail']} beyond)")
    if "self_time_s" in info:
        print("  self time by layer (s): " + ", ".join(
            f"{k} {v:.3f}" for k, v in info["self_time_s"].items()))
    for check in tally.checks:
        print(f"  check {check['name']}: {'ok' if check['ok'] else 'FAILED'} "
              f"({check['detail']})")
    for failure in tally.failures[:10]:
        print(f"  error: {failure}")


if __name__ == "__main__":
    sys.exit(main())
