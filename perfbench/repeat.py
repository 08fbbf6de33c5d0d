"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/repeat.py --workloads engine-pair serve-open --seeds 101-110

Each run is ``perfbench/run.py`` in its own process, one at a time.
For every metric the report gives the median over the runs and the
inter-quartile distance as a share of that median — the figure the
``bound`` of each end-to-end metric in ``BENCHMARK.json`` is checked
against.  Raw per-run values are appended to ``perfbench/out/repeat.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from harness import median, spread

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="'101-110' or '5,9,12'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    (HERE / "out").mkdir(exist_ok=True)
    failed = False
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            command = [sys.executable, str(HERE / "run.py"), "--workload",
                       workload, "--seed", str(seed), "--trace", str(args.trace)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            done = subprocess.run(command, capture_output=True, text=True,
                                  cwd=HERE.parent)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if done.returncode != 0 or result is None or not result["correct"]:
                failed = True
                print(f"{workload} seed {seed}: FAILED (exit {done.returncode})\n"
                      + done.stdout[-2000:] + done.stderr[-2000:])
                continue
            with open(HERE / "out" / "repeat.jsonl", "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"# {workload}: {len(args.seeds)} seeds")
        for name, series in values.items():
            bound = bounds.get(name)
            share = spread(series) if len(series) >= 2 else float("nan")
            flag = ""
            if bound is not None and share > bound / 3:
                flag = f"  above a third of bound {bound}"
            print(f"{name:32s} median {median(series):12.6g}  spread {share:7.4f}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
