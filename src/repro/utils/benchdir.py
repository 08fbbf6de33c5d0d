"""Where the benchmarks write their ``BENCH_*.json`` artefacts.

The ``BENCH_*.json`` files committed at the repository root are the
baselines, and running the benchmarks never rewrites them.  Fresh
artefacts go to the directory named by ``$REPRO_BENCH_DIR`` (default:
the git-ignored ``.bench_build/`` at the repository root), and
``benchmarks/compare_bench.py`` gates that directory against the
committed files::

    export REPRO_BENCH_DIR=.bench_build
    python -m pytest benchmarks -q
    python benchmarks/compare_bench.py . --current-dir "$REPRO_BENCH_DIR"

Re-recording a baseline is an explicit copy out of that directory.
"""

from __future__ import annotations

import os
from pathlib import Path

BENCH_DIR_ENV = "REPRO_BENCH_DIR"
DEFAULT_BENCH_DIR = Path(__file__).resolve().parents[3] / ".bench_build"


def bench_path(name: str) -> Path:
    """Path of the artefact ``name`` in the benchmark output directory.

    The directory is created on first use.
    """
    root = os.environ.get(BENCH_DIR_ENV)
    directory = Path(root) if root else DEFAULT_BENCH_DIR
    directory.mkdir(parents=True, exist_ok=True)
    return directory / name
