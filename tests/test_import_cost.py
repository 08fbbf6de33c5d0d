"""Guard: ``import repro`` and a plain engine run load no heavy SciPy.

``scipy.optimize`` (which pulls in ``scipy.linalg``, ``scipy.special``
and ``scipy.fft``) and ``scipy.sparse.linalg`` cost about half of
``import repro``, yet only the ``emd`` test oracle, Hungarian matching
and decoding, and spectral partitioning call them.  The package reaches
them through SciPy's lazy subpackage attributes (``scipy.optimize.X``,
``sp.linalg.X``), so they load on first use.  A new top-level
``import scipy.optimize`` anywhere on the import path fails this test.

This is a test rather than a ``repro lint`` rule because the lint
engine reads source and cannot see what an import executes.  It runs
in a fresh interpreter: the test process has long since loaded all of
SciPy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY = (
    "scipy.optimize",
    "scipy.sparse.linalg",
    "scipy.linalg",
    "scipy.special",
    "scipy.fft",
)

#: Run as ``python -c SCRIPT *LAZY``; prints, per decoder, which of
#: LAZY are loaded after an engine run with it.
SCRIPT = """
import json
import sys

import repro
import repro.cli
from repro.core import SLOTAlignConfig
from repro.datasets import load_cora, make_semi_synthetic_pair
from repro.engine import AlignmentEngine

loaded = {}
pair = make_semi_synthetic_pair(load_cora(scale=0.02), edge_noise=0.1, seed=0)
for decoder in ("row-argmax", "hungarian"):
    engine = AlignmentEngine(
        SLOTAlignConfig(max_outer_iter=3),
        backend="fused-dense",
        cache=None,
        decoder=decoder,
    )
    engine.run(pair.source, pair.target, ground_truth=pair.ground_truth)
    loaded[decoder] = [name for name in sys.argv[1:] if name in sys.modules]
print(json.dumps(loaded))
"""


def test_heavy_scipy_loads_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *LAZY],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["row-argmax"] == []
    assert "scipy.optimize" in loaded["hungarian"]
