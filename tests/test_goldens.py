"""Golden regression fixtures: stitched plan + solver trajectories.

The invariant tests pin *properties*; these pin *values*: a seeded
60-node pair's stitched partition plan, the solver's iterate
trajectory, and the trajectories and plans of the partial and float32
solve paths are compared against committed known-good artefacts under
``tests/goldens/``.  A solver refactor that claims bitwise/tolerance
faithfulness (like PR 1's fused objective or this PR's executor) now
diffs against the actual plans it must preserve, not only against
invariants.

After an **intentional** numerical change, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens

and commit the refreshed ``.npz`` files with the change explaining them.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import SLOTAlign, SLOTAlignConfig
from repro.datasets import (
    PartialPairSpec,
    make_partial_pair,
    make_semi_synthetic_pair,
)
from repro.engine import AlignmentEngine
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words
from repro.scale import DivideAndConquerAligner

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

# a fixed tolerance rather than bitwise: the goldens must survive a
# BLAS/vendor change, which perturbs accumulation order at the ulp
# level; anything beyond this band is a real behaviour change
ATOL = 1e-9

GOLDEN_CFG = SLOTAlignConfig(
    n_bases=2, structure_lr=0.1, max_outer_iter=60, sinkhorn_iter=40,
    track_history=True,
)


def golden_graph():
    """The seeded 60-node base graph every golden is generated from."""
    graph = stochastic_block_model([15] * 4, 0.5, 0.01, seed=1)
    feats = community_bag_of_words(
        graph.node_labels, 80, words_per_node=20, seed=2
    )
    return graph.with_features(feats)


def golden_pair():
    """The seeded 60-node bijective pair."""
    return make_semi_synthetic_pair(golden_graph(), seed=3)


def golden_partial_pair():
    """Overlap-0.8 pair of the same graph, a fifth of its truth as anchors."""
    spec = PartialPairSpec(overlap=0.8, anchor_fraction=0.2)
    return make_partial_pair(golden_graph(), spec, seed=3)


def _save_plan(path: Path, plan: sp.csr_array) -> None:
    coo = plan.tocoo()
    np.savez_compressed(
        path, row=coo.row, col=coo.col, data=coo.data,
        shape=np.asarray(plan.shape),
    )


def _load_plan(path: Path) -> sp.csr_array:
    blob = np.load(path)
    return sp.csr_array(
        sp.coo_array(
            (blob["data"], (blob["row"], blob["col"])),
            shape=tuple(blob["shape"]),
        )
    )


class TestStitchedPlanGolden:
    PATH = GOLDEN_DIR / "stitched_plan_60.npz"

    def test_stitched_plan_matches_golden(self, update_goldens):
        pair = golden_pair()
        out = DivideAndConquerAligner(GOLDEN_CFG, n_parts=4).fit(
            pair.source, pair.target
        )
        if update_goldens:
            GOLDEN_DIR.mkdir(exist_ok=True)
            _save_plan(self.PATH, out.plan)
            pytest.skip("golden regenerated")
        assert self.PATH.exists(), (
            "missing golden fixture; run with --update-goldens"
        )
        golden = _load_plan(self.PATH)
        assert out.plan.shape == golden.shape
        diff = out.plan - golden
        max_diff = 0.0 if diff.nnz == 0 else float(np.max(np.abs(diff.data)))
        assert max_diff <= ATOL, (
            f"stitched plan drifted from golden by {max_diff:.3e}; if the "
            "change is intentional, regenerate with --update-goldens"
        )


class TestTrajectoryGolden:
    PATH = GOLDEN_DIR / "solver_trajectory_60.npz"

    def test_trajectory_matches_golden(self, update_goldens):
        pair = golden_pair()
        solver = SLOTAlign(GOLDEN_CFG)
        # exercise the block-level reuse hook: bases built once,
        # injected into the fit
        bases = solver.prepare_bases(pair.source, pair.target)
        result = solver.fit(pair.source, pair.target, bases=bases)
        history = result.extras["history"]
        current = {
            "objective_values": np.asarray(history.objective_values),
            "alpha_deltas": np.asarray(history.alpha_deltas),
            "plan_deltas": np.asarray(history.plan_deltas),
        }
        if update_goldens:
            GOLDEN_DIR.mkdir(exist_ok=True)
            np.savez_compressed(self.PATH, **current)
            pytest.skip("golden regenerated")
        assert self.PATH.exists(), (
            "missing golden fixture; run with --update-goldens"
        )
        golden = np.load(self.PATH)
        for key, series in current.items():
            np.testing.assert_allclose(
                series, golden[key], atol=ATOL, rtol=0,
                err_msg=f"solver trajectory ({key}) drifted from golden; "
                "regenerate with --update-goldens if intentional",
            )

    def test_reused_bases_change_nothing(self):
        """The reuse hook is transparent: fit with injected bases equals
        fit that builds its own, bit for bit."""
        pair = golden_pair()
        solver = SLOTAlign(GOLDEN_CFG)
        bases = solver.prepare_bases(pair.source, pair.target)
        with_hook = solver.fit(pair.source, pair.target, bases=bases)
        without = SLOTAlign(GOLDEN_CFG).fit(pair.source, pair.target)
        np.testing.assert_array_equal(with_hook.plan, without.plan)


class TestSolvePathGoldens:
    """The solve paths beside the balanced float64 reference.

    Each case pins the selected restart's trajectory and the returned
    plan of one engine solve: the dummy-sink reduction with slack and
    anchors, the KL-relaxed projection with anchors, and ``fused-dense``
    stepped in float32.  A float32 trajectory is vendor-sensitive at
    float32 resolution, hence its wider band.
    """

    CASES = {
        "partial_dummy_60": ("partial-dummy", "float64", ATOL),
        "partial_unbalanced_60": ("partial-unbalanced", "float64", ATOL),
        "fused_dense_float32_60": ("fused-dense", "float32", 1e-6),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_solve_path_matches_golden(self, case, update_goldens):
        backend, precision, atol = self.CASES[case]
        anchors = None
        if backend.startswith("partial"):
            pair = golden_partial_pair()
            anchors = pair.anchors
            cfg = replace(
                GOLDEN_CFG, partial_mass=float(pair.source_matchable.mean())
            )
        else:
            pair, cfg = golden_pair(), GOLDEN_CFG
        engine = AlignmentEngine(
            cfg, backend=backend, cache=None, precision=precision
        )
        result = engine.solve(
            engine.plan(pair.source, pair.target, anchors=anchors)
        )
        history = result.extras["history"]
        current = {
            "objective_values": np.asarray(history.objective_values),
            "alpha_deltas": np.asarray(history.alpha_deltas),
            "plan_deltas": np.asarray(history.plan_deltas),
            "plan": np.asarray(result.plan),
        }
        path = GOLDEN_DIR / f"{case}.npz"
        if update_goldens:
            GOLDEN_DIR.mkdir(exist_ok=True)
            np.savez_compressed(path, **current)
            pytest.skip("golden regenerated")
        assert path.exists(), "missing golden fixture; run with --update-goldens"
        golden = np.load(path)
        for key, series in current.items():
            np.testing.assert_allclose(
                series, golden[key], atol=atol, rtol=0,
                err_msg=f"{case} ({key}) drifted from golden; regenerate "
                "with --update-goldens if intentional",
            )
