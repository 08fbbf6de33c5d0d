"""The benchmark tracer's entry points exist and its stacked spans fire.

``perfbench/tracer.py`` records per-layer spans by wrapping library
functions named by module path; a refactor that renames or deletes
one leaves the traced benchmark without that layer's counters.  The
benchmark reaches the stacked Sinkhorn kernels only when thread timing
forms a coalesced batch, so this test forms one directly: it loads the
tracer from its file and solves a two-pair batch at each precision
under it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core import SLOTAlignConfig
from repro.datasets import make_semi_synthetic_pair
from repro.engine import AlignmentEngine, solve_coalesced
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words
from repro.serve import service

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

CONFIG = SLOTAlignConfig(
    n_bases=2, structure_lr=0.1, max_outer_iter=12, sinkhorn_iter=20,
    track_history=False,
)


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def two_problems():
    problems = []
    for seed in (0, 1):
        graph = stochastic_block_model([10] * 3, 0.4, 0.02, seed=seed)
        feats = community_bag_of_words(
            graph.node_labels, 30, words_per_node=6, seed=seed + 1
        )
        graph = graph.with_features(feats)
        graph.node_labels = None
        pair = make_semi_synthetic_pair(graph, edge_noise=0.1, seed=seed + 2)
        engine = AlignmentEngine(CONFIG, cache=None)
        problems.append(engine.plan(pair.source, pair.target))
    return problems


@pytest.mark.parametrize(
    "precision, span",
    [("float64", "ot.sinkhorn.batched"), ("float32", "ot.sinkhorn.workspace")],
)
def test_coalesced_solve_under_tracer(precision, span):
    tracer_module = load_tracer_module()
    untraced = solve_coalesced(two_problems(), precision=precision)
    with tracer_module.Tracer() as tracer:
        # the serving module's binding is the one the tracer wraps
        traced = service.solve_coalesced(two_problems(), precision=precision)
    assert tracer.missing == []
    assert len(tracer.named("solve.coalesced")) == 1
    stacked = tracer.named(span)
    assert stacked
    assert all(s["projections"] > 0 for s in stacked)
    for plain, seen in zip(untraced, traced):
        np.testing.assert_array_equal(seen.plan, plain.plan)
    assert not hasattr(service.solve_coalesced, "__wrapped__"), "not uninstalled"
