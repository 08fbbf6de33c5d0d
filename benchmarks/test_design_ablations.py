"""Ablation benches for implementation design choices (DESIGN.md §6).

Not paper artefacts — these justify the reproduction's own engineering
decisions: basis normalisation, η annealing, multi-start, and matching
extraction strategy.
"""

from benchmarks.conftest import emit
from repro.core import SLOTAlign, SLOTAlignConfig
from repro.datasets import load_cora, make_semi_synthetic_pair, truncate_feature_columns
from repro.eval.metrics import alignment_accuracy, hits_at_k
from repro.eval.reporting import format_table


def _pair(bench_scale, edge_noise=0.25):
    graph = truncate_feature_columns(
        load_cora(scale=bench_scale.dataset_scale), 100
    )
    return make_semi_synthetic_pair(graph, edge_noise=edge_noise, seed=3)


def _cfg(**overrides):
    base = dict(
        n_bases=2, structure_lr=0.1, max_outer_iter=120, track_history=False
    )
    base.update(overrides)
    return SLOTAlignConfig(**base)


def test_solver_device_ablations(benchmark, bench_scale):
    """Annealing and multi-start each contribute under structure noise."""
    pair = _pair(bench_scale)

    def run():
        variants = {
            "full": _cfg(),
            "no-anneal": _cfg(anneal=False),
            "no-multistart": _cfg(multi_start=False),
            "bare-Alg1": _cfg(anneal=False, multi_start=False),
        }
        rows = {}
        for name, cfg in variants.items():
            result = SLOTAlign(cfg).fit(pair.source, pair.target)
            rows[name] = {
                "hits@1": hits_at_k(result.plan, pair.ground_truth, 1),
                "time": result.runtime,
            }
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    emit("Design ablation / solver devices (cora @25% edge noise)", format_table(rows))
    assert rows["full"]["hits@1"] >= rows["bare-Alg1"]["hits@1"] - 1e-9


def test_basis_normalisation_ablation(benchmark, bench_scale):
    """Frobenius basis normalisation prevents the sparse edge view from
    dominating the early energy term."""
    pair = _pair(bench_scale)

    def run():
        rows = {}
        for name, normalize in (("normalised", True), ("raw-bases", False)):
            cfg = _cfg(normalize_bases=normalize)
            result = SLOTAlign(cfg).fit(pair.source, pair.target)
            rows[name] = {
                "hits@1": hits_at_k(result.plan, pair.ground_truth, 1)
            }
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    emit("Design ablation / basis normalisation", format_table(rows))
    assert rows["normalised"]["hits@1"] >= rows["raw-bases"]["hits@1"] - 10.0


def test_matching_extraction_ablation(benchmark, bench_scale):
    """Hungarian (exact Eq. 2) vs row-argmax extraction."""
    pair = _pair(bench_scale, edge_noise=0.1)
    result = SLOTAlign(_cfg()).fit(pair.source, pair.target)

    def run():
        rows = {}
        for decoder in ("row-argmax", "hungarian"):
            matching = result.decode(decoder).matching
            rows[decoder] = {
                "accuracy": alignment_accuracy(matching, pair.ground_truth)
            }
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    emit("Design ablation / matching extraction", format_table(rows))
    # the one-to-one decoder never loses to row-argmax by much on a
    # near-permutation plan
    assert rows["hungarian"]["accuracy"] >= rows["row-argmax"]["accuracy"] - 10.0
