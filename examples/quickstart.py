"""Quickstart: align two noisy copies of a citation network.

Demonstrates the core public API:
1. load a dataset stand-in,
2. build a semi-synthetic alignment pair with structure noise,
3. run SLOTAlign,
4. evaluate Hit@k and inspect the learned structure weights.

Run:  python examples/quickstart.py
"""

from repro import (
    SLOTAlign,
    SLOTAlignConfig,
    evaluate_plan,
    load_cora,
    make_semi_synthetic_pair,
)
from repro.datasets import truncate_feature_columns


def main() -> None:
    # A Cora-like citation network (scale shrinks it for a fast demo);
    # the robustness protocol keeps only the first 100 feature columns.
    graph = truncate_feature_columns(load_cora(scale=0.07), 100)
    print(f"source graph: {graph}")

    # Target = permuted copy with 20 % of edges moved — the paper's
    # structure-inconsistency simulator.
    pair = make_semi_synthetic_pair(graph, edge_noise=0.2, seed=0)

    config = SLOTAlignConfig(
        n_bases=2,          # K: edge-view + node-view (paper's semi-synthetic K)
        structure_lr=0.1,   # tau
        sinkhorn_lr=0.01,   # eta
        max_outer_iter=200,
    )
    result = SLOTAlign(config).fit(pair.source, pair.target)

    print(f"\naligned in {result.runtime:.2f}s")
    print(f"learned source view weights beta_s = {result.extras['beta_source'].round(3)}")
    print(f"learned target view weights beta_t = {result.extras['beta_target'].round(3)}")

    metrics = evaluate_plan(result.plan, pair.ground_truth, ks=(1, 5, 10))
    print("\nalignment quality:")
    for key, value in metrics.items():
        print(f"  {key:8s} {value:6.2f}")

    matching = result.decode("hungarian").matching
    correct = (matching[pair.ground_truth[:, 0]] == pair.ground_truth[:, 1]).mean()
    print(f"\nhungarian one-to-one accuracy: {100 * correct:.1f}%")


if __name__ == "__main__":
    main()
