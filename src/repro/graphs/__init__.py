"""Graph substrate: containers, generators, normalisation, perturbation."""

from repro.graphs.graph import AttributedGraph
from repro.graphs.generators import (
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    watts_strogatz_graph,
    stochastic_block_model,
    random_bipartite_expansion,
)
from repro.graphs.normalization import (
    symmetric_normalize,
    row_normalize,
    add_self_loops,
)
from repro.graphs.permutation import (
    permutation_matrix,
    permute_graph,
    ground_truth_from_permutation,
    invert_permutation,
)
from repro.graphs.perturbation import (
    perturb_edges,
    permute_features,
    truncate_features,
    compress_features,
    drop_edges,
)
from repro.graphs.partition import (
    partition_assignment,
    cut_edges,
    boundary_nodes,
    adjacent_parts,
    edge_cut_fraction,
)
from repro.graphs.statistics import (
    average_degree,
    density,
    clustering_coefficient,
    degree_gini,
    modularity,
    feature_sparsity,
    structural_summary,
    edge_overlap,
)

__all__ = [
    "AttributedGraph",
    "erdos_renyi_graph",
    "powerlaw_cluster_graph",
    "watts_strogatz_graph",
    "stochastic_block_model",
    "random_bipartite_expansion",
    "symmetric_normalize",
    "row_normalize",
    "add_self_loops",
    "permutation_matrix",
    "permute_graph",
    "ground_truth_from_permutation",
    "invert_permutation",
    "perturb_edges",
    "permute_features",
    "truncate_features",
    "compress_features",
    "drop_edges",
    "partition_assignment",
    "cut_edges",
    "boundary_nodes",
    "adjacent_parts",
    "edge_cut_fraction",
    "average_degree",
    "density",
    "clustering_coefficient",
    "degree_gini",
    "modularity",
    "feature_sparsity",
    "structural_summary",
    "edge_overlap",
]
