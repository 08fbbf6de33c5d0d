"""Dataset stand-ins mirroring the paper's seven benchmarks."""

from repro.datasets.pairs import (
    AlignmentPair,
    PartialAlignmentPair,
    PartialPairSpec,
    make_partial_pair,
    make_semi_synthetic_pair,
    truncate_feature_columns,
    FEATURE_TRANSFORMS,
)
from repro.datasets.citation import load_cora, load_citeseer
from repro.datasets.ppi import load_ppi
from repro.datasets.social import load_facebook
from repro.datasets.douban import load_douban
from repro.datasets.acmdblp import load_acm_dblp
from repro.datasets.kg import KnowledgeGraph, random_knowledge_graph
from repro.datasets.dbp15k import load_dbp15k, SUBSETS
from repro.datasets.registry import (
    load_graph_dataset,
    available_datasets,
    GRAPH_LOADERS,
    PAIR_LOADERS,
)

__all__ = [
    "AlignmentPair",
    "PartialAlignmentPair",
    "PartialPairSpec",
    "make_partial_pair",
    "make_semi_synthetic_pair",
    "truncate_feature_columns",
    "FEATURE_TRANSFORMS",
    "load_cora",
    "load_citeseer",
    "load_ppi",
    "load_facebook",
    "load_douban",
    "load_acm_dblp",
    "KnowledgeGraph",
    "random_knowledge_graph",
    "load_dbp15k",
    "SUBSETS",
    "load_graph_dataset",
    "available_datasets",
    "GRAPH_LOADERS",
    "PAIR_LOADERS",
]
