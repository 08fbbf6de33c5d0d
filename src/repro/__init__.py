"""SLOTAlign reproduction — robust attributed graph alignment.

Reproduction of Tang et al., "Robust Attributed Graph Alignment via
Joint Structure Learning and Optimal Transport" (ICDE 2023), built
entirely on NumPy/SciPy.

Quickstart
----------
>>> from repro import SLOTAlign, make_semi_synthetic_pair, load_cora
>>> pair = make_semi_synthetic_pair(load_cora(scale=0.05), edge_noise=0.1)
>>> result = SLOTAlign().fit(pair.source, pair.target)
>>> matches = result.decode("hungarian").matching
"""

from repro.core import (
    SLOTAlign,
    SLOTAlignConfig,
    AlignmentResult,
    slotalign,
)
from repro.engine import AlignmentEngine, available_backends
from repro.graphs import AttributedGraph
from repro.datasets import (
    AlignmentPair,
    make_semi_synthetic_pair,
    load_cora,
    load_citeseer,
    load_ppi,
    load_facebook,
    load_douban,
    load_acm_dblp,
    load_dbp15k,
)
from repro.eval import hits_at_k, evaluate_plan

__version__ = "1.0.0"

__all__ = [
    "SLOTAlign",
    "SLOTAlignConfig",
    "AlignmentResult",
    "slotalign",
    "AlignmentEngine",
    "available_backends",
    "AttributedGraph",
    "AlignmentPair",
    "make_semi_synthetic_pair",
    "load_cora",
    "load_citeseer",
    "load_ppi",
    "load_facebook",
    "load_douban",
    "load_acm_dblp",
    "load_dbp15k",
    "hits_at_k",
    "evaluate_plan",
    "__version__",
]
