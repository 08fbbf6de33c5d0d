"""SLOTAlign core: the paper's primary contribution."""

from repro.core.config import (
    SLOTAlignConfig,
    SEMI_SYNTHETIC_CONFIG,
    REAL_WORLD_CONFIG,
)
from repro.core.views import (
    build_relation_bases,
    build_structure_bases,
    center_kernel,
    combine_bases,
    normalize_basis,
)
from repro.core.objective import JointObjective
from repro.core.convergence import IterateHistory
from repro.core.result import AlignmentResult
from repro.core.slotalign import SLOTAlign, slotalign, feature_similarity_plan
from repro.scale.aligner import DivideAndConquerAligner, PartitionedAlignment

__all__ = [
    "SLOTAlignConfig",
    "SEMI_SYNTHETIC_CONFIG",
    "REAL_WORLD_CONFIG",
    "build_relation_bases",
    "build_structure_bases",
    "center_kernel",
    "combine_bases",
    "normalize_basis",
    "JointObjective",
    "IterateHistory",
    "AlignmentResult",
    "SLOTAlign",
    "slotalign",
    "feature_similarity_plan",
    "DivideAndConquerAligner",
    "PartitionedAlignment",
]
