"""Large-graph alignment subsystem: partition → align → stitch → repair.

Public surface of the divide-and-conquer pipeline (paper Sec. IV-D
future work, made concrete): the k-way partitioner, the block
executor, the boundary-repair pass and the orchestrating aligner.
"""

from repro.scale.aligner import (
    DENSE_GUARD_ENTRIES,
    DivideAndConquerAligner,
    PartitionedAlignment,
)
from repro.scale.boundary import (
    RepairStats,
    anchor_agreement,
    collect_anchors,
    repair_plan,
)
from repro.scale.diagnostics import (
    ground_truth_target_parts,
    hit1_mask,
    inject_misassignment,
)
from repro.engine.pool import available_cpus
from repro.scale.executor import EXECUTORS, run_blocks
from repro.scale.partition import (
    assign_target,
    assignment_scores,
    fiedler_vector,
    kway_partition,
    rebalance,
)

__all__ = [
    "DENSE_GUARD_ENTRIES",
    "DivideAndConquerAligner",
    "PartitionedAlignment",
    "RepairStats",
    "anchor_agreement",
    "collect_anchors",
    "repair_plan",
    "ground_truth_target_parts",
    "hit1_mask",
    "inject_misassignment",
    "EXECUTORS",
    "available_cpus",
    "run_blocks",
    "assign_target",
    "assignment_scores",
    "fiedler_vector",
    "kway_partition",
    "rebalance",
]
