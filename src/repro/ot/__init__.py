"""Optimal transport substrate: Sinkhorn, exact EMD, GW, fused GW."""

from repro.ot.simplex import (
    project_simplex,
    project_concatenated_simplices,
    is_in_simplex,
)
from repro.ot.sinkhorn import (
    SinkhornResult,
    sinkhorn_log,
    sinkhorn_log_kernel_fast,
    sinkhorn_log_kernel_fast_batched,
    transport_cost,
)
from repro.ot.exact import emd, emd_cost
from repro.ot.unbalanced import (
    sinkhorn_unbalanced,
    sinkhorn_unbalanced_log_kernel,
)
from repro.ot.gromov import (
    GWResult,
    gw_constant_term,
    gw_gradient,
    gw_objective,
    proximal_gromov_wasserstein,
)
from repro.ot.fused import fused_gromov_wasserstein, feature_cost_matrix

__all__ = [
    "project_simplex",
    "project_concatenated_simplices",
    "is_in_simplex",
    "SinkhornResult",
    "sinkhorn_log",
    "sinkhorn_log_kernel_fast",
    "sinkhorn_log_kernel_fast_batched",
    "transport_cost",
    "emd",
    "emd_cost",
    "sinkhorn_unbalanced",
    "sinkhorn_unbalanced_log_kernel",
    "GWResult",
    "gw_constant_term",
    "gw_gradient",
    "gw_objective",
    "proximal_gromov_wasserstein",
    "fused_gromov_wasserstein",
    "feature_cost_matrix",
]
