"""h2vie: minimal-rank H2-matrix engine for volume-integral-equation operators.

Compresses the dense scalar-VIE system matrix into nested cluster bases,
then offers a linear-cost matrix-vector product, formatted block algebra,
a recursive direct inverse, and a BiCGStab solver, plus a benchmark CLI.
"""

from .arith import (
    SolveReport,
    apply_inverse_solve,
    bicgstab_solve,
    h2_add_formatted,
    h2_invert,
    h2_mul_formatted,
    matmat_apply,
    matvec,
)
from .build import H2Matrix, build_h2, materialize, rep_error
from .clustering import ClusterTree, build_block_tree, is_admissible, sparsity_constant
from .config import ExperimentConfig, load_config
from .kernel import (
    KernelParams,
    VoxelGeometry,
    assemble_dense,
    backend_name,
    generate_geometry,
    matrix_entry,
    plane_wave_rhs,
    self_term,
)
from .linalg import (
    CompressionParams,
    LowRankFactor,
    aca_factorize,
    dense_lu_invert,
    recompress_lowrank,
    truncated_svd,
)

__all__ = [
    "SolveReport",
    "apply_inverse_solve",
    "bicgstab_solve",
    "h2_add_formatted",
    "h2_invert",
    "h2_mul_formatted",
    "matmat_apply",
    "matvec",
    "H2Matrix",
    "build_h2",
    "materialize",
    "rep_error",
    "ClusterTree",
    "build_block_tree",
    "is_admissible",
    "sparsity_constant",
    "ExperimentConfig",
    "load_config",
    "KernelParams",
    "VoxelGeometry",
    "assemble_dense",
    "backend_name",
    "generate_geometry",
    "matrix_entry",
    "plane_wave_rhs",
    "self_term",
    "CompressionParams",
    "LowRankFactor",
    "aca_factorize",
    "dense_lu_invert",
    "recompress_lowrank",
    "truncated_svd",
]

__version__ = "0.1.0"
