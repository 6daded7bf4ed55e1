"""Parallel matrix multiplication: the paper's regular application (Section 4)."""

from .algorithm import (
    assemble_matrix,
    matmul_algorithm,
    matrix_block,
    matrix_stack,
    reference_product,
)
from .distribution import (
    BlockDistribution,
    heights_tensor,
    heterogeneous_distribution,
    homogeneous_distribution,
    partition_generalized_block,
    proportional_partition,
)
from .drivers import (
    MatmulRunResult,
    candidate_block_sizes,
    run_matmul_hmpi,
    run_matmul_mpi,
    speed_grid,
)
from .model import MM_MODEL_SOURCE, bind_matmul_model, make_get_processor, matmul_model

__all__ = [
    "BlockDistribution",
    "proportional_partition",
    "partition_generalized_block",
    "heights_tensor",
    "homogeneous_distribution",
    "heterogeneous_distribution",
    "matrix_stack",
    "matrix_block",
    "assemble_matrix",
    "reference_product",
    "matmul_algorithm",
    "MM_MODEL_SOURCE",
    "matmul_model",
    "bind_matmul_model",
    "make_get_processor",
    "MatmulRunResult",
    "run_matmul_mpi",
    "run_matmul_hmpi",
    "speed_grid",
    "candidate_block_sizes",
]
