"""HMPI proper: the runtime, estimator, and process-selection algorithms."""

from .api import (
    HMPI_COMM_WORLD_GROUP,
    HMPI_Get_comm,
    HMPI_Group_create,
    HMPI_Group_free,
    HMPI_Group_rank,
    HMPI_Group_repair,
    HMPI_Group_size,
    HMPI_Is_free,
    HMPI_Is_host,
    HMPI_Is_member,
    HMPI_Recon,
    HMPI_Release_free,
    HMPI_Timeof,
    HMPI_Wtime,
)
from .autotune import SizeSweepResult, auto_create, tune_group_size
from .checkpoint import CheckpointStore, charged_load, charged_save, nbytes_of
from .estimator import TimelineVisitor, estimate_breakdown, estimate_time
from .group import HMPIGroup
from .mapper import (
    MAPPER_REGISTRY,
    DefaultMapper,
    ExhaustiveMapper,
    GreedyMapper,
    Mapper,
    Mapping,
    RefineMapper,
    available_mappers,
    register_mapper,
    resolve_mapper,
)
from .netmodel import NetworkModel
from .samapper import AnnealingMapper
from .seleng import (
    CompiledTrace,
    SelectionStats,
    TraceEvaluator,
    compile_trace,
    evaluate_mappings,
)
from .recon import kernel_benchmark, matmul_kernel
from .runtime import HMPI, HOST_RANK, HMPIRuntimeState, run_hmpi

__all__ = [
    "HMPI",
    "HMPIRuntimeState",
    "HMPIGroup",
    "run_hmpi",
    "HOST_RANK",
    "NetworkModel",
    "CheckpointStore",
    "charged_save",
    "charged_load",
    "nbytes_of",
    "estimate_time",
    "auto_create",
    "tune_group_size",
    "SizeSweepResult",
    "estimate_breakdown",
    "TimelineVisitor",
    "Mapping",
    "Mapper",
    "ExhaustiveMapper",
    "GreedyMapper",
    "RefineMapper",
    "DefaultMapper",
    "AnnealingMapper",
    "MAPPER_REGISTRY",
    "register_mapper",
    "available_mappers",
    "resolve_mapper",
    "CompiledTrace",
    "SelectionStats",
    "TraceEvaluator",
    "compile_trace",
    "evaluate_mappings",
    "kernel_benchmark",
    "matmul_kernel",
    "HMPI_COMM_WORLD_GROUP",
    "HMPI_Recon",
    "HMPI_Timeof",
    "HMPI_Group_create",
    "HMPI_Group_repair",
    "HMPI_Group_free",
    "HMPI_Group_rank",
    "HMPI_Group_size",
    "HMPI_Get_comm",
    "HMPI_Is_host",
    "HMPI_Is_free",
    "HMPI_Is_member",
    "HMPI_Wtime",
    "HMPI_Release_free",
]
