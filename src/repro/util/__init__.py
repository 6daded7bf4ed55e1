"""Cross-cutting utilities: errors, validation, deterministic RNG, tables."""

from .errors import (
    ClusterError,
    DeadlockError,
    HMPIError,
    HMPIStateError,
    MachineFailure,
    MappingError,
    MPICommError,
    MPIError,
    MPIGroupError,
    PMDLError,
    PMDLRuntimeError,
    PMDLSemanticError,
    PMDLSyntaxError,
    ReproError,
)
from .gantt import render_gantt, utilization
from .rng import DEFAULT_SEED, make_rng, spawn_rng
from .tables import Table, format_table
from .validate import check_nonnegative, check_positive

__all__ = [
    "ReproError",
    "ClusterError",
    "MPIError",
    "MPICommError",
    "MPIGroupError",
    "DeadlockError",
    "MachineFailure",
    "PMDLError",
    "PMDLSyntaxError",
    "PMDLSemanticError",
    "PMDLRuntimeError",
    "HMPIError",
    "HMPIStateError",
    "MappingError",
    "make_rng",
    "spawn_rng",
    "DEFAULT_SEED",
    "Table",
    "render_gantt",
    "utilization",
    "format_table",
    "check_positive",
    "check_nonnegative",
]
