"""The performance-model definition language (PMDL) and its compiler.

This package reproduces the paper's "small and dedicated model definition
language" (derived from mpC's network types) and the compiler that turns a
model description into the set of functions used by the HMPI runtime.
"""

from .analyze import analyze_algorithm
from .builder import CallableModel, MatrixModel
from .compiler import (
    check_source,
    clear_compile_cache,
    compile_cache_stats,
    compile_model,
    compile_source,
    compile_source_cached,
    source_digest,
    stub_externals,
)
from .diagnostics import RULES, Diagnostic, DiagnosticReport, Severity
from .interp import Ref, StructValue
from .lexer import tokenize
from .model import (
    AbstractBoundModel,
    BoundModel,
    LinearActionVisitor,
    PerformanceModel,
    default_scheme_walk,
)
from .net import CommNet, NetEvent, ParInstance, lower_model
from .netcheck import check_model_net, check_net, probe_bindings
from .parser import parse, parse_expression
from .printer import (
    format_algorithm,
    format_coords,
    format_expression,
    format_struct,
    format_unit,
)

__all__ = [
    "compile_model",
    "analyze_algorithm",
    "check_source",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "RULES",
    "format_coords",
    "format_algorithm",
    "format_expression",
    "format_struct",
    "format_unit",
    "compile_source",
    "compile_source_cached",
    "source_digest",
    "compile_cache_stats",
    "clear_compile_cache",
    "stub_externals",
    "parse",
    "parse_expression",
    "tokenize",
    "PerformanceModel",
    "BoundModel",
    "AbstractBoundModel",
    "LinearActionVisitor",
    "default_scheme_walk",
    "CallableModel",
    "MatrixModel",
    "CommNet",
    "NetEvent",
    "ParInstance",
    "lower_model",
    "check_net",
    "check_model_net",
    "probe_bindings",
    "StructValue",
    "Ref",
]
