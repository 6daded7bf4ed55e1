"""The PMDL compiler: source text → :class:`PerformanceModel` handles.

This is the reproduction of the paper's model-definition compiler ("a
compiler compiles the description of this performance model to generate a
set of functions [that] make up an algorithm-specific part of the HMPI
runtime system").  There is one front end, :func:`_front_end`: tokenize →
parse → semantic check → static analysis → optional net check, once per
algorithm, yielding coded diagnostics beside the checked ASTs.
:func:`compile_source` raises the typed exception of the first error and
wraps each clean algorithm in a
:class:`~repro.perfmodel.model.PerformanceModel` (warnings and infos on
its ``diagnostics`` tuple); :func:`check_source` returns every finding
as a report and never raises for a model bug.
"""

from __future__ import annotations

import hashlib
import re
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterator
from typing import Any

from ..util.errors import (
    PMDLAnalysisError,
    PMDLError,
    PMDLSemanticError,
    PMDLSyntaxError,
)
from . import ast
from .analyze import PM001, PM002, analyze_algorithm
from .diagnostics import Diagnostic, DiagnosticReport, Severity
from .model import PerformanceModel
from .netcheck import check_algorithm_net
from .parser import parse
from .semantics import check_algorithm
from .tokens import KEYWORDS

__all__ = [
    "compile_source",
    "compile_model",
    "check_source",
    "select_algorithm",
    "stub_externals",
    "compile_source_cached",
    "source_digest",
    "compile_cache_stats",
    "clear_compile_cache",
]


#: One front-end step: the algorithm (None for a unit-level finding), the
#: struct table so far, the step's diagnostics, and the typed exception
#: :func:`compile_source` raises for it (None when no diagnostic is an error).
_Checked = tuple[ast.Algorithm | None, dict[str, ast.StructDef],
                 list[Diagnostic], PMDLError | None]


def _front_end(
    source: str,
    externals: dict[str, Callable[..., Any]] | None,
    *,
    assume_declared: bool,
    analyze: bool,
    net_check: bool,
) -> Iterator[_Checked]:
    """Check ``source`` definition by definition, in source order.

    With ``assume_declared`` every called name counts as a declared
    external; otherwise only the names in ``externals`` do.
    """
    structs: dict[str, ast.StructDef] = {}

    def unit_error(where: ast.Node | int, message: str) -> _Checked:
        return (None, structs, [PM002.at(where, message)],
                PMDLSemanticError(message))

    try:
        items = parse(source)
    except PMDLSyntaxError as exc:
        yield None, structs, [PM001.at(exc.line, str(exc))], exc
        return
    seen: set[str] = set()
    for item in items:
        if isinstance(item, ast.StructDef):
            if item.name in structs:
                yield unit_error(
                    item, f"duplicate struct definition {item.name!r}")
            structs[item.name] = item
            continue
        if item.name in seen:
            yield unit_error(
                item, f"duplicate algorithm definition {item.name!r}")
            continue
        seen.add(item.name)
        declared = ({node.name for node in ast.walk(item)
                     if isinstance(node, ast.Call)}
                    if assume_declared else set(externals or ()))
        findings = check_algorithm(item, structs, declared)
        if findings:
            details = "\n  ".join(f"line {n}: {msg}" for n, msg in findings)
            yield (item, structs, [PM002.at(n, msg) for n, msg in findings],
                   PMDLSemanticError(
                       f"semantic errors in algorithm {item.name!r}:\n  {details}"))
            continue
        diags = analyze_algorithm(item, structs) if analyze else []
        if net_check:
            diags += check_algorithm_net(item, structs, externals)
        errors = [d for d in diags if d.severity >= Severity.ERROR]
        error = None
        if errors:
            details = "\n  ".join(d.render() for d in errors)
            error = PMDLAnalysisError(
                f"static analysis of algorithm {item.name!r} found "
                f"{len(errors)} error(s):\n  {details}",
                diagnostics=tuple(errors),
            )
        yield item, structs, diags, error
    if not seen:
        yield unit_error(0, "source defines no algorithm")


def compile_source(
    source: str,
    externals: dict[str, Callable[..., Any]] | None = None,
    analyze: bool = True,
    net_check: bool = False,
) -> dict[str, PerformanceModel]:
    """Compile PMDL source, returning every algorithm it defines by name.

    ``externals`` binds the Python implementations of functions the schemes
    call (the paper's ``GetProcessor``); the semantic checker requires every
    called name to be bound.  Pass ``analyze=False`` to skip the static
    analyzer (e.g. when compiling a deliberately-defective model).

    ``net_check=True`` additionally unrolls each algorithm's scheme into
    its communication net at an automatic probe binding and runs the
    PM08x structural checks (:mod:`repro.perfmodel.netcheck`): a proven
    structural deadlock aborts compilation exactly like an analyzer
    error; warnings join the model's ``diagnostics``.
    """
    externals = dict(externals or {})
    models: dict[str, PerformanceModel] = {}
    for alg, structs, diags, error in _front_end(
            source, externals, assume_declared=False, analyze=analyze,
            net_check=net_check):
        if error is not None:
            raise error
        models[alg.name] = PerformanceModel(
            alg, structs, externals, diagnostics=tuple(diags))
    return models


def check_source(source: str, target: str = "<source>", *,
                 net: bool = False,
                 externals: dict | None = None) -> DiagnosticReport:
    """Full static check of PMDL source text, never raising for model bugs.

    Parser and semantic failures become ``PM001``/``PM002`` error
    diagnostics; otherwise every algorithm in the unit is analyzed.  External
    functions called by schemes are assumed declared (the CLI has no
    bindings at check time).

    With ``net=True`` each clean algorithm is additionally unrolled into
    its communication net at an automatic probe binding and the PM08x
    structural checks run (:mod:`repro.perfmodel.netcheck`); ``externals``
    supplies real implementations of called functions so schemes using
    them can unroll (otherwise they skip with PM084).
    """
    report = DiagnosticReport(target=target)
    for _, _, diags, _ in _front_end(
            source, externals, assume_declared=True, analyze=True,
            net_check=net):
        report.extend(diags)
    report.sort()
    return report


def _stub(*args: Any) -> None:
    """The no-op every stubbed external resolves to."""


def stub_externals(source: str) -> dict[str, Callable[..., Any]]:
    """Declare every called name in ``source`` as a no-op external.

    For callers with no Python callables to bind — ``repro compile``, and
    the job server, whose requests are data, not code.  A regex, not a
    parse: the server runs it on every request, warm ones included.  One
    shared stub keeps the result identical across calls, so
    :func:`compile_source_cached` still hits.
    """
    called = set(re.findall(r"\b([A-Za-z_]\w*)\s*\(", source))
    return {name: _stub for name in sorted(called - KEYWORDS)}


# ----------------------------------------------------------------------
# compile-by-digest memoisation
# ----------------------------------------------------------------------
# The job server (and any long-lived embedder) compiles the same PMDL
# source over and over — every tenant resubmits its model text with each
# request.  Compilation is pure in (source, externals, flags), so the
# result is memoised under the source digest.  Returned models are
# SHARED instances: callers must treat them as immutable handles (which
# the rest of the stack already does — `bind` never mutates the model).

_COMPILE_CACHE_CAPACITY = 128
_compile_cache: OrderedDict[tuple, dict[str, PerformanceModel]] = OrderedDict()
_compile_cache_lock = threading.Lock()
_compile_cache_hits = 0
_compile_cache_misses = 0


def source_digest(source: str) -> str:
    """Canonical digest of PMDL source text (sha256 hex).

    Line endings are normalised so the same model pasted from different
    platforms digests identically; no other canonicalisation is applied
    (whitespace differences are different sources).
    """
    canonical = source.replace("\r\n", "\n").replace("\r", "\n")
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def compile_source_cached(
    source: str,
    externals: dict[str, Callable[..., Any]] | None = None,
    analyze: bool = True,
    net_check: bool = False,
) -> dict[str, PerformanceModel]:
    """Memoised :func:`compile_source` keyed by source digest + options.

    Externals participate in the key by (name, identity) so rebinding a
    name to a different callable recompiles; callers wanting cache hits
    should pass stable callables (the serve layer memoises its stubs).
    Compilation errors are not cached — a failing source re-raises on
    every call.
    """
    global _compile_cache_hits, _compile_cache_misses
    ext_key = tuple(sorted(
        (name, id(fn)) for name, fn in (externals or {}).items()))
    key = (source_digest(source), ext_key, bool(analyze), bool(net_check))
    with _compile_cache_lock:
        cached = _compile_cache.get(key)
        if cached is not None:
            _compile_cache.move_to_end(key)
            _compile_cache_hits += 1
            return cached
    models = compile_source(source, externals, analyze=analyze,
                            net_check=net_check)
    with _compile_cache_lock:
        _compile_cache_misses += 1
        _compile_cache[key] = models
        while len(_compile_cache) > _COMPILE_CACHE_CAPACITY:
            _compile_cache.popitem(last=False)
    return models


def compile_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters for the compile-by-digest cache."""
    with _compile_cache_lock:
        return {
            "hits": _compile_cache_hits,
            "misses": _compile_cache_misses,
            "size": len(_compile_cache),
        }


def clear_compile_cache() -> None:
    """Drop every memoised compilation (tests and long-lived servers)."""
    global _compile_cache_hits, _compile_cache_misses
    with _compile_cache_lock:
        _compile_cache.clear()
        _compile_cache_hits = 0
        _compile_cache_misses = 0


def select_algorithm(
    models: dict[str, PerformanceModel], name: str | None = None
) -> PerformanceModel:
    """The algorithm called ``name``, or the only one when ``name`` is None."""
    if name is not None:
        try:
            return models[name]
        except KeyError:
            raise PMDLSemanticError(
                f"source defines no algorithm named {name!r}; "
                f"found {sorted(models)}"
            ) from None
    if len(models) != 1:
        raise PMDLSemanticError(
            f"source defines {len(models)} algorithms {sorted(models)}; "
            "pass `name` to choose one"
        )
    return next(iter(models.values()))


def compile_model(
    source: str,
    externals: dict[str, Callable[..., Any]] | None = None,
    name: str | None = None,
    analyze: bool = True,
    net_check: bool = False,
) -> PerformanceModel:
    """Compile PMDL source expected to define one algorithm (or pick by name)."""
    return select_algorithm(
        compile_source(source, externals, analyze=analyze, net_check=net_check),
        name)
