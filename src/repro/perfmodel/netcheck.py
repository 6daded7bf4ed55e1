"""Static checks over unrolled communication nets (PM08x diagnostics).

The net lowering (:mod:`repro.perfmodel.net`) needs a concrete binding;
these checks therefore run on a *bound* model — either one the caller
provides or an automatic **probe binding** derived from the parameter
declarations (4 for int scalars, 1.0 for doubles, all-ones arrays).  The
probe is small enough to unroll instantly yet exercises the scheme's
real structure: a cyclic wait or an orphaned message is a property of
the communication pattern, not of the problem size.

Rules:

- **PM080** ``net-deadlock`` (error) — the wait graph has a cycle: no
  firing order of the net can consume all tokens, so the real program
  built from this scheme deadlocks.
- **PM081** ``net-orphan-message`` (warning) — a transfer whose message
  place no receive ever consumes: the destination performs no compute at
  or after the send, so the modelled arrival never synchronises.
- **PM082** ``net-multiplicity-mismatch`` (warning) — the actions on a
  declared volume (a processor's computation, a pair's communication,
  self pairs included) perform a total percentage other than 100% of
  it, any action performs a share of a zero volume, or an action
  performs a negative percentage.  :func:`check_coverage` is the only
  code that decides this.
- **PM083** ``net-unreachable-transition`` (warning) — an action
  statement in the scheme that emits no transition at the probe binding
  (e.g. a condition that can never hold).
- **PM084** ``net-analysis-skipped`` (info) — the net could not be
  built (unbound external functions, failing probe binding, oversized
  unroll); nothing was proven either way.

Entry points: :func:`check_net` for an existing bound model,
:func:`check_model_net` for a compiled :class:`PerformanceModel`,
:func:`check_algorithm_net` for the compiler front end's AST-level
pipeline, and :func:`unroll` — the one probe-bind-and-lower step.
``repro check --dot``/``--trace`` draw the very net the checks ran on.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from ..util.errors import PMDLError
from . import ast
from .diagnostics import Diagnostic, Severity, register_rule
from .model import AbstractBoundModel, BoundModel, PerformanceModel
from .net import MAX_NET_EVENTS, CommNet, NetTooLarge, lower_model

__all__ = [
    "probe_bindings",
    "unroll",
    "check_coverage",
    "check_net",
    "check_model_net",
    "check_algorithm_net",
]

_TOLERANCE = 1e-6

PM080 = register_rule("PM080", "net-deadlock", Severity.ERROR,
                      "cyclic wait in the communication net (structural deadlock)")
PM081 = register_rule("PM081", "net-orphan-message", Severity.WARNING,
                      "message with no matching receive in the net")
PM082 = register_rule("PM082", "net-multiplicity-mismatch", Severity.WARNING,
                      "actions on a declared volume do not perform 100% of it")
PM083 = register_rule("PM083", "net-unreachable-transition", Severity.WARNING,
                      "scheme action unrolls to no transition at the probe binding")
PM084 = register_rule("PM084", "net-analysis-skipped", Severity.INFO,
                      "communication net could not be built")


def probe_bindings(
    pm: PerformanceModel, overrides: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Small concrete parameter values for structural unrolling.

    Int scalars probe as 4 (big enough for a non-degenerate ring/grid,
    small enough to unroll instantly), doubles as 1.0, and arrays as
    all-ones with dimensions evaluated from the earlier scalars — the
    shapes the paper's models use for counts and per-processor volumes.
    ``overrides`` replaces individual probe values and participates in
    later parameters' dimension evaluation, so overriding one scalar
    keeps dependent array shapes consistent.
    """
    overrides = overrides or {}
    code = pm.code
    values: dict[str, Any] = {}
    for p in pm.algorithm.params:
        if p.name in overrides:
            values[p.name] = overrides[p.name]
            continue
        if not p.dims:
            values[p.name] = 1.0 if p.type_name == "double" else 4
            continue
        dims = list(code.dims[p.name](dict(values)))
        if not all(isinstance(d, int) and d > 0 for d in dims):
            raise PMDLError(
                f"parameter {p.name!r}: probe dimensions {dims!r} are not "
                "positive ints"
            )
        dtype = float if p.type_name == "double" else int
        values[p.name] = np.ones(dims, dtype=dtype)
    return values


def unroll(
    pm: PerformanceModel, overrides: dict[str, Any] | None = None,
    max_events: int | None = None,
) -> tuple[BoundModel, CommNet]:
    """Bind ``pm`` at its probe values (``overrides`` replacing individual
    ones) and lower the bound model to its communication net (stopping
    past ``max_events``, see :func:`~repro.perfmodel.net.lower_model`)."""
    bound = pm.bind(**probe_bindings(pm, overrides))
    return bound, lower_model(bound, max_events)


def _check_deadlock(net: CommNet) -> list[Diagnostic]:
    cycle = net.find_cycle()
    if cycle is None:
        return []
    shown = ", ".join(e.label() for e in cycle[:6])
    if len(cycle) > 6:
        shown += f", ... ({len(cycle)} transitions)"
    line = min((e.line for e in cycle if e.line), default=0)
    return [PM080.at(
        line,
        f"structural deadlock: cyclic wait through {shown} — every "
        "transition on the cycle waits for another's output",
        hint="a compute before a send on each branch of a par makes "
             "neighbours wait on each other; reorder sends first",
    )]


def _check_orphans(net: CommNet) -> list[Diagnostic]:
    out = []
    by_idx = {e.idx: e for e in net.kept}
    for send, recv in sorted(net.match_receives().items()):
        if recv is not None:
            continue
        e = by_idx[send]
        out.append(PM081.at(
            e.line,
            f"orphan message: send {e.label()} has no receive — processor "
            f"{e.b} performs no compute at or after the transfer",
            hint="the arrival can never synchronise with the receiver's "
                 "timeline; add a compute on the destination or drop the send",
        ))
    return out


def check_coverage(net: CommNet, model: AbstractBoundModel) -> list[Diagnostic]:
    """PM082: the net's actions must perform exactly 100% of every
    declared compute and link volume, no share of a zero volume, and no
    negative percentage.  Self transfers count like any other pair."""
    out = []
    acts: dict[tuple[int, int], list] = {}  # (proc, -1) or (src, dst)
    for e in net.events:
        if e.percent < 0:
            out.append(PM082.at(
                e.line, f"negative percentage: {e.label()} performs "
                        f"{e.percent:.4f}% of a volume"))
        acts.setdefault((e.a, e.b), []).append(e)
    node, links = model.node_volumes(), model.link_volumes()
    declared = {(int(i), -1) for i in np.flatnonzero(node > 0)}
    declared |= {(int(s), int(d)) for s, d in zip(*np.nonzero(links > 0))}
    for a, b in sorted(declared | acts.keys()):
        events = acts.get((a, b), [])
        pct = sum(e.percent for e in events)
        volume = node[a] if b < 0 else links[a, b]
        if (pct <= 0 if volume <= 0
                else abs(pct - 100.0) <= _TOLERANCE * 100):
            continue
        line = min((e.line for e in events if e.line), default=0)
        if b < 0:
            where, did = f"processor {a}", f"{len(events)} compute(s)"
        else:
            where, did = f"pair {a}->{b}", f"{len(events)} send(s)"
        if volume <= 0:
            out.append(PM082.at(
                line,
                f"action on a zero volume, {where}: {did} perform "
                f"{pct:.4f}% of a volume the model declares as zero",
                hint="the action does no work; declare its volume in "
                     "the node/link section or drop the action",
            ))
            continue
        unit = "units" if b < 0 else "bytes"
        out.append(PM082.at(
            line,
            f"coverage mismatch on {where}: {did} perform {pct:.4f}% of "
            f"its declared volume ({volume:g} {unit})",
            hint="the scheme must perform exactly 100% of each declared "
                 "node and link volume",
        ))
    return out


def _check_unreachable(net: CommNet, alg: ast.Algorithm | None) -> list[Diagnostic]:
    if alg is None or alg.scheme is None:
        return []
    fired = {e.line for e in net.events if e.line}
    out = []
    for node in ast.walk(alg.scheme):
        if not isinstance(node, (ast.ComputeAction, ast.TransferAction)):
            continue
        if node.line in fired:
            continue
        kind = "transfer" if isinstance(node, ast.TransferAction) else "compute"
        out.append(PM083.at(
            node,
            f"unreachable transition: this {kind} action unrolls to no "
            "net transition at the probe binding",
            hint="its guard never holds — dead communication structure "
                 "the interval analyzer cannot refute symbolically",
        ))
    return out


def _too_large(exc: NetTooLarge) -> list[Diagnostic]:
    return [PM084.at(0, f"net analysis skipped: {exc}")]


def _check_lowered(
    net: CommNet, bound: AbstractBoundModel, algorithm: ast.Algorithm | None
) -> list[Diagnostic]:
    out = _check_deadlock(net)
    out += _check_orphans(net)
    out += check_coverage(net, bound)
    out += _check_unreachable(net, algorithm)
    return out


def check_net(
    bound: AbstractBoundModel, algorithm: ast.Algorithm | None = None
) -> list[Diagnostic]:
    """Run every PM08x structural check on one bound model's net."""
    try:
        net = lower_model(bound, MAX_NET_EVENTS)
    except NetTooLarge as exc:
        return _too_large(exc)
    return _check_lowered(net, bound, algorithm)


def check_model_net(
    pm: PerformanceModel, bindings: dict[str, Any] | None = None,
    nets: dict | None = None,
) -> list[Diagnostic]:
    """Bind (probe values unless given), lower, and check one model;
    ``nets[pm.name] = (pm.algorithm, bound, net)`` records what was checked.
    """
    try:
        bound, net = unroll(pm, bindings, MAX_NET_EVENTS)
        if nets is not None:
            nets[pm.name] = (pm.algorithm, bound, net)
        return _check_lowered(net, bound, pm.algorithm)
    except NetTooLarge as exc:
        return _too_large(exc)
    except PMDLError as exc:
        return [PM084.at(
            0, f"net analysis skipped: {exc}",
            hint="supply concrete parameters (repro check --bind) or "
                 "the scheme's external functions to enable net checks",
        )]


def check_algorithm_net(
    alg: ast.Algorithm,
    structs: dict[str, ast.StructDef],
    called: set[str],
    externals: dict[str, Callable[..., Any]] | None = None,
    bindings: dict[str, Any] | None = None,
    nets: dict | None = None,
) -> list[Diagnostic]:
    """Net checks for the front end: wrap the AST, bind, check.

    ``called`` is the set of function names ``alg`` calls, which the
    front end has already collected.  Schemes calling external functions
    with no binding cannot be unrolled truthfully (a stub would fabricate
    coordinates); those skip with PM084 unless ``externals`` provides the
    real callables.  ``bindings`` overrides the probe value of each
    parameter ``alg`` declares; ``nets`` is as for :func:`check_model_net`.
    """
    missing = called - set(externals or {})
    if missing:
        return [PM084.at(
            0,
            "net analysis skipped: scheme calls external function(s) "
            f"{', '.join(sorted(missing))} with no binding",
            hint="pass the real callables (the --apps targets do) to "
                 "enable net checks",
        )]
    pm = PerformanceModel(alg, structs, externals)
    wanted = {name: value for name, value in (bindings or {}).items()
              if name in pm.param_names}
    return check_model_net(pm, wanted, nets)
