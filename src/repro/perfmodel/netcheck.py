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
- **PM082** ``net-multiplicity-mismatch`` (warning) — the sends on a
  declared pair move a total percentage other than 100% of its volume,
  or sends move any share of a pair with zero declared volume (counted
  over the unrolled net, so it works without ``--bind``).
- **PM083** ``net-unreachable-transition`` (warning) — an action
  statement in the scheme that emits no transition at the probe binding
  (e.g. a condition that can never hold).
- **PM084** ``net-analysis-skipped`` (info) — the net could not be
  built (unbound external functions, failing probe binding, oversized
  unroll); nothing was proven either way.

Entry points: :func:`check_net` for an existing bound model,
:func:`check_model_net` for a compiled :class:`PerformanceModel`,
:func:`check_algorithm_net` for the compiler front end's AST-level
pipeline, and :func:`unroll` — the one probe-bind-and-lower step the
checks and the ``repro net`` / ``repro check --net-dot`` exports share.
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
                      "sends on a pair do not move 100% of its declared volume")
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


def _check_multiplicity(net: CommNet, model: AbstractBoundModel) -> list[Diagnostic]:
    links = model.link_volumes()
    sends: dict[tuple[int, int], list] = {}
    for e in net.events:
        if e.is_transfer and e.a != e.b:
            sends.setdefault((e.a, e.b), []).append(e)
    out = []
    declared = {(int(s), int(d)) for s, d in zip(*np.nonzero(links))}
    for pair in sorted(declared | set(sends)):
        events = sends.get(pair, [])
        pct = sum(e.percent for e in events)
        line = min((e.line for e in events if e.line), default=0)
        if links[pair] <= 0:
            if pct > 0:
                out.append(PM082.at(
                    line,
                    f"transfer on zero-volume pair {pair[0]}->{pair[1]}: "
                    f"{len(events)} send(s) moving {pct:.4f}% of a pair "
                    "the link section declares no volume for",
                    hint="the transfer moves no bytes; declare the pair's "
                         "volume in the link section or drop the send",
                ))
            continue
        if abs(pct - 100.0) <= _TOLERANCE * 100:
            continue
        out.append(PM082.at(
            line,
            f"multiplicity mismatch on pair {pair[0]}->{pair[1]}: "
            f"{len(events)} send(s) moving {pct:.4f}% of the declared "
            f"volume ({links[pair]:g} bytes)",
            hint="the net's sends must move exactly 100% of each declared "
                 "pair volume",
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
    out += _check_multiplicity(net, bound)
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
    pm: PerformanceModel, bindings: dict[str, Any] | None = None
) -> list[Diagnostic]:
    """Bind (probe values unless given), lower, and check one model."""
    try:
        bound, net = unroll(pm, bindings, MAX_NET_EVENTS)
        return _check_lowered(net, bound, pm.algorithm)
    except NetTooLarge as exc:
        return _too_large(exc)
    except PMDLError as exc:
        return [PM084.at(
            0, f"net analysis skipped: {exc}",
            hint="supply concrete parameters (repro net --bind) or the "
                 "scheme's external functions to enable net checks",
        )]


def check_algorithm_net(
    alg: ast.Algorithm,
    structs: dict[str, ast.StructDef],
    externals: dict[str, Callable[..., Any]] | None = None,
) -> list[Diagnostic]:
    """Net checks for the front end: wrap the AST, probe-bind, check.

    Schemes calling external functions with no binding cannot be unrolled
    truthfully (a stub would fabricate coordinates); those skip with
    PM084 unless ``externals`` provides the real callables.
    """
    called = {node.name for node in ast.walk(alg) if isinstance(node, ast.Call)}
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
    return check_model_net(pm)
