"""Static analyzer for PMDL performance models.

The paper's whole premise is that the model is trustworthy enough to drive
``HMPI_Timeof``/``HMPI_Group_create`` *without running the program* — so a
model with an out-of-range coordinate, a self-transfer, or an unreachable
``par`` branch silently produces wrong predictions and wrong process
selections.  This module proves or refutes such defects at compile time,
**without binding parameters**, by abstract interpretation of coordinate
expressions and loop bounds over an interval domain whose endpoints are
linear expressions in the (unknown) scalar parameters.

With ``coord I=p`` the analyzer knows ``I ∈ [0, p-1]`` even though ``p`` is
unbound; a transfer to ``[i+1]`` inside ``par (i = 0; i < p; i++)`` is then
provably able to reach ``p`` — out of range — unless guarded by
``if (i < p - 1)``, whose refinement restores ``i ∈ [0, p-2]``.  Anything
the analyzer cannot prove is kept silent: diagnostics fire only on
established facts, so clean models (the paper's EM3D and ParallelAxB) stay
clean.

A second, communication-structure pass builds the static transfer graph of
the ``scheme`` and flags processors that receive but never compute,
declared ``link`` rules the scheme never exercises (the symbolic
generalisation of the bound-model linter), and single-port serialization
hotspots — ``par``-driven fan-in/fan-out the estimator will price.

Entry point: :func:`analyze_algorithm` for a parsed AST.  Raw text goes
through the front-end driver in :mod:`repro.perfmodel.compiler`, which
reports syntax and semantic failures under the ``PM001``/``PM002`` codes
registered here.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from ..mpi.datatypes import sizeof
from . import ast
from .diagnostics import Diagnostic, Severity, register_rule
from .printer import format_coords as _fmt_coords
from .printer import format_expression

__all__ = ["analyze_algorithm"]


# ----------------------------------------------------------------------
# rule catalogue (codes are stable; see docs/DIAGNOSTICS.md)
# ----------------------------------------------------------------------

PM001 = register_rule("PM001", "syntax-error", Severity.ERROR,
                      "source does not parse")
PM002 = register_rule("PM002", "semantic-error", Severity.ERROR,
                      "undefined names, arity mismatches, unknown struct fields")
PM010 = register_rule("PM010", "compute-coord-out-of-range", Severity.ERROR,
                      "compute action targets a coordinate outside the arrangement")
PM011 = register_rule("PM011", "transfer-coord-out-of-range", Severity.ERROR,
                      "transfer endpoint outside the arrangement")
PM012 = register_rule("PM012", "parent-coord-out-of-range", Severity.ERROR,
                      "parent coordinates outside the arrangement")
PM013 = register_rule("PM013", "link-coord-out-of-range", Severity.ERROR,
                      "link rule endpoint outside the arrangement")
PM014 = register_rule("PM014", "non-positive-extent", Severity.ERROR,
                      "coordinate or link-variable extent is provably < 1")
PM020 = register_rule("PM020", "self-transfer", Severity.ERROR,
                      "transfer whose source equals its destination on every path")
PM021 = register_rule("PM021", "self-link", Severity.WARNING,
                      "link rule declaring traffic from a processor to itself")
PM030 = register_rule("PM030", "dead-branch", Severity.WARNING,
                      "if condition is provably false; branch never taken")
PM031 = register_rule("PM031", "zero-trip-loop", Severity.WARNING,
                      "loop condition is false on entry; body never executes")
PM032 = register_rule("PM032", "dead-rule", Severity.WARNING,
                      "node/link rule condition matches no processor")
PM033 = register_rule("PM033", "non-terminating-loop", Severity.ERROR,
                      "loop provably never terminates")
PM034 = register_rule("PM034", "loop-direction", Severity.WARNING,
                      "loop update moves the variable away from its bound")
PM040 = register_rule("PM040", "unused-parameter", Severity.WARNING,
                      "algorithm parameter is never referenced")
PM041 = register_rule("PM041", "unused-coord", Severity.WARNING,
                      "coordinate variable unused by node and link rules")
PM042 = register_rule("PM042", "unused-link-var", Severity.WARNING,
                      "link-block variable unused by the link rules")
PM043 = register_rule("PM043", "unused-scheme-var", Severity.INFO,
                      "scheme variable declared but never referenced")
PM050 = register_rule("PM050", "division-by-zero", Severity.ERROR,
                      "division or modulo by a provably zero value")
PM060 = register_rule("PM060", "receive-without-compute", Severity.WARNING,
                      "processors receive data but never compute")
PM061 = register_rule("PM061", "unexercised-link", Severity.WARNING,
                      "declared link never exercised by the scheme")
PM062 = register_rule("PM062", "serialization-hotspot", Severity.INFO,
                      "par-driven fan-in/fan-out serializes at a single port")


# ----------------------------------------------------------------------
# linear expressions over unknown scalar parameters
# ----------------------------------------------------------------------

class Lin:
    """``const + Σ coeff·sym`` with symbolic (unbound) parameter names."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: dict[str, float] | None = None, const: float = 0.0):
        self.coeffs = {s: c for s, c in (coeffs or {}).items() if c != 0}
        self.const = float(const)

    @classmethod
    def of(cls, value: float) -> "Lin":
        return cls(None, value)

    @classmethod
    def sym(cls, name: str) -> "Lin":
        return cls({name: 1.0}, 0.0)

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Lin") -> "Lin":
        coeffs = dict(self.coeffs)
        for s, c in other.coeffs.items():
            coeffs[s] = coeffs.get(s, 0.0) + c
        return Lin(coeffs, self.const + other.const)

    def __sub__(self, other: "Lin") -> "Lin":
        return self + other.scale(-1.0)

    def scale(self, k: float) -> "Lin":
        return Lin({s: c * k for s, c in self.coeffs.items()}, self.const * k)

    def shift(self, k: float) -> "Lin":
        return Lin(self.coeffs, self.const + k)

    def diff_const(self, other: "Lin") -> float | None:
        """``self - other`` if it is a known constant, else None."""
        d = self - other
        return d.const if d.is_const else None

    def __repr__(self) -> str:
        parts = [f"{c:+g}*{s}" for s, c in sorted(self.coeffs.items())]
        parts.append(f"{self.const:+g}")
        return "".join(parts)


class Ival:
    """Interval with optional :class:`Lin` endpoints (None = unbounded)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Lin | None, hi: Lin | None):
        self.lo = lo
        self.hi = hi

    @classmethod
    def top(cls) -> "Ival":
        return cls(None, None)

    @classmethod
    def const(cls, value: float) -> "Ival":
        lin = Lin.of(value)
        return cls(lin, lin)

    @classmethod
    def point(cls, lin: Lin) -> "Ival":
        return cls(lin, lin)

    @property
    def is_point(self) -> bool:
        return (self.lo is not None and self.hi is not None
                and (self.hi - self.lo).is_const
                and (self.hi - self.lo).const == 0)

    @property
    def const_value(self) -> float | None:
        """The single constant value of this interval, if it has one."""
        if (self.lo is not None and self.hi is not None
                and self.lo.is_const and self.hi.is_const
                and self.lo.const == self.hi.const):
            return self.lo.const
        return None

    def join(self, other: "Ival") -> "Ival":
        lo = _bound_min(self.lo, other.lo)
        hi = _bound_max(self.hi, other.hi)
        return Ival(lo, hi)

    def __repr__(self) -> str:
        lo = "-inf" if self.lo is None else repr(self.lo)
        hi = "+inf" if self.hi is None else repr(self.hi)
        return f"[{lo}, {hi}]"


def _bound_min(a: Lin | None, b: Lin | None) -> Lin | None:
    """Lower bound of a join: provable minimum, else unbounded."""
    if a is None or b is None:
        return None
    d = a.diff_const(b)
    if d is None:
        return None
    return a if d <= 0 else b


def _bound_max(a: Lin | None, b: Lin | None) -> Lin | None:
    if a is None or b is None:
        return None
    d = a.diff_const(b)
    if d is None:
        return None
    return a if d >= 0 else b


def _pick_tighter_hi(current: Lin, new: Lin) -> Lin:
    """Refinement: both are sound upper bounds; prefer the smaller (or the
    fresher one when they are incomparable)."""
    d = new.diff_const(current)
    if d is None:
        return new
    return new if d <= 0 else current


def _pick_tighter_lo(current: Lin, new: Lin) -> Lin:
    d = new.diff_const(current)
    if d is None:
        return new
    return new if d >= 0 else current


TOP = Ival.top()

# tri-state truth
TRUE, FALSE, UNKNOWN = 1, 0, -1


def _ival_truth(v: Ival) -> int:
    """Is the value nonzero?  (C truthiness over an interval.)"""
    if v.const_value == 0:
        return FALSE
    if v.lo is not None and v.lo.is_const and v.lo.const > 0:
        return TRUE
    if v.hi is not None and v.hi.is_const and v.hi.const < 0:
        return TRUE
    # nonzero is also provable for symbolic intervals strictly above zero
    # only when the bound is constant; symbolic bounds stay unknown.
    return UNKNOWN


def _cmp_truth(op: str, a: Ival, b: Ival) -> int:
    """Evaluate ``a op b`` to a tri-state truth value."""
    def lt(x: Lin | None, y: Lin | None) -> bool:  # provably x < y
        if x is None or y is None:
            return False
        d = x.diff_const(y)
        return d is not None and d < 0

    def le(x: Lin | None, y: Lin | None) -> bool:  # provably x <= y
        if x is None or y is None:
            return False
        d = x.diff_const(y)
        return d is not None and d <= 0

    if op == "<":
        if lt(a.hi, b.lo):
            return TRUE
        if le(b.hi, a.lo):
            return FALSE
        return UNKNOWN
    if op == "<=":
        if le(a.hi, b.lo):
            return TRUE
        if lt(b.hi, a.lo):
            return FALSE
        return UNKNOWN
    if op == ">":
        return _cmp_truth("<", b, a)
    if op == ">=":
        return _cmp_truth("<=", b, a)
    if op == "==":
        if (a.is_point and b.is_point and a.lo is not None and b.lo is not None
                and a.lo.diff_const(b.lo) == 0):
            return TRUE
        if lt(a.hi, b.lo) or lt(b.hi, a.lo):
            return FALSE
        return UNKNOWN
    if op == "!=":
        t = _cmp_truth("==", a, b)
        return UNKNOWN if t == UNKNOWN else (FALSE if t == TRUE else TRUE)
    return UNKNOWN


def _truth_to_ival(t: int) -> Ival:
    if t == TRUE:
        return Ival.const(1)
    if t == FALSE:
        return Ival.const(0)
    return Ival(Lin.of(0), Lin.of(1))


# ----------------------------------------------------------------------
# abstract environment
# ----------------------------------------------------------------------

class AbsEnv:
    """Scoped map from variable keys to intervals.

    Keys are plain identifiers (``"i"``) or struct-member paths
    (``"Root.I"``).  Lookup of an unknown key yields TOP — array elements
    and external-call results are never tracked.
    """

    def __init__(self, base: dict[str, Ival] | None = None):
        self.frames: list[dict[str, Ival]] = [dict(base or {})]

    def push(self) -> None:
        self.frames.append({})

    def pop(self) -> None:
        self.frames.pop()

    def declare(self, key: str, value: Ival) -> None:
        self.frames[-1][key] = value

    def assign(self, key: str, value: Ival) -> None:
        for frame in reversed(self.frames):
            if key in frame:
                frame[key] = value
                return
        self.frames[-1][key] = value

    def lookup(self, key: str) -> Ival:
        for frame in reversed(self.frames):
            if key in frame:
                return frame[key]
        return TOP

    def __contains__(self, key: str) -> bool:
        return any(key in frame for frame in self.frames)

    def copy(self) -> "AbsEnv":
        clone = AbsEnv()
        clone.frames = [dict(frame) for frame in self.frames]
        return clone

    def merge(self, other: "AbsEnv") -> None:
        """Join ``other`` into self frame-by-frame (same block structure)."""
        for mine, theirs in zip(self.frames, other.frames):
            for key in set(mine) | set(theirs):
                a = mine.get(key, TOP)
                b = theirs.get(key, TOP)
                mine[key] = a.join(b)


def _key_of(expr: ast.Expr) -> str | None:
    """Stable key for trackable lvalues: names and one-level members."""
    if isinstance(expr, ast.Name):
        return expr.ident
    if isinstance(expr, ast.Member) and isinstance(expr.base, ast.Name):
        return f"{expr.base.ident}.{expr.name}"
    return None


def _keys_in(expr: ast.Expr) -> set[str]:
    """Every trackable variable key occurring in an expression."""
    keys: set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            keys.add(node.ident)
        elif isinstance(node, ast.Member) and isinstance(node.base, ast.Name):
            keys.add(f"{node.base.ident}.{node.name}")
    return keys


# ----------------------------------------------------------------------
# the analyzer
# ----------------------------------------------------------------------

@dataclass
class _ParFrame:
    """An enclosing ``par`` loop during scheme traversal."""
    var: str
    line: int


@dataclass
class _Action:
    """A recorded scheme action for the communication-structure pass."""
    line: int
    region: list[Ival]                     # compute coords or transfer dst
    src_region: list[Ival] | None = None   # transfers only
    par_vars: list[_ParFrame] = dataclass_field(default_factory=list)
    src_keys: set[str] = dataclass_field(default_factory=set)
    dst_keys: set[str] = dataclass_field(default_factory=set)


class _Analyzer:
    def __init__(self, alg: ast.Algorithm, structs: dict[str, ast.StructDef]):
        self.alg = alg
        self.structs = structs
        self.diags: list[Diagnostic] = []
        # abstract parameter environment: scalar params are exact symbols
        self.params: dict[str, Ival] = {}
        for p in alg.params:
            if not p.dims:
                self.params[p.name] = Ival.point(Lin.sym(p.name))
        self.extents: list[Ival] = []
        self.coord_names = [c.name for c in alg.coords]
        # struct-typed scheme variables (name -> StructDef), for &x havoc
        self.struct_vars: dict[str, ast.StructDef] = {}
        # comm-structure records
        self.computes: list[_Action] = []
        self.transfers: list[_Action] = []
        self.link_regions: list[tuple[ast.LinkRule, list[Ival], list[Ival]]] = []
        self.par_stack: list[_ParFrame] = []

    def emit(self, diag: Diagnostic) -> None:
        self.diags.append(diag)

    # ------------------------------------------------------------------
    # abstract expression evaluation
    # ------------------------------------------------------------------
    def eval(self, expr: ast.Expr, env: AbsEnv) -> Ival:
        if isinstance(expr, ast.IntLit):
            return Ival.const(expr.value)
        if isinstance(expr, ast.FloatLit):
            return Ival.const(expr.value)
        if isinstance(expr, ast.Sizeof):
            try:
                return Ival.const(sizeof(expr.type_name))
            except Exception:
                return TOP
        if isinstance(expr, ast.Name):
            return env.lookup(expr.ident)
        if isinstance(expr, ast.Member):
            key = _key_of(expr)
            if key is not None:
                return env.lookup(key)
            self.eval(expr.base, env)
            return TOP
        if isinstance(expr, ast.Index):
            self.eval(expr.base, env)
            self.eval(expr.index, env)
            return TOP
        if isinstance(expr, ast.Unary):
            v = self.eval(expr.operand, env)
            if expr.op == "-":
                return Ival(None if v.hi is None else v.hi.scale(-1),
                            None if v.lo is None else v.lo.scale(-1))
            if expr.op == "+":
                return v
            if expr.op == "!":
                t = _ival_truth(v)
                return _truth_to_ival(UNKNOWN if t == UNKNOWN
                                      else (FALSE if t == TRUE else TRUE))
            return TOP
        if isinstance(expr, ast.AddrOf):
            self.eval(expr.operand, env)
            return TOP
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, env)
        if isinstance(expr, ast.Conditional):
            t = self.truth(expr.cond, env)
            if t == TRUE:
                return self.eval(expr.then, env)
            if t == FALSE:
                return self.eval(expr.otherwise, env)
            return self.eval(expr.then, env).join(self.eval(expr.otherwise, env))
        if isinstance(expr, ast.Assign):
            value = self.eval(expr.value, env)
            if expr.op != "=":
                current = self.eval(expr.target, env)
                value = self._arith(expr.op[0], current, value, expr)
            key = _key_of(expr.target)
            if key is not None:
                env.assign(key, value)
            return value
        if isinstance(expr, ast.IncDec):
            old = self.eval(expr.target, env)
            step = 1 if expr.op == "++" else -1
            new = Ival(None if old.lo is None else old.lo.shift(step),
                       None if old.hi is None else old.hi.shift(step))
            key = _key_of(expr.target)
            if key is not None:
                env.assign(key, new)
            return old
        if isinstance(expr, ast.Call):
            for arg in expr.args:
                self.eval(arg, env)
                if isinstance(arg, ast.AddrOf):
                    self._havoc_lvalue(arg.operand, env)
            return TOP
        return TOP

    def _havoc_lvalue(self, target: ast.Expr, env: AbsEnv) -> None:
        """An external call may write through ``&target``: forget its value."""
        if isinstance(target, ast.Name) and target.ident in self.struct_vars:
            for f in self.struct_vars[target.ident].fields:
                env.assign(f"{target.ident}.{f.name}", TOP)
            return
        key = _key_of(target)
        if key is not None:
            env.assign(key, TOP)

    def _eval_binary(self, expr: ast.Binary, env: AbsEnv) -> Ival:
        op = expr.op
        if op == "&&":
            lt = self.truth(expr.left, env)
            rt = self.truth(expr.right, env)
            if lt == FALSE or rt == FALSE:
                return Ival.const(0)
            if lt == TRUE and rt == TRUE:
                return Ival.const(1)
            return _truth_to_ival(UNKNOWN)
        if op == "||":
            lt = self.truth(expr.left, env)
            rt = self.truth(expr.right, env)
            if lt == TRUE or rt == TRUE:
                return Ival.const(1)
            if lt == FALSE and rt == FALSE:
                return Ival.const(0)
            return _truth_to_ival(UNKNOWN)
        a = self.eval(expr.left, env)
        b = self.eval(expr.right, env)
        if op in ("==", "!=", "<", ">", "<=", ">="):
            return _truth_to_ival(_cmp_truth(op, a, b))
        return self._arith(op, a, b, expr)

    def _arith(self, op: str, a: Ival, b: Ival, where: ast.Node) -> Ival:
        if op == "+":
            return Ival(None if a.lo is None or b.lo is None else a.lo + b.lo,
                        None if a.hi is None or b.hi is None else a.hi + b.hi)
        if op == "-":
            return Ival(None if a.lo is None or b.hi is None else a.lo - b.hi,
                        None if a.hi is None or b.lo is None else a.hi - b.lo)
        if op == "*":
            ka = a.const_value
            kb = b.const_value
            if ka is not None:
                return self._scale(b, ka)
            if kb is not None:
                return self._scale(a, kb)
            return TOP
        if op in ("/", "%"):
            if b.const_value == 0:
                self.emit(PM050.at(
                    where,
                    f"{'division' if op == '/' else 'modulo'} by zero: the "
                    f"denominator is provably 0",
                ))
                return TOP
            ka = a.const_value
            kb = b.const_value
            if ka is not None and kb is not None and kb != 0:
                if op == "/":
                    return Ival.const(ka / kb)
                if float(ka).is_integer() and float(kb).is_integer():
                    q = int(abs(ka) // abs(kb))
                    if (ka >= 0) != (kb >= 0):
                        q = -q
                    return Ival.const(ka - q * kb)
            return TOP
        return TOP

    @staticmethod
    def _scale(v: Ival, k: float) -> Ival:
        lo = None if v.lo is None else v.lo.scale(k)
        hi = None if v.hi is None else v.hi.scale(k)
        if k < 0:
            lo, hi = hi, lo
        return Ival(lo, hi)

    def truth(self, expr: ast.Expr, env: AbsEnv) -> int:
        return _ival_truth(self.eval(expr, env))

    # ------------------------------------------------------------------
    # condition refinement (assume cond holds, integer variables)
    # ------------------------------------------------------------------
    def refine(self, cond: ast.Expr, env: AbsEnv) -> None:
        if isinstance(cond, ast.Binary):
            if cond.op == "&&":
                self.refine(cond.left, env)
                self.refine(cond.right, env)
                return
            if cond.op in ("<", "<=", ">", ">=", "=="):
                self._refine_cmp(cond.op, cond.left, cond.right, env)

    def _refine_cmp(self, op: str, left: ast.Expr, right: ast.Expr,
                    env: AbsEnv) -> None:
        lkey = _key_of(left)
        rkey = _key_of(right)
        if lkey is not None:
            bound = self.eval(right, env)
            self._apply_bound(lkey, op, bound, env)
        if rkey is not None:
            mirrored = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}[op]
            bound = self.eval(left, env)
            self._apply_bound(rkey, mirrored, bound, env)

    def _apply_bound(self, key: str, op: str, bound: Ival, env: AbsEnv) -> None:
        current = env.lookup(key)
        lo, hi = current.lo, current.hi
        if op in ("<", "<=") and bound.hi is not None:
            new_hi = bound.hi if op == "<=" else bound.hi.shift(-1)
            hi = new_hi if hi is None else _pick_tighter_hi(hi, new_hi)
        elif op in (">", ">=") and bound.lo is not None:
            new_lo = bound.lo if op == ">=" else bound.lo.shift(1)
            lo = new_lo if lo is None else _pick_tighter_lo(lo, new_lo)
        elif op == "==":
            if bound.hi is not None:
                hi = bound.hi if hi is None else _pick_tighter_hi(hi, bound.hi)
            if bound.lo is not None:
                lo = bound.lo if lo is None else _pick_tighter_lo(lo, bound.lo)
        env.assign(key, Ival(lo, hi))

    # ------------------------------------------------------------------
    # top-level passes
    # ------------------------------------------------------------------
    def run(self) -> list[Diagnostic]:
        alg = self.alg
        self._check_extents()
        self._check_rules()
        self._check_parent()
        self._check_unused()
        if alg.scheme is not None:
            self._run_scheme(alg.scheme)
            self._comm_structure()
        self.diags.sort(key=lambda d: (d.line, d.code, d.message))
        return self.diags

    def _check_extents(self) -> None:
        env = AbsEnv(self.params)
        for coord in self.alg.coords:
            ext = self.eval(coord.extent, env)
            if ext.hi is not None and ext.hi.is_const and ext.hi.const < 1:
                self.emit(PM014.at(
                    coord,
                    f"coordinate {coord.name!r} has extent "
                    f"{format_expression(coord.extent)} which is provably < 1",
                ))
            self.extents.append(ext)
        self.link_extents: list[Ival] = []
        for lv in self.alg.link_vars:
            ext = self.eval(lv.extent, env)
            if ext.hi is not None and ext.hi.is_const and ext.hi.const < 1:
                self.emit(PM014.at(
                    lv,
                    f"link variable {lv.name!r} has extent "
                    f"{format_expression(lv.extent)} which is provably < 1",
                ))
            self.link_extents.append(ext)

    def _coord_env(self) -> AbsEnv:
        """Parameters plus every coordinate ranging over [0, extent-1]."""
        env = AbsEnv(self.params)
        for name, ext in zip(self.coord_names, self.extents):
            hi = None if ext.lo is None else ext.lo.shift(-1)
            env.declare(name, Ival(Lin.of(0), hi))
        return env

    def _check_rules(self) -> None:
        for rule_ in self.alg.node_rules:
            env = self._coord_env()
            t = self.truth(rule_.condition, env)
            if t == FALSE:
                self.emit(PM032.at(
                    rule_,
                    f"node rule condition "
                    f"{format_expression(rule_.condition)} is provably false; "
                    f"the rule matches no processor",
                ))
                continue
            self.refine(rule_.condition, env)
            self.eval(rule_.volume, env)  # division-by-zero detection

        for rule_ in self.alg.link_rules:
            env = self._coord_env()
            for lv, ext in zip(self.alg.link_vars, self.link_extents):
                hi = None if ext.lo is None else ext.lo.shift(-1)
                env.declare(lv.name, Ival(Lin.of(0), hi))
            t = self.truth(rule_.condition, env)
            if t == FALSE:
                self.emit(PM032.at(
                    rule_,
                    f"link rule condition "
                    f"{format_expression(rule_.condition)} is provably false; "
                    f"the rule declares no traffic",
                ))
                continue
            self.refine(rule_.condition, env)
            self.eval(rule_.volume, env)
            src = [self.eval(c, env) for c in rule_.src]
            dst = [self.eval(c, env) for c in rule_.dst]
            self._range_check(rule_, PM013, "link source", rule_.src, src)
            self._range_check(rule_, PM013, "link destination", rule_.dst, dst)
            if len(rule_.src) == len(rule_.dst) and all(
                format_expression(s) == format_expression(d)
                for s, d in zip(rule_.src, rule_.dst)
            ):
                self.emit(PM021.at(
                    rule_,
                    f"link rule declares a self-transfer: source and "
                    f"destination are both {_fmt_coords(rule_.src)}",
                ))
            self.link_regions.append((rule_, src, dst))

    def _check_parent(self) -> None:
        parent = self.alg.parent
        if parent is None or len(parent.coords) != len(self.extents):
            return
        env = AbsEnv(self.params)
        vals = [self.eval(c, env) for c in parent.coords]
        self._range_check(parent, PM012, "parent", parent.coords, vals)

    def _range_check(self, where: ast.Node, rule_, what: str,
                     exprs: list[ast.Expr], vals: list[Ival]) -> None:
        """Prove a coordinate tuple out of range (error) or escapable (warning)."""
        for axis, (expr, val) in enumerate(zip(exprs, vals)):
            if axis >= len(self.extents):
                return
            ext = self.extents[axis]
            cname = self.coord_names[axis]
            shown = format_expression(expr)
            # provably >= extent for every possible extent value
            if (val.lo is not None and ext.hi is not None
                    and (d := val.lo.diff_const(ext.hi)) is not None and d >= 0):
                self.emit(rule_.at(
                    where,
                    f"{what} coordinate {shown} is always out of range: "
                    f"it is >= the extent of {cname}",
                ))
                continue
            # provably negative for every execution
            if val.hi is not None and val.hi.is_const and val.hi.const < 0:
                self.emit(rule_.at(
                    where,
                    f"{what} coordinate {shown} is always negative",
                ))
                continue
            # can escape the range for some execution (finite proofs only)
            if (val.hi is not None and ext.lo is not None
                    and (d := val.hi.diff_const(ext.lo)) is not None and d >= 0):
                self.emit(rule_.at(
                    where,
                    f"{what} coordinate {shown} can reach the extent of "
                    f"{cname}: guard it or shrink the loop bound",
                    severity=Severity.WARNING,
                ))
                continue
            if val.lo is not None and val.lo.is_const and val.lo.const < 0:
                self.emit(rule_.at(
                    where,
                    f"{what} coordinate {shown} can be negative",
                    severity=Severity.WARNING,
                ))

    # ------------------------------------------------------------------
    # unused declarations
    # ------------------------------------------------------------------
    def _collect_names(self, *roots) -> set[str]:
        used: set[str] = set()
        for root in roots:
            if root is None:
                continue
            for node in ast.walk(root):
                if isinstance(node, ast.Name):
                    used.add(node.ident)
        return used

    def _check_unused(self) -> None:
        alg = self.alg
        rule_exprs: list[ast.Node] = []
        for r in alg.node_rules:
            rule_exprs += [r.condition, r.volume]
        for r in alg.link_rules:
            rule_exprs += [r.condition, r.volume, *r.src, *r.dst]

        everywhere = self._collect_names(
            *(d for p in alg.params for d in p.dims),
            *(c.extent for c in alg.coords),
            *(lv.extent for lv in alg.link_vars),
            *rule_exprs,
            *(alg.parent.coords if alg.parent is not None else []),
            alg.scheme,
        )
        for p in alg.params:
            if p.name not in everywhere:
                self.emit(PM040.at(p, f"parameter {p.name!r} is never used"))

        in_rules = self._collect_names(*rule_exprs)
        for c in alg.coords:
            if c.name not in in_rules:
                self.emit(PM041.at(
                    c, f"coordinate {c.name!r} is used by no node or link rule"))
        link_rule_names = self._collect_names(
            *(x for r in alg.link_rules
              for x in (r.condition, r.volume, *r.src, *r.dst)))
        for lv in alg.link_vars:
            if lv.name not in link_rule_names:
                self.emit(PM042.at(
                    lv, f"link variable {lv.name!r} is used by no link rule"))

        if alg.scheme is not None:
            declared: list[tuple[str, ast.Node]] = []
            for node in ast.walk(alg.scheme):
                if isinstance(node, ast.VarDecl):
                    for d in node.declarators:
                        declared.append((d.name, node))
            used: set[str] = set()
            for node in ast.walk(alg.scheme):
                if isinstance(node, ast.Name):
                    used.add(node.ident)
                elif isinstance(node, ast.Call):
                    used.add(node.name)
            for name, where in declared:
                if name not in used:
                    self.emit(PM043.at(
                        where, f"scheme variable {name!r} is never used"))

    # ------------------------------------------------------------------
    # scheme traversal
    # ------------------------------------------------------------------
    def _run_scheme(self, scheme: ast.Scheme) -> None:
        env = AbsEnv(self.params)
        self._exec_block(scheme.body, env)

    def _exec_block(self, stmts: list[ast.Stmt], env: AbsEnv) -> None:
        env.push()
        try:
            for stmt in stmts:
                self._exec(stmt, env)
        finally:
            env.pop()

    def _exec(self, stmt: ast.Stmt, env: AbsEnv) -> None:
        if isinstance(stmt, ast.EmptyStmt):
            return
        if isinstance(stmt, ast.VarDecl):
            struct_def = self.structs.get(stmt.type_name)
            for d in stmt.declarators:
                if struct_def is not None:
                    self.struct_vars[d.name] = struct_def
                    for f in struct_def.fields:
                        env.declare(f"{d.name}.{f.name}", Ival.const(0))
                else:
                    value = (self.eval(d.init, env) if d.init is not None
                             else Ival.const(0))
                    env.declare(d.name, value)
            return
        if isinstance(stmt, ast.ExprStmt):
            self.eval(stmt.expr, env)
            return
        if isinstance(stmt, ast.Block):
            self._exec_block(stmt.body, env)
            return
        if isinstance(stmt, ast.If):
            self._exec_if(stmt, env)
            return
        if isinstance(stmt, (ast.For, ast.Par)):
            self._exec_loop(stmt, env, is_par=isinstance(stmt, ast.Par))
            return
        if isinstance(stmt, ast.While):
            self._exec_while(stmt, env)
            return
        if isinstance(stmt, ast.ComputeAction):
            self.eval(stmt.percent, env)
            coords = [self.eval(c, env) for c in stmt.coords]
            if len(coords) == len(self.extents):
                self._range_check(stmt, PM010, "compute", stmt.coords, coords)
                self.computes.append(_Action(stmt.line, coords))
            return
        if isinstance(stmt, ast.TransferAction):
            self.eval(stmt.percent, env)
            src = [self.eval(c, env) for c in stmt.src]
            dst = [self.eval(c, env) for c in stmt.dst]
            if len(src) == len(self.extents) and len(dst) == len(self.extents):
                self._range_check(stmt, PM011, "transfer source", stmt.src, src)
                self._range_check(stmt, PM011, "transfer destination",
                                  stmt.dst, dst)
                if all(format_expression(s) == format_expression(d)
                       for s, d in zip(stmt.src, stmt.dst)):
                    self.emit(PM020.at(
                        stmt,
                        f"transfer from {_fmt_coords(stmt.src)} to itself: "
                        f"source and destination coincide on every path",
                    ))
                self.transfers.append(_Action(
                    stmt.line, dst, src_region=src,
                    par_vars=list(self.par_stack),
                    src_keys=set().union(*(_keys_in(c) for c in stmt.src)),
                    dst_keys=set().union(*(_keys_in(c) for c in stmt.dst)),
                ))
            return

    def _exec_if(self, stmt: ast.If, env: AbsEnv) -> None:
        t = self.truth(stmt.cond, env)
        if t == FALSE:
            self.emit(PM030.at(
                stmt,
                f"condition {format_expression(stmt.cond)} is provably "
                f"false; the branch is never taken",
            ))
            if stmt.otherwise is not None:
                self._exec(stmt.otherwise, env)
            return
        if t == TRUE:
            self._exec(stmt.then, env)
            return
        then_env = env.copy()
        self.refine(stmt.cond, then_env)
        self._exec(stmt.then, then_env)
        if stmt.otherwise is not None:
            else_env = env.copy()
            self._exec(stmt.otherwise, else_env)
            then_env.merge(else_env)
        else:
            then_env.merge(env)
        env.frames = then_env.frames

    # -- loops ----------------------------------------------------------
    def _written_keys(self, *nodes) -> set[str]:
        keys: set[str] = set()
        for root in nodes:
            if root is None:
                continue
            for node in ast.walk(root):
                if isinstance(node, ast.Assign):
                    key = _key_of(node.target)
                    if key is not None:
                        keys.add(key)
                elif isinstance(node, ast.IncDec):
                    key = _key_of(node.target)
                    if key is not None:
                        keys.add(key)
                elif isinstance(node, ast.AddrOf):
                    target = node.operand
                    if (isinstance(target, ast.Name)
                            and target.ident in self.struct_vars):
                        sd = self.struct_vars[target.ident]
                        keys.update(f"{target.ident}.{f.name}"
                                    for f in sd.fields)
                    else:
                        key = _key_of(target)
                        if key is not None:
                            keys.add(key)
        return keys

    @staticmethod
    def _const_step(update: ast.Expr | None, var: str) -> float | None:
        """Constant per-iteration increment of ``var``, if recognisable."""
        if update is None:
            return None
        if isinstance(update, ast.IncDec) and _key_of(update.target) == var:
            return 1.0 if update.op == "++" else -1.0
        if (isinstance(update, ast.Assign) and _key_of(update.target) == var
                and isinstance(update.value, ast.IntLit)):
            if update.op == "+=":
                return float(update.value.value)
            if update.op == "-=":
                return -float(update.value.value)
        return None

    def _exec_loop(self, stmt: ast.For | ast.Par, env: AbsEnv,
                   is_par: bool) -> None:
        kind = "par" if is_par else "for"
        env.push()
        try:
            init_keys: set[str] = set()
            if isinstance(stmt.init, ast.VarDecl):
                self._exec(stmt.init, env)
                init_keys = {d.name for d in stmt.init.declarators}
            elif stmt.init is not None:
                self.eval(stmt.init, env)
                init_keys = self._written_keys(stmt.init)

            cond_keys = _keys_in(stmt.cond) if stmt.cond is not None else set()
            update_keys = self._written_keys(stmt.update)
            body_keys = self._written_keys(stmt.body)
            written = update_keys | body_keys
            loopvar = next(iter(sorted((init_keys | written) & cond_keys)), None)

            # termination
            if stmt.cond is None and stmt.update is None and not body_keys:
                self.emit(PM033.at(
                    stmt,
                    f"{kind} loop has no condition, no update and a body "
                    f"that changes nothing: it never terminates",
                ))

            entry = self.truth(stmt.cond, env) if stmt.cond is not None else TRUE
            if entry == FALSE:
                self.emit(PM031.at(
                    stmt,
                    f"{kind} loop condition "
                    f"{format_expression(stmt.cond)} is false on entry: "
                    f"the body never executes",
                ))
                return  # dead body: do not analyze or record actions

            init_ival = env.lookup(loopvar) if loopvar is not None else TOP
            step = (self._const_step(stmt.update, loopvar)
                    if loopvar is not None else None)
            if (step is not None and stmt.cond is not None
                    and loopvar is not None
                    and loopvar not in body_keys):
                wrong = self._direction_mismatch(stmt.cond, loopvar, step)
                if wrong:
                    if entry == TRUE:
                        self.emit(PM033.at(
                            stmt,
                            f"{kind} loop update moves {loopvar!r} away from "
                            f"its bound and the condition holds on entry: "
                            f"the loop never terminates",
                        ))
                    else:
                        self.emit(PM034.at(
                            stmt,
                            f"{kind} loop update moves {loopvar!r} away from "
                            f"its bound",
                        ))

            # abstract body state: forget everything the body can change,
            # then re-derive the loop variable's range from init + condition
            for key in written | ({loopvar} if loopvar else set()):
                env.assign(key, TOP)
            if loopvar is not None:
                if step is not None and step > 0 and loopvar not in body_keys:
                    env.assign(loopvar, Ival(init_ival.lo, None))
                elif step is not None and step < 0 and loopvar not in body_keys:
                    env.assign(loopvar, Ival(None, init_ival.hi))
                elif loopvar not in body_keys and stmt.update is None:
                    env.assign(loopvar, init_ival)
                else:
                    # body writes the loop variable in an unmodelled way;
                    # keep only what the condition can prove
                    if (init_ival.lo is not None and loopvar in body_keys
                            and stmt.update is None):
                        env.assign(loopvar, Ival(init_ival.lo, None))
            if stmt.cond is not None:
                self.refine(stmt.cond, env)

            if is_par and loopvar is not None:
                self.par_stack.append(_ParFrame(loopvar, stmt.line))
            try:
                self._exec(stmt.body, env)
            finally:
                if is_par and loopvar is not None:
                    self.par_stack.pop()
        finally:
            env.pop()
            # after the loop every written variable still visible outside
            # holds an unknown value
            for key in self._written_keys(stmt.init, stmt.update, stmt.body):
                if key in env:
                    env.assign(key, TOP)

    def _direction_mismatch(self, cond: ast.Expr, var: str,
                            step: float) -> bool:
        if not isinstance(cond, ast.Binary):
            return False
        op = cond.op
        if _key_of(cond.left) == var and op in ("<", "<=", ">", ">="):
            upper = op in ("<", "<=")
        elif _key_of(cond.right) == var and op in ("<", "<=", ">", ">="):
            upper = op in (">", ">=")
        else:
            return False
        return (upper and step < 0) or (not upper and step > 0)

    def _exec_while(self, stmt: ast.While, env: AbsEnv) -> None:
        entry = self.truth(stmt.cond, env)
        if entry == FALSE:
            self.emit(PM031.at(
                stmt,
                f"while condition {format_expression(stmt.cond)} is false "
                f"on entry: the body never executes",
            ))
            return
        cond_keys = _keys_in(stmt.cond)
        body_keys = self._written_keys(stmt.body)
        has_call = any(isinstance(n, ast.Call) for n in ast.walk(stmt.cond))
        if entry == TRUE and not (cond_keys & body_keys) and not has_call:
            self.emit(PM033.at(
                stmt,
                f"while condition {format_expression(stmt.cond)} is "
                f"always true and the body changes no variable it reads: "
                f"the loop never terminates",
            ))
        for key in body_keys:
            env.assign(key, TOP)
        refined = env.copy()
        self.refine(stmt.cond, refined)
        self._exec(stmt.body, refined)
        env.frames = refined.frames
        for key in body_keys:
            if key in env:
                env.assign(key, TOP)

    # ------------------------------------------------------------------
    # communication-structure pass
    # ------------------------------------------------------------------
    def _comm_structure(self) -> None:
        # processors that receive but provably never compute
        for t in self.transfers:
            if not self.computes:
                self.emit(PM060.at(
                    t.line,
                    "the scheme transfers data but contains no compute "
                    "action: receivers never compute",
                ))
                continue
            if all(_regions_disjoint(t.region, c.region)
                   for c in self.computes):
                self.emit(PM060.at(
                    t.line,
                    "processors receiving this transfer never appear in "
                    "any compute action",
                ))

        # declared links never exercised by the scheme
        for rule_, src, dst in self.link_regions:
            exercised = any(
                not _regions_disjoint(t.src_region or [], src)
                and not _regions_disjoint(t.region, dst)
                for t in self.transfers
            )
            if not exercised:
                self.emit(PM061.at(
                    rule_,
                    f"link rule {_fmt_coords(rule_.src)}->"
                    f"{_fmt_coords(rule_.dst)} is never exercised by the "
                    f"scheme: its declared volume is unreachable",
                ))

        # single-port serialization hotspots
        for t in self.transfers:
            fan_in = [p.var for p in t.par_vars
                      if p.var in t.src_keys and p.var not in t.dst_keys]
            fan_out = [p.var for p in t.par_vars
                       if p.var in t.dst_keys and p.var not in t.src_keys]
            notes = []
            if fan_in:
                notes.append(
                    f"fan-in over par variable(s) {', '.join(fan_in)} "
                    f"serializes at the destination port")
            if fan_out:
                notes.append(
                    f"fan-out over par variable(s) {', '.join(fan_out)} "
                    f"serializes at the source port")
            if notes:
                self.emit(PM062.at(
                    t.line,
                    "single-port hotspot: " + "; ".join(notes),
                    hint="Timeof prices these transfers sequentially "
                         "under the single-port model",
                ))


def _regions_disjoint(a: list[Ival], b: list[Ival]) -> bool:
    """Provably no coordinate tuple lies in both regions."""
    if not a or not b or len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x.lo is not None and y.hi is not None
                and (d := x.lo.diff_const(y.hi)) is not None and d > 0):
            return True
        if (x.hi is not None and y.lo is not None
                and (d := x.hi.diff_const(y.lo)) is not None and d < 0):
            return True
    return False


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def analyze_algorithm(
    alg: ast.Algorithm,
    structs: dict[str, ast.StructDef] | None = None,
) -> list[Diagnostic]:
    """Run every analyzer rule over one parsed (unbound) algorithm."""
    return _Analyzer(alg, dict(structs or {})).run()
