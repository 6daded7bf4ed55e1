"""PMDL code generation: each checked algorithm becomes one Python module.

The paper's compiler "turns a PMDL description into a set of functions".
This module is that step.  :func:`generate` walks a checked
:class:`~repro.perfmodel.ast.Algorithm` once, emits the source of one
Python module, and turns it into functions with one ``compile()`` and
one ``exec`` (a :class:`ModelCode`):

- ``dims_<k>(P)`` yields the declared dimensions of array parameter *k*,
  one axis at a time, over a dictionary of parameter values;
- ``extents(A)`` and ``link_extents(A)`` evaluate the coordinate and
  link-variable extents;
- ``node_volumes(A, E)`` applies the node rules to every coordinate tuple;
- ``link_<r>(A, E, LE, n)`` applies link rule *r* to every coordinate and
  link-variable tuple;
- ``parent(A)`` returns the parent's coordinates;
- ``scheme(A, E, sink...)`` runs the scheme.  It calls the sink — a
  :class:`~repro.perfmodel.model.LinearActionVisitor`'s ``compute``,
  ``transfer``, ``enter_par``/``next_par_branch``/``exit_par`` and
  ``at_line`` — with linear processor indices, so trace recording, net
  lowering and the timeline oracle are sinks over one executor.

``A`` is the bound parameter tuple (:meth:`ModelCode.pack`) and ``E`` the
coordinate extents.  Semantics are the C-like ones of
:mod:`repro.perfmodel.interp`, whose helpers the generated code calls on
its slow paths.  PMDL variables become Python locals: one per
(scope, name), so block scoping and shadowing follow the PMDL rules; a
declaration that runs conditionally (the body of an ``if`` or loop
without braces) keeps a run-time "not yet declared" marker.  Array
parameters indexed to full depth are read from a nested-list copy; a
struct variable that is never reassigned reads its fields directly.

Every model the front end accepts compiles: statements nested deeper
than CPython's block and indentation limits, and expressions nested
deeper than its bracket limit, move into nested functions.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from typing import Any

from ..util.csizes import c_sizeof
from . import ast, interp

__all__ = ["ModelCode", "generate"]

_IND = "    "
#: Per generated function: loops nested (CPython allows 20 blocks) and
#: indentation levels (CPython allows 100) before a body moves into a
#: nested function.
_BLOCK_SPLIT = 8
_INDENT_SPLIT = 24
#: Bracket nesting of one expression (CPython allows 200) before a
#: sub-expression moves into a nested function.
_PAREN_SPLIT = 40
#: Array parameters of at most this rank get the nested-list fast path.
_FAST_RANK = 4

_CMP = frozenset({"==", "!=", "<", ">", "<=", ">="})
_ARITH = frozenset({"+", "-", "*"})
_COMPOUND = {"+": "+", "-": "-", "*": "*", "/": "/"}

#: The names every generated module sees.
_RUNTIME: dict[str, Any] = {
    "_StructValue": interp.StructValue,
    "_c_div": interp._c_div,
    "_c_mod": interp._c_mod,
    "_UNSET": interp.UNSET,
    "_fail": interp.fail,
    "_undefined": interp.undefined,
    "_undeclared": interp.undeclared,
    "_lookup": interp.lookup,
    "_assign": interp.assign,
    "_index": interp.index,
    "_index1": interp.index1,
    "_index2": interp.index2,
    "_index3": interp.index3,
    "_index4": interp.index4,
    "_set_index": interp.set_index,
    "_member": interp.member,
    "_set_member": interp.set_member,
    "_address": interp.address,
    "_callee": interp.callee,
    "_extent": interp.extent,
    "_linear": interp.linear,
    "_coord_error": interp.coord_error,
    "_coords_error": interp.coords_error,
    "_par_step": interp.par_step,
    "_over_budget": interp.over_budget,
    "_no_exit": interp.no_exit,
    "_sizeof": c_sizeof,
    "_product": itertools.product,
    "_BUDGET": interp.STEP_BUDGET,
}

#: A generated expression: (Python source, bracket depth, PMDL locals
#: it assigns).
_Code = tuple[str, int, frozenset]
_NONE: frozenset = frozenset()


class ModelCode:
    """The generated functions of one algorithm (see the module docstring)."""

    def __init__(self, source: str, namespace: dict[str, Any],
                 param_names: tuple[str, ...], fast: tuple[str, ...],
                 dims: dict[str, Callable[[dict], Iterator[Any]]],
                 link_rules: int, has_parent: bool, has_scheme: bool):
        self.source = source
        self.namespace = namespace
        self.param_names = param_names
        #: array parameters read through nested-list copies
        self.fast = fast
        self.dims = dims
        self.extents = namespace["extents"]
        self.link_extents = namespace["link_extents"]
        self.node_volumes = namespace["node_volumes"]
        self.link_rules = [namespace[f"link_{r}"] for r in range(link_rules)]
        self.parent = namespace["parent"] if has_parent else None
        self.scheme = namespace["scheme"] if has_scheme else None

    def pack(self, params: dict[str, Any]) -> tuple:
        """The bound-argument tuple every generated function unpacks."""
        return (tuple(params[name] for name in self.param_names)
                + tuple(params[name].tolist() for name in self.fast))


def generate(algorithm: ast.Algorithm, structs: dict[str, ast.StructDef],
             externals: dict[str, Callable[..., Any]]) -> ModelCode:
    """Generate, compile and load the functions of ``algorithm``.

    ``externals`` is read at call time, so names registered after
    generation resolve.
    """
    gen = _Gen(algorithm, structs)
    source = gen.module()
    namespace = dict(_RUNTIME)
    namespace["_EXT"] = externals
    namespace.update(gen.consts)
    exec(compile(source, f"<pmdl {algorithm.name}>", "exec"), namespace)
    dims = {p.name: namespace[f"dims_{k}"]
            for k, p in enumerate(algorithm.params) if p.dims}
    return ModelCode(source, namespace, tuple(p.name for p in algorithm.params),
                     gen.fast_order, dims, len(algorithm.link_rules),
                     algorithm.parent is not None, algorithm.scheme is not None)


# ----------------------------------------------------------------------
# pre-scans
# ----------------------------------------------------------------------

def _pure(expr: ast.Expr) -> bool:
    """No assignment, call or address-of anywhere in ``expr``."""
    return not any(isinstance(n, (ast.Assign, ast.IncDec, ast.Call, ast.AddrOf))
                   for n in ast.walk(expr))


def _stores(nodes: list[ast.Node]) -> bool:
    return any(isinstance(n, (ast.Assign, ast.IncDec, ast.AddrOf))
               for root in nodes for n in ast.walk(root))


def _fast_arrays(alg: ast.Algorithm, nodes: list[ast.Node]) -> dict[str, int]:
    """Array parameters every use of which is a full-depth read or a
    direct call argument: no PMDL code can write them, so a list copy
    taken at bind time stays exact (external functions receive the array
    itself and must not modify it in place).  Maps name -> rank."""
    ranks = {p.name: len(p.dims) for p in alg.params
             if 0 < len(p.dims) <= _FAST_RANK}
    if not ranks:
        return {}
    stored: set[int] = set()
    allowed: set[int] = set()
    bases: set[int] = set()
    indexes: list[ast.Index] = []
    names: list[ast.Name] = []
    for node in nodes:
        if isinstance(node, ast.Index):
            bases.add(id(node.base))
            indexes.append(node)
        elif isinstance(node, ast.Name):
            if node.ident in ranks:
                names.append(node)
        elif isinstance(node, (ast.Assign, ast.IncDec)):
            stored.add(id(node.target))
        elif isinstance(node, ast.AddrOf):
            stored.add(id(node.operand))
        elif isinstance(node, ast.Call):
            allowed.update(id(a) for a in node.args if isinstance(a, ast.Name))
    for node in indexes:
        if id(node) in bases:
            continue  # not the outermost index of its chain
        depth = 0
        cur: ast.Expr = node
        clean = True
        while isinstance(cur, ast.Index):
            clean = clean and id(cur) not in stored
            depth += 1
            cur = cur.base
        if (clean and isinstance(cur, ast.Name)
                and ranks.get(cur.ident) == depth):
            allowed.add(id(cur))
    fast = dict(ranks)
    for name in names:
        if id(name) not in allowed:
            fast.pop(name.ident, None)
    return fast


def _stable_structs(alg: ast.Algorithm, structs: dict[str, ast.StructDef],
                    nodes: list[ast.Node]) -> dict[str, frozenset[str]]:
    """Scheme variables only ever declared as one struct type and never
    assigned as a whole — every read of them is a StructValue — mapped to
    their field names."""
    types: dict[str, set[str]] = {}
    stored: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.VarDecl):
            for d in node.declarators:
                types.setdefault(d.name, set()).add(node.type_name)
        elif (isinstance(node, (ast.Assign, ast.IncDec))
              and isinstance(node.target, ast.Name)):
            stored.add(node.target.ident)
    params = {p.name for p in alg.params}
    stable: dict[str, frozenset[str]] = {}
    for name, declared in types.items():
        if (len(declared) == 1 and name not in stored and name not in params):
            struct = structs.get(next(iter(declared)))
            if struct is not None:
                stable[name] = frozenset(f.name for f in struct.fields)
    return stable


def _cond_decls(stmt: ast.Stmt) -> set[str]:
    """Names ``stmt`` may declare into the scope it runs in without a
    block of its own — the branches of an ``if``, the body of a loop."""
    if isinstance(stmt, ast.VarDecl):
        return {d.name for d in stmt.declarators}
    if isinstance(stmt, ast.If):
        out = _cond_decls(stmt.then)
        if stmt.otherwise is not None:
            out |= _cond_decls(stmt.otherwise)
        return out
    if isinstance(stmt, ast.While):
        return _cond_decls(stmt.body)
    return set()


def _tuple(items: list[str]) -> str:
    """Python source of a tuple display of ``items``."""
    return "(" + "".join(f"{item}, " for item in items) + ")"


def _block_cond_decls(body: list[ast.Stmt]) -> set[str]:
    out: set[str] = set()
    for stmt in body:
        if not isinstance(stmt, ast.VarDecl):
            out |= _cond_decls(stmt)
    return out


# ----------------------------------------------------------------------
# generation state
# ----------------------------------------------------------------------

class _Fn:
    """One Python function being generated."""

    def __init__(self, name: str, args: tuple[str, ...]):
        self.name = name
        self.args = args
        self.prologue: list[str] = []
        self.body: list[str] = []
        self.indent = 1
        self.blocks = 0
        self.owned: set[str] = set()
        self.assigned: set[str] = set()

    def emit(self, text: str) -> None:
        self.body.append(_IND * self.indent + text)

    def render(self) -> list[str]:
        lines = [f"def {self.name}({', '.join(self.args)}):"]
        outer = sorted(self.assigned - self.owned)
        if outer:
            lines.append(f"{_IND}nonlocal {', '.join(outer)}")
        lines += self.prologue + self.body
        if not self.prologue and not self.body:
            lines.append(f"{_IND}pass")
        return lines


class _Slot:
    """The Python local holding one PMDL variable of one scope."""

    __slots__ = ("py", "param")

    def __init__(self, py: str, param: bool = False):
        self.py = py
        self.param = param


class _Frame:
    """One PMDL scope: the variables a block or loop (or the scheme) opens."""

    def __init__(self, gen: "_Gen", parent: "_Frame | None",
                 conditional: set[str] | frozenset = _NONE):
        self.gen = gen
        self.owner = gen.fn
        self.parent = parent
        self.slots: dict[str, _Slot] = {}
        self.definite: set[str] = set()
        self.conditional = frozenset(conditional)

    def slot(self, name: str) -> _Slot:
        slot = self.slots.get(name)
        if slot is None:
            slot = self.slots[name] = _Slot(self.gen.pyname(name))
            self.owner.owned.add(slot.py)
        return slot


class _Gen:
    def __init__(self, alg: ast.Algorithm, structs: dict[str, ast.StructDef]):
        self.alg = alg
        self.structs = structs
        self.counter = itertools.count()
        self.consts: dict[str, Any] = {}
        nodes = list(ast.walk(alg))
        self.fast = _fast_arrays(alg, nodes)
        self.fast_order = tuple(p.name for p in alg.params if p.name in self.fast)
        self.stable = _stable_structs(alg, structs, nodes)
        self.ncoords = len(alg.coords)
        self.fn = _Fn("", ())
        self.frame: _Frame | None = None
        self.dict_mode = False
        self.lists: dict[str, str] = {}

    # -- names ----------------------------------------------------------
    def fresh(self, prefix: str) -> str:
        return f"{prefix}{next(self.counter)}"

    def pyname(self, name: str) -> str:
        n = next(self.counter)
        return f"v{n}_{name}" if name.isascii() and name.isidentifier() else f"v{n}"

    def const(self, value: Any) -> str:
        name = self.fresh("_k")
        self.consts[name] = value
        return name

    # -- function scaffolding ------------------------------------------
    def function(self, name: str, args: tuple[str, ...],
                 emit: Callable[[], None]) -> list[str]:
        """Emit a top-level function; params are its base scope."""
        self.fn = _Fn(name, args)
        self.frame = _Frame(self, None)
        self.lists = {}
        emit()
        self.frame = None
        return self.fn.render()

    def unpack_params(self) -> None:
        """Bind every parameter (and list copy) from ``_A``."""
        frame = self.frame
        assert frame is not None
        while frame.parent is not None:
            frame = frame.parent
        names = []
        for p in self.alg.params:
            slot = frame.slots.get(p.name)
            if slot is None:
                slot = frame.slots[p.name] = _Slot(self.pyname(p.name), True)
                self.fn.owned.add(slot.py)
            frame.definite.add(p.name)
            names.append(slot.py)
        for name in self.fast_order:
            if name not in self.lists:
                self.lists[name] = self.fresh("_L")
            names.append(self.lists[name])
        if names:
            self.fn.emit(f"{', '.join(names)}, = _A")

    def nested(self, args: tuple[str, ...], emit: Callable[[], None]) -> str:
        """Emit a function nested in the current one (defined at its top)."""
        outer = self.fn
        inner = _Fn(self.fresh("_f"), args)
        self.fn = inner
        emit()
        self.fn = outer
        outer.prologue.extend(_IND + line for line in inner.render())
        outer.assigned |= inner.assigned - inner.owned
        return inner.name

    def fit(self, code: str, depth: int, writes: frozenset) -> _Code:
        """Move an expression nested too deep into a nested function."""
        if depth <= _PAREN_SPLIT:
            return code, depth, writes

        def body() -> None:
            self.fn.assigned |= writes
            self.fn.emit(f"return {code}")
        return f"{self.nested((), body)}()", 1, writes

    # -- name resolution -----------------------------------------------
    def chain(self, name: str) -> tuple[list[_Slot], _Slot | None]:
        """How ``name`` resolves here: the slots of scopes that may have
        declared it by now (innermost first), and the slot of the nearest
        scope that surely has, or None when none has."""
        maybe: list[_Slot] = []
        frame = self.frame
        while frame is not None:
            if name in frame.definite:
                return maybe, frame.slot(name)
            if name in frame.conditional:
                maybe.append(frame.slot(name))
            frame = frame.parent
        return maybe, None

    def definite(self, name: str) -> _Slot | None:
        """The slot ``name`` always reads here, when there is exactly one."""
        if self.dict_mode:
            return None
        maybe, slot = self.chain(name)
        return None if maybe else slot

    def stable_base(self, expr: ast.Expr) -> str | None:
        """The local of a struct variable ``expr`` names, when every read
        of it is a StructValue."""
        if (isinstance(expr, ast.Name) and expr.ident in self.stable
                and not self.dict_mode):
            slot = self.definite(expr.ident)
            if slot is not None and not slot.param:
                return slot.py
        return None

    def stable_field(self, expr: ast.Expr) -> str | None:
        """The field slot ``Struct.field`` names, read and written
        directly, when ``Struct`` is a stable struct with that field."""
        if isinstance(expr, ast.Member) and isinstance(expr.base, ast.Name):
            py = self.stable_base(expr.base)
            if py is not None and expr.name in self.stable[expr.base.ident]:
                return f"{py}.fields[{expr.name!r}]"
        return None

    def simple(self, expr: ast.Expr) -> bool:
        """A read that cannot fail and has no effect."""
        if isinstance(expr, ast.IntLit):
            return True
        if isinstance(expr, ast.Name):
            return self.definite(expr.ident) is not None
        return self.stable_field(expr) is not None

    # -- expressions -----------------------------------------------------
    def expr(self, e: ast.Expr, mode: str = "v") -> _Code:
        """Python for ``e``; mode ``"t"`` when only its truth is used."""
        handler = _EXPR.get(type(e))
        if handler is None:
            return self.raiser(f"cannot evaluate {type(e).__name__} (line {e.line})")
        return self.fit(*handler(self, e, mode))

    def raiser(self, message: str, *evaluated: _Code) -> _Code:
        args = "".join(f", {c[0]}" for c in evaluated)
        return (f"_fail({message!r}{args})",
                1 + max((c[1] for c in evaluated), default=0),
                frozenset().union(*(c[2] for c in evaluated)))

    def e_lit(self, e: ast.IntLit | ast.FloatLit, mode: str) -> _Code:
        value = e.value
        if isinstance(value, float) and not math.isfinite(value):
            return self.const(value), 0, _NONE
        text = repr(value)
        if len(text) > 200:
            return self.const(value), 0, _NONE
        return text, 0, _NONE

    def e_name(self, e: ast.Name, mode: str) -> _Code:
        return self.read_name(e.ident)

    def read_name(self, name: str) -> _Code:
        if self.dict_mode:
            return f"_lookup(_P, {name!r})", 1, _NONE
        maybe, slot = self.chain(name)
        code = slot.py if slot is not None else f"_undefined({name!r})"
        depth = 0 if slot is not None else 1
        for m in reversed(maybe):
            code = f"({m.py} if {m.py} is not _UNSET else {code})"
            depth += 1
        return code, depth, _NONE

    def e_sizeof(self, e: ast.Sizeof, mode: str) -> _Code:
        try:
            return repr(c_sizeof(e.type_name)), 0, _NONE
        except Exception:
            return f"_sizeof({e.type_name!r})", 1, _NONE

    def e_index(self, e: ast.Index, mode: str) -> _Code:
        chain: list[ast.Index] = []
        cur: ast.Expr = e
        while isinstance(cur, ast.Index):
            chain.append(cur)
            cur = cur.base
        chain.reverse()
        if (isinstance(cur, ast.Name) and cur.ident in self.fast
                and len(chain) == self.fast[cur.ident]
                and all(self.simple(c.index) for c in chain)):
            slot = self.definite(cur.ident)
            if slot is not None and slot.param:
                idx = [self.expr(c.index) for c in chain]
                lines = tuple(c.line for c in chain)
                args = ", ".join(i[0] for i in idx)
                return (f"_index{len(chain)}({self.lists[cur.ident]}, {args}, "
                        f"{slot.py}, {lines!r})",
                        1 + max(i[1] for i in idx), _NONE)
        base, index = self.expr(e.base), self.expr(e.index)
        return (f"_index({base[0]}, {index[0]}, {e.line})",
                1 + max(base[1], index[1]), base[2] | index[2])

    def e_member(self, e: ast.Member, mode: str) -> _Code:
        field = self.stable_field(e)
        if field is not None:
            return field, 1, _NONE
        base = self.expr(e.base)
        return f"_member({base[0]}, {e.name!r}, {e.line})", base[1] + 1, base[2]

    def e_unary(self, e: ast.Unary, mode: str) -> _Code:
        if e.op == "!":
            x = self.expr(e.operand, "t")
            code = f"(not {x[0]})" if mode == "t" else f"(0 if {x[0]} else 1)"
            return code, x[1] + 1, x[2]
        if e.op in ("-", "+"):
            x = self.expr(e.operand)
            return f"({e.op}{x[0]})", x[1] + 1, x[2]
        return self.raiser(f"unknown unary operator {e.op!r}")

    def e_binary(self, e: ast.Binary, mode: str) -> _Code:
        op = e.op
        if op in ("&&", "||"):
            left, right = self.expr(e.left, "t"), self.expr(e.right, "t")
            word = "and" if op == "&&" else "or"
            test = f"{left[0]} {word} {right[0]}"
            code = f"({test})" if mode == "t" else f"(1 if {test} else 0)"
            return code, max(left[1], right[1]) + 1, left[2] | right[2]
        if op in _CMP:
            left, right = self.expr(e.left), self.expr(e.right)
            test = f"{left[0]} {op} {right[0]}"
            code = f"({test})" if mode == "t" else f"(1 if {test} else 0)"
        elif op in _ARITH:
            left, right = self.expr(e.left), self.expr(e.right)
            code = f"({left[0]} {op} {right[0]})"
        elif op in ("/", "%"):
            left, right = self.expr(e.left), self.expr(e.right)
            fn = "_c_div" if op == "/" else "_c_mod"
            code = f"{fn}({left[0]}, {right[0]})"
        else:
            return self.raiser(f"unknown binary operator {op!r}")
        return code, max(left[1], right[1]) + 1, left[2] | right[2]

    def e_conditional(self, e: ast.Conditional, mode: str) -> _Code:
        cond = self.expr(e.cond, "t")
        then, other = self.expr(e.then, mode), self.expr(e.otherwise, mode)
        return (f"({then[0]} if {cond[0]} else {other[0]})",
                max(cond[1], then[1], other[1]) + 1,
                cond[2] | then[2] | other[2])

    def e_call(self, e: ast.Call, mode: str) -> _Code:
        args = [self.expr(a) for a in e.args]
        return (f"_callee(_EXT, {e.name!r}, {e.line})"
                f"({', '.join(a[0] for a in args)})",
                1 + max((a[1] for a in args), default=0),
                frozenset().union(*(a[2] for a in args)))

    def e_addrof(self, e: ast.AddrOf, mode: str) -> _Code:
        target = e.operand
        py = self.stable_base(target)
        if py is not None:
            return py, 0, _NONE
        value = self.expr(target)

        def getter() -> None:
            self.fn.emit(f"return {self.expr(target)[0]}")

        def setter() -> None:
            self.store_stmt(target, ("_v", 0, _NONE))
        get, put = self.nested((), getter), self.nested(("_v",), setter)
        return f"_address({value[0]}, {get}, {put})", value[1] + 1, value[2]

    # -- assignment ------------------------------------------------------
    def store(self, target: ast.Expr, value: _Code) -> _Code:
        """An expression storing ``value`` into ``target`` (in PMDL order:
        the value first, then the target's base and index); evaluates to
        the value."""
        v, vd, vw = value
        if isinstance(target, ast.Name):
            if self.dict_mode:
                return f"_assign(_P, {target.ident!r}, {v})", vd + 1, vw
            maybe, slot = self.chain(target.ident)
            if not maybe and slot is not None:
                self.fn.assigned.add(slot.py)
                return f"({slot.py} := {v})", vd + 1, vw | {slot.py}
            tmp = self.fresh("_t")
            code = (f"_undeclared({target.ident!r})" if slot is None
                    else f"({slot.py} := {tmp})")
            writes: set[str] = set() if slot is None else {slot.py}
            for m in reversed(maybe):
                code = f"(({m.py} := {tmp}) if {m.py} is not _UNSET else {code})"
                writes.add(m.py)
            self.fn.assigned |= writes
            return (f"(({tmp} := {v}), {code})[1]", vd + len(maybe) + 3,
                    vw | writes)
        if isinstance(target, ast.Member):
            base = self.expr(target.base)
            if (self.stable_field(target) is not None
                    or (_pure(target.base) and v.isidentifier())):
                return (f"_set_member({base[0]}, {target.name!r}, {v}, "
                        f"{target.line})", max(base[1], vd) + 1, base[2] | vw)
            tmp = self.fresh("_t")
            return (f"(({tmp} := {v}), _set_member({base[0]}, {target.name!r}, "
                    f"{tmp}, {target.line}))[1]", max(base[1], vd) + 3,
                    base[2] | vw)
        if isinstance(target, ast.Index):
            base, index = self.expr(target.base), self.expr(target.index)
            tmp = self.fresh("_t")
            return (f"(({tmp} := {v}), _set_index({base[0]}, {index[0]}, {tmp}, "
                    f"{target.line}))[1]", max(base[1], index[1], vd) + 3,
                    base[2] | index[2] | vw)
        return self.raiser(
            f"invalid assignment target {type(target).__name__} "
            f"(line {target.line})", value)

    def store_stmt(self, target: ast.Expr, value: _Code) -> None:
        """Store ``value`` into ``target`` as a statement."""
        if isinstance(target, ast.Name) and not self.dict_mode:
            slot = self.definite(target.ident)
            if slot is not None:
                self.fn.assigned.add(slot.py)
                self.fn.emit(f"{slot.py} = {value[0]}")
                return
        field = self.stable_field(target)
        if field is not None:
            self.fn.emit(f"{field} = {value[0]}")
            return
        self.fn.emit(self.fit(*self.store(target, value))[0])

    def combine(self, op: str, current: _Code, value: _Code) -> _Code:
        if op == "/":
            code = f"_c_div({current[0]}, {value[0]})"
        else:
            code = f"({current[0]} {op} {value[0]})"
        return code, max(current[1], value[1]) + 1, current[2] | value[2]

    def e_assign(self, e: ast.Assign, mode: str) -> _Code:
        value = self.expr(e.value)
        if e.op == "=":
            return self.store(e.target, value)
        op = _COMPOUND.get(e.op[:-1]) if e.op.endswith("=") else None
        if op is None:
            return self.raiser(f"unknown assignment operator {e.op!r}")
        slot = (self.definite(e.target.ident)
                if isinstance(e.target, ast.Name) else None)
        if slot is not None and _pure(e.value):
            return self.store(e.target, self.combine(op, (slot.py, 0, _NONE),
                                                     value))
        tmp = self.fresh("_t")
        current = self.expr(e.target)
        new = self.combine(op, current, (tmp, 0, _NONE))
        stored = self.store(e.target, new)
        return (f"(({tmp} := {value[0]}), {stored[0]})[1]",
                max(value[1], stored[1]) + 2, value[2] | stored[2])

    def e_incdec(self, e: ast.IncDec, mode: str) -> _Code:
        old = self.fresh("_t")
        current = self.expr(e.target)
        step = "1" if e.op == "++" else "-1"
        stored = self.store(e.target, (f"({old} + {step})", 1, _NONE))
        return (f"(({old} := {current[0]}), {stored[0]})[0]",
                max(current[1], stored[1]) + 2, current[2] | stored[2])

    def expr_stmt(self, e: ast.Expr) -> None:
        """``e`` evaluated for its effect only."""
        if isinstance(e, ast.Assign) and e.op == "=":
            self.store_stmt(e.target, self.expr(e.value))
            return
        if isinstance(e, (ast.Assign, ast.IncDec)) and isinstance(
                e.target, (ast.Name, ast.Member)):
            simple = (self.definite(e.target.ident) is not None
                      if isinstance(e.target, ast.Name)
                      else self.simple(e.target))
            pure = isinstance(e, ast.IncDec) or _pure(e.value)
            if simple and pure:
                current = self.expr(e.target)
                if isinstance(e, ast.IncDec):
                    step = "1" if e.op == "++" else "-1"
                    new: _Code = (f"({current[0]} + {step})", current[1] + 1,
                                  _NONE)
                else:
                    op = _COMPOUND.get(e.op[:-1])
                    if op is None:
                        self.fn.emit(self.expr(e)[0])
                        return
                    new = self.combine(op, current, self.expr(e.value))
                self.store_stmt(e.target, self.fit(*new))
                return
        self.fn.emit(self.expr(e)[0])

    # -- statements ------------------------------------------------------
    def stmt(self, s: ast.Stmt, conditional: bool) -> None:
        fn = self.fn
        if (isinstance(s, (ast.If, ast.For, ast.Par, ast.While, ast.Block))
                and (fn.indent >= _INDENT_SPLIT or fn.blocks >= _BLOCK_SPLIT)):
            name = self.nested((), lambda: self.stmt(s, conditional))
            fn.emit(f"{name}()")
            return
        handler = _STMT.get(type(s))
        if handler is None:
            fn.emit(f"_fail({f'cannot execute {type(s).__name__} (line {s.line})'!r})")
            return
        handler(self, s, conditional)

    def sub(self, s: ast.Stmt) -> None:
        """A nested statement on its own indented lines."""
        fn = self.fn
        fn.indent += 1
        before = len(fn.body)
        self.stmt(s, True)
        if len(fn.body) == before:
            fn.emit("pass")
        fn.indent -= 1

    def s_empty(self, s: ast.EmptyStmt, conditional: bool) -> None:
        pass

    def s_expr(self, s: ast.ExprStmt, conditional: bool) -> None:
        self.expr_stmt(s.expr)

    def s_block(self, s: ast.Block, conditional: bool) -> None:
        self.scope(_block_cond_decls(s.body))
        for child in s.body:
            self.stmt(child, False)
        self.unscope()

    def scope(self, conditional: set[str]) -> None:
        self.frame = frame = _Frame(self, self.frame, conditional)
        for name in sorted(conditional):
            py = frame.slot(name).py
            self.fn.assigned.add(py)
            self.fn.emit(f"{py} = _UNSET")

    def unscope(self) -> None:
        assert self.frame is not None
        self.frame = self.frame.parent

    def s_vardecl(self, s: ast.VarDecl, conditional: bool) -> None:
        assert self.frame is not None
        struct = self.structs.get(s.type_name)
        for d in s.declarators:
            if struct is not None:
                if d.init is not None:
                    self.fn.emit(
                        f"_fail('struct initialisers are not supported "
                        f"(line {s.line})')")
                    return
                fields = self.const(tuple(f.name for f in struct.fields))
                value: _Code = (f"_StructValue({s.type_name!r}, {fields})", 1,
                                _NONE)
            else:
                value = self.expr(d.init) if d.init is not None else ("0", 0, _NONE)
            slot = self.frame.slot(d.name)
            self.fn.assigned.add(slot.py)
            self.fn.emit(f"{slot.py} = {value[0]}")
            if not conditional:
                self.frame.definite.add(d.name)

    def s_if(self, s: ast.If, conditional: bool) -> None:
        fn = self.fn
        fn.emit(f"if {self.expr(s.cond, 't')[0]}:")
        self.sub(s.then)
        other = s.otherwise
        while isinstance(other, ast.If):
            fn.emit(f"elif {self.expr(other.cond, 't')[0]}:")
            self.sub(other.then)
            other = other.otherwise
        if other is not None:
            fn.emit("else:")
            self.sub(other)

    def step(self, line: int, par: bool = False) -> None:
        """Spend one loop iteration of the walk's budget (and report a
        ``par`` branch)."""
        self.fn.assigned.add("_steps")
        if par:
            self.fn.emit(f"if (_steps := _steps - 1) < 0 or _par: "
                         f"_par_step(_steps, _branch, {line})")
        else:
            self.fn.emit(f"if (_steps := _steps - 1) < 0: _over_budget({line})")

    def s_loop(self, s: ast.For | ast.Par, conditional: bool) -> None:
        fn = self.fn
        par = isinstance(s, ast.Par)
        self.scope(_cond_decls(s.body))
        if par:
            fn.emit(f"if _par: _enter({s.line})")
        if isinstance(s.init, ast.VarDecl):
            self.s_vardecl(s.init, False)
        elif s.init is not None:
            self.expr_stmt(s.init)
        if s.cond is None and s.update is None:
            # the body runs once, then the loop is a proven runaway
            self.step(s.line, par)
            self.stmt(s.body, True)
            fn.emit(f"_no_exit({s.line})")
        else:
            cond = "True" if s.cond is None else self.expr(s.cond, "t")[0]
            fn.emit(f"while {cond}:")
            fn.indent += 1
            fn.blocks += 1
            self.step(s.line, par)
            self.stmt(s.body, True)
            if s.update is not None:
                self.expr_stmt(s.update)
            fn.indent -= 1
            fn.blocks -= 1
            if par:
                fn.emit(f"if _par: _exit({s.line})")
        self.unscope()

    def s_while(self, s: ast.While, conditional: bool) -> None:
        fn = self.fn
        fn.emit(f"while {self.expr(s.cond, 't')[0]}:")
        fn.indent += 1
        fn.blocks += 1
        self.step(s.line)
        self.stmt(s.body, True)
        fn.indent -= 1
        fn.blocks -= 1

    def coords(self, exprs: list[ast.Expr], prefix: str) -> list[str]:
        """Evaluate action coordinates to ints, in order."""
        out = []
        for i, c in enumerate(exprs):
            if isinstance(c, ast.IntLit):
                out.append(repr(int(c.value)))
                continue
            name = f"{prefix}{i}"
            self.fn.emit(f"{name} = int({self.expr(c)[0]})")
            out.append(name)
        return out

    def linear(self, coords: list[str], line: int) -> tuple[str, str]:
        """(range check, row-major index) of action coordinates; the check
        is what ``BoundModel.linear_index`` checks."""
        if len(coords) != self.ncoords or not coords:
            return "True", f"_linear({_tuple(coords)}, _E, {line})"
        check = " and ".join(f"0 <= {c} < _e{i}" for i, c in enumerate(coords))
        idx = coords[0]
        for i, c in enumerate(coords[1:], 1):
            idx = f"({idx} * _e{i} + {c})"
        return check, idx

    def percent(self, e: ast.Expr) -> str | None:
        """The float percent of a literal; otherwise evaluates into ``_p``."""
        if isinstance(e, (ast.IntLit, ast.FloatLit)):
            try:
                value = float(e.value)
            except OverflowError:
                value = math.inf
            if math.isfinite(value):
                return repr(value)
        self.fn.emit(f"_p = {self.expr(e)[0]}")
        return None

    def s_compute(self, s: ast.ComputeAction, conditional: bool) -> None:
        fn = self.fn
        pct = self.percent(s.percent)
        where = self.coords(s.coords, "_a")
        fn.emit(f"if _lines: _at_line({s.line})")
        if pct is None:
            fn.emit("_p = float(_p)")
        check, idx = self.linear(where, s.line)
        fn.emit(f"_compute({pct or '_p'}, {idx}) if {check} else "
                f"_coord_error({_tuple(where)}, _E, {s.line})")

    def s_transfer(self, s: ast.TransferAction, conditional: bool) -> None:
        fn = self.fn
        pct = self.percent(s.percent)
        src = self.coords(s.src, "_a")
        dst = self.coords(s.dst, "_b")
        fn.emit(f"if _lines: _at_line({s.line})")
        if pct is None:
            fn.emit("_p = float(_p)")
        s_check, s_idx = self.linear(src, s.line)
        d_check, d_idx = self.linear(dst, s.line)
        fn.emit(f"_transfer({pct or '_p'}, {s_idx}, {d_idx}) "
                f"if {s_check} and {d_check} else "
                f"_coords_error({_tuple(src)}, {_tuple(dst)}, _E, {s.line})")

    # -- the module ------------------------------------------------------
    def coord_scope(self, names: list[str], ranges: list[str]) -> str:
        """Open a scope of loop variables; returns the ``for`` header."""
        self.frame = frame = _Frame(self, self.frame)
        targets = []
        for name in names:
            targets.append(frame.slot(name).py)
            frame.definite.add(name)
        self.fn.assigned.update(targets)
        if not targets:
            return "for _ in ((),):"
        if len(targets) == 1:
            return f"for {targets[0]} in range({ranges[0]}):"
        rs = ", ".join(f"range({r})" for r in ranges)
        return f"for {', '.join(targets)} in _product({rs}):"

    def extent_lines(self) -> list[str]:
        e = [f"_e{i}" for i in range(self.ncoords)]
        return [f"{', '.join(e)}, = _E"] if e else []

    def module(self) -> str:
        alg = self.alg
        out: list[str] = [f"# generated from PMDL algorithm {alg.name!r}"]
        for k, p in enumerate(alg.params):
            if p.dims:
                out += self.function(f"dims_{k}", ("_P",),
                                     lambda p=p: self.emit_dims(p))
        out += self.function("extents", ("_A",), self.emit_extents)
        out += self.function("link_extents", ("_A",), self.emit_link_extents)
        out += self.function("node_volumes", ("_A", "_E"), self.emit_nodes)
        for r, rule in enumerate(alg.link_rules):
            out += self.function(f"link_{r}", ("_A", "_E", "_LE", "_n"),
                                 lambda rule=rule: self.emit_link(rule))
        if alg.parent is not None:
            out += self.function("parent", ("_A",), self.emit_parent)
        if alg.scheme is not None:
            out += self.function(
                "scheme", ("_A", "_E", "_compute", "_transfer", "_par",
                           "_enter", "_branch", "_exit", "_lines", "_at_line"),
                self.emit_scheme)
        return "\n".join(out) + "\n"

    def emit_dims(self, p: ast.Param) -> None:
        self.dict_mode = True
        for dim in p.dims:
            self.fn.emit(f"yield {self.expr(dim)[0]}")
        self.dict_mode = False

    def emit_extents(self) -> None:
        self.unpack_params()
        items = [f"_extent({c.name!r}, {self.expr(c.extent)[0]})"
                 for c in self.alg.coords]
        self.fn.emit(f"return {_tuple(items)}")

    def emit_link_extents(self) -> None:
        self.unpack_params()
        items = [self.expr(lv.extent)[0] for lv in self.alg.link_vars]
        self.fn.emit(f"return {_tuple(items)}")

    def emit_parent(self) -> None:
        assert self.alg.parent is not None
        self.unpack_params()
        items = [f"int({self.expr(c)[0]})" for c in self.alg.parent.coords]
        self.fn.emit(f"return {_tuple(items)}")

    def emit_nodes(self) -> None:
        alg, fn = self.alg, self.fn
        rules = alg.node_rules
        # A rule that assigns sees fresh parameters at every processor.
        fresh = _stores([n for r in rules for n in (r.condition, r.volume)])
        if not fresh:
            self.unpack_params()
        fn.emit("_out = []")
        fn.emit("_append = _out.append")
        for line in self.extent_lines():
            fn.emit(line)
        fn.emit(self.coord_scope([c.name for c in alg.coords],
                                 [f"_e{i}" for i in range(self.ncoords)]))
        fn.indent += 1
        if fresh:
            self.unpack_params()
        keyword = "if"
        for rule in rules:
            fn.emit(f"{keyword} {self.expr(rule.condition, 't')[0]}:")
            fn.emit(f"{_IND}_append(float({self.expr(rule.volume)[0]}))")
            keyword = "elif"
        if rules:
            fn.emit("else:")
            fn.emit(f"{_IND}_append(0.0)")
        else:
            fn.emit("_append(0.0)")
        fn.indent -= 1
        self.unscope()
        fn.emit("return _out")

    def emit_link(self, rule: ast.LinkRule) -> None:
        alg, fn = self.alg, self.fn
        fresh = _stores([rule.condition, rule.volume, *rule.src, *rule.dst])
        if not fresh:
            self.unpack_params()
        for line in self.extent_lines():
            fn.emit(line)
        lvs = [f"_l{i}" for i in range(len(alg.link_vars))]
        if lvs:
            fn.emit(f"{', '.join(lvs)}, = _LE")
        fn.emit("_asserted = {}")
        fn.emit(self.coord_scope([c.name for c in alg.coords],
                                 [f"_e{i}" for i in range(self.ncoords)]))
        fn.indent += 1
        if fresh:
            self.unpack_params()
        if lvs:
            fn.emit(self.coord_scope([lv.name for lv in alg.link_vars], lvs))
            fn.indent += 1
        fn.emit(f"if {self.expr(rule.condition, 't')[0]}:")
        fn.indent += 1
        src = self.coords(rule.src, "_a")
        dst = self.coords(rule.dst, "_b")
        fn.emit(f"_v = float({self.expr(rule.volume)[0]})")
        s_check, s_idx = self.linear(src, rule.line)
        d_check, d_idx = self.linear(dst, rule.line)
        fn.emit(f"if not ({s_check} and {d_check}): "
                f"_coords_error({_tuple(src)}, {_tuple(dst)}, _E, {rule.line})")
        fn.emit(f"_asserted[{s_idx} * _n + {d_idx}] = _v")
        fn.indent -= 2
        if lvs:
            fn.indent -= 1
            self.unscope()
        self.unscope()
        fn.emit("return _asserted")

    def emit_scheme(self) -> None:
        assert self.alg.scheme is not None
        fn = self.fn
        self.unpack_params()
        for line in self.extent_lines():
            fn.emit(line)
        fn.owned.add("_steps")
        fn.emit("_steps = _BUDGET")
        body = self.alg.scheme.body
        self.scope(_block_cond_decls(body))
        for stmt in body:
            self.stmt(stmt, False)
        self.unscope()


_EXPR: dict[type, Callable[[_Gen, Any, str], _Code]] = {
    ast.IntLit: _Gen.e_lit,
    ast.FloatLit: _Gen.e_lit,
    ast.Name: _Gen.e_name,
    ast.Sizeof: _Gen.e_sizeof,
    ast.Index: _Gen.e_index,
    ast.Member: _Gen.e_member,
    ast.Unary: _Gen.e_unary,
    ast.Binary: _Gen.e_binary,
    ast.Conditional: _Gen.e_conditional,
    ast.Call: _Gen.e_call,
    ast.AddrOf: _Gen.e_addrof,
    ast.Assign: _Gen.e_assign,
    ast.IncDec: _Gen.e_incdec,
}

_STMT: dict[type, Callable[[_Gen, Any, bool], None]] = {
    ast.EmptyStmt: _Gen.s_empty,
    ast.ExprStmt: _Gen.s_expr,
    ast.Block: _Gen.s_block,
    ast.VarDecl: _Gen.s_vardecl,
    ast.If: _Gen.s_if,
    ast.For: _Gen.s_loop,
    ast.Par: _Gen.s_loop,
    ast.While: _Gen.s_while,
    ast.ComputeAction: _Gen.s_compute,
    ast.TransferAction: _Gen.s_transfer,
}
