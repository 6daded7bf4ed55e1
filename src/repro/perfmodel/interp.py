"""Tree-walking evaluator for PMDL expressions and scheme statements.

Semantics follow C where the paper's models rely on it:

- ``/`` and ``%`` on two integers truncate toward zero (the models write
  ``(n/l)`` expecting integer division);
- comparisons yield 0/1 ints;
- postfix ``++``/``--`` return the old value;
- ``&x`` passes the *lvalue* to an external function — struct values are
  mutable records passed directly, scalars are wrapped in a :class:`Ref`
  the callee can ``set``.

The two action statements are not evaluated for value: they are dispatched
to an :class:`ActionVisitor`, which is how the HMPI estimator observes the
algorithm's interaction structure without executing the real program.

Handlers are resolved once, not per visit: each expression node is lowered
to a closure the first time it is evaluated and kept on the
:class:`Interpreter` (one per ``PerformanceModel``, so every bind and every
scheme walk of a model shares them); statements dispatch through a
per-class table.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence
from functools import partial
from typing import Any

from ..mpi.datatypes import sizeof
from ..util.errors import PMDLRuntimeError
from . import ast

__all__ = ["StructValue", "Ref", "Environment", "ActionVisitor", "Interpreter"]


class StructValue:
    """A mutable record instance of a ``typedef struct`` type."""

    __slots__ = ("type_name", "fields")

    def __init__(self, type_name: str, field_names: Sequence[str]):
        self.type_name = type_name
        self.fields: dict[str, Any] = {name: 0 for name in field_names}

    def get(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise PMDLRuntimeError(
                f"struct {self.type_name!r} has no field {name!r}"
            ) from None

    def set(self, name: str, value: Any) -> None:
        if name not in self.fields:
            raise PMDLRuntimeError(
                f"struct {self.type_name!r} has no field {name!r}"
            )
        self.fields[name] = value

    def copy(self) -> "StructValue":
        clone = StructValue(self.type_name, self.fields.keys())
        clone.fields.update(self.fields)
        return clone

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"{self.type_name}({inner})"


class Ref:
    """A settable reference to a scalar variable (``&x`` on a non-struct)."""

    __slots__ = ("_get", "_set")

    def __init__(self, getter: Callable[[], Any], setter: Callable[[Any], None]):
        self._get = getter
        self._set = setter

    def get(self) -> Any:
        return self._get()

    def set(self, value: Any) -> None:
        self._set(value)


class Environment:
    """Lexically scoped variable frames over a read-only parameter base."""

    def __init__(self, base: dict[str, Any] | None = None):
        self.frames: list[dict[str, Any]] = [dict(base or {})]

    def push(self) -> None:
        self.frames.append({})

    def pop(self) -> None:
        if len(self.frames) == 1:
            raise PMDLRuntimeError("cannot pop the base environment frame")
        self.frames.pop()

    def declare(self, name: str, value: Any) -> None:
        self.frames[-1][name] = value

    def lookup(self, name: str) -> Any:
        for frame in reversed(self.frames):
            if name in frame:
                return frame[name]
        raise PMDLRuntimeError(f"undefined variable {name!r}")

    def assign(self, name: str, value: Any) -> None:
        for frame in reversed(self.frames):
            if name in frame:
                frame[name] = value
                return
        raise PMDLRuntimeError(f"assignment to undeclared variable {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(name in frame for frame in self.frames)


class ActionVisitor:
    """Receiver of scheme actions; subclassed by the HMPI estimator.

    Coordinates arrive as raw tuples of coordinate values; translation to
    linear processor indices is the caller's concern (see
    :meth:`repro.perfmodel.model.BoundModel.walk_scheme`).

    Besides the two actions, the interpreter reports the scheme's
    *structure* through four optional hooks, all no-ops by default:
    ``enter_par``/``next_par_branch``/``exit_par`` bracket each dynamic
    ``par`` loop instance and its iterations (``for`` loops stay
    sequential and silent), and ``at_line`` fires just before each action
    with its source line.  The net lowering pass
    (:mod:`repro.perfmodel.net`) is the consumer; visitors that only care
    about the action stream inherit the no-ops.
    """

    def compute(self, percent: float, coords: tuple[int, ...]) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def transfer(self, percent: float, src: tuple[int, ...], dst: tuple[int, ...]) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def enter_par(self, line: int) -> None:
        """A dynamic ``par`` loop instance begins (fork)."""

    def next_par_branch(self, line: int) -> None:
        """The next iteration (= parallel branch) of the current ``par``."""

    def exit_par(self, line: int) -> None:
        """The current ``par`` loop instance ends (join)."""

    def at_line(self, line: int) -> None:
        """The next action originates from this source line."""


def _c_div(a: Any, b: Any) -> Any:
    """Division with exact-int preservation.

    int/int returns an int when the division is exact and a float
    otherwise.  This deliberately deviates from C's truncation: the paper's
    models use ``(n/l)`` where exact divisibility is the intended case, and
    percent expressions like ``(100/n)`` where C truncation would wreck the
    estimate (100/54 == 1 in C).  Real division keeps both correct and the
    estimator smooth across parameter sweeps.
    """
    if b == 0:
        raise PMDLRuntimeError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return q if r == 0 else a / b
    return a / b


def _c_mod(a: Any, b: Any) -> Any:
    """C remainder: trunc-toward-zero quotient, so sign follows the dividend."""
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise PMDLRuntimeError("integer modulo by zero")
        q = abs(a) // abs(b)
        if (a >= 0) != (b >= 0):
            q = -q
        return a - q * b
    raise PMDLRuntimeError("'%' requires integer operands")


_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _c_div,
    "%": _c_mod,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b),
    ">=": lambda a, b: int(a >= b),
}

_UNOPS: dict[str, Callable[[Any], Any]] = {
    "-": operator.neg,
    "+": operator.pos,
    "!": lambda v: int(not v),
}

_MAX_LOOP_ITERATIONS = 10_000_000  # runaway-scheme safety net

#: A lowered expression: call it with the environment to get the value.
Thunk = Callable[[Environment], Any]


def _raiser(message: str) -> Thunk:
    """A thunk for a node that cannot be evaluated: raises when reached."""
    def run(env: Environment) -> Any:
        raise PMDLRuntimeError(message)
    return run


class Interpreter:
    """Evaluates expressions and executes scheme statements.

    Parameters
    ----------
    structs:
        typedef'd struct definitions by name.
    externals:
        Python callables invokable from the model (e.g. ``GetProcessor``).
    """

    def __init__(
        self,
        structs: dict[str, ast.StructDef] | None = None,
        externals: dict[str, Callable[..., Any]] | None = None,
    ):
        self.structs = structs or {}
        self.externals = externals or {}
        # id(node) -> (node, thunk): AST dataclasses are unhashable, and
        # holding the node keeps its id from being reused.
        self._lowered: dict[int, tuple[ast.Expr, Thunk]] = {}

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def eval(self, expr: ast.Expr, env: Environment) -> Any:
        return self.lower(expr)(env)

    def lower(self, expr: ast.Expr) -> Thunk:
        """The closure evaluating ``expr``, built on first use."""
        entry = self._lowered.get(id(expr))
        if entry is None:
            lowering = _LOWERINGS.get(type(expr), Interpreter._lower_unknown)
            entry = self._lowered[id(expr)] = (expr, lowering(self, expr))
        return entry[1]

    def _lower_unknown(self, e: ast.Expr) -> Thunk:
        return _raiser(f"cannot evaluate {type(e).__name__} (line {e.line})")

    def _lower_literal(self, e: ast.IntLit | ast.FloatLit) -> Thunk:
        value = e.value
        return lambda env: value

    def _lower_Name(self, e: ast.Name) -> Thunk:
        ident = e.ident
        return lambda env: env.lookup(ident)

    def _lower_Sizeof(self, e: ast.Sizeof) -> Thunk:
        type_name = e.type_name
        return lambda env: sizeof(type_name)

    def _lower_Index(self, e: ast.Index) -> Thunk:
        base_of, index_of, line = self.lower(e.base), self.lower(e.index), e.line

        def run(env: Environment) -> Any:
            base = base_of(env)
            idx = index_of(env)
            try:
                value = base[idx]
            except (IndexError, KeyError, TypeError) as exc:
                raise PMDLRuntimeError(
                    f"bad index {idx!r} (line {line}): {exc}"
                ) from None
            # NumPy scalar -> Python scalar, so downstream C-division sees ints.
            if hasattr(value, "item") and getattr(value, "ndim", None) == 0:
                return value.item()
            return value
        return run

    def _lower_Member(self, e: ast.Member) -> Thunk:
        base_of, name, line = self.lower(e.base), e.name, e.line

        def run(env: Environment) -> Any:
            base = base_of(env)
            if not isinstance(base, StructValue):
                raise PMDLRuntimeError(
                    f"member access on non-struct value (line {line})"
                )
            return base.get(name)
        return run

    def _lower_Unary(self, e: ast.Unary) -> Thunk:
        fn = _UNOPS.get(e.op)
        if fn is None:
            return _raiser(f"unknown unary operator {e.op!r}")
        operand = self.lower(e.operand)
        return lambda env: fn(operand(env))

    def _lower_Binary(self, e: ast.Binary) -> Thunk:
        left, right = self.lower(e.left), self.lower(e.right)
        if e.op == "&&":
            return lambda env: int(bool(left(env)) and bool(right(env)))
        if e.op == "||":
            return lambda env: int(bool(left(env)) or bool(right(env)))
        fn = _BINOPS.get(e.op)
        if fn is None:
            return _raiser(f"unknown binary operator {e.op!r}")
        return lambda env: fn(left(env), right(env))

    def _lower_Conditional(self, e: ast.Conditional) -> Thunk:
        cond, then, otherwise = (
            self.lower(e.cond), self.lower(e.then), self.lower(e.otherwise)
        )
        return lambda env: (then if cond(env) else otherwise)(env)

    def _eval_Assign(self, e: ast.Assign, env: Environment) -> Any:
        value = self.eval(e.value, env)
        if e.op != "=":
            current = self.eval(e.target, env)
            value = _BINOPS[e.op[0]](current, value)
        self._store(e.target, value, env)
        return value

    def _eval_IncDec(self, e: ast.IncDec, env: Environment) -> Any:
        old = self.eval(e.target, env)
        self._store(e.target, old + (1 if e.op == "++" else -1), env)
        return old

    def _eval_AddrOf(self, e: ast.AddrOf, env: Environment) -> Any:
        target = e.operand
        value = self.eval(target, env)
        if isinstance(value, StructValue):
            return value  # structs are mutable: the reference IS the value
        return Ref(
            getter=lambda: self.eval(target, env),
            setter=lambda v: self._store(target, v, env),
        )

    def _eval_Call(self, e: ast.Call, env: Environment) -> Any:
        fn = self.externals.get(e.name)
        if fn is None:
            raise PMDLRuntimeError(
                f"call to unknown external function {e.name!r} (line {e.line})"
            )
        args = [self.eval(a, env) for a in e.args]
        return fn(*args)

    def _store(self, target: ast.Expr, value: Any, env: Environment) -> None:
        if isinstance(target, ast.Name):
            env.assign(target.ident, value)
        elif isinstance(target, ast.Member):
            base = self.eval(target.base, env)
            if not isinstance(base, StructValue):
                raise PMDLRuntimeError(
                    f"member assignment on non-struct value (line {target.line})"
                )
            base.set(target.name, value)
        elif isinstance(target, ast.Index):
            base = self.eval(target.base, env)
            idx = self.eval(target.index, env)
            try:
                base[idx] = value
            except (IndexError, KeyError, TypeError) as exc:
                raise PMDLRuntimeError(
                    f"bad index assignment (line {target.line}): {exc}"
                ) from None
        else:
            raise PMDLRuntimeError(
                f"invalid assignment target {type(target).__name__} (line {target.line})"
            )

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def exec_block(self, stmts: Sequence[ast.Stmt], env: Environment,
                   visitor: ActionVisitor) -> None:
        """Execute a statement list in a fresh scope."""
        env.push()
        try:
            for stmt in stmts:
                self.exec(stmt, env, visitor)
        finally:
            env.pop()

    def exec(self, stmt: ast.Stmt, env: Environment, visitor: ActionVisitor) -> None:
        handler = _EXEC_HANDLERS.get(type(stmt))
        if handler is None:
            raise PMDLRuntimeError(
                f"cannot execute {type(stmt).__name__} (line {stmt.line})"
            )
        handler(self, stmt, env, visitor)

    def _exec_EmptyStmt(self, s: ast.EmptyStmt, env: Environment, visitor: ActionVisitor) -> None:
        pass

    def _exec_ExprStmt(self, s: ast.ExprStmt, env: Environment, visitor: ActionVisitor) -> None:
        self.eval(s.expr, env)

    def _exec_Block(self, s: ast.Block, env: Environment, visitor: ActionVisitor) -> None:
        self.exec_block(s.body, env, visitor)

    def _exec_VarDecl(self, s: ast.VarDecl, env: Environment, visitor: ActionVisitor) -> None:
        struct_def = self.structs.get(s.type_name)
        for decl in s.declarators:
            if struct_def is not None:
                value: Any = StructValue(s.type_name, [f.name for f in struct_def.fields])
                if decl.init is not None:
                    raise PMDLRuntimeError(
                        f"struct initialisers are not supported (line {s.line})"
                    )
            else:
                value = self.eval(decl.init, env) if decl.init is not None else 0
            env.declare(decl.name, value)

    def _exec_If(self, s: ast.If, env: Environment, visitor: ActionVisitor) -> None:
        if self.eval(s.cond, env):
            self.exec(s.then, env, visitor)
        elif s.otherwise is not None:
            self.exec(s.otherwise, env, visitor)

    def _run_loop(self, s: ast.For | ast.Par, env: Environment, visitor: ActionVisitor,
                  par: bool = False) -> None:
        env.push()
        if par:
            visitor.enter_par(s.line)
        try:
            if isinstance(s.init, ast.VarDecl):
                self._exec_VarDecl(s.init, env, visitor)
            elif s.init is not None:
                self.eval(s.init, env)
            cond = None if s.cond is None else self.lower(s.cond)
            update = None if s.update is None else self.lower(s.update)
            iterations = 0
            while cond is None or cond(env):
                if par:
                    visitor.next_par_branch(s.line)
                self.exec(s.body, env, visitor)
                if update is not None:
                    update(env)
                iterations += 1
                if iterations > _MAX_LOOP_ITERATIONS:
                    raise PMDLRuntimeError(
                        f"loop exceeded {_MAX_LOOP_ITERATIONS} iterations (line {s.line})"
                    )
                if s.cond is None and s.update is None and iterations > 0:
                    raise PMDLRuntimeError(
                        f"loop with no condition and no update never terminates (line {s.line})"
                    )
        finally:
            if par:
                visitor.exit_par(s.line)
            env.pop()

    def _exec_For(self, s: ast.For, env: Environment, visitor: ActionVisitor) -> None:
        self._run_loop(s, env, visitor)

    def _exec_Par(self, s: ast.Par, env: Environment, visitor: ActionVisitor) -> None:
        # Under the resource-clock timeline model (see repro.core.estimator)
        # parallel composition is implicit: actions on disjoint resources
        # never serialise, so `par` executes like `for` while retaining its
        # documentary meaning.  The fork/join structure is still reported
        # through the visitor hooks so the net lowering can reconstruct it.
        self._run_loop(s, env, visitor, par=True)

    def _exec_While(self, s: ast.While, env: Environment, visitor: ActionVisitor) -> None:
        cond = self.lower(s.cond)
        iterations = 0
        while cond(env):
            self.exec(s.body, env, visitor)
            iterations += 1
            if iterations > _MAX_LOOP_ITERATIONS:
                raise PMDLRuntimeError(
                    f"while loop exceeded {_MAX_LOOP_ITERATIONS} iterations (line {s.line})"
                )

    def _exec_ComputeAction(self, s: ast.ComputeAction, env: Environment,
                            visitor: ActionVisitor) -> None:
        percent = self.eval(s.percent, env)
        coords = tuple(int(self.eval(c, env)) for c in s.coords)
        visitor.at_line(s.line)
        visitor.compute(float(percent), coords)

    def _exec_TransferAction(self, s: ast.TransferAction, env: Environment,
                             visitor: ActionVisitor) -> None:
        percent = self.eval(s.percent, env)
        src = tuple(int(self.eval(c, env)) for c in s.src)
        dst = tuple(int(self.eval(c, env)) for c in s.dst)
        visitor.at_line(s.line)
        visitor.transfer(float(percent), src, dst)


def _bound(
    handler: Callable[[Interpreter, Any, Environment], Any]
) -> Callable[[Interpreter, Any], Thunk]:
    """Lowering for the rarer kinds: bind the node to its handler method."""
    return lambda interp, node: partial(handler, interp, node)


# Handler tables, built once.  The expression kinds that dominate the visit
# count lower to closures over their lowered children.
_LOWERINGS: dict[type, Callable[[Interpreter, Any], Thunk]] = {
    ast.IntLit: Interpreter._lower_literal,
    ast.FloatLit: Interpreter._lower_literal,
    ast.Name: Interpreter._lower_Name,
    ast.Sizeof: Interpreter._lower_Sizeof,
    ast.Index: Interpreter._lower_Index,
    ast.Member: Interpreter._lower_Member,
    ast.Unary: Interpreter._lower_Unary,
    ast.Binary: Interpreter._lower_Binary,
    ast.Conditional: Interpreter._lower_Conditional,
    ast.Assign: _bound(Interpreter._eval_Assign),
    ast.IncDec: _bound(Interpreter._eval_IncDec),
    ast.AddrOf: _bound(Interpreter._eval_AddrOf),
    ast.Call: _bound(Interpreter._eval_Call),
}

_EXEC_HANDLERS: dict[
    type, Callable[[Interpreter, Any, Environment, ActionVisitor], None]
] = {
    ast.EmptyStmt: Interpreter._exec_EmptyStmt,
    ast.ExprStmt: Interpreter._exec_ExprStmt,
    ast.Block: Interpreter._exec_Block,
    ast.VarDecl: Interpreter._exec_VarDecl,
    ast.If: Interpreter._exec_If,
    ast.For: Interpreter._exec_For,
    ast.Par: Interpreter._exec_Par,
    ast.While: Interpreter._exec_While,
    ast.ComputeAction: Interpreter._exec_ComputeAction,
    ast.TransferAction: Interpreter._exec_TransferAction,
}
