"""Static checks on parsed PMDL algorithms.

Run by the compiler before a :class:`PerformanceModel` is built; catches the
mistakes a C compiler would catch for mpC — unknown names, wrong coordinate
arity, duplicate declarations — so they surface at compile time rather than
somewhere inside an estimator run.
"""

from __future__ import annotations

from . import ast

__all__ = ["check_algorithm"]

_TYPE_KEYWORDS = {"int", "double", "float", "long", "char", "void"}


class _Scope:
    """Lexical scope mapping declared names to their static type name.

    The type is ``None`` when unknown; struct-typed names make ``Member``
    accesses checkable against the struct's declared fields.
    """

    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.names: dict[str, str | None] = {}

    def declare(self, name: str, type_name: str | None = None) -> None:
        self.names[name] = type_name

    def resolves(self, name: str) -> bool:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.names:
                return True
            scope = scope.parent
        return False

    def type_of(self, name: str) -> str | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class _Checker:
    def __init__(self, alg: ast.Algorithm, structs: dict[str, ast.StructDef],
                 external_names: set[str]):
        self.alg = alg
        self.structs = structs
        self.external_names = external_names
        self.errors: list[tuple[int, str]] = []

    def err(self, node: ast.Node, message: str) -> None:
        self.errors.append((node.line, message))

    # ------------------------------------------------------------------
    def run(self) -> None:
        alg = self.alg
        seen: set[str] = set()
        top = _Scope()
        for p in alg.params:
            if p.name in seen:
                self.err(p, f"duplicate parameter {p.name!r}")
            seen.add(p.name)
            top.declare(p.name, p.type_name)
            dim_scope = _Scope(top)
            for dim in p.dims:
                self.check_expr(dim, dim_scope)

        if not alg.coords:
            self.err(alg, "algorithm needs at least one coord declaration")
        coord_scope = _Scope(top)
        for c in alg.coords:
            if c.name in seen:
                self.err(c, f"coordinate {c.name!r} shadows another declaration")
            seen.add(c.name)
            self.check_expr(c.extent, top)
            coord_scope.declare(c.name, "int")

        for rule in alg.node_rules:
            self.check_expr(rule.condition, coord_scope)
            self.check_expr(rule.volume, coord_scope)

        link_scope = _Scope(coord_scope)
        for lv in alg.link_vars:
            if lv.name in seen:
                self.err(lv, f"link variable {lv.name!r} shadows another declaration")
            seen.add(lv.name)
            self.check_expr(lv.extent, top)
            link_scope.declare(lv.name, "int")

        ncoords = len(alg.coords)
        for rule in alg.link_rules:
            self.check_expr(rule.condition, link_scope)
            self.check_expr(rule.volume, link_scope)
            for side, coords in (("source", rule.src), ("destination", rule.dst)):
                if len(coords) != ncoords:
                    self.err(rule, f"link {side} has {len(coords)} coordinates, "
                                   f"expected {ncoords}")
                for cexpr in coords:
                    self.check_expr(cexpr, link_scope)

        if alg.parent is not None:
            if len(alg.parent.coords) != ncoords:
                self.err(alg.parent,
                         f"parent has {len(alg.parent.coords)} coordinates, "
                         f"expected {ncoords}")
            for cexpr in alg.parent.coords:
                self.check_expr(cexpr, top)

        if alg.scheme is not None:
            scheme_scope = _Scope(top)
            self.check_stmts(alg.scheme.body, scheme_scope, ncoords)

    # ------------------------------------------------------------------
    def check_stmts(self, stmts: list[ast.Stmt], scope: _Scope, ncoords: int) -> None:
        inner = _Scope(scope)
        for stmt in stmts:
            self.check_stmt(stmt, inner, ncoords)

    def check_stmt(self, stmt: ast.Stmt, scope: _Scope, ncoords: int) -> None:
        if isinstance(stmt, ast.VarDecl):
            if stmt.type_name not in _TYPE_KEYWORDS and stmt.type_name not in self.structs:
                self.err(stmt, f"unknown type {stmt.type_name!r}")
            for d in stmt.declarators:
                if d.init is not None:
                    self.check_expr(d.init, scope)
                scope.declare(d.name, stmt.type_name)
        elif isinstance(stmt, ast.ExprStmt):
            self.check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.Block):
            self.check_stmts(stmt.body, scope, ncoords)
        elif isinstance(stmt, ast.If):
            self.check_expr(stmt.cond, scope)
            self.check_stmt(stmt.then, _Scope(scope), ncoords)
            if stmt.otherwise is not None:
                self.check_stmt(stmt.otherwise, _Scope(scope), ncoords)
        elif isinstance(stmt, (ast.For, ast.Par)):
            loop_scope = _Scope(scope)
            if isinstance(stmt.init, ast.VarDecl):
                self.check_stmt(stmt.init, loop_scope, ncoords)
            elif stmt.init is not None:
                self.check_expr(stmt.init, loop_scope)
            if stmt.cond is not None:
                self.check_expr(stmt.cond, loop_scope)
            if stmt.update is not None:
                self.check_expr(stmt.update, loop_scope)
            self.check_stmt(stmt.body, loop_scope, ncoords)
        elif isinstance(stmt, ast.While):
            self.check_expr(stmt.cond, scope)
            self.check_stmt(stmt.body, _Scope(scope), ncoords)
        elif isinstance(stmt, ast.ComputeAction):
            self.check_expr(stmt.percent, scope)
            if len(stmt.coords) != ncoords:
                self.err(stmt, f"compute action has {len(stmt.coords)} coordinates, "
                               f"expected {ncoords}")
            for c in stmt.coords:
                self.check_expr(c, scope)
        elif isinstance(stmt, ast.TransferAction):
            self.check_expr(stmt.percent, scope)
            for side, coords in (("source", stmt.src), ("destination", stmt.dst)):
                if len(coords) != ncoords:
                    self.err(stmt, f"transfer {side} has {len(coords)} coordinates, "
                                   f"expected {ncoords}")
                for c in coords:
                    self.check_expr(c, scope)
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        else:  # pragma: no cover - parser produces no other kinds
            self.err(stmt, f"unsupported statement {type(stmt).__name__}")

    # ------------------------------------------------------------------
    def check_expr(self, expr: ast.Expr, scope: _Scope) -> None:
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.Sizeof)):
            return
        if isinstance(expr, ast.Name):
            if not scope.resolves(expr.ident):
                self.err(expr, f"undefined name {expr.ident!r}")
        elif isinstance(expr, ast.Index):
            self.check_expr(expr.base, scope)
            self.check_expr(expr.index, scope)
        elif isinstance(expr, ast.Member):
            self.check_expr(expr.base, scope)
            base_type = self.static_type(expr.base, scope)
            if base_type in self.structs:
                struct = self.structs[base_type]
                if expr.name not in {f.name for f in struct.fields}:
                    self.err(expr, f"struct {base_type!r} has no field "
                                   f"{expr.name!r}")
            elif base_type in _TYPE_KEYWORDS:
                self.err(expr, f"member access {expr.name!r} on non-struct "
                               f"value of type {base_type!r}")
        elif isinstance(expr, ast.Unary):
            self.check_expr(expr.operand, scope)
        elif isinstance(expr, ast.AddrOf):
            self.check_expr(expr.operand, scope)
        elif isinstance(expr, ast.Binary):
            self.check_expr(expr.left, scope)
            self.check_expr(expr.right, scope)
        elif isinstance(expr, ast.Conditional):
            self.check_expr(expr.cond, scope)
            self.check_expr(expr.then, scope)
            self.check_expr(expr.otherwise, scope)
        elif isinstance(expr, ast.Assign):
            self.check_expr(expr.target, scope)
            self.check_expr(expr.value, scope)
        elif isinstance(expr, ast.IncDec):
            self.check_expr(expr.target, scope)
        elif isinstance(expr, ast.Call):
            if expr.name not in self.external_names:
                self.err(expr, f"call to undeclared external function {expr.name!r}")
            for a in expr.args:
                self.check_expr(a, scope)
        else:  # pragma: no cover - parser produces no other kinds
            self.err(expr, f"unsupported expression {type(expr).__name__}")

    def static_type(self, expr: ast.Expr, scope: _Scope) -> str | None:
        """Best-effort static type name of an expression (None if unknown)."""
        if isinstance(expr, ast.Name):
            return scope.type_of(expr.ident)
        if isinstance(expr, ast.Member):
            base_type = self.static_type(expr.base, scope)
            if base_type in self.structs:
                for f in self.structs[base_type].fields:
                    if f.name == expr.name:
                        return f.type_name
            return None
        if isinstance(expr, ast.Index):
            # arrays are arrays of their element type (no nested arrays of
            # structs in PMDL), so indexing preserves the declared type
            return self.static_type(expr.base, scope)
        return None


def check_algorithm(
    alg: ast.Algorithm,
    structs: dict[str, ast.StructDef],
    external_names: set[str] | frozenset[str] = frozenset(),
) -> list[tuple[int, str]]:
    """Every problem found, as ``(line, message)`` pairs (empty when clean)."""
    checker = _Checker(alg, structs, set(external_names))
    checker.run()
    return checker.errors
