"""Abstract syntax tree of the PMDL.

The tree mirrors the structure of the paper's model definitions: an
``algorithm`` has parameters, ``coord`` declarations, a ``node`` block of
(condition : bench*(expr)) rules, a ``link`` block of
(condition : length*(expr) [src]->[dst]) rules with optional link-local
loop variables, a ``parent`` coordinate, and a ``scheme`` — an imperative
mini-program whose primitive statements are the two *actions*:
``e %% [coords]`` (perform e percent of the processor's total computation)
and ``e %% [src] -> [dst]`` (transfer e percent of the pair's total data).

All nodes carry their source line for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from typing import Iterator

__all__ = [
    "Node", "Expr", "Stmt",
    "IntLit", "FloatLit", "Name", "Index", "Member", "Unary", "Binary",
    "Assign", "IncDec", "Call", "AddrOf", "Sizeof", "Conditional",
    "Param", "StructDef", "StructField",
    "CoordDecl", "NodeRule", "LinkVar", "LinkRule", "ParentDecl",
    "VarDecl", "Declarator", "ExprStmt", "Block", "If", "For", "Par",
    "While", "ComputeAction", "TransferAction", "EmptyStmt",
    "Scheme", "Algorithm",
    "iter_child_nodes", "walk",
]


@dataclass
class Node:
    """Base class: every AST node knows its source line."""
    line: int = field(default=0, kw_only=True)


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------

class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class FloatLit(Expr):
    value: float


@dataclass
class Name(Expr):
    ident: str


@dataclass
class Index(Expr):
    base: Expr
    index: Expr


@dataclass
class Member(Expr):
    base: Expr
    name: str


@dataclass
class Unary(Expr):
    op: str  # '-', '+', '!'
    operand: Expr


@dataclass
class Binary(Expr):
    op: str  # arithmetic, comparison, logical
    left: Expr
    right: Expr


@dataclass
class Assign(Expr):
    """``target = value`` or compound ``target op= value``."""
    target: Expr
    op: str  # '=', '+=', '-=', '*=', '/='
    value: Expr


@dataclass
class IncDec(Expr):
    """``target++`` / ``target--`` (postfix; the models use no prefix form)."""
    target: Expr
    op: str  # '++' or '--'


@dataclass
class Call(Expr):
    name: str
    args: list[Expr]


@dataclass
class AddrOf(Expr):
    """``&lvalue`` — pass-by-reference into an external function."""
    operand: Expr


@dataclass
class Sizeof(Expr):
    type_name: str


@dataclass
class Conditional(Expr):
    """C ternary ``cond ? a : b``."""
    cond: Expr
    then: Expr
    otherwise: Expr


# ----------------------------------------------------------------------
# declarations
# ----------------------------------------------------------------------

@dataclass
class Param(Node):
    """An algorithm parameter, e.g. ``int dep[p][p]``.

    ``dims`` holds one expression per array dimension (empty for scalars);
    dimensions may reference earlier parameters.
    """
    type_name: str
    name: str
    dims: list[Expr]


@dataclass
class StructField(Node):
    type_name: str
    name: str


@dataclass
class StructDef(Node):
    """``typedef struct { ... } Name;``"""
    name: str
    fields: list[StructField]


@dataclass
class CoordDecl(Node):
    """One coordinate variable: name and extent expression."""
    name: str
    extent: Expr


@dataclass
class NodeRule(Node):
    """``condition : bench*(volume);`` — computation volume of matching
    processors, in benchmark units."""
    condition: Expr
    volume: Expr


@dataclass
class LinkVar(Node):
    """A link-block loop variable, e.g. the ``K=m`` in ``link (K=m, L=m)``."""
    name: str
    extent: Expr


@dataclass
class LinkRule(Node):
    """``condition : length*(volume) [src]->[dst];`` — bytes moved between
    each matching pair over the whole algorithm."""
    condition: Expr
    volume: Expr
    src: list[Expr]
    dst: list[Expr]


@dataclass
class ParentDecl(Node):
    """``parent[c0, c1, ...];`` — coordinates of the parent processor."""
    coords: list[Expr]


# ----------------------------------------------------------------------
# scheme statements
# ----------------------------------------------------------------------

class Stmt(Node):
    pass


@dataclass
class Declarator(Node):
    name: str
    init: Expr | None


@dataclass
class VarDecl(Stmt):
    """``int a, b = 0;`` or ``Processor Root, Receiver;``"""
    type_name: str
    declarators: list[Declarator]


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class Block(Stmt):
    body: list[Stmt]


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    otherwise: Stmt | None


@dataclass
class For(Stmt):
    """Sequential C-style loop; any header part may be None."""
    init: Expr | VarDecl | None
    cond: Expr | None
    update: Expr | None
    body: Stmt


@dataclass
class Par(Stmt):
    """The parallel algorithmic pattern: same header shape as ``for``, but
    declares that iterations are mutually independent (executed in parallel
    by the abstract processors involved)."""
    init: Expr | VarDecl | None
    cond: Expr | None
    update: Expr | None
    body: Stmt


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class ComputeAction(Stmt):
    """``percent %% [coords];``"""
    percent: Expr
    coords: list[Expr]


@dataclass
class TransferAction(Stmt):
    """``percent %% [src] -> [dst];``"""
    percent: Expr
    src: list[Expr]
    dst: list[Expr]


@dataclass
class EmptyStmt(Stmt):
    pass


@dataclass
class Scheme(Node):
    body: list[Stmt]


# ----------------------------------------------------------------------
# top level
# ----------------------------------------------------------------------

@dataclass
class Algorithm(Node):
    """A complete performance-model definition."""
    name: str
    params: list[Param]
    coords: list[CoordDecl]
    node_rules: list[NodeRule]
    link_vars: list[LinkVar]
    link_rules: list[LinkRule]
    parent: ParentDecl | None
    scheme: Scheme | None
    structs: list[StructDef] = field(default_factory=list)


# ----------------------------------------------------------------------
# generic traversal (used by the static analyzer)
# ----------------------------------------------------------------------

@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def iter_child_nodes(node: Node) -> Iterator[Node]:
    """Yield every direct child :class:`Node` of ``node``, in field order.

    Lists of nodes are flattened; ``None`` children and non-node fields
    (names, operators, literal values) are skipped.
    """
    for name in _field_names(type(node)):
        value = getattr(node, name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    yield item


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and every descendant, depth-first, in source order."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(list(iter_child_nodes(current))))
