"""Recursive-descent parser for the PMDL.

Accepts exactly the language of the paper's Figures 4 and 7 (and natural
generalisations): ``typedef struct`` definitions, one or more ``algorithm``
definitions with ``coord``/``node``/``link``/``parent``/``scheme`` sections,
and a C expression/statement subset inside schemes (including the ``par``
pattern, member access, postfix ``++``/``--``, compound assignment, the
address-of operator for external-function out-parameters, and ``sizeof``).

Operator precedence (low to high): assignment, ternary, ``||``, ``&&``,
equality, relational, additive, multiplicative, unary, postfix.
"""

from __future__ import annotations

from ..util.errors import PMDLSyntaxError
from . import ast
from .lexer import tokenize
from .tokens import Token, TokenKind

__all__ = ["parse", "parse_expression", "MAX_NESTING"]

#: Nesting budget of a definition.  Every later pass (semantic check,
#: analyzer, interpreter, printer) recurses over the AST, so this bound is
#: what keeps a hostile model inside the Python stack for all of them.  A
#: nested statement, a unary or right-associative operator and each further
#: operator of a chain spend one level — one level of AST depth each; a
#: bracketed sub-expression re-enters the whole precedence ladder (about 20
#: frames of this parser, against 4 for a statement) and spends
#: ``_BRACKET_COST``.
MAX_NESTING = 128
_BRACKET_COST = 5

_TYPE_KEYWORDS = {"int", "double", "float", "long", "char", "void"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.struct_names: set[str] = set()

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------
    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        t = self.tok
        if t.kind != TokenKind.EOF:
            self.pos += 1
        return t

    def error(self, msg: str) -> PMDLSyntaxError:
        t = self.tok
        return PMDLSyntaxError(f"{msg}; found {t.text!r}", t.line, t.column)

    def nest(self, cost: int = 1) -> None:
        """Spend ``cost`` nesting levels; the caller returns them."""
        self.depth += cost
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting exceeds {MAX_NESTING} levels")

    def parse_nested(self, sub, cost: int = 1):
        self.nest(cost)
        node = sub()
        self.depth -= cost
        return node

    def expect_punct(self, text: str) -> Token:
        if not self.tok.is_punct(text):
            raise self.error(f"expected {text!r}")
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        if not self.tok.is_keyword(word):
            raise self.error(f"expected keyword {word!r}")
        return self.advance()

    def expect_ident(self) -> Token:
        if self.tok.kind != TokenKind.IDENT:
            raise self.error("expected identifier")
        return self.advance()

    def accept_punct(self, text: str) -> bool:
        if self.tok.is_punct(text):
            self.advance()
            return True
        return False

    def accept_keyword(self, word: str) -> bool:
        if self.tok.is_keyword(word):
            self.advance()
            return True
        return False

    def _is_type_name(self, t: Token) -> bool:
        if t.kind == TokenKind.KEYWORD and t.text in _TYPE_KEYWORDS:
            return True
        return t.kind == TokenKind.IDENT and t.text in self.struct_names

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def parse_unit(self) -> list[ast.StructDef | ast.Algorithm]:
        items: list[ast.StructDef | ast.Algorithm] = []
        while self.tok.kind != TokenKind.EOF:
            if self.tok.is_keyword("typedef"):
                items.append(self.parse_typedef())
            elif self.tok.is_keyword("algorithm"):
                items.append(self.parse_algorithm())
            else:
                raise self.error("expected 'typedef' or 'algorithm'")
        return items

    def parse_typedef(self) -> ast.StructDef:
        line = self.tok.line
        self.expect_keyword("typedef")
        self.expect_keyword("struct")
        self.expect_punct("{")
        fields: list[ast.StructField] = []
        while not self.tok.is_punct("}"):
            fline = self.tok.line
            type_tok = self.advance()
            if not (type_tok.kind == TokenKind.KEYWORD and type_tok.text in _TYPE_KEYWORDS) \
                    and not (type_tok.kind == TokenKind.IDENT and type_tok.text in self.struct_names):
                raise PMDLSyntaxError(
                    f"expected field type, found {type_tok.text!r}",
                    type_tok.line, type_tok.column,
                )
            while True:
                name = self.expect_ident().text
                fields.append(ast.StructField(type_tok.text, name, line=fline))
                if not self.accept_punct(","):
                    break
            self.expect_punct(";")
        self.expect_punct("}")
        name = self.expect_ident().text
        self.expect_punct(";")
        self.struct_names.add(name)
        return ast.StructDef(name, fields, line=line)

    def parse_algorithm(self) -> ast.Algorithm:
        line = self.tok.line
        self.expect_keyword("algorithm")
        name = self.expect_ident().text
        self.expect_punct("(")
        params: list[ast.Param] = []
        if not self.tok.is_punct(")"):
            while True:
                params.append(self.parse_param())
                if not self.accept_punct(","):
                    break
        self.expect_punct(")")
        self.expect_punct("{")

        coords: list[ast.CoordDecl] = []
        node_rules: list[ast.NodeRule] = []
        link_vars: list[ast.LinkVar] = []
        link_rules: list[ast.LinkRule] = []
        parent: ast.ParentDecl | None = None
        scheme: ast.Scheme | None = None

        while not self.tok.is_punct("}"):
            if self.tok.is_keyword("coord"):
                coords.extend(self.parse_coord())
            elif self.tok.is_keyword("node"):
                node_rules.extend(self.parse_node_block())
            elif self.tok.is_keyword("link"):
                lv, lr = self.parse_link_block()
                link_vars.extend(lv)
                link_rules.extend(lr)
            elif self.tok.is_keyword("parent"):
                parent = self.parse_parent()
            elif self.tok.is_keyword("scheme"):
                scheme = self.parse_scheme()
            else:
                raise self.error(
                    "expected 'coord', 'node', 'link', 'parent' or 'scheme'"
                )
        self.expect_punct("}")
        self.accept_punct(";")  # Fig 7 closes with '};'
        return ast.Algorithm(
            name=name, params=params, coords=coords, node_rules=node_rules,
            link_vars=link_vars, link_rules=link_rules, parent=parent,
            scheme=scheme, line=line,
        )

    def parse_param(self) -> ast.Param:
        line = self.tok.line
        type_tok = self.advance()
        if not self._is_type_name(type_tok):
            raise PMDLSyntaxError(
                f"expected parameter type, found {type_tok.text!r}",
                type_tok.line, type_tok.column,
            )
        name = self.expect_ident().text
        dims: list[ast.Expr] = []
        while self.accept_punct("["):
            dims.append(self.parse_expression())
            self.expect_punct("]")
        return ast.Param(type_tok.text, name, dims, line=line)

    # ------------------------------------------------------------------
    # sections
    # ------------------------------------------------------------------
    def parse_coord(self) -> list[ast.CoordDecl]:
        self.expect_keyword("coord")
        out: list[ast.CoordDecl] = []
        while True:
            line = self.tok.line
            name = self.expect_ident().text
            self.expect_punct("=")
            extent = self.parse_expression()
            out.append(ast.CoordDecl(name, extent, line=line))
            if not self.accept_punct(","):
                break
        self.expect_punct(";")
        return out

    def parse_node_block(self) -> list[ast.NodeRule]:
        self.expect_keyword("node")
        self.expect_punct("{")
        rules: list[ast.NodeRule] = []
        while not self.tok.is_punct("}"):
            line = self.tok.line
            condition = self.parse_expression()
            self.expect_punct(":")
            self.expect_keyword("bench")
            self.expect_punct("*")
            volume = self.parse_parenthesized()
            self.expect_punct(";")
            rules.append(ast.NodeRule(condition, volume, line=line))
        self.expect_punct("}")
        self.accept_punct(";")
        return rules

    def parse_link_block(self) -> tuple[list[ast.LinkVar], list[ast.LinkRule]]:
        self.expect_keyword("link")
        link_vars: list[ast.LinkVar] = []
        if self.accept_punct("("):
            while True:
                line = self.tok.line
                name = self.expect_ident().text
                self.expect_punct("=")
                extent = self.parse_expression()
                link_vars.append(ast.LinkVar(name, extent, line=line))
                if not self.accept_punct(","):
                    break
            self.expect_punct(")")
        self.expect_punct("{")
        rules: list[ast.LinkRule] = []
        while not self.tok.is_punct("}"):
            line = self.tok.line
            condition = self.parse_expression()
            self.expect_punct(":")
            self.expect_keyword("length")
            self.expect_punct("*")
            # The volume is exactly one parenthesized expression; parsing a
            # full postfix expression here would swallow the following
            # "[src]" coordinate list as array indexing.
            volume = self.parse_parenthesized()
            src = self.parse_coord_list()
            self.expect_punct("->")
            dst = self.parse_coord_list()
            self.expect_punct(";")
            rules.append(ast.LinkRule(condition, volume, src, dst, line=line))
        self.expect_punct("}")
        self.accept_punct(";")
        return link_vars, rules

    def parse_parenthesized(self) -> ast.Expr:
        """A ``( expression )`` group, with no postfix continuation."""
        self.expect_punct("(")
        inner = self.parse_expression()
        self.expect_punct(")")
        return inner

    def parse_coord_list(self) -> list[ast.Expr]:
        self.expect_punct("[")
        coords = [self.parse_expression()]
        while self.accept_punct(","):
            coords.append(self.parse_expression())
        self.expect_punct("]")
        return coords

    def parse_parent(self) -> ast.ParentDecl:
        line = self.tok.line
        self.expect_keyword("parent")
        coords = self.parse_coord_list()
        self.expect_punct(";")
        return ast.ParentDecl(coords, line=line)

    def parse_scheme(self) -> ast.Scheme:
        line = self.tok.line
        self.expect_keyword("scheme")
        self.expect_punct("{")
        body: list[ast.Stmt] = []
        while not self.tok.is_punct("}"):
            body.append(self.parse_statement())
        self.expect_punct("}")
        self.accept_punct(";")
        return ast.Scheme(body, line=line)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> ast.Stmt:
        return self.parse_nested(self._parse_statement)

    def _parse_statement(self) -> ast.Stmt:
        t = self.tok
        if t.is_punct("{"):
            return self.parse_block()
        if t.is_punct(";"):
            self.advance()
            return ast.EmptyStmt(line=t.line)
        if t.is_keyword("if"):
            return self.parse_if()
        if t.is_keyword("for"):
            return self.parse_loop("for")
        if t.is_keyword("par"):
            return self.parse_loop("par")
        if t.is_keyword("while"):
            return self.parse_while()
        if self._is_type_name(t) and self.peek().kind == TokenKind.IDENT:
            decl = self.parse_var_decl()
            self.expect_punct(";")
            return decl
        # expression statement or action
        expr = self.parse_expression()
        if self.tok.is_punct("%%"):
            return self.parse_action(expr)
        self.expect_punct(";")
        return ast.ExprStmt(expr, line=t.line)

    def parse_block(self) -> ast.Block:
        line = self.tok.line
        self.expect_punct("{")
        body: list[ast.Stmt] = []
        while not self.tok.is_punct("}"):
            body.append(self.parse_statement())
        self.expect_punct("}")
        return ast.Block(body, line=line)

    def parse_if(self) -> ast.If:
        line = self.tok.line
        self.expect_keyword("if")
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        then = self.parse_statement()
        otherwise = None
        if self.accept_keyword("else"):
            otherwise = self.parse_statement()
        return ast.If(cond, then, otherwise, line=line)

    def parse_while(self) -> ast.While:
        line = self.tok.line
        self.expect_keyword("while")
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        return ast.While(cond, body, line=line)

    def parse_loop(self, keyword: str) -> ast.Stmt:
        line = self.tok.line
        self.expect_keyword(keyword)
        self.expect_punct("(")
        init: ast.Expr | ast.VarDecl | None = None
        if not self.tok.is_punct(";"):
            if self._is_type_name(self.tok) and self.peek().kind == TokenKind.IDENT:
                init = self.parse_var_decl()
            else:
                init = self.parse_expression()
        self.expect_punct(";")
        cond = None if self.tok.is_punct(";") else self.parse_expression()
        self.expect_punct(";")
        update = None if self.tok.is_punct(")") else self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        cls = ast.Par if keyword == "par" else ast.For
        return cls(init, cond, update, body, line=line)

    def parse_var_decl(self) -> ast.VarDecl:
        line = self.tok.line
        type_tok = self.advance()
        declarators: list[ast.Declarator] = []
        while True:
            name = self.expect_ident().text
            init = None
            if self.accept_punct("="):
                init = self.parse_expression()
            declarators.append(ast.Declarator(name, init, line=self.tok.line))
            if not self.accept_punct(","):
                break
        return ast.VarDecl(type_tok.text, declarators, line=line)

    def parse_action(self, percent: ast.Expr) -> ast.Stmt:
        line = self.tok.line
        self.expect_punct("%%")
        coords = self.parse_coord_list()
        if self.accept_punct("->"):
            dst = self.parse_coord_list()
            self.expect_punct(";")
            return ast.TransferAction(percent, coords, dst, line=line)
        self.expect_punct(";")
        return ast.ComputeAction(percent, coords, line=line)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expression(self) -> ast.Expr:
        return self.parse_nested(self.parse_assignment, _BRACKET_COST)

    def parse_assignment(self) -> ast.Expr:
        left = self.parse_ternary()
        for op in ("=", "+=", "-=", "*=", "/="):
            if self.tok.is_punct(op):
                line = self.tok.line
                self.advance()
                value = self.parse_nested(self.parse_assignment)  # right associative
                return ast.Assign(left, op, value, line=line)
        return left

    def parse_ternary(self) -> ast.Expr:
        cond = self.parse_logical_or()
        if self.tok.is_punct("?"):
            line = self.tok.line
            self.advance()
            then = self.parse_nested(self.parse_assignment)
            self.expect_punct(":")
            otherwise = self.parse_nested(self.parse_assignment)
            return ast.Conditional(cond, then, otherwise, line=line)
        return cond

    def _binary_level(self, sub, ops: tuple[str, ...]) -> ast.Expr:
        outer = self.depth
        left = sub()
        while any(self.tok.is_punct(op) for op in ops):
            op = self.tok.text
            line = self.tok.line
            self.advance()
            self.nest()  # a left-deep chain deepens the tree per operator
            right = sub()
            left = ast.Binary(op, left, right, line=line)
        self.depth = outer
        return left

    def parse_logical_or(self) -> ast.Expr:
        return self._binary_level(self.parse_logical_and, ("||",))

    def parse_logical_and(self) -> ast.Expr:
        return self._binary_level(self.parse_equality, ("&&",))

    def parse_equality(self) -> ast.Expr:
        return self._binary_level(self.parse_relational, ("==", "!="))

    def parse_relational(self) -> ast.Expr:
        return self._binary_level(self.parse_additive, ("<", ">", "<=", ">="))

    def parse_additive(self) -> ast.Expr:
        return self._binary_level(self.parse_multiplicative, ("+", "-"))

    def parse_multiplicative(self) -> ast.Expr:
        return self._binary_level(self.parse_unary, ("*", "/", "%"))

    def parse_unary(self) -> ast.Expr:
        t = self.tok
        if t.is_punct("-") or t.is_punct("+") or t.is_punct("!"):
            self.advance()
            return ast.Unary(t.text, self.parse_nested(self.parse_unary),
                             line=t.line)
        if t.is_punct("&"):
            self.advance()
            return ast.AddrOf(self.parse_nested(self.parse_unary), line=t.line)
        if t.is_keyword("sizeof"):
            self.advance()
            self.expect_punct("(")
            type_tok = self.advance()
            if not (type_tok.kind == TokenKind.KEYWORD and type_tok.text in _TYPE_KEYWORDS):
                raise PMDLSyntaxError(
                    f"sizeof expects a C type name, found {type_tok.text!r}",
                    type_tok.line, type_tok.column,
                )
            self.expect_punct(")")
            return ast.Sizeof(type_tok.text, line=t.line)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        outer = self.depth
        expr = self.parse_primary()
        while True:
            t = self.tok
            if t.is_punct("["):
                self.advance()
                index = self.parse_expression()
                self.expect_punct("]")
                expr = ast.Index(expr, index, line=t.line)
            elif t.is_punct("."):
                self.advance()
                name = self.expect_ident().text
                expr = ast.Member(expr, name, line=t.line)
            elif t.is_punct("++") or t.is_punct("--"):
                self.advance()
                expr = ast.IncDec(expr, t.text, line=t.line)
            else:
                self.depth = outer
                return expr
            self.nest()  # each postfix wraps the expression so far

    def parse_primary(self) -> ast.Expr:
        t = self.tok
        if t.kind == TokenKind.INT:
            self.advance()
            return ast.IntLit(int(t.text), line=t.line)
        if t.kind == TokenKind.FLOAT:
            self.advance()
            return ast.FloatLit(float(t.text), line=t.line)
        if t.kind == TokenKind.IDENT:
            self.advance()
            if self.tok.is_punct("("):
                self.advance()
                args: list[ast.Expr] = []
                if not self.tok.is_punct(")"):
                    while True:
                        args.append(self.parse_expression())
                        if not self.accept_punct(","):
                            break
                self.expect_punct(")")
                return ast.Call(t.text, args, line=t.line)
            return ast.Name(t.text, line=t.line)
        if t.is_punct("("):
            self.advance()
            inner = self.parse_expression()
            self.expect_punct(")")
            return inner
        raise self.error("expected expression")


def parse(source: str) -> list[ast.StructDef | ast.Algorithm]:
    """Parse a PMDL source string into top-level definitions."""
    return _Parser(tokenize(source)).parse_unit()


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression (used by tests and the builder API)."""
    p = _Parser(tokenize(source))
    expr = p.parse_expression()
    if p.tok.kind != TokenKind.EOF:
        raise p.error("trailing input after expression")
    return expr
