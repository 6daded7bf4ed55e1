"""Tokenizer for the PMDL.

Hand-written scanner: identifiers/keywords, integer and floating literals,
longest-match punctuation, ``//`` and ``/* */`` comments, precise
line/column tracking for error messages.
"""

from __future__ import annotations

from ..util.errors import PMDLSyntaxError
from .tokens import KEYWORDS, PUNCTUATION, Token, TokenKind

__all__ = ["tokenize", "MAX_LITERAL_LENGTH"]

#: Longest numeric literal accepted, in characters — far beyond any C
#: ``long`` or ``double``, far below where ``int()`` itself refuses.
MAX_LITERAL_LENGTH = 128

_PUNCT2 = frozenset(p for p in PUNCTUATION if len(p) == 2)
_PUNCT1 = frozenset(p for p in PUNCTUATION if len(p) == 1)
assert _PUNCT1 | _PUNCT2 == set(PUNCTUATION)  # longest match is 2 characters


def tokenize(source: str) -> list[Token]:
    """Scan ``source`` into a token list terminated by an EOF token."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def error(msg: str) -> PMDLSyntaxError:
        return PMDLSyntaxError(msg, line, col)

    while i < n:
        c = source[i]
        # whitespace
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        # comments
        if c == "/" and source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if c == "/" and source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise error("unterminated block comment")
            skipped = source[i:end + 2]
            newlines = skipped.count("\n")
            if newlines:
                line += newlines
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue
        # identifiers / keywords
        if c.isalpha() or c == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, line, col))
            col += i - start
            continue
        # numeric literals
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            seen_dot = False
            seen_exp = False
            while i < n:
                ch = source[i]
                if ch.isdigit():
                    i += 1
                elif ch == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    i += 1
                elif ch in "eE" and not seen_exp and i > start:
                    # exponent must be followed by digits or sign+digits
                    j = i + 1
                    if j < n and source[j] in "+-":
                        j += 1
                    if j < n and source[j].isdigit():
                        seen_exp = True
                        i = j
                    else:
                        break
                else:
                    break
            text = source[start:i]
            if len(text) > MAX_LITERAL_LENGTH:
                raise error(f"numeric literal longer than "
                            f"{MAX_LITERAL_LENGTH} characters")
            kind = TokenKind.FLOAT if (seen_dot or seen_exp) else TokenKind.INT
            tokens.append(Token(kind, text, line, col))
            col += i - start
            continue
        # punctuation (longest match)
        punct = source[i:i + 2]
        if punct not in _PUNCT2:
            punct = c
            if punct not in _PUNCT1:
                raise error(f"unexpected character {c!r}")
        tokens.append(Token(TokenKind.PUNCT, punct, line, col))
        i += len(punct)
        col += len(punct)

    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens
