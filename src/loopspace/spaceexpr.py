"""Parser and printer for the small space-expression language.

Grammar (whitespace insignificant, both operators left-associative, smash
binding tighter than wedge):

    expr    := term ('v' term)*
    term    := factor ('^' factor)*
    factor  := atom | 'susp' '(' expr ')' | 'cone' '(' expr ')' | '(' expr ')'
    atom    := 'S' '^' int | 'RP' '^' (int | 'inf') | 'pt' | identifier

Identifiers resolve against a loaded catalog.  ``S``, ``RP``, ``pt``,
``susp``, ``cone``, ``v`` and ``inf`` are only special in the positions the
grammar puts them; elsewhere they lex as ordinary identifiers.

An expression's depth counts, along its deepest path, every parenthesis,
``susp(`` and ``cone(`` and every wedge or smash operator, so a chain of n
terms has depth n - 1.  Parsing refuses a depth above ``MAX_DEPTH`` with a
ParseError, which keeps evaluation and printing far from Python's
recursion limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from . import spaces
from .errors import ParseError, UnknownName
from .spaces import SpaceProfile

MAX_DEPTH = 100


class SpaceExpr:
    """Base class for space-expression syntax trees."""

    __slots__ = ()


@dataclass(frozen=True)
class Sphere(SpaceExpr):
    dim: int


@dataclass(frozen=True)
class Projective(SpaceExpr):
    dim: int | None  # None encodes the infinite projective space


@dataclass(frozen=True)
class Point(SpaceExpr):
    pass


@dataclass(frozen=True)
class Named(SpaceExpr):
    name: str


@dataclass(frozen=True)
class Wedge(SpaceExpr):
    left: SpaceExpr
    right: SpaceExpr


@dataclass(frozen=True)
class Smash(SpaceExpr):
    left: SpaceExpr
    right: SpaceExpr


@dataclass(frozen=True)
class Susp(SpaceExpr):
    inner: SpaceExpr


@dataclass(frozen=True)
class Cone(SpaceExpr):
    inner: SpaceExpr


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "int", "caret", "lparen", "rparen", "end"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        start = i
        if c == "(":
            tokens.append(_Token("lparen", "(", start))
            i += 1
        elif c == ")":
            tokens.append(_Token("rparen", ")", start))
            i += 1
        elif c == "^":
            # Maximal munch: a run of carets is one token, so '^^' is a
            # single malformed operator reported at its first character.
            while i < n and text[i] == "^":
                i += 1
            run = text[start:i]
            if len(run) > 1:
                raise ParseError(
                    f"unexpected token {run!r} at offset {start}", start, ("^",)
                )
            tokens.append(_Token("caret", "^", start))
        elif c.isdigit():
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(_Token("int", text[start:i], start))
        elif c.isalpha() or c == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], start))
        else:
            raise ParseError(f"unexpected character {c!r} at offset {start}", start, ())
    tokens.append(_Token("end", "", n))
    return tokens


_FACTOR_EXPECTED = ("S^<int>", "RP^<int|inf>", "pt", "identifier", "susp(", "cone(", "(")


class _Parser:
    def __init__(self, tokens: list[_Token], catalog: Mapping[str, SpaceProfile] | None):
        self.tokens = tokens
        self.pos = 0
        self.catalog = catalog

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok: _Token, expected: tuple[str, ...]) -> ParseError:
        shown = tok.text if tok.kind != "end" else "end of input"
        return ParseError(
            f"unexpected {shown!r} at offset {tok.offset}; expected one of "
            + ", ".join(expected),
            tok.offset,
            expected,
        )

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.fail(tok, expected)
        return self.advance()

    def deeper(self, depth: int, tok: _Token) -> int:
        """depth + 1, or a ParseError at tok when that exceeds MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            raise ParseError(
                f"expression deeper than {MAX_DEPTH} levels at offset {tok.offset}",
                tok.offset,
            )
        return depth + 1

    # Each parse_* method returns (tree, depth of the text it consumed).

    def parse_expr(self, nesting: int) -> tuple[SpaceExpr, int]:
        node, depth = self.parse_term(nesting)
        while self.peek().kind == "ident" and self.peek().text == "v":
            tok = self.advance()
            right, right_depth = self.parse_term(nesting)
            node, depth = Wedge(node, right), self.deeper(max(depth, right_depth), tok)
        return node, depth

    def parse_term(self, nesting: int) -> tuple[SpaceExpr, int]:
        node, depth = self.parse_factor(nesting)
        while self.peek().kind == "caret":
            tok = self.advance()
            right, right_depth = self.parse_factor(nesting)
            node, depth = Smash(node, right), self.deeper(max(depth, right_depth), tok)
        return node, depth

    def parse_factor(self, nesting: int) -> tuple[SpaceExpr, int]:
        tok = self.peek()
        if tok.kind == "lparen":
            self.advance()
            return self.parse_nested(nesting, tok)
        if tok.kind == "ident":
            if tok.text in ("susp", "cone") and self.tokens[self.pos + 1].kind == "lparen":
                self.advance()
                self.advance()
                inner, depth = self.parse_nested(nesting, tok)
                return (Susp(inner) if tok.text == "susp" else Cone(inner)), depth
            return self.parse_atom(), 0
        raise self.fail(tok, _FACTOR_EXPECTED)

    def parse_nested(self, nesting: int, opener: _Token) -> tuple[SpaceExpr, int]:
        """The expression after an opening parenthesis, through its ')'."""
        # Refused on the way down too, before the recursion can run deep.
        node, depth = self.parse_expr(self.deeper(nesting, opener))
        self.expect("rparen", (")",))
        return node, self.deeper(depth, opener)

    def parse_atom(self) -> SpaceExpr:
        tok = self.advance()
        if tok.text == "pt":
            return Point()
        if tok.text == "S" and self.peek().kind == "caret":
            self.advance()
            dim_tok = self.expect("int", ("sphere dimension",))
            return Sphere(int(dim_tok.text))
        if tok.text == "RP" and self.peek().kind == "caret":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "int":
                self.advance()
                return Projective(int(nxt.text))
            if nxt.kind == "ident" and nxt.text == "inf":
                self.advance()
                return Projective(None)
            raise self.fail(nxt, ("projective dimension", "inf"))
        name = tok.text
        if self.catalog is not None and name not in self.catalog:
            raise UnknownName(name)
        return Named(name)


def parse_space(text: str, catalog: Mapping[str, SpaceProfile] | None = None) -> SpaceExpr:
    """Parse a space expression; with a catalog, names are resolved eagerly.

    Raises ParseError (with offset and expected-token set) on malformed
    input or a depth above MAX_DEPTH, and UnknownName when a catalog is
    given and an identifier is missing from it.
    """
    parser = _Parser(_tokenize(text), catalog)
    node, _ = parser.parse_expr(0)
    end = parser.peek()
    if end.kind != "end":
        raise parser.fail(end, ("v", "^", "end of input"))
    return node


def format_space(expr: SpaceExpr) -> str:
    """Render a tree back to grammar text; parse(format(e)) rebuilds e."""
    return _format(expr, 1)


def _format(expr: SpaceExpr, minprec: int) -> str:
    if isinstance(expr, Sphere):
        return f"S^{expr.dim}"
    if isinstance(expr, Projective):
        return "RP^inf" if expr.dim is None else f"RP^{expr.dim}"
    if isinstance(expr, Point):
        return "pt"
    if isinstance(expr, Named):
        return expr.name
    if isinstance(expr, Susp):
        return f"susp({_format(expr.inner, 1)})"
    if isinstance(expr, Cone):
        return f"cone({_format(expr.inner, 1)})"
    if isinstance(expr, Wedge):
        body = f"{_format(expr.left, 1)} v {_format(expr.right, 2)}"
        prec = 1
    elif isinstance(expr, Smash):
        body = f"{_format(expr.left, 2)} ^ {_format(expr.right, 3)}"
        prec = 2
    else:
        raise TypeError(f"not a space expression: {expr!r}")
    return f"({body})" if prec < minprec else body


def evaluate(expr: SpaceExpr, catalog: Mapping[str, SpaceProfile] | None = None) -> SpaceProfile:
    """Turn a syntax tree into a space profile."""
    if isinstance(expr, Sphere):
        return spaces.sphere(expr.dim)
    if isinstance(expr, Projective):
        return spaces.projective(math.inf if expr.dim is None else expr.dim)
    if isinstance(expr, Point):
        return spaces.point()
    if isinstance(expr, Named):
        if catalog is None or expr.name not in catalog:
            raise UnknownName(expr.name)
        return catalog[expr.name]
    if isinstance(expr, Wedge):
        return spaces.wedge(evaluate(expr.left, catalog), evaluate(expr.right, catalog))
    if isinstance(expr, Smash):
        return spaces.smash(evaluate(expr.left, catalog), evaluate(expr.right, catalog))
    if isinstance(expr, Susp):
        return spaces.suspend(evaluate(expr.inner, catalog))
    if isinstance(expr, Cone):
        return spaces.cone(evaluate(expr.inner, catalog))
    raise TypeError(f"not a space expression: {expr!r}")
