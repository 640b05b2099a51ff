"""Parser for the small space-expression language.

Grammar (whitespace insignificant, both operators left-associative, smash
binding tighter than wedge):

    expr    := term ('v' term)*
    term    := factor ('^' factor)*
    factor  := atom | 'susp' '(' expr ')' | 'cone' '(' expr ')' | '(' expr ')'
    atom    := 'S' '^' int | 'RP' '^' (int | 'inf') | 'pt' | identifier

The parser builds no syntax tree: each rule returns the ``SpaceProfile``
of the text it consumed, built through ``spaces``.  ``S``, ``RP``, ``pt``,
``susp``, ``cone``, ``v`` and ``inf`` are only special in the positions the
grammar puts them; elsewhere they lex as identifiers no catalog may define.

An expression's depth counts, along its deepest path, every parenthesis,
``susp(`` and ``cone(`` and every wedge or smash operator, so a chain of n
terms has depth n - 1.  Parsing refuses a depth above ``MAX_DEPTH`` with a
ParseError, on the way down as well, which keeps the parser's own
recursion far from Python's recursion limit.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, NamedTuple

from . import spaces
from .errors import ParseError, UnknownName, quoted
from .spaces import SpaceProfile

MAX_DEPTH = 100

#: The grammar's words, which no catalog entry may be named.
WORDS = ("S", "RP", "pt", "susp", "cone", "v", "inf")


class _Token(NamedTuple):
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
                    f"unexpected token {quoted(run)} at offset {start}", start, ("^",)
                )
            tokens.append(_Token("caret", "^", start))
        elif "0" <= c <= "9":
            # ASCII only: str.isdigit also accepts superscripts such as '²'.
            while i < n and "0" <= text[i] <= "9":
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
        shown = quoted(tok.text if tok.kind != "end" else "end of input")
        return ParseError(
            f"unexpected {shown} at offset {tok.offset}; expected one of "
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

    # Each parse_* method returns (profile, depth of the text it consumed).

    def parse_expr(self, nesting: int) -> tuple[SpaceProfile, int]:
        space, depth = self.parse_term(nesting)
        while self.peek().kind == "ident" and self.peek().text == "v":
            tok = self.advance()
            right, right_depth = self.parse_term(nesting)
            space, depth = spaces.wedge(space, right), self.deeper(max(depth, right_depth), tok)
        return space, depth

    def parse_term(self, nesting: int) -> tuple[SpaceProfile, int]:
        space, depth = self.parse_factor(nesting)
        while self.peek().kind == "caret":
            tok = self.advance()
            right, right_depth = self.parse_factor(nesting)
            space, depth = spaces.smash(space, right), self.deeper(max(depth, right_depth), tok)
        return space, depth

    def parse_factor(self, nesting: int) -> tuple[SpaceProfile, int]:
        tok = self.peek()
        if tok.kind == "lparen":
            self.advance()
            return self.parse_nested(nesting, tok)
        if tok.kind == "ident":
            if tok.text in ("susp", "cone") and self.tokens[self.pos + 1].kind == "lparen":
                self.pos += 2  # the word and its '('
                inner, depth = self.parse_nested(nesting, tok)
                return (spaces.suspend if tok.text == "susp" else spaces.cone)(inner), depth
            return self.parse_atom(), 0
        raise self.fail(tok, _FACTOR_EXPECTED)

    def parse_nested(self, nesting: int, opener: _Token) -> tuple[SpaceProfile, int]:
        """The expression after an opening parenthesis, through its ')'."""
        # Refused on the way down too, before the recursion can run deep.
        space, depth = self.parse_expr(self.deeper(nesting, opener))
        self.expect("rparen", (")",))
        return space, self.deeper(depth, opener)

    def parse_atom(self) -> SpaceProfile:
        tok = self.advance()
        if tok.text == "pt":
            return spaces.point()
        if tok.text == "S" and self.peek().kind == "caret":
            self.advance()
            return spaces.sphere(_dimension(self.expect("int", ("sphere dimension",)), "sphere"))
        if tok.text == "RP" and self.peek().kind == "caret":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "int":
                self.advance()
                return spaces.projective(_dimension(nxt, "projective"))
            if nxt.kind == "ident" and nxt.text == "inf":
                self.advance()
                return spaces.projective(math.inf)
            raise self.fail(nxt, ("projective dimension", "inf"))
        if self.catalog is None or tok.text not in self.catalog:
            raise UnknownName(tok.text)
        return self.catalog[tok.text]


def literal_value(text: str, limit: int) -> int | str:
    """The value of an integer literal, or "a N-digit number" when it has more
    significant digits than limit, so that it cannot be in range.

    int() of a literal longer than Python's int-to-str limit would fail with
    a message about the interpreter, and a refusal that showed the literal
    would echo every digit.  Text other than an optionally signed run of
    digits (with single underscores between them, as int() allows) goes to
    int(), which raises ValueError when it is malformed.
    """
    body = text.strip()
    sign = body[:1] if body[:1] in ("+", "-") else ""
    digits = body[len(sign) :]
    if not re.fullmatch(r"\d+(?:_\d+)*", digits):
        return int(text)
    digits = digits.replace("_", "").lstrip("0")
    if len(digits) > len(str(limit)):
        return f"a {len(digits)}-digit number"
    return int(sign + (digits or "0"))


def _dimension(tok: _Token, space: str) -> int:
    """The value of a dimension literal, refused by its digit count when it cannot be in range."""
    value = literal_value(tok.text, spaces.MAX_DIMENSION)
    if isinstance(value, str):
        raise spaces.dimension_refusal(space, value)
    return value


def parse_space(text: str, catalog: Mapping[str, SpaceProfile] | None = None) -> SpaceProfile:
    """The profile a space expression names, built as the text is parsed.

    Raises ParseError (with offset and expected-token set) on malformed
    input or a depth above MAX_DEPTH, UnknownName for an identifier missing
    from the catalog (every identifier, without one), and ValueError for a
    dimension or series degree ``spaces`` refuses; the first fault in the
    text is reported.
    """
    parser = _Parser(_tokenize(text), catalog)
    space, _ = parser.parse_expr(0)
    end = parser.peek()
    if end.kind != "end":
        raise parser.fail(end, ("v", "^", "end of input"))
    return space


def evaluate(space: SpaceProfile) -> SpaceProfile:
    """Return space unchanged; kept only because the benchmark's tracer wraps it."""
    return space


def is_catalog_name(name: str) -> bool:
    """True when name lexes as one identifier that is not a word of the grammar."""
    try:
        first = _tokenize(name)[0]
    except ParseError:
        return False
    return first.kind == "ident" and first.text == name and name not in WORDS
