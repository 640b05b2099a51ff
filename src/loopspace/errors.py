"""Exception hierarchy shared across the package."""

from __future__ import annotations


def quoted(text: str) -> str:
    """repr(text), or its first 16 characters and its length when it is over 40 long."""
    return repr(text) if len(text) <= 40 else f"{text[:16]!r}... (a {len(text)}-character string)"


class LoopspaceError(Exception):
    """Base class for every error raised by this package."""


class ZeroDenominatorError(LoopspaceError):
    """The denominator of a rational generating function is unusable.

    Raised for the zero polynomial itself; the subclass
    :class:`NonUnitConstantError` covers the weaker failure of a zero
    constant term.
    """


class NonUnitConstantError(ZeroDenominatorError):
    """Denominator has constant term 0, so no power-series expansion exists."""


class NonIntegerSeriesError(LoopspaceError):
    """A series expansion left the integers.

    Truncated series hold exact integer coefficients; a rational function
    such as t/(2 - 2t) has none, and expanding it raises this error at the
    first offending degree.
    """


class HypothesisViolation(LoopspaceError):
    """A declared topological hypothesis required by an operation is absent.

    The flags on space profiles (diagonal-null, monomorphism-in-homology)
    are user assertions; operations whose formulas are conditional on them
    refuse to run rather than produce garbage.
    """


class PathConnectednessViolation(HypothesisViolation):
    """Space is not path-connected at series level (constant coefficient != 0)."""


class ParseError(LoopspaceError):
    """Malformed space expression.

    Carries the byte ``offset`` of the offending token in the input string
    and the set of token descriptions that were ``expected`` there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.offset = offset
        self.expected = expected


class UnknownName(LoopspaceError):
    """A space expression names an atom absent from the loaded catalog."""

    def __init__(self, name: str):
        super().__init__(f"unknown space name {quoted(name)}")
        self.name = name
