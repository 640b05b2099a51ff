"""Space profiles: named spaces known only through their reduced Betti series.

A profile carries no cells or chain complexes, just the generating function
of its mod-2 reduced Betti numbers plus declared hypothesis flags.  The flags
(diagonal-null, monomorphism-in-homology) assert facts about maps of spaces
that series data cannot decide; the library checks only their checkable
consequences and otherwise trusts the caller.

Flag propagation under wedge/smash/suspension follows the standard facts
(a suspension is a co-H-space; a smash with a diagonal-null factor is
diagonal-null); these are library conventions, documented here once.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import accumulate

from .errors import HypothesisViolation, NonIntegerSeriesError, PathConnectednessViolation, quoted
from .gfcore import ZERO, IntPolynomial, RationalGF, T

#: Largest finite sphere or projective dimension accepted.  It is checked
#: before the n + 1 coefficients of the series are allocated.
MAX_DIMENSION = 1000

#: Largest numerator or denominator degree a wedge or smash may build,
#: checked before the series are multiplied.  Building the largest accepted
#: smash, RP^1000 ^ RP^1000, takes about 0.1 s; each further factor of
#: degree 1000 would cost more than the last, and 12 of them took 9.8 s.
MAX_SERIES_DEGREE = 2 * MAX_DIMENSION

#: Longest numerator or denominator array a catalog entry may have.  Two
#: random entries of this length take about 0.01 s through ``collapse --mono
#: --A E0 --Y "E0 v E1"``; one of 10-digit coefficients whose numerator
#: vanishes at the first six points the gcd evaluates at, under 0.01 s.
MAX_CATALOG_LENGTH = 64

#: Largest length times largest coefficient bit length of a catalog array.
#: The heuristic gcd packs a polynomial into about that many bits.  Two
#: random entries of 64 coefficients of 301 digits take 1.1-2.1 s through the
#: command above.  A numerator within this limit vanishes at no more than
#: the first 19 points the gcd evaluates at.
MAX_CATALOG_BITS = 64_000


def short_name(name: str) -> str:
    """A space's name for a refusal, each identifier over 40 characters shown by errors.quoted."""
    return re.sub(r"\w{41,}", lambda word: quoted(word[0]), name)


def _check_diagonal_null(name: str, diagonal_null: bool, constant: int) -> None:
    """Refuse a diagonal-null space whose series numerator is nonzero at t = 0.

    With den(0) != 0 the series' constant coefficient vanishes exactly when
    the numerator's does, reduced to lowest terms or not.
    """
    if diagonal_null and constant != 0:
        raise HypothesisViolation(
            f"{short_name(name)}: diagonal-null spaces are path-connected, "
            "but the series has a nonzero constant coefficient"
        )


@dataclass(frozen=True)
class SpaceProfile:
    """A pointed space described by its reduced Poincare series.

    ``diagonal_null`` declares that the reduced diagonal map induces zero in
    mod-2 reduced homology.  That hypothesis forces path-connectedness, so a
    nonzero constant series coefficient contradicts it and is rejected here.
    """

    name: str
    series: RationalGF
    diagonal_null: bool = False

    def __post_init__(self):
        _check_diagonal_null(self.name, self.diagonal_null, self.series.num.constant)

    def require_path_connected(self, purpose: str) -> None:
        """Raise PathConnectednessViolation unless the reduced Betti number in degree 0 vanishes."""
        if self.series.num.constant != 0:
            raise PathConnectednessViolation(
                f"{short_name(self.name)}: {purpose} needs a path-connected space "
                "(zero constant series coefficient)"
            )

    def require_diagonal_null(self, purpose: str) -> None:
        """Raise HypothesisViolation unless the reduced diagonal is declared null."""
        if not self.diagonal_null:
            raise HypothesisViolation(
                f"{short_name(self.name)}: {purpose} needs the reduced diagonal declared null"
            )

    def betti(self, bound: int):
        """Reduced Betti numbers b_0..b_bound as a truncated series.

        A negative or non-integer coefficient is refused, naming the space and
        the degree; a negative one over 40 characters is shown by its digit count.
        """
        try:
            coeffs = self.series.expand(bound)
        except NonIntegerSeriesError as exc:
            raise NonIntegerSeriesError(
                f"{short_name(self.name)}: series {exc}, so it cannot hold Betti numbers"
            ) from None
        for q, b in enumerate(coeffs):
            if b < 0:
                from decimal import Decimal  # Decimal(b) is exact, and has no str() digit limit
                shown = f"coefficient {b} of t^{q} is negative" if b > -10**39 else (
                    f"coefficient of t^{q} is negative and has {Decimal(b).adjusted() + 1} digits")
                raise ValueError(
                    f"{short_name(self.name)}: series {shown}, so it cannot hold Betti numbers"
                )
        return coeffs


@dataclass(frozen=True)
class PairInclusion:
    """A based inclusion of a subspace into an ambient space.

    ``mono_in_homology`` declares that the inclusion is a monomorphism on
    mod-2 reduced homology; like the profile flags it is a user assertion.
    """

    sub: SpaceProfile
    ambient: SpaceProfile
    mono_in_homology: bool = False

    def require_hypotheses(self, purpose: str) -> None:
        """The loop-series hypotheses: ambient space path-connected, then subspace diagonal-null."""
        self.ambient.require_path_connected(purpose)
        self.sub.require_diagonal_null(purpose)


def dimension_refusal(space: str, got: object) -> ValueError:
    """The error for a "sphere" or "projective" dimension out of range; got shows the input."""
    allowed = f"between 1 and {MAX_DIMENSION}"
    if space == "projective":
        allowed = f"an integer {allowed} or inf"
    return ValueError(f"{space} dimension must be {allowed}, got {got}")


def sphere(n: int) -> SpaceProfile:
    """The n-sphere, 1 <= n <= MAX_DIMENSION: one reduced class in degree n, null diagonal."""
    if not 1 <= n <= MAX_DIMENSION:
        raise dimension_refusal("sphere", n)
    return SpaceProfile(f"S^{n}", RationalGF(IntPolynomial.monomial(n)), diagonal_null=True)


#: t/(1 - t), the series of RP^inf, built and reduced once.
_RP_INF_SERIES = RationalGF(IntPolynomial((0, 1)), IntPolynomial((1, -1)))


def projective(n: int | float) -> SpaceProfile:
    """Real projective n-space, 1 <= n <= MAX_DIMENSION or math.inf.

    Mod 2 there is one reduced class in each degree 1..n; the infinite case
    has series t/(1-t).  Only the line (n = 1, a circle) is diagonal-null;
    from n = 2 up the cup products obstruct it.
    """
    if n == math.inf:
        return SpaceProfile("RP^inf", _RP_INF_SERIES, diagonal_null=False)
    if not isinstance(n, int) or not 1 <= n <= MAX_DIMENSION:
        raise dimension_refusal("projective", n)
    series = RationalGF(IntPolynomial([0] + [1] * n))
    return SpaceProfile(f"RP^{n}", series, diagonal_null=(n == 1))


def point() -> SpaceProfile:
    """The one-point space: zero reduced homology."""
    return SpaceProfile("pt", ZERO, diagonal_null=True)


def cone(space: SpaceProfile) -> SpaceProfile:
    """The cone on a space: contractible, so the zero series."""
    return SpaceProfile(f"cone({space.name})", ZERO, diagonal_null=True)


def _check_degree(operator: str, a: SpaceProfile, b: SpaceProfile, degree: int) -> None:
    """Refuse the operator on a and b when its series would have this degree."""
    if degree > MAX_SERIES_DEGREE:
        raise ValueError(
            f"{operator} of {short_name(a.name)} and {short_name(b.name)}: its series "
            f"would have degree {degree}, above the limit {MAX_SERIES_DEGREE}"
        )


def wedge(a: SpaceProfile, b: SpaceProfile) -> SpaceProfile:
    """One-point union; reduced series add, diagonal-null only if both are.

    Refused with ValueError when the sum, before it is reduced, would have a
    numerator or denominator degree above MAX_SERIES_DEGREE.
    """
    (xn, xd), (yn, yd) = ((p.series.num.degree, p.series.den.degree) for p in (a, b))
    _check_degree("wedge", a, b, max(xn + yd, yn + xd, xd + yd))
    return SpaceProfile(
        f"{a.name} v {_operand(b.name, 'v')}",
        a.series + b.series,
        diagonal_null=a.diagonal_null and b.diagonal_null,
    )


def smash(a: SpaceProfile, b: SpaceProfile) -> SpaceProfile:
    """Smash product; reduced series multiply (Kunneth over a field).

    One diagonal-null factor makes the whole smash diagonal-null.  Refused
    with ValueError, before anything is multiplied, when the product would
    have a numerator or denominator degree above MAX_SERIES_DEGREE.
    """
    (xn, xd), (yn, yd) = ((p.series.num.degree, p.series.den.degree) for p in (a, b))
    _check_degree("smash", a, b, max(xn + yn, xd + yd))
    return SpaceProfile(
        f"{_operand(a.name, 'v')} ^ {_operand(b.name, 'v^')}",
        a.series * b.series,
        diagonal_null=a.diagonal_null or b.diagonal_null,
    )


def _operand(name: str, operators: str) -> str:
    """name, in parentheses when one of operators joins it outside parentheses.

    Callers pass the operators that would regroup the operand (^ binds tighter
    than v; both associate left), so a name is never deeper than its expression.
    """
    parts = re.split(r" ([v^]) ", name)
    depths = accumulate(part.count("(") - part.count(")") for part in parts[::2])
    outside = {op for depth, op in zip(depths, parts[1::2]) if depth == 0}
    return f"({name})" if outside & set(operators) else name


def suspend(a: SpaceProfile) -> SpaceProfile:
    """Suspension: series shifts up one degree; suspensions are co-H, hence diagonal-null."""
    return SpaceProfile(f"susp({a.name})", T * a.series, diagonal_null=True)


def union_series(pair: PairInclusion) -> RationalGF:
    """Reduced Poincare series of (A ^ RP^inf) glued to (Y ^ RP^1) along A ^ RP^1.

    The Mayer-Vietoris sequence of the union splits into short exact
    sequences when the inclusion is a monomorphism in homology, giving
    t*P(Y) + t^2/(1-t)*P(A).  Without the declared monomorphism the split
    fails and the computation is refused.
    """
    if not pair.mono_in_homology:
        raise HypothesisViolation(
            f"{short_name(pair.sub.name)} -> {short_name(pair.ambient.name)}: the union "
            "series needs the inclusion declared a monomorphism in homology (mono_in_homology)"
        )
    # One numerator over (1-t)*den Y*den A, reduced once.
    y, a = pair.ambient.series, pair.sub.series
    num = IntPolynomial((0, 1, -1)) * y.num * a.den + IntPolynomial((0, 0, 1)) * a.num * y.den
    return RationalGF(num, IntPolynomial((1, -1)) * y.den * a.den)


class _Catalog(Mapping[str, SpaceProfile]):
    """Validated catalog entries; an entry's profile is built on first lookup.

    Building a profile reduces its series, so a command pays only for the
    names its expressions use.  Entries, not the spaces built from them, are
    checked for Betti numbers.  By Fatou's lemma, a lookup refuses exactly the
    series with a non-integer coefficient: reduced denominator not 1 at t = 0.
    """

    def __init__(self, entries: dict[str, tuple[tuple[int, ...], tuple[int, ...], bool]]):
        self._entries = entries
        self._built: dict[str, SpaceProfile] = {}

    def __getitem__(self, name: str) -> SpaceProfile:
        if name not in self._built:
            num, den, diag = self._entries[name]
            series = RationalGF.from_coeffs(num, den)
            if series.den.constant != 1:
                raise NonIntegerSeriesError(
                    f"{short_name(name)}: series in lowest terms has a denominator other than 1 at "
                    "t = 0, so some coefficient is not an integer and it cannot hold Betti numbers"
                )
            self._built[name] = SpaceProfile(name, series, diagonal_null=diag)
        return self._built[name]

    def check_signs(self, degree: int) -> None:
        """Refuse an entry looked up so far with a negative coefficient up to
        max(degree, m + n), m and n its numerator and denominator degrees, whose
        first m + n + 1 coefficients determine it (Pade uniqueness); no finite
        horizon is complete (Ouaknine and Worrell, SODA 2014).

        An entry is skipped when its coefficients prove it nonnegative in every
        degree: with numerator >= 0 and denominator <= 0 past t^0 (the lookup
        made den(0) = 1), the recurrence only adds.
        """
        for entry in self._built.values():
            num, den = entry.series.num, entry.series.den
            if min(num.coeffs, default=0) >= 0 and max(den.coeffs[1:], default=0) <= 0:
                continue
            entry.betti(max(degree, num.degree + den.degree))

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


#: How a refusal shows a catalog name that is not a JSON string: by its type.
_JSON_TYPES = {
    list: "an array", dict: "an object", int: "a number", float: "a number",
    bool: "a boolean", type(None): "null",
}


def parse_catalog(data: object) -> _Catalog:
    """Build profiles from decoded catalog JSON (a list of objects).

    Each entry needs "name", integer coefficient arrays "numerator" and
    "denominator" (ascending degree, within MAX_CATALOG_LENGTH and
    MAX_CATALOG_BITS, denominator nonzero at index 0), and a boolean
    "diagonal_null"; other keys are ignored; a name must be one an
    expression can reach.  Every entry is validated here; its series is
    built, reduced and checked for integer coefficients on first lookup.
    """
    from .spaceexpr import WORDS, is_catalog_name  # spaceexpr imports this module
    if not isinstance(data, list):
        raise ValueError("catalog must be a JSON array of space objects")
    out: dict[str, tuple[tuple[int, ...], tuple[int, ...], bool]] = {}
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ValueError(f"catalog entry {i} is not an object")
        try:
            name = entry["name"]
            num = entry["numerator"]
            den = entry["denominator"]
            diag = entry["diagonal_null"]
        except KeyError as missing:
            raise ValueError(f"catalog entry {i} lacks key {missing}") from None
        shown = (quoted(name) if isinstance(name, str)
                 else _JSON_TYPES.get(type(name), "a non-string value"))
        if not isinstance(name, str) or not is_catalog_name(name):
            raise ValueError(
                f"catalog entry {i}: no expression can name {shown}; a name must be "
                f"one identifier other than {', '.join(WORDS[:-1])} and {WORDS[-1]}"
            )
        for label, arr in (("numerator", num), ("denominator", den)):
            if not isinstance(arr, list):
                raise ValueError(f"catalog entry {shown}: {label} must be a list of integers")
            widest = 0
            for c in arr:
                # bool subclasses int, so JSON true/false would pass as 1/0.
                if type(c) is not int and (isinstance(c, bool) or not isinstance(c, int)):
                    raise ValueError(f"catalog entry {shown}: {label} must be a list of integers")
                if c.bit_length() > widest:
                    widest = c.bit_length()
            if len(arr) > MAX_CATALOG_LENGTH:
                raise ValueError(
                    f"catalog entry {shown}: {label} has {len(arr)} coefficients, "
                    f"more than the limit {MAX_CATALOG_LENGTH}"
                )
            bits = len(arr) * widest
            if bits > MAX_CATALOG_BITS:
                raise ValueError(
                    f"catalog entry {shown}: {label} has {len(arr)} coefficients of up to "
                    f"{bits // len(arr)} bits; length times that bit length is {bits}, "
                    f"above the limit {MAX_CATALOG_BITS}"
                )
        if not den or den[0] == 0:
            raise ValueError(f"catalog entry {shown}: denominator needs a nonzero entry at index 0")
        if not isinstance(diag, bool):
            raise ValueError(f"catalog entry {shown}: diagonal_null must be a boolean")
        if name in out:
            raise ValueError(f"catalog defines {shown} twice")
        _check_diagonal_null(name, diag, num[0] if num else 0)
        out[name] = (tuple(num), tuple(den), diag)
    return _Catalog(out)


def load_catalog(path: str | os.PathLike) -> _Catalog:
    """Read a catalog JSON file; see parse_catalog for the schema."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: catalog JSON is nested too deeply") from None
        except ValueError as exc:
            # int() refuses a too-long integer with a plain ValueError; JSON and
            # UTF-8 decoding errors are subclasses and keep their messages.
            if type(exc) is not ValueError:
                raise
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"{path}: a catalog integer has over {limit} digits") from None
    return parse_catalog(data)
