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
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import accumulate

from .errors import HypothesisViolation
from .gfcore import ZERO, IntPolynomial, RationalGF, T

#: Largest finite sphere or projective dimension accepted.  It is checked
#: before the n + 1 coefficients of the series are allocated.
MAX_DIMENSION = 1000


def _check_diagonal_null(name: str, diagonal_null: bool, constant: int) -> None:
    """Refuse a diagonal-null space whose series numerator is nonzero at t = 0.

    With den(0) != 0 the series' constant coefficient vanishes exactly when
    the numerator's does, reduced to lowest terms or not.
    """
    if diagonal_null and constant != 0:
        raise HypothesisViolation(
            f"{name}: diagonal-null spaces are path-connected, "
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
    notes: str = ""

    def __post_init__(self):
        _check_diagonal_null(self.name, self.diagonal_null, self.series.num.constant)

    @property
    def is_path_connected(self) -> bool:
        """True when the reduced Betti number in degree 0 vanishes."""
        return self.series.num.constant == 0

    def betti(self, bound: int):
        """Reduced Betti numbers b_0..b_bound as a truncated series."""
        return self.series.expand(bound)


@dataclass(frozen=True)
class PairInclusion:
    """A based inclusion of a subspace into an ambient space.

    ``mono_in_homology`` declares that the inclusion is a monomorphism on
    mod-2 reduced homology; like the profile flags it is a user assertion.
    """

    sub: SpaceProfile
    ambient: SpaceProfile
    mono_in_homology: bool = False


def sphere(n: int) -> SpaceProfile:
    """The n-sphere, 1 <= n <= MAX_DIMENSION: one reduced class in degree n, null diagonal."""
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"sphere dimension must be between 1 and {MAX_DIMENSION}, got {n}")
    return SpaceProfile(f"S^{n}", RationalGF(IntPolynomial.monomial(n)), diagonal_null=True)


def projective(n: int | float) -> SpaceProfile:
    """Real projective n-space, 1 <= n <= MAX_DIMENSION or math.inf.

    Mod 2 there is one reduced class in each degree 1..n; the infinite case
    has series t/(1-t).  Only the line (n = 1, a circle) is diagonal-null;
    from n = 2 up the cup products obstruct it.
    """
    if n == math.inf:
        series = RationalGF(IntPolynomial((0, 1)), IntPolynomial((1, -1)))
        return SpaceProfile("RP^inf", series, diagonal_null=False)
    if not isinstance(n, int) or not 1 <= n <= MAX_DIMENSION:
        raise ValueError(
            f"projective dimension must be an integer between 1 and {MAX_DIMENSION} "
            f"or inf, got {n}"
        )
    series = RationalGF(IntPolynomial([0] + [1] * n))
    return SpaceProfile(f"RP^{n}", series, diagonal_null=(n == 1))


def point() -> SpaceProfile:
    """The one-point space: zero reduced homology."""
    return SpaceProfile("pt", ZERO, diagonal_null=True)


def cone(space: SpaceProfile) -> SpaceProfile:
    """The cone on a space: contractible, so the zero series."""
    return SpaceProfile(f"cone({space.name})", ZERO, diagonal_null=True)


def wedge(a: SpaceProfile, b: SpaceProfile) -> SpaceProfile:
    """One-point union; reduced series add, diagonal-null only if both are."""
    return SpaceProfile(
        f"{a.name} v {b.name}",
        a.series + b.series,
        diagonal_null=a.diagonal_null and b.diagonal_null,
    )


def smash(a: SpaceProfile, b: SpaceProfile) -> SpaceProfile:
    """Smash product; reduced series multiply (Kunneth over a field).

    One diagonal-null factor makes the whole smash diagonal-null.
    """
    return SpaceProfile(
        f"{_smash_operand(a.name)} ^ {_smash_operand(b.name)}",
        a.series * b.series,
        diagonal_null=a.diagonal_null or b.diagonal_null,
    )


def _smash_operand(name: str) -> str:
    """name, in parentheses when it names a wedge: ^ binds tighter than v."""
    depths = accumulate(part.count("(") - part.count(")") for part in name.split(" v ")[:-1])
    return f"({name})" if 0 in depths else name


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
            f"{pair.sub.name} -> {pair.ambient.name}: the union series needs the "
            "inclusion declared a monomorphism in homology (mono_in_homology)"
        )
    # One numerator over (1-t)*den Y*den A, reduced once.
    y, a = pair.ambient.series, pair.sub.series
    num = IntPolynomial((0, 1, -1)) * y.num * a.den + IntPolynomial((0, 0, 1)) * a.num * y.den
    return RationalGF(num, IntPolynomial((1, -1)) * y.den * a.den)


class _Catalog(Mapping[str, SpaceProfile]):
    """Validated catalog entries; an entry's profile is built on first lookup.

    Building a profile reduces its series, so a command pays only for the
    names its expressions use.
    """

    def __init__(self, entries: dict[str, tuple[tuple[int, ...], tuple[int, ...], bool, str]]):
        self._entries = entries
        self._built: dict[str, SpaceProfile] = {}

    def __getitem__(self, name: str) -> SpaceProfile:
        profile = self._built.get(name)
        if profile is None:
            num, den, diag, notes = self._entries[name]
            profile = SpaceProfile(
                name, RationalGF.from_coeffs(num, den), diagonal_null=diag, notes=notes
            )
            self._built[name] = profile
        return profile

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def parse_catalog(data: object) -> Mapping[str, SpaceProfile]:
    """Build profiles from decoded catalog JSON (a list of objects).

    Each entry needs "name", integer coefficient arrays "numerator" and
    "denominator" (ascending degree, denominator nonzero at index 0), and a
    boolean "diagonal_null"; "notes" is optional; a name must be one an
    expression can reach.  Every entry is validated here; its series is
    built and reduced only when the entry is looked up.
    """
    from .spaceexpr import is_catalog_name  # spaceexpr imports this module
    if not isinstance(data, list):
        raise ValueError("catalog must be a JSON array of space objects")
    out: dict[str, tuple[tuple[int, ...], tuple[int, ...], bool, str]] = {}
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
        if not isinstance(name, str) or not is_catalog_name(name):
            raise ValueError(
                f"catalog entry {i}: no expression can name {name!r}; a name must be "
                "one identifier other than S, RP, pt, susp, cone, v and inf"
            )
        for label, arr in (("numerator", num), ("denominator", den)):
            # bool subclasses int, so JSON true/false would pass as 1/0.
            if not isinstance(arr, list) or not all(
                isinstance(c, int) and not isinstance(c, bool) for c in arr
            ):
                raise ValueError(f"catalog entry {name!r}: {label} must be a list of integers")
        if not den or den[0] == 0:
            raise ValueError(
                f"catalog entry {name!r}: denominator needs a nonzero entry at index 0"
            )
        if not isinstance(diag, bool):
            raise ValueError(f"catalog entry {name!r}: diagonal_null must be a boolean")
        if name in out:
            raise ValueError(f"catalog defines {name!r} twice")
        _check_diagonal_null(name, diag, num[0] if num else 0)
        out[name] = (tuple(num), tuple(den), diag, str(entry.get("notes", "")))
    return _Catalog(out)


def load_catalog(path: str | os.PathLike) -> Mapping[str, SpaceProfile]:
    """Read a catalog JSON file; see parse_catalog for the schema."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: catalog JSON is nested too deeply") from None
    return parse_catalog(data)
