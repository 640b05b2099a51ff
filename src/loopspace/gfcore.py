"""Exact polynomial and rational generating function arithmetic.

Everything here is big-integer exact: polynomials carry arbitrary-precision
signed coefficients, rational functions are numerator/denominator pairs of
such polynomials reduced to lowest terms once, when they are built, and
series expansion is an integer linear recurrence driven by the denominator.
No floats anywhere.
"""

from __future__ import annotations

from math import gcd as _int_gcd
from typing import Iterable, Iterator, Sequence

from .errors import (
    NonIntegerSeriesError,
    NonUnitConstantError,
    ZeroDenominatorError,
)


class IntPolynomial:
    """Immutable integer polynomial in one indeterminate t.

    Coefficients are stored ascending by degree with no trailing zeros; the
    zero polynomial stores the empty tuple.  ``p[i]`` reads the coefficient
    of t^i and is 0 beyond the degree.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> IntPolynomial:
        """Return coeff * t^degree."""
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls([0] * degree + [coeff])

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def constant(self) -> int:
        """The coefficient of t^0, i.e. the value at t = 0."""
        return self[0]

    def __getitem__(self, i: int) -> int:
        if i < 0:
            raise IndexError("polynomial coefficients are indexed by degree >= 0")
        return self._coeffs[i] if i < len(self._coeffs) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(-c for c in self._coeffs)

    def __add__(self, other: IntPolynomial | int) -> IntPolynomial:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __sub__(self, other: IntPolynomial | int) -> IntPolynomial:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: IntPolynomial | int) -> IntPolynomial:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: IntPolynomial | int) -> IntPolynomial:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> IntPolynomial:
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = IntPolynomial((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def content(self) -> int:
        """Nonnegative gcd of all coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self._coeffs:
            g = _int_gcd(g, c)
        return g

    def primitive_part(self) -> IntPolynomial:
        """self divided by its content; the zero polynomial maps to itself."""
        c = self.content()
        if c <= 1:
            return self
        return IntPolynomial(k // c for k in self._coeffs)

    def divexact(self, divisor: IntPolynomial) -> IntPolynomial:
        """Exact division; raises ArithmeticError when divisor does not divide self."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return IntPolynomial()
        rem = list(self._coeffs)
        dcs = divisor._coeffs
        dd = divisor.degree
        lead = dcs[-1]
        qlen = len(rem) - dd
        if qlen <= 0:
            raise ArithmeticError("division is not exact")
        quot = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            head = rem[i + dd]
            q, r = divmod(head, lead)
            if r:
                raise ArithmeticError("division is not exact")
            quot[i] = q
            if q:
                for j, dc in enumerate(dcs):
                    rem[i + j] -= q * dc
        if any(rem):
            raise ArithmeticError("division is not exact")
        return IntPolynomial(quot)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "t" if i == 1 else f"t^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({self._coeffs})"


def _as_poly(value: object) -> IntPolynomial:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial((value,))
    return NotImplemented


def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Pseudo-remainder of a by b: rem(lc(b)^(deg a - deg b + 1) * a, b)."""
    da, db = a.degree, b.degree
    lead = b.coeffs[-1]
    rem = list(a.coeffs)
    for i in range(da - db, -1, -1):
        head = rem[i + db]
        # Scale the whole remainder so the head divides exactly.
        for j in range(len(rem)):
            rem[j] *= lead
        for j, bc in enumerate(b.coeffs):
            rem[j + i] -= head * bc
        rem[i + db] = 0
    return IntPolynomial(rem)


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Greatest common divisor in Z[t], content included.

    The result carries a positive leading coefficient (gcd of the contents
    for the constant case); ``poly_gcd(0, 0)`` is the zero polynomial.
    """
    if a.is_zero and b.is_zero:
        return IntPolynomial()
    if a.is_zero:
        a, b = b, a
    if b.is_zero:
        return a if a.coeffs[-1] > 0 else -a
    c = _int_gcd(a.content(), b.content())
    a = a.primitive_part()
    b = b.primitive_part()
    while not b.is_zero:
        r = _pseudo_rem(a, b).primitive_part()
        a, b = b, r
    if a.coeffs[-1] < 0:
        a = -a
    return a * c


class TruncSeries:
    """Power series truncated at an inclusive degree bound.

    Exactly ``bound + 1`` integer coefficients are stored; trailing zeros are
    kept so that two truncations compare positionally.
    """

    __slots__ = ("_coeffs", "_bound")

    def __init__(self, coeffs: Iterable[int], bound: int | None = None):
        cs = [int(c) for c in coeffs]
        if bound is None:
            if not cs:
                raise ValueError("empty coefficient list needs an explicit bound")
            bound = len(cs) - 1
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        if len(cs) > bound + 1:
            raise ValueError(f"{len(cs)} coefficients exceed bound {bound}")
        cs.extend([0] * (bound + 1 - len(cs)))
        self._coeffs: tuple[int, ...] = tuple(cs)
        self._bound = bound

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def bound(self) -> int:
        return self._bound

    def __getitem__(self, i: int) -> int:
        return self._coeffs[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._coeffs)

    def __len__(self) -> int:
        return self._bound + 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._bound == other._bound and self._coeffs == other._coeffs

    def __repr__(self) -> str:
        return f"TruncSeries({list(self._coeffs)})"


class RationalGF:
    """Ratio of integer polynomials, expandable as a power series at t = 0.

    Every value is canonical: the constructor divides out the gcd, so
    numerator and denominator are coprime over Z (content included), and
    fixes the sign so the denominator is positive at t = 0.  A zero
    numerator gets denominator 1.  One rational function therefore has one
    representation, ``==`` compares numerator and denominator componentwise,
    and values hash.  Values are immutable.
    """

    __slots__ = ("_num", "_den")

    def __init__(
        self,
        num: IntPolynomial | int,
        den: IntPolynomial | int = IntPolynomial((1,)),
    ):
        num = _as_poly(num)
        den = _as_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("numerator and denominator must be IntPolynomial or int")
        if den.is_zero:
            raise ZeroDenominatorError("denominator is the zero polynomial")
        # Cancel before vetting den(0): a quotient such as t^2/(t - t^2)
        # has a denominator vanishing at 0 that cancels to t/(1 - t).  Over
        # den = 1 there is nothing to cancel, so polynomials skip the gcd.
        if num.is_zero:
            den = IntPolynomial((1,))
        elif den != 1:
            g = poly_gcd(num, den)
            if g.degree > 0 or g.constant != 1:
                num = num.divexact(g)
                den = den.divexact(g)
        if den.constant == 0:
            raise NonUnitConstantError(
                "denominator has zero constant term; no power-series expansion"
            )
        if den.constant < 0:
            num, den = -num, -den
        self._num = num
        self._den = den

    @classmethod
    def from_coeffs(
        cls, num: Sequence[int], den: Sequence[int] = (1,)
    ) -> RationalGF:
        """Build from ascending coefficient lists."""
        return cls(IntPolynomial(num), IntPolynomial(den))

    @property
    def num(self) -> IntPolynomial:
        return self._num

    @property
    def den(self) -> IntPolynomial:
        return self._den

    def normalized(self) -> RationalGF:
        """Return self, which the constructor has already reduced.

        Kept only because the benchmark's tracer wraps this method by name.
        """
        return self

    def __eq__(self, other: object) -> bool:
        other = _as_ratgf(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __neg__(self) -> RationalGF:
        return RationalGF(-self._num, self._den)

    def __add__(self, other: RationalGF | IntPolynomial | int) -> RationalGF:
        other = _as_ratgf(other)
        if other is NotImplemented:
            return NotImplemented
        num = self._num * other._den + other._num * self._den
        return RationalGF(num, self._den * other._den)

    __radd__ = __add__

    def __sub__(self, other: RationalGF | IntPolynomial | int) -> RationalGF:
        other = _as_ratgf(other)
        if other is NotImplemented:
            return NotImplemented
        num = self._num * other._den - other._num * self._den
        return RationalGF(num, self._den * other._den)

    def __rsub__(self, other: RationalGF | IntPolynomial | int) -> RationalGF:
        other = _as_ratgf(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: RationalGF | IntPolynomial | int) -> RationalGF:
        other = _as_ratgf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalGF(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalGF | IntPolynomial | int) -> RationalGF:
        other = _as_ratgf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalGF(self._num * other._den, self._den * other._num)

    def __rtruediv__(self, other: RationalGF | IntPolynomial | int) -> RationalGF:
        other = _as_ratgf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def expand(self, bound: int) -> TruncSeries:
        """Power-series coefficients a_0..a_bound, exactly.

        Solves den * a = num degree by degree; each step divides by den(0)
        and raises :class:`NonIntegerSeriesError` if that division has a
        remainder (the true coefficient is then a non-integer rational).
        """
        if bound < 0:
            raise ValueError("expansion bound must be nonnegative")
        d0 = self._den.constant
        dcs = self._den.coeffs
        out: list[int] = []
        for q in range(bound + 1):
            acc = self._num[q]
            for k in range(1, min(q, len(dcs) - 1) + 1):
                acc -= dcs[k] * out[q - k]
            coeff, rem = divmod(acc, d0)
            if rem:
                raise NonIntegerSeriesError(
                    f"coefficient of t^{q} is not an integer"
                )
            out.append(coeff)
        return TruncSeries(out)

    def __str__(self) -> str:
        if self._den == IntPolynomial((1,)):
            return str(self._num)
        return f"({self._num})/({self._den})"

    def __repr__(self) -> str:
        return f"RationalGF({self._num!r}, {self._den!r})"


def _as_ratgf(value: object) -> RationalGF:
    if isinstance(value, RationalGF):
        return value
    if isinstance(value, (IntPolynomial, int)):
        return RationalGF(value)
    return NotImplemented


#: The zero and one functions and the bare indeterminate, for building formulas.
ZERO = RationalGF(IntPolynomial())
ONE = RationalGF(IntPolynomial((1,)))
T = RationalGF(IntPolynomial((0, 1)))
