"""Exact polynomial and rational generating function arithmetic.

Everything here is big-integer exact: polynomials carry arbitrary-precision
signed coefficients, rational functions are numerator/denominator pairs of
such polynomials reduced to lowest terms once, when they are built, and
series expansion is an integer linear recurrence driven by the denominator.
The recurrence also runs over exact ``decimal.Decimal`` values, whose
``str()`` takes time linear in their length where an int's is quadratic;
a context that traps every rounding keeps them integers.  No floats
anywhere.  The surface is what the library calls: an int is
accepted only on the right of a polynomial operator and nowhere in RationalGF.

The reduction's gcd is found by the heuristic GCDHEU alone, which packs
both polynomials into integers for one C-level ``math.gcd``.  Its guess
stands only once exact division shows that it divides both inputs, and
those quotients are the reduced fraction; a rejected guess is tried again
at a larger evaluation point, and some point is always accepted.
"""

from __future__ import annotations

import decimal
import operator
from decimal import Decimal
from math import gcd as _int_gcd
from typing import Iterable, Iterator, Sequence, TypeVar

from .errors import (
    NonIntegerSeriesError,
    NonUnitConstantError,
    ZeroDenominatorError,
)


class IntPolynomial:
    """Immutable integer polynomial in one indeterminate t.

    Coefficients are ints, refused with TypeError otherwise, and are stored
    ascending by degree with no trailing zeros; the zero polynomial stores
    the empty tuple.  ``p[i]`` reads the coefficient of t^i and is 0 beyond
    the degree.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        # operator.index refuses floats, strings, Decimals and Fractions
        # instead of truncating or parsing them; bools count as 0 and 1.
        cs = list(map(operator.index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def monomial(cls, degree: int) -> IntPolynomial:
        """Return t^degree."""
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls([0] * degree + [1])

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

    def __sub__(self, other: IntPolynomial | int) -> IntPolynomial:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: IntPolynomial | int) -> IntPolynomial:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        # The shorter factor drives the outer loop, which skips its zeros.
        outer, inner = sorted((self._coeffs, other._coeffs), key=len)
        out = [0] * (len(outer) + len(inner) - 1)
        for i, a in enumerate(outer):
            if a:
                for j, b in enumerate(inner, i):
                    out[j] += a * b
        return IntPolynomial(out)

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
        return _int_gcd(*self._coeffs)

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
        *low, lead = divisor._coeffs
        dd = len(low)
        qlen = len(rem) - dd
        if qlen <= 0:
            raise ArithmeticError("division is not exact")
        quot = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            # rem[i + dd] is consumed here and never read again.
            q, r = divmod(rem[i + dd], lead)
            if r:
                raise ArithmeticError("division is not exact")
            quot[i] = q
            if q:
                for j, dc in enumerate(low, i):
                    rem[j] -= q * dc
        if any(rem[:dd]):
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


def _heuristic_gcd(a: IntPolynomial, b: IntPolynomial) -> tuple[IntPolynomial, ...]:
    """(h, a/h, b/h) by GCDHEU for primitive a and b of degree >= 1, h their gcd
    with a positive leading coefficient.

    xi grows until exact division accepts, and that happens.  Write
    a = h * a' and b = h * b'.  The integer gcd of a(xi) and b(xi) is then
    |h(xi)| * g, and g divides Res(a', b') != 0, which is u * a' + v * b'
    for some u and v in Z[t].  So once xi > 2 * |Res(a', b')| * |h|, with
    |h| the largest coefficient size of h, the digits read back are
    g * h, whose primitive part is h.  A value is zero only at one of the
    finitely many roots of a and b, and those evaluation points are skipped.
    """
    norm = min(max(map(abs, a.coeffs)), max(map(abs, b.coeffs)))
    # xi = 2^k > 2 * norm + 2 is all the acceptance theorem needs; the wider
    # margin keeps small inputs off small values, which often share a stray factor.
    k = (2 * norm + 29).bit_length()
    while True:
        va = vb = 0
        for c in reversed(a.coeffs):
            va = (va << k) + c
        for c in reversed(b.coeffs):
            vb = (vb << k) + c
        if va and vb:
            # The gcd's balanced base-xi digits, each in (-xi/2, xi/2].
            value, digits, mask, half = _int_gcd(va, vb), [], (1 << k) - 1, 1 << (k - 1)
            while value:
                d = value & mask
                if d > half:
                    d -= mask + 1
                digits.append(d)
                value = (value - d) >> k
            h = IntPolynomial(digits).primitive_part()
            if h.coeffs[-1] < 0:
                h = -h
            if h.degree == 0:
                return h, a, b
            try:
                return h, a.divexact(h), b.divexact(h)
            except ArithmeticError:
                pass
        # xi grows 2.4 to 4 times xi^(1/4); Geddes et al. take 2.73 * xi^(1/4).
        k += k // 4 + 2


def _cancel(a: IntPolynomial, b: IntPolynomial) -> tuple[IntPolynomial, ...]:
    """(g, a/g, b/g) with g = poly_gcd(a, b), for nonzero a and b.

    GCDHEU's accepting divisions give the quotients, scaled by a content
    ratio where the two contents differ, so nothing is divided twice.
    """
    pa, pb = a.primitive_part(), b.primitive_part()
    ca, cb = a.coeffs[-1] // pa.coeffs[-1], b.coeffs[-1] // pb.coeffs[-1]
    c = _int_gcd(ca, cb)
    h, qa, qb = IntPolynomial((1,)), pa, pb
    if a.degree > 0 and b.degree > 0:
        h, qa, qb = _heuristic_gcd(pa, pb)
    if ca != c:
        qa = qa * (ca // c)
    if cb != c:
        qb = qb * (cb // c)
    return (h if c == 1 else h * c), qa, qb


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Greatest common divisor in Z[t], content included.

    The result carries a positive leading coefficient (gcd of the contents
    for the constant case); ``poly_gcd(0, b)`` is b with its sign made so,
    and ``poly_gcd(0, 0)`` is the zero polynomial.

    Nonconstant inputs go to GCDHEU (Char, Geddes and Gonnet 1989; Geddes,
    Czapor and Labahn, *Algorithms for Computer Algebra*, 1992, section
    7.7).  With |p| the largest coefficient size of p's primitive part, it
    packs both primitive parts, by shifts and adds, into their values at
    xi = 2^k, k the bit length of 2 * min(|a|, |b|) + 29, and reads the
    balanced base-xi digits of the two values' ``math.gcd`` back, by masks
    and shifts, as a polynomial h.  h is only a guess until exact division
    shows that its primitive part divides both inputs; for xi >
    2 * min(|a|, |b|) + 2 such a divisor is the gcd.  Otherwise k grows by
    about a quarter and GCDHEU tries again; ``_heuristic_gcd`` says why
    some try is accepted.  This is ``_cancel(a, b)[0]``, the reduction
    ``RationalGF`` makes.
    """
    if a.is_zero or b.is_zero:
        g = b if a.is_zero else a
        return g if g.is_zero or g.coeffs[-1] > 0 else -g
    return _cancel(a, b)[0]


#: Decimal arithmetic on integers of any length with every rounding trapped,
#: so a result is exact or raises.  ``expand_for_str`` computes in a copy of
#: it and then puts the caller's context back.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    rounding=decimal.ROUND_HALF_EVEN,
    Emin=decimal.MIN_EMIN,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
           decimal.Inexact, decimal.Rounded],
)

#: Degrees of expansion per recurrence step from which ``expand_for_str``
#: computes in Decimals.  Measured on Betti series of these spaces, which
#: grow by about a digit every three degrees (one CPU, Python 3.11): with a
#: few steps per degree, Decimals print in about half the time from degree
#: 1000-2000 on; with dozens of multiply-adds per degree, ints stay faster
#: up to degree 5000.  A Decimal expansion makes at most bound^2 / 150
#: steps, under 0.7 million at degree 10000.
_DECIMAL_DEGREES_PER_STEP = 150

_Number = TypeVar("_Number", int, Decimal)


def _expand(num: Sequence[_Number], den: Sequence[_Number], bound: int) -> list[_Number]:
    """a_0..a_bound with den * a = num, in num's and den's number type.

    Only den's nonzero taps are visited, and the -1 and +1 taps, common in
    Betti series, add or subtract without a multiply.  A Decimal run must be
    inside an exact context, as ``RationalGF.expand_for_str`` sets up.
    """
    if bound < 0:
        raise ValueError("expansion bound must be nonnegative")
    d0 = den[0]
    zero = d0 - d0
    nums = list(num[: bound + 1])
    nums += [zero] * (bound + 1 - len(nums))
    plus = [k for k, c in enumerate(den) if k and c == -1]
    minus = [k for k, c in enumerate(den) if k and c == 1]
    taps = [(k, c) for k, c in enumerate(den) if k and c not in (0, 1, -1)]
    divide = d0 != 1
    out: list[_Number] = []
    for q in range(bound + 1):
        acc = nums[q]
        for k in plus:
            if k > q:
                break
            acc += out[q - k]
        for k in minus:
            if k > q:
                break
            acc -= out[q - k]
        for k, c in taps:
            if k > q:
                break
            acc -= c * out[q - k]
        if divide:
            acc, rem = divmod(acc, d0)
            if rem:
                raise NonIntegerSeriesError(f"coefficient of t^{q} is not an integer")
        out.append(acc)
    return out


class TruncSeries:
    """The coefficients a_0..a_N of a power series, truncated at degree N.

    Built from exactly N + 1 integers; trailing zeros are kept, so two
    truncations compare positionally.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self._coeffs: tuple[int, ...] = tuple(coeffs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def __iter__(self) -> Iterator[int]:
        return iter(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        return f"TruncSeries({list(self._coeffs)})"


class RationalGF:
    """Ratio of integer polynomials, expandable as a power series at t = 0.

    Every value is canonical: the constructor divides out the gcd, so
    numerator and denominator are coprime over Z (content included), and
    fixes the sign so the denominator is positive at t = 0.  A zero
    numerator gets denominator 1.  One rational function therefore has one
    representation, ``==`` compares numerator and denominator componentwise,
    and values hash.  Values are immutable.  The two arithmetic operators,
    ``+`` and ``*``, take RationalGF operands only.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: IntPolynomial, den: IntPolynomial = IntPolynomial((1,))):
        if not (isinstance(num, IntPolynomial) and isinstance(den, IntPolynomial)):
            raise TypeError("numerator and denominator must be IntPolynomial")
        if den.is_zero:
            raise ZeroDenominatorError("denominator is the zero polynomial")
        # Cancel before vetting den(0): a quotient such as t^2/(t - t^2)
        # has a denominator vanishing at 0 that cancels to t/(1 - t).  Over
        # den = 1 there is nothing to cancel, so polynomials skip the gcd.
        if num.is_zero:
            den = IntPolynomial((1,))
        elif den != 1:
            _, num, den = _cancel(num, den)
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
        if not isinstance(other, RationalGF):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __add__(self, other: RationalGF) -> RationalGF:
        if not isinstance(other, RationalGF):
            return NotImplemented
        num = self._num * other._den + other._num * self._den
        return RationalGF(num, self._den * other._den)

    def __mul__(self, other: RationalGF) -> RationalGF:
        if not isinstance(other, RationalGF):
            return NotImplemented
        return RationalGF(self._num * other._num, self._den * other._den)

    def expand(self, bound: int) -> TruncSeries:
        """Power-series coefficients a_0..a_bound, exactly.

        Solves den * a = num degree by degree; each step divides by den(0)
        and raises :class:`NonIntegerSeriesError` if that division has a
        remainder (the true coefficient is then a non-integer rational).
        """
        return TruncSeries(_expand(self._num.coeffs, self._den.coeffs, bound))

    def expand_for_str(self, bound: int) -> Sequence[int] | list[Decimal]:
        """The coefficients of ``expand(bound)``, as ints or as integer-valued
        Decimals, whichever way their ``str()`` is ready sooner.

        ``str()`` of an int takes time quadratic in its length, of a Decimal
        linear, but a Decimal step of the recurrence costs more than an int
        one, up to 3.5 times for a multiply-add.  So Decimals are used once
        ``bound`` is at least ``_DECIMAL_DEGREES_PER_STEP`` times the steps
        each degree takes: one per nonzero tap of den, one for a division
        by den(0) != 1, and one for the rest.  Their recurrence runs in a
        context of its own; the caller's decimal context is neither read
        nor changed.
        """
        dcs = self._den.coeffs
        steps = sum(1 for c in dcs if c) + (dcs[0] != 1)
        if bound < _DECIMAL_DEGREES_PER_STEP * steps:
            return self.expand(bound).coeffs
        with decimal.localcontext(_EXACT):
            return _expand(
                [Decimal(c) for c in self._num.coeffs], [Decimal(c) for c in dcs], bound
            )

    def __str__(self) -> str:
        if self._den == IntPolynomial((1,)):
            return str(self._num)
        return f"({self._num})/({self._den})"

    def __repr__(self) -> str:
        return f"RationalGF({self._num!r}, {self._den!r})"


#: The zero and one functions and the bare indeterminate, for building formulas.
ZERO = RationalGF(IntPolynomial())
ONE = RationalGF(IntPolynomial((1,)))
T = RationalGF(IntPolynomial((0, 1)))
