"""Reference arithmetic and hard inputs for tests only.

``RationalGF`` has only the ``+`` and ``*`` the library uses.  ``sub`` and
``div`` build a - b and a / b as one fraction of the operands' numerators
and denominators and reduce it once, through the constructor, independently
of ``formulas._tensor_series``.

``_prs_gcd`` computes the gcd by the primitive polynomial remainder
sequence, with ``_pseudo_rem`` for its steps: pure Python and far slower
than the library's heuristic gcd, and sharing none of its code, so the
tests compare ``poly_gcd`` and ``gfcore._cancel`` against it.

``planted_roots_pair`` builds a pair whose gcd GCDHEU cannot read at its
first evaluation points.
"""

import random
from math import gcd as _int_gcd

from loopspace.gfcore import IntPolynomial, RationalGF


def sub(a: RationalGF, b: RationalGF) -> RationalGF:
    return RationalGF(a.num * b.den - b.num * a.den, a.den * b.den)


def div(a: RationalGF, b: RationalGF) -> RationalGF:
    return RationalGF(a.num * b.den, a.den * b.num)


def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Pseudo-remainder of a by b: rem(lc(b)^(deg a - deg b + 1) * a, b)."""
    da, db = a.degree, b.degree
    bcs = b.coeffs
    lead = bcs[-1]
    rem = list(a.coeffs)
    for i in range(da - db, -1, -1):
        head = rem[i + db]
        # Scale the live prefix so the head divides exactly; the entries
        # above i + db are already zero.
        for j in range(i + db):
            rem[j] *= lead
        for j in range(db):
            rem[i + j] -= head * bcs[j]
        rem[i + db] = 0
    return IntPolynomial(rem)


def _prs_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """poly_gcd by the primitive polynomial remainder sequence; same contract."""
    if a.is_zero and b.is_zero:
        return IntPolynomial()
    c = _int_gcd(a.content(), b.content())
    a = a.primitive_part()
    b = b.primitive_part()
    while not b.is_zero:
        r = _pseudo_rem(a, b).primitive_part()
        a, b = b, r
    if a.coeffs[-1] < 0:
        a = -a
    return a * c


def evaluation_exponents(b: IntPolynomial, count: int) -> list[int]:
    """The first count exponents k of the points 2^k at which GCDHEU evaluates
    b and a partner of larger norm: its schedule, restated."""
    k = (2 * max(map(abs, b.primitive_part().coeffs)) + 29).bit_length()
    exponents = []
    for _ in range(count):
        exponents.append(k)
        k += k // 4 + 2
    return exponents


def planted_roots_pair(
    digits: int, degrees: tuple[int, int, int], roots: int, seed: int = 23
) -> tuple[IntPolynomial, IntPolynomial]:
    """(a, b) = (t * g * f * (t - 2^k_1) ... (t - 2^k_roots), g * h).

    g, h and f are random, of the given degrees, with coefficients of up to
    that many decimal digits and nonzero ends; k_1, k_2, ... are the
    exponents GCDHEU tries for b, so a is zero at each of its first
    ``roots`` evaluation points.
    """
    rng = random.Random(seed)
    top = 10**digits - 1

    def draw(degree):
        cs = [rng.randint(-top, top) for _ in range(degree + 1)]
        cs[0], cs[-1] = cs[0] or 1, cs[-1] or 1
        return IntPolynomial(cs)

    g, h, f = map(draw, degrees)
    b = g * h
    a = IntPolynomial([0, 1]) * g * f
    for k in evaluation_exponents(b, roots):
        a = a * IntPolynomial([-(1 << k), 1])
    return a, b
