"""Polynomial and rational generating-function arithmetic.

The independent checks here avoid the library's own algorithms: expansions
are verified by multiplying back against the denominator, the constructor's
reduction by cross-multiplying the raw coefficient lists, a monic Euclid gcd
over Fraction and sympy's ``cancel``, and arithmetic by termwise Fraction
series.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from loopspace.errors import (
    NonIntegerSeriesError,
    NonUnitConstantError,
    ZeroDenominatorError,
)
from loopspace.gfcore import (
    ONE,
    T,
    ZERO,
    IntPolynomial,
    RationalGF,
    TruncSeries,
    poly_gcd,
)


# ---------------------------------------------------------------- oracles


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _frac_mod(a, b):
    """Remainder of a by b over Fraction; ascending coefficient lists."""
    a = list(a)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        f = a[-1] / b[-1]
        off = len(a) - len(b)
        for i, c in enumerate(b):
            a[off + i] -= f * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def gcd_degree(a, b):
    """Degree of the polynomial gcd over the rationals; -1 when both zero."""
    a = [Fraction(c) for c in _trim(a)]
    b = [Fraction(c) for c in _trim(b)]
    while b:
        a, b = b, _frac_mod(a, b)
    return len(a) - 1


def conv_prefix(a, b, bound):
    """Coefficients 0..bound of the product of two coefficient sequences."""
    out = [0] * (bound + 1)
    for i, c in enumerate(a):
        if i > bound:
            break
        if c == 0:
            continue
        for j, d in enumerate(b):
            if i + j > bound:
                break
            out[i + j] += c * d
    return out


def frac_series(num, den, bound):
    """Termwise expansion of num/den over Fraction."""
    out = []
    for q in range(bound + 1):
        acc = Fraction(num[q] if q < len(num) else 0)
        for k in range(1, q + 1):
            if k < len(den):
                acc -= Fraction(den[k]) * out[q - k]
        out.append(acc / den[0])
    return out


def assert_expansion_consistent(r, bound):
    """den * expand == num as a prefix: the defining recurrence, checked raw."""
    exp = list(r.expand(bound).coeffs)
    lhs = conv_prefix(list(r.den.coeffs), exp, bound)
    rhs = [r.num[q] for q in range(bound + 1)]
    assert lhs == rhs


def poly_product(a, b):
    """Full product of two ascending coefficient lists, trailing zeros trimmed."""
    if not a or not b:
        return []
    return _trim(conv_prefix(a, b, len(a) + len(b) - 2))


def assert_canonical(r, raw_num, raw_den):
    """r is raw_num/raw_den in lowest terms with a denominator positive at 0."""
    num = list(r.num.coeffs)
    den = list(r.den.coeffs)
    # same rational function, checked on the raw lists rather than by ==
    assert poly_product(num, list(raw_den)) == poly_product(list(raw_num), den)
    assert den[0] > 0
    if not num:
        assert den == [1]
        return
    assert gcd_degree(num, den) == 0  # coprime over Q
    assert math.gcd(*(num + den)) == 1  # no shared integer content


# ----------------------------------------------------------- IntPolynomial


def test_polynomial_trims_trailing_zeros():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0]).coeffs == ()
    assert IntPolynomial().is_zero


def test_polynomial_degree_and_indexing():
    p = IntPolynomial([3, 0, 5])
    assert p.degree == 2
    assert p[0] == 3 and p[1] == 0 and p[2] == 5
    assert p[99] == 0
    assert IntPolynomial().degree == -1
    with pytest.raises(IndexError):
        p[-1]


def test_monomial():
    assert IntPolynomial.monomial(3).coeffs == (0, 0, 0, 1)
    assert IntPolynomial.monomial(0, -2).coeffs == (-2,)
    with pytest.raises(ValueError):
        IntPolynomial.monomial(-1)


def test_polynomial_arithmetic():
    p = IntPolynomial([1, 1])
    q = IntPolynomial([0, -1])
    assert (p + q).coeffs == (1,)
    assert (p - p).is_zero
    assert (p * q).coeffs == (0, -1, -1)
    assert (p * 0).is_zero
    assert (2 * p).coeffs == (2, 2)
    assert (p**3).coeffs == (1, 3, 3, 1)
    assert (p**0).coeffs == (1,)
    with pytest.raises(ValueError):
        p**-1


def test_polynomial_equality_and_hash():
    assert IntPolynomial([1, 2]) == IntPolynomial((1, 2, 0))
    assert IntPolynomial([5]) == 5
    assert IntPolynomial() == 0
    assert hash(IntPolynomial([1, 2])) == hash(IntPolynomial([1, 2]))


def test_polynomial_content_and_primitive_part():
    p = IntPolynomial([2, -4, 6])
    assert p.content() == 2
    assert p.primitive_part().coeffs == (1, -2, 3)
    assert IntPolynomial().content() == 0
    assert IntPolynomial([-3]).content() == 3


def test_polynomial_divexact():
    num = IntPolynomial([1, -1]) * IntPolynomial([1, 1, 1])
    assert num.divexact(IntPolynomial([1, -1])).coeffs == (1, 1, 1)
    with pytest.raises(ArithmeticError):
        IntPolynomial([1, 1]).divexact(IntPolynomial([0, 1]))
    with pytest.raises(ZeroDivisionError):
        IntPolynomial([1]).divexact(IntPolynomial())


def test_polynomial_str():
    assert str(IntPolynomial([1, -1, -2, 1])) == "1 - t - 2t^2 + t^3"
    assert str(IntPolynomial([0, 1])) == "t"
    assert str(IntPolynomial()) == "0"
    assert str(IntPolynomial([0, 0, -3])) == "-3t^2"


def test_poly_gcd_against_fraction_oracle():
    rng = random.Random(11)
    for _ in range(40):
        g = IntPolynomial([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [1])
        u = IntPolynomial([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [rng.choice([1, 2])])
        v = IntPolynomial([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [rng.choice([1, 3])])
        a, b = g * u, g * v
        d = poly_gcd(a, b)
        assert d.coeffs[-1] > 0
        # divides both, and its degree matches the rational-gcd oracle
        a.divexact(d)
        b.divexact(d)
        assert d.degree == gcd_degree(a.coeffs, b.coeffs)


def test_poly_gcd_edge_cases():
    assert poly_gcd(IntPolynomial(), IntPolynomial()).is_zero
    assert poly_gcd(IntPolynomial([0, 2]), IntPolynomial()).coeffs == (0, 2)
    assert poly_gcd(IntPolynomial(), IntPolynomial([-4])).coeffs == (4,)
    assert poly_gcd(IntPolynomial([6]), IntPolynomial([4])).coeffs == (2,)


# ------------------------------------------------------------- TruncSeries


def test_truncseries_padding_and_len():
    s = TruncSeries([1, 2], bound=4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    assert len(s) == 5
    assert s.bound == 4
    assert list(s) == [1, 2, 0, 0, 0]


def test_truncseries_validation():
    with pytest.raises(ValueError):
        TruncSeries([], bound=None)
    with pytest.raises(ValueError):
        TruncSeries([1, 2], bound=0)
    with pytest.raises(ValueError):
        TruncSeries([1], bound=-1)


def test_truncseries_equality_requires_same_bound():
    assert TruncSeries([1, 0], bound=1) == TruncSeries([1], bound=1)
    assert TruncSeries([1], bound=1) != TruncSeries([1], bound=2)


# -------------------------------------------------------------- RationalGF


def test_constructor_rejects_bad_denominators():
    with pytest.raises(ZeroDenominatorError):
        RationalGF.from_coeffs([1], [0])
    with pytest.raises(NonUnitConstantError):
        RationalGF.from_coeffs([1], [0, 1])
    # the weaker failure is a subtype of the stronger one
    assert issubclass(NonUnitConstantError, ZeroDenominatorError)


def test_normalize_cancels_common_factor():
    r = RationalGF.from_coeffs([0, 2, -2], [2, -2])
    assert r.num.coeffs == (0, 1)
    assert r.den.coeffs == (1,)
    assert_canonical(r, [0, 2, -2], [2, -2])


def test_normalize_zero_numerator():
    r = RationalGF.from_coeffs([0], [1, -1])
    assert r.num.is_zero
    assert r.den.coeffs == (1,)
    assert_canonical(r, [0], [1, -1])


def test_normalize_leaves_coprime_input_unchanged():
    r = RationalGF.from_coeffs([0, 0, 2, -1], [1, -1, -2, 1])
    assert r.num.coeffs == (0, 0, 2, -1)
    assert r.den.coeffs == (1, -1, -2, 1)
    assert gcd_degree(r.num.coeffs, r.den.coeffs) == 0
    assert_canonical(r, [0, 0, 2, -1], [1, -1, -2, 1])


def test_normalize_fixes_denominator_sign():
    r = RationalGF.from_coeffs([0, 1], [-1, 1])
    assert r.den.constant > 0
    assert r.num.coeffs == (0, -1)
    assert_canonical(r, [0, 1], [-1, 1])


def test_normalized_is_canonical_randomized():
    rng = random.Random(23)
    for _ in range(50):
        num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
        den = [rng.choice([-3, -2, -1, 1, 2, 3])] + [
            rng.randint(-4, 4) for _ in range(rng.randint(0, 5))
        ]
        assert_canonical(RationalGF.from_coeffs(num, den), num, den)


def test_arithmetic_results_are_canonical():
    rng = random.Random(41)

    def rand_gf():
        num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        den = [rng.choice([-2, -1, 1, 2])] + [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]
        return RationalGF.from_coeffs(num, den)

    for _ in range(30):
        a, b = rand_gf(), rand_gf()
        raw_sum = [x + y for x, y in itertools.zip_longest(
            poly_product(list(a.num), list(b.den)), poly_product(list(b.num), list(a.den)),
            fillvalue=0,
        )]
        raw_den = poly_product(list(a.den), list(b.den))
        assert_canonical(a + b, raw_sum, raw_den)
        assert_canonical(a * b, poly_product(list(a.num), list(b.num)), raw_den)


def test_constructor_cancels_before_vetting_constant_term():
    # t^2/(t - t^2): the denominator vanishes at 0 until t cancels
    assert RationalGF.from_coeffs([0, 0, 1], [0, 1, -1]) == T / (ONE - T)
    with pytest.raises(NonUnitConstantError):
        RationalGF.from_coeffs([1], [0, 1])


def test_constructor_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(47)

    def expr(coeffs):
        return sum(c * t**i for i, c in enumerate(coeffs))

    def ascending(e):
        return [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(e, t).all_coeffs())]

    for _ in range(40):
        common = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [rng.choice([1, 2, -3])]
        num = poly_product(common, [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        den = poly_product(common, [rng.choice([-2, -1, 1, 3])] + [
            rng.randint(-3, 3) for _ in range(rng.randint(0, 3))
        ])
        if not den or den[0] == 0:
            continue
        sym_num, sym_den = map(ascending, sympy.fraction(sympy.cancel(expr(num) / expr(den))))
        # scale sympy's pair to coprime integers with a positive den(0)
        scale = math.lcm(*(c.denominator for c in sym_num + sym_den))
        ints = [int(c * scale) for c in sym_num + sym_den]
        scale = math.gcd(*ints) * (1 if sym_den[0] > 0 else -1)
        expected_num = _trim(c // scale for c in ints[: len(sym_num)])
        expected_den = [c // scale for c in ints[len(sym_num):]]
        r = RationalGF.from_coeffs(num, den)
        assert (list(r.num.coeffs), list(r.den.coeffs)) == (expected_num, expected_den)


def test_equal_values_hash_equal():
    assert hash(RationalGF.from_coeffs([0, 2, -2], [2, -2])) == hash(T)
    assert {T / (ONE - T): "RP^inf"}[RationalGF.from_coeffs([0, 1], [1, -1])] == "RP^inf"


def test_arith_inverse_pair():
    a = RationalGF.from_coeffs([1], [1, -1])
    b = RationalGF.from_coeffs([1, -1])
    assert a * b == ONE


def test_arith_polynomial_addition():
    assert T + T * T == RationalGF.from_coeffs([0, 1, 1])


def test_arith_division_example():
    # geometric-series quotient collapsing to a single rational function
    a = RationalGF.from_coeffs([0, 1], [1, -1])
    result = a / (ONE - a)
    expected = RationalGF.from_coeffs([0, 1], [1, -2])
    assert result == expected
    assert frac_series(result.num.coeffs, result.den.coeffs, 8) == frac_series(
        [0, 1], [1, -2], 8
    )


def test_division_cancels_vanishing_constant_term():
    # t^2 / (t - t^2) has a denominator vanishing at 0 until the common
    # factor t cancels; the quotient must come out as t/(1-t).
    tsq = RationalGF.from_coeffs([0, 0, 1])
    tminus = RationalGF.from_coeffs([0, 1, -1])
    assert (tsq / tminus) == RationalGF.from_coeffs([0, 1], [1, -1])


def test_division_with_uncancellable_zero_constant_raises():
    with pytest.raises(ZeroDenominatorError):
        ONE / T
    with pytest.raises(ZeroDenominatorError):
        ONE / ZERO


def test_arith_operand_coercion():
    r = RationalGF.from_coeffs([0, 1], [1, -1])
    assert 1 + r == RationalGF.from_coeffs([1], [1, -1])
    assert 1 - r == RationalGF.from_coeffs([1, -2], [1, -1])
    assert 2 * r == RationalGF.from_coeffs([0, 2], [1, -1])
    assert IntPolynomial((0, 1)) / r == RationalGF.from_coeffs([1, -1])


def test_expand_geometric():
    assert RationalGF.from_coeffs([1], [1, -1]).expand(4).coeffs == (1, 1, 1, 1, 1)


def test_expand_fibonacci_shift():
    r = RationalGF.from_coeffs([0, 1], [1, -1, -1])
    assert r.expand(6).coeffs == (0, 1, 1, 2, 3, 5, 8)
    assert_expansion_consistent(r, 6)


def test_expand_loop_space_sequence():
    r = RationalGF.from_coeffs([0, 0, 2, -1], [1, -1, -2, 1])
    assert r.expand(12).coeffs == (0, 0, 2, 1, 5, 5, 14, 19, 42, 66, 131, 221, 417)
    assert_expansion_consistent(r, 12)


def test_expand_rejects_non_integer_series():
    with pytest.raises(NonIntegerSeriesError):
        RationalGF.from_coeffs([0, 1], [2, -2]).expand(3)
    # an even numerator over the same denominator is fine
    assert RationalGF.from_coeffs([0, 2], [2, -2]).expand(3).coeffs == (0, 1, 1, 1)


def test_expand_rejects_negative_bound():
    with pytest.raises(ValueError):
        ONE.expand(-1)


def test_eq_difference_of_representatives():
    lhs = RationalGF.from_coeffs([1, -1], [1, -1, -2, 1]) - ONE
    rhs = RationalGF.from_coeffs([0, 0, 2, -1], [1, -1, -2, 1])
    assert lhs == rhs


def test_eq_distinguishes_different_functions():
    assert RationalGF.from_coeffs([0, 1], [1, -1]) != RationalGF.from_coeffs(
        [0, 1], [1, 0, -1]
    )


def test_eq_is_scaling_invariant():
    assert RationalGF.from_coeffs([0, 2, -2], [2, -2]) == T
    assert RationalGF.from_coeffs([0, 3], [3]) == RationalGF.from_coeffs([0, 1])


def test_ring_laws_randomized():
    rng = random.Random(7)

    def rand_gf():
        num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        den = [rng.choice([-2, -1, 1, 2, 3])] + [
            rng.randint(-2, 2) for _ in range(rng.randint(0, 3))
        ]
        return RationalGF.from_coeffs(num, den)

    for _ in range(30):
        a, b, c = rand_gf(), rand_gf(), rand_gf()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


def test_expansion_is_a_homomorphism():
    rng = random.Random(5)
    bound = 12

    def rand_expandable():
        num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        den = [rng.choice([-1, 1])] + [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]
        return RationalGF.from_coeffs(num, den)

    for _ in range(25):
        a, b = rand_expandable(), rand_expandable()
        ea, eb = list(a.expand(bound)), list(b.expand(bound))
        assert list((a + b).expand(bound)) == [x + y for x, y in zip(ea, eb)]
        assert list((a - b).expand(bound)) == [x - y for x, y in zip(ea, eb)]
        assert list((a * b).expand(bound)) == conv_prefix(ea, eb, bound)


def test_expansion_is_representative_independent():
    r = RationalGF.from_coeffs([0, 1], [1, -1, -1])
    scaled = RationalGF(r.num * -3, r.den * -3)
    assert scaled.expand(10) == r.expand(10)
    assert (scaled.num, scaled.den) == (r.num, r.den)


def test_polynomial_roundtrip_through_expansion():
    rng = random.Random(3)
    bound = 9
    for _ in range(20):
        coeffs = [0] + [rng.randint(-5, 5) for _ in range(rng.randint(0, bound))]
        p = IntPolynomial(coeffs)
        got = RationalGF(p).expand(bound).coeffs
        assert got == tuple(p[q] for q in range(bound + 1))


def test_randomized_expansion_multiplies_back():
    rng = random.Random(17)
    for _ in range(30):
        num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
        den = [rng.choice([-1, 1])] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))]
        assert_expansion_consistent(RationalGF.from_coeffs(num, den), 15)


def test_str_forms():
    assert str(RationalGF.from_coeffs([0, 1])) == "t"
    assert str(RationalGF.from_coeffs([0, 0, 2, -1], [1, -1, -2, 1])) == (
        "(2t^2 - t^3)/(1 - t - 2t^2 + t^3)"
    )
    assert str(ZERO) == "0"


def test_module_constants():
    assert ZERO == RationalGF.from_coeffs([0])
    assert ONE == RationalGF.from_coeffs([1])
    assert T == RationalGF.from_coeffs([0, 1])
