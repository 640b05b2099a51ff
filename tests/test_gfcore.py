"""Polynomial and rational generating-function arithmetic.

The independent checks here avoid the library's own algorithms: expansions
are verified by multiplying back against the denominator, the constructor's
reduction by cross-multiplying the raw coefficient lists, a monic Euclid gcd
over Fraction, the primitive remainder sequence of ``rational_reference``
and sympy's ``cancel``, and arithmetic by termwise Fraction series.
"""

import decimal
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopspace import gfcore, spaces
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
    poly_gcd,
)
from rational_reference import (
    _prs_gcd,
    _pseudo_rem,
    div,
    evaluation_exponents,
    planted_roots_pair,
    sub,
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
    assert IntPolynomial.monomial(0).coeffs == (1,)
    with pytest.raises(ValueError):
        IntPolynomial.monomial(-1)


@pytest.mark.parametrize("bad", [0.5, 1.9, decimal.Decimal(2), Fraction(3), "12", None])
def test_polynomial_refuses_non_integer_coefficients(bad):
    with pytest.raises(TypeError):
        IntPolynomial([0, bad])
    with pytest.raises(TypeError):
        RationalGF.from_coeffs([0, 1], [1, bad])


def test_polynomial_takes_bools_as_ints():
    coeffs = IntPolynomial([True, 2, False]).coeffs
    assert coeffs == (1, 2) and type(coeffs[0]) is int


def test_polynomial_arithmetic():
    p = IntPolynomial([1, 1])
    q = IntPolynomial([0, -1])
    assert (p + q).coeffs == (1,)
    assert (p - p).is_zero
    assert (p * q).coeffs == (0, -1, -1)
    assert (p * 0).is_zero
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


COEFFS = st.integers(-40, 40) | st.sampled_from([-(10**12), 10**12 + 1])
POLYS = st.lists(COEFFS, max_size=7).map(IntPolynomial)
CONTENTS = st.sampled_from([1, 1, -1, 2, -6, 35])


@settings(max_examples=300, deadline=None)
@given(f=POLYS, g=POLYS, h=POLYS, cf=CONTENTS, cg=CONTENTS)
def test_poly_gcd_equals_the_remainder_sequence(f, g, h, cf, cg):
    # zero, constants, negative leading coefficients and contents all occur
    a, b = f * h * cf, g * h * cg
    assert poly_gcd(a, b) == _prs_gcd(a, b)
    assert poly_gcd(b, a) == _prs_gcd(a, b)


@settings(max_examples=300, deadline=None)
@given(f=POLYS, g=POLYS, h=POLYS, cf=CONTENTS, cg=CONTENTS)
def test_cancel_returns_the_gcd_and_coprime_quotients(f, g, h, cf, cg):
    # a planted common factor h, contents, constants and negative leading
    # coefficients all occur; _cancel takes nonzero inputs only
    a, b = f * h * cf, g * h * cg
    assume(not a.is_zero and not b.is_zero)
    d, qa, qb = gfcore._cancel(a, b)
    assert d * qa == a and d * qb == b
    assert d == _prs_gcd(a, b)
    assert _prs_gcd(qa, qb) == IntPolynomial((1,))


@pytest.mark.parametrize("bits", [1, 2, 3, 5, 8, 13, 30, 31, 32, 62, 63, 64, 100, 1000])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_first_evaluation_point_exceeds_the_acceptance_bound(monkeypatch, bits, offset):
    # a = norm*t + 1 and b = norm*t - 1 are primitive with norm |a| = |b|,
    # and the first integer gcd the heuristic takes is of a(xi) and b(xi)
    norm = (1 << bits) + offset
    values = []
    real = gfcore._int_gcd
    monkeypatch.setattr(gfcore, "_int_gcd", lambda *args: values.append(args) or real(*args))
    gfcore._heuristic_gcd(IntPolynomial([1, norm]), IntPolynomial([-1, norm]))
    xi = (values[0][0] - 1) // norm
    assert values[0] == (norm * xi + 1, norm * xi - 1)
    assert xi & (xi - 1) == 0 and xi > 2 * norm + 2
    assert xi == 1 << (2 * norm + 29).bit_length()


@pytest.mark.parametrize(
    "digits, degrees, roots",
    # 18 roots of 1-digit factors are as many as fit in a catalog array
    [(1, (20, 43, 35), 6), (10, (6, 17, 14), 6), (1, (1, 1, 1), 18)],
    ids=["1-digit", "10-digit", "18-roots"],
)
def test_cancel_outlasts_evaluation_points_planted_as_roots(monkeypatch, digits, degrees, roots):
    # a vanishes at each of the first `roots` points GCDHEU evaluates at, so
    # no integer gcd is taken there, and six such points used to exhaust it
    a, b = planted_roots_pair(digits, degrees, roots)
    assert len(a.coeffs) * max(c.bit_length() for c in a.coeffs) <= spaces.MAX_CATALOG_BITS
    values = []
    real = gfcore._int_gcd
    monkeypatch.setattr(gfcore, "_int_gcd", lambda *args: values.append(args) or real(*args))
    d, qa, qb = gfcore._cancel(a, b)
    assert d * qa == a and d * qb == b
    assert d == _prs_gcd(a, b) and d.degree == degrees[0]
    assert _prs_gcd(qa, qb) == IntPolynomial((1,))
    # the evaluation that decided is past the planted points
    pa, pb = a.primitive_part(), b.primitive_part()

    def at(p, k):
        return sum(c << (k * i) for i, c in enumerate(p.coeffs))

    *planted, last = evaluation_exponents(b, roots + 1)
    assert all(at(pa, k) == 0 for k in planted)
    assert (at(pa, last), at(pb, last)) in values


CYCLOTOMIC_PAIRS = [
    # t^105 - 1 has coefficients of size 1, but one of its cyclotomic
    # factors has a coefficient -2; the gcds are t^70 + t^35 + 1 and t^21 - 1
    ([-1] + [0] * 104 + [1], [1] + [0] * 34 + [1] + [0] * 34 + [1]),
    ([-1] + [0] * 104 + [1], [-1] + [0] * 62 + [1]),
    ([1, 2, 1] * 5, [1, 0, -1] * 6),
]


def test_poly_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(61)

    def draw(degree, size):
        return [rng.randint(-size, size) for _ in range(degree + 1)]

    pairs = list(CYCLOTOMIC_PAIRS)
    for _ in range(150):
        h = draw(rng.randint(0, 6), rng.choice([1, 3, 1000]))
        f, g = draw(rng.randint(0, 8), 9), draw(rng.randint(0, 8), 9)
        pairs.append((poly_product(f, h), poly_product(g, h)))
    for a, b in pairs:
        expected = sympy.Poly(list(reversed(a)), t).gcd(sympy.Poly(list(reversed(b)), t))
        got = poly_gcd(IntPolynomial(a), IntPolynomial(b))
        assert list(reversed(got.coeffs or (0,))) == [int(c) for c in expected.all_coeffs()]


def test_pseudo_remainder():
    # t^3 + 1 = (t^2 - t + 1) * (t + 1), and by 2t + 1 with lc 2 scaled in
    # three times, 8 * (t^3 + 1) = (4t^2 - 2t + 1) * (2t + 1) + 7
    a = IntPolynomial([1, 0, 0, 1])
    assert _pseudo_rem(a, IntPolynomial([1, 1])).is_zero
    assert _pseudo_rem(a, IntPolynomial([1, 2])).coeffs == (7,)
    assert _pseudo_rem(IntPolynomial([5, 3]), IntPolynomial([1, 0, 1])).coeffs == (5, 3)


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
            poly_product(list(a.num.coeffs), list(b.den.coeffs)),
            poly_product(list(b.num.coeffs), list(a.den.coeffs)),
            fillvalue=0,
        )]
        raw_den = poly_product(list(a.den.coeffs), list(b.den.coeffs))
        assert_canonical(a + b, raw_sum, raw_den)
        assert_canonical(a * b, poly_product(list(a.num.coeffs), list(b.num.coeffs)), raw_den)


def test_constructor_cancels_before_vetting_constant_term():
    # t^2/(t - t^2): the denominator vanishes at 0 until t cancels
    t_over_1mt = RationalGF.from_coeffs([0, 1], [1, -1])
    assert RationalGF.from_coeffs([0, 0, 1], [0, 1, -1]) == t_over_1mt
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
    assert {RationalGF.from_coeffs([0, 2], [2, -2]): "RP^inf"}[
        RationalGF.from_coeffs([0, 1], [1, -1])
    ] == "RP^inf"


def test_arith_inverse_pair():
    a = RationalGF.from_coeffs([1], [1, -1])
    b = RationalGF.from_coeffs([1, -1])
    assert a * b == ONE


def test_arith_polynomial_addition():
    assert T + T * T == RationalGF.from_coeffs([0, 1, 1])


def test_arith_division_example():
    # geometric-series quotient collapsing to a single rational function
    a = RationalGF.from_coeffs([0, 1], [1, -1])
    result = div(a, sub(ONE, a))
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
    assert RationalGF(tsq.num, tminus.num) == RationalGF.from_coeffs([0, 1], [1, -1])


def test_division_with_uncancellable_zero_constant_raises():
    with pytest.raises(NonUnitConstantError):
        RationalGF(ONE.num, T.num)
    with pytest.raises(ZeroDenominatorError):
        RationalGF(ONE.num, ZERO.num)


def test_arith_takes_rational_operands_only():
    r = RationalGF.from_coeffs([0, 1], [1, -1])
    for other in (1, IntPolynomial((0, 1))):
        for op in (lambda a, b: a + b, lambda a, b: a * b):
            with pytest.raises(TypeError):
                op(r, other)
            with pytest.raises(TypeError):
                op(other, r)
    # The library subtracts and divides only inside one fraction's construction.
    for op in (lambda a, b: a - b, lambda a, b: a / b):
        with pytest.raises(TypeError):
            op(r, r)
    with pytest.raises(TypeError):
        RationalGF(1)


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
    lhs = sub(RationalGF.from_coeffs([1, -1], [1, -1, -2, 1]), ONE)
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


def _expansion_text(run):
    """The coefficients run() returns and their str(), or [] and the message it raised."""
    try:
        values = run()
    except NonIntegerSeriesError as exc:
        return [], str(exc)
    return values, [str(c) for c in values]


@settings(max_examples=300, deadline=None)
@given(
    num=st.lists(st.integers(-40, 40) | st.just(0), max_size=6),
    den=st.tuples(st.sampled_from([1, 1, 2, 3]), st.lists(st.integers(-4, 4), max_size=6)),
    bound=st.integers(0, 40),
)
# 1/(1 - t) + t^5/2: integer coefficients up to t^4, over den(0) = 2
@example(num=[2, 0, 0, 0, 0, 1, -1], den=(2, [-2]), bound=8)
def test_int_and_decimal_runs_of_the_recurrence_agree(num, den, bound):
    # Negative taps and coefficients, den(0) > 1 (which usually ends in a
    # non-integer coefficient) and zero numerators, against the Fraction
    # expansion.  The caller's context rounds to 3 digits with no traps;
    # the Decimal run must not use it.
    r = RationalGF.from_coeffs(num, [den[0], *den[1]])
    exact = frac_series(r.num.coeffs, r.den.coeffs, bound)
    first = next((q for q, c in enumerate(exact) if c.denominator != 1), None)
    expected = (
        [str(c.numerator) for c in exact] if first is None
        else f"coefficient of t^{first} is not an integer"
    )
    assert _expansion_text(lambda: r.expand(bound).coeffs)[1] == expected
    with pytest.MonkeyPatch.context() as mp, decimal.localcontext(
        decimal.Context(prec=3, traps=[])
    ) as caller:
        mp.setattr(gfcore, "_DECIMAL_DEGREES_PER_STEP", 0)
        decimals, got = _expansion_text(lambda: r.expand_for_str(bound))
        assert decimal.getcontext() is caller
        assert caller.prec == 3 and caller.rounding == decimal.ROUND_HALF_EVEN
        assert not any(caller.flags.values()) and not any(caller.traps.values())
    assert all(type(c) is decimal.Decimal for c in decimals)
    assert got == expected
    assert "-0" not in got


def test_expand_for_str_keeps_short_expansions_in_ints():
    # two nonzero taps: Decimals from bound 2 * _DECIMAL_DEGREES_PER_STEP
    r = RationalGF.from_coeffs([0, 1], [1, -2])
    first = 2 * gfcore._DECIMAL_DEGREES_PER_STEP
    assert r.expand_for_str(first - 1) == r.expand(first - 1).coeffs
    decimals = r.expand_for_str(first)
    assert all(type(c) is decimal.Decimal for c in decimals)
    assert [str(c) for c in decimals] == [str(c) for c in r.expand(first)]


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
