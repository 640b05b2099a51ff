"""Closed-form loop-space series, Euler series, and the collapse identity."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopspace import gfcore
from loopspace.errors import (
    HypothesisViolation,
    PathConnectednessViolation,
    ZeroDenominatorError,
)
from loopspace.formulas import (
    _tensor_series,
    bott_samelson_series,
    bousfield_curtis_series,
    collapse_series,
    euler_series_e1,
    euler_series_einf,
    loop_series,
)
from loopspace.gfcore import ONE, IntPolynomial, RationalGF, T, ZERO
from loopspace.spaces import (
    PairInclusion,
    SpaceProfile,
    cone,
    point,
    projective,
    sphere,
    suspend,
    union_series,
    wedge,
)
from rational_reference import div, sub


def random_connected_profile(rng, name="Y", diagonal_null=False):
    """Polynomial Betti series with zero constant term, entries 0..3, degree <= 5."""
    coeffs = [0] + [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
    if not any(coeffs):
        coeffs[1] = 1
    return SpaceProfile(name, RationalGF.from_coeffs(coeffs), diagonal_null=diagonal_null)


# ---------------------------------------------------------- tensor series

COEFFS = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5)


def outcome(build):
    """The value build() returns, or the class of its zero-denominator error."""
    try:
        return build()
    except ZeroDenominatorError as exc:  # NonUnitConstantError included
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(
    num=COEFFS,
    den=COEFFS.filter(lambda cs: cs[0] != 0),
    c=st.sampled_from([IntPolynomial((1,)), IntPolynomial((0, 1)), IntPolynomial((1, -1))]),
)
def test_tensor_series_matches_division(num, den, c):
    # _tensor_series takes num/den as given, in lowest terms or not; the
    # reference divides the reduced value.
    p = RationalGF.from_coeffs(num, den)
    raw = (IntPolynomial(num), IntPolynomial(den))
    reference = outcome(lambda: div(p, sub(RationalGF(c), p)))
    assert outcome(lambda: _tensor_series(*raw, c)) == reference


def gcd_calls(monkeypatch, build):
    """How many times build() calls gfcore._cancel, where RationalGF reduces."""
    calls = []
    real = gfcore._cancel

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(gfcore, "_cancel", counting)
        build()
    return len(calls)


@pytest.mark.parametrize(
    "sub, ambient",
    [
        (sphere(1), sphere(2)),
        (wedge(sphere(1), suspend(projective(math.inf))), wedge(projective(math.inf), sphere(3))),
        (
            SpaceProfile("A", RationalGF.from_coeffs([0, 2, 1], [3, -1]), diagonal_null=True),
            SpaceProfile("Y", RationalGF.from_coeffs([0, 1, 0, 2], [2, -3, 1])),
        ),
    ],
)
def test_each_closed_form_reduces_once(monkeypatch, sub, ambient):
    pair = PairInclusion(sub=sub, ambient=ambient, mono_in_homology=True)
    union = union_series(pair)
    assert gcd_calls(monkeypatch, lambda: loop_series(pair)) == 1
    assert gcd_calls(monkeypatch, lambda: union_series(pair)) == 1
    assert gcd_calls(monkeypatch, lambda: euler_series_e1(union)) == 1


# Series with den(0) != 0 and no terms below t^low, as reduced values.
def series_from(low):
    return st.builds(
        lambda num, den: RationalGF.from_coeffs([0] * low + num, den),
        COEFFS,
        COEFFS.filter(lambda cs: cs[0] != 0),
    )


@settings(max_examples=200, deadline=None)
@given(y=series_from(1), a=series_from(1), p=series_from(2))
def test_one_fraction_forms_match_the_composed_operators(y, a, p):
    pair = PairInclusion(
        sub=SpaceProfile("A", a, diagonal_null=True),
        ambient=SpaceProfile("Y", y),
        mono_in_homology=True,
    )
    one_minus_t = sub(ONE, T)
    n = one_minus_t * y + T * a
    assert outcome(lambda: loop_series(pair)) == outcome(lambda: div(n, sub(one_minus_t, n)))
    t_sq_over_1mt = RationalGF(IntPolynomial((0, 0, 1)), IntPolynomial((1, -1)))
    assert union_series(pair) == T * y + t_sq_over_1mt * a
    assert outcome(lambda: euler_series_e1(p)) == outcome(lambda: div(T, sub(T, p)))


# ----------------------------------------------------------- bott_samelson


def test_bott_samelson_spheres():
    assert bott_samelson_series(sphere(1)) == RationalGF.from_coeffs([0, 1], [1, -1])
    assert bott_samelson_series(sphere(2)) == RationalGF.from_coeffs(
        [0, 0, 1], [1, 0, -1]
    )


def test_bott_samelson_wedge():
    got = bott_samelson_series(wedge(sphere(1), sphere(2)))
    assert got == RationalGF.from_coeffs([0, 1, 1], [1, -1, -1])


def test_bott_samelson_requires_path_connected():
    disconnected = SpaceProfile("two points", RationalGF.from_coeffs([1]))
    with pytest.raises(PathConnectednessViolation):
        bott_samelson_series(disconnected)


# -------------------------------------------------------- bousfield_curtis


def test_bousfield_curtis_two_sphere():
    assert bousfield_curtis_series(sphere(2)) == RationalGF.from_coeffs([0, 1], [1, -1])


def test_bousfield_curtis_on_suspension_matches_bott_samelson():
    y = wedge(sphere(1), sphere(2))
    assert bousfield_curtis_series(suspend(y)) == bott_samelson_series(y)


def test_bousfield_curtis_rejects_circle():
    with pytest.raises(HypothesisViolation):
        bousfield_curtis_series(sphere(1))


def test_bousfield_curtis_requires_diagonal_null():
    x = SpaceProfile("X", RationalGF.from_coeffs([0, 0, 1]), diagonal_null=False)
    with pytest.raises(HypothesisViolation):
        bousfield_curtis_series(x)


# ------------------------------------------------------------- loop_series


def test_loop_series_circle_in_two_sphere():
    pair = PairInclusion(sub=sphere(1), ambient=sphere(2))
    got = loop_series(pair)
    assert got == RationalGF.from_coeffs([0, 0, 2, -1], [1, -1, -2, 1])
    assert got == sub(RationalGF.from_coeffs([1, -1], [1, -1, -2, 1]), ONE)


def test_loop_series_point_sub_is_bott_samelson():
    for ambient in (sphere(1), sphere(3), wedge(sphere(1), sphere(2))):
        pair = PairInclusion(sub=point(), ambient=ambient)
        assert loop_series(pair) == bott_samelson_series(ambient)


def test_loop_series_identity_inclusion():
    pair = PairInclusion(sub=sphere(1), ambient=sphere(1))
    got = loop_series(pair)
    assert got == RationalGF.from_coeffs([0, 1], [1, -2])
    assert got.expand(6).coeffs == (0, 1, 2, 4, 8, 16, 32)


def test_loop_series_contractible_ambient():
    pair = PairInclusion(sub=sphere(1), ambient=cone(sphere(1)))
    assert loop_series(pair) == RationalGF.from_coeffs([0, 0, 1], [1, -1, -1])


def test_loop_series_hypothesis_gates():
    disconnected = SpaceProfile("two points", RationalGF.from_coeffs([1]))
    with pytest.raises(PathConnectednessViolation):
        loop_series(PairInclusion(sub=sphere(1), ambient=disconnected))
    with pytest.raises(HypothesisViolation):
        loop_series(PairInclusion(sub=projective(2), ambient=sphere(2)))


def test_loop_series_specialization_point_sub_randomized():
    rng = random.Random(101)
    for _ in range(10):
        y = random_connected_profile(rng)
        pair = PairInclusion(sub=point(), ambient=y)
        assert loop_series(pair) == bott_samelson_series(y)


def test_loop_series_specialization_identity_inclusion_randomized():
    rng = random.Random(102)
    for _ in range(10):
        a = random_connected_profile(rng, name="A", diagonal_null=True)
        pair = PairInclusion(sub=a, ambient=a)
        assert loop_series(pair) == div(a.series, sub(sub(ONE, T), a.series))


def test_loop_series_specialization_contractible_ambient_randomized():
    rng = random.Random(103)
    for _ in range(10):
        a = random_connected_profile(rng, name="A", diagonal_null=True)
        pair = PairInclusion(sub=a, ambient=cone(a))
        assert loop_series(pair) == div(T * a.series, sub(sub(ONE, T), T * a.series))


def test_loop_series_nonnegative_coefficients():
    pairs = [
        PairInclusion(sub=point(), ambient=sphere(1)),
        PairInclusion(sub=sphere(1), ambient=sphere(2)),
        PairInclusion(sub=sphere(2), ambient=sphere(3)),
        PairInclusion(sub=sphere(1), ambient=wedge(sphere(1), sphere(2))),
        PairInclusion(sub=sphere(1), ambient=cone(sphere(1))),
        PairInclusion(sub=sphere(1), ambient=projective(math.inf)),
    ]
    for pair in pairs:
        assert all(c >= 0 for c in loop_series(pair).expand(20))


# ------------------------------------------------------------ Euler series


def test_euler_e1_values():
    assert euler_series_e1(RationalGF.from_coeffs([0, 0, 1])) == RationalGF.from_coeffs(
        [1], [1, -1]
    )
    assert euler_series_e1(ZERO) == ONE


def test_euler_e1_of_union_series():
    pair = PairInclusion(sub=sphere(1), ambient=sphere(2), mono_in_homology=True)
    got = euler_series_e1(union_series(pair))
    assert got == RationalGF.from_coeffs([1, -1], [1, -1, -2, 1])


def test_euler_e1_requires_simply_connected_series():
    with pytest.raises(HypothesisViolation):
        euler_series_e1(T)
    with pytest.raises(HypothesisViolation):
        euler_series_e1(ONE)


def test_euler_einf_values():
    assert euler_series_einf(ZERO) == ONE
    assert euler_series_einf(
        RationalGF.from_coeffs([0, 0, 2, -1], [1, -1, -2, 1])
    ) == RationalGF.from_coeffs([1, -1], [1, -1, -2, 1])
    assert euler_series_einf(RationalGF.from_coeffs([0, 1], [1, -1])) == (
        RationalGF.from_coeffs([1], [1, -1])
    )


# --------------------------------------------------------- collapse_series


def collapses(pair):
    e1, einf = collapse_series(pair)
    return e1 == einf


def test_collapse_check_named_pairs():
    assert collapses(
        PairInclusion(sub=point(), ambient=sphere(1), mono_in_homology=True)
    )
    assert collapses(
        PairInclusion(sub=sphere(1), ambient=sphere(1), mono_in_homology=True)
    )
    assert collapses(
        PairInclusion(
            sub=sphere(2), ambient=wedge(sphere(2), sphere(3)), mono_in_homology=True
        )
    )
    # S^1 in S^1: the union's series is t*t + t^2/(1-t)*t = t^2/(1-t), so
    # E1 = t/(t - t^2/(1-t)) = (1-t)/(1-2t) in lowest terms
    e1, _ = collapse_series(PairInclusion(sub=sphere(1), ambient=sphere(1), mono_in_homology=True))
    assert (e1.num.coeffs, e1.den.coeffs) == ((1, -1), (1, -2))


def test_collapse_check_requires_mono_flag():
    with pytest.raises(HypothesisViolation):
        collapse_series(PairInclusion(sub=sphere(1), ambient=sphere(2)))


def test_collapse_check_randomized_valid_pairs():
    rng = random.Random(104)
    for _ in range(5):
        a = random_connected_profile(rng, name="A", diagonal_null=True)
        rest = random_connected_profile(rng, name="W")
        ambient = wedge(a, rest)  # the sub really does inject in homology
        pair = PairInclusion(sub=a, ambient=ambient, mono_in_homology=True)
        assert collapses(pair)


# ------------------------------------------------- suspension compatibility


def test_suspension_compatibility_randomized():
    rng = random.Random(105)
    for _ in range(10):
        y = random_connected_profile(rng)
        assert bousfield_curtis_series(suspend(y)) == bott_samelson_series(y)
