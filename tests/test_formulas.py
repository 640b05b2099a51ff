"""Closed-form loop-space series, Euler series, and the collapse identity."""

import math
import random

import pytest

from loopspace.errors import HypothesisViolation, PathConnectednessViolation
from loopspace.formulas import (
    bott_samelson_series,
    bousfield_curtis_series,
    collapse_series,
    euler_series_e1,
    euler_series_einf,
    loop_series,
)
from loopspace.gfcore import ONE, RationalGF, T, ZERO
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


def random_connected_profile(rng, name="Y", diagonal_null=False):
    """Polynomial Betti series with zero constant term, entries 0..3, degree <= 5."""
    coeffs = [0] + [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
    if not any(coeffs):
        coeffs[1] = 1
    return SpaceProfile(name, RationalGF.from_coeffs(coeffs), diagonal_null=diagonal_null)


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
    assert got == RationalGF.from_coeffs([1, -1], [1, -1, -2, 1]) - ONE


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
        assert loop_series(pair) == a.series / (ONE - T - a.series)


def test_loop_series_specialization_contractible_ambient_randomized():
    rng = random.Random(103)
    for _ in range(10):
        a = random_connected_profile(rng, name="A", diagonal_null=True)
        pair = PairInclusion(sub=a, ambient=cone(a))
        assert loop_series(pair) == (T * a.series) / (ONE - T - T * a.series)


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
