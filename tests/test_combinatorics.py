"""Binomial series, fat-diagonal Betti numbers, and the stagewise oracle.

``delta_betti_direct`` below is the reference for the diagonal computation:
it enumerates every multiindex pair with entries 1..q by raw cartesian
product and checks the two defining constraints verbatim, with no power
tables and no pruning.  The library's sums of truncated powers must match
it everywhere it is feasible to run.
"""

import ast
import functools
import itertools
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopspace import combinatorics, formulas, gfcore
from loopspace.combinatorics import (
    binomial_gf_check,
    fat_diagonal_betti,
    loop_series_oracle,
    smash_power_betti,
)
from loopspace.errors import HypothesisViolation, PathConnectednessViolation
from loopspace.gfcore import RationalGF
from loopspace.spaces import (
    PairInclusion,
    SpaceProfile,
    cone,
    point,
    projective,
    smash,
    sphere,
    suspend,
    wedge,
)


# ---------------------------------------------------------------- oracles


def binom_direct(n, k):
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    return num // math.factorial(k)


def delta_betti_direct(betti_y, betti_a, s, q):
    """Stage-s fat-diagonal Betti number in degree q by full enumeration.

    ``betti_y`` and ``betti_a`` are plain coefficient lists indexed by
    degree (entry 0 unused).  Dimensions never exceed q: each multiindex
    entry is at least 1 and the constraint caps the combined length at q.
    """
    if q == 0:
        return 0
    total = 0
    for d_lam in range(0, q + 1):
        for d_mu in range(0, q + 1):
            if not 2 <= d_lam + d_mu + 1 <= s:
                continue
            need = q - s + d_lam + d_mu + 1
            if need < 0:
                continue
            c = binom_direct(d_lam + d_mu, d_mu) * binom_direct(
                s - d_lam - d_mu - 1, d_mu - 1
            )
            if c == 0:
                continue
            for lam in itertools.product(range(1, q + 1), repeat=d_lam):
                for mu in itertools.product(range(1, q + 1), repeat=d_mu):
                    if sum(lam) + sum(mu) != need:
                        continue
                    term = c
                    for e in lam:
                        term *= betti_y[e]
                    for e in mu:
                        term *= betti_a[e]
                    total += term
    return total


def betti_list(profile, bound):
    return list(profile.betti(bound).coeffs)


PAIR_CIRCLE_IN_TWO_SPHERE = PairInclusion(sub=sphere(1), ambient=sphere(2))


# ------------------------------------------------------- binomial_gf_check


def test_binomial_gf_check_examples():
    assert binomial_gf_check(0, 10)
    assert binomial_gf_check(2, 10)
    assert binomial_gf_check(3, 15)
    assert binomial_gf_check(12, 5)  # every binom(n, 12) to degree 5 is 0


def test_binomial_gf_check_full_range():
    assert all(binomial_gf_check(k, 30) for k in range(9))


# ------------------------------------------------------- fat_diagonal_betti


def test_fat_diagonal_hand_table():
    pair = PAIR_CIRCLE_IN_TWO_SPHERE
    expected = {(2, 1): 1, (3, 2): 1, (3, 3): 2, (4, 3): 2}
    for s in range(1, 5):
        for q in range(0, 4):
            assert fat_diagonal_betti(pair, s, q) == expected.get((s, q), 0), (s, q)


def test_fat_diagonal_matches_direct_enumeration():
    pair = PAIR_CIRCLE_IN_TWO_SPHERE
    by, ba = betti_list(pair.ambient, 8), betti_list(pair.sub, 8)
    for s in range(1, 6):
        for q in range(0, 9):
            assert fat_diagonal_betti(pair, s, q) == delta_betti_direct(by, ba, s, q), (
                s,
                q,
            )


def test_fat_diagonal_matches_direct_enumeration_wedge_ambient():
    pair = PairInclusion(sub=sphere(1), ambient=wedge(sphere(1), sphere(2)))
    by, ba = betti_list(pair.ambient, 6), betti_list(pair.sub, 6)
    for s in range(1, 5):
        for q in range(0, 7):
            assert fat_diagonal_betti(pair, s, q) == delta_betti_direct(by, ba, s, q)


def test_fat_diagonal_doubling_under_wedged_subspace():
    # Replacing the subspace by its wedge square doubles each Betti factor,
    # so every term picks up 2^(dim mu); the direct enumeration with the
    # doubled coefficient list realizes exactly that weighting.
    base = PAIR_CIRCLE_IN_TWO_SPHERE
    doubled = PairInclusion(sub=wedge(sphere(1), sphere(1)), ambient=sphere(2))
    by = betti_list(base.ambient, 6)
    ba = betti_list(base.sub, 6)
    ba2 = betti_list(doubled.sub, 6)
    assert ba2 == [2 * c for c in ba]
    for s in range(1, 5):
        for q in range(0, 7):
            assert fat_diagonal_betti(doubled, s, q) == delta_betti_direct(by, ba2, s, q)


def test_fat_diagonal_vanishing():
    pair = PAIR_CIRCLE_IN_TWO_SPHERE
    for q in range(0, 8):
        assert fat_diagonal_betti(pair, 1, q) == 0
    for s in range(5, 9):  # s > q + 1
        assert fat_diagonal_betti(pair, s, 3) == 0
    assert fat_diagonal_betti(pair, 3, 0) == 0


def test_fat_diagonal_requires_diagonal_null_subspace():
    pair = PairInclusion(sub=projective(2), ambient=sphere(2))
    with pytest.raises(HypothesisViolation):
        fat_diagonal_betti(pair, 2, 2)


def test_fat_diagonal_rejects_bad_indices():
    pair = PAIR_CIRCLE_IN_TWO_SPHERE
    with pytest.raises(ValueError):
        fat_diagonal_betti(pair, 0, 2)
    with pytest.raises(ValueError):
        fat_diagonal_betti(pair, 2, -1)


# ------------------------------------------------------- smash_power_betti


def test_smash_power_values():
    assert smash_power_betti(sphere(2), 2, 4) == 1
    assert smash_power_betti(sphere(2), 2, 3) == 0
    assert smash_power_betti(wedge(sphere(1), sphere(2)), 2, 3) == 2
    assert smash_power_betti(sphere(2), 3, 2) == 0  # powers start in degree s
    assert smash_power_betti(projective(math.inf), 2, 4) == 3


def test_smash_power_requires_path_connected():
    disconnected = SpaceProfile("two points", RationalGF.from_coeffs([1]))
    with pytest.raises(PathConnectednessViolation):
        smash_power_betti(disconnected, 2, 2)


def test_smash_power_rejects_bad_indices():
    with pytest.raises(ValueError):
        smash_power_betti(sphere(2), 0, 2)
    with pytest.raises(ValueError):
        smash_power_betti(sphere(2), 1, -1)


# ------------------------------------------------------- loop_series_oracle


def test_oracle_prefixes():
    assert loop_series_oracle(PAIR_CIRCLE_IN_TWO_SPHERE, 4).coeffs == (0, 0, 2, 1, 5)
    loops_on_two_sphere = PairInclusion(sub=point(), ambient=sphere(1))
    assert loop_series_oracle(loops_on_two_sphere, 4).coeffs == (0, 1, 1, 1, 1)
    collapsed = PairInclusion(sub=sphere(1), ambient=cone(sphere(1)))
    assert loop_series_oracle(collapsed, 4).coeffs == (0, 0, 1, 1, 2)


def test_oracle_agrees_with_closed_form():
    pairs = [
        PairInclusion(sub=point(), ambient=sphere(1)),
        PairInclusion(sub=point(), ambient=sphere(2)),
        PairInclusion(sub=sphere(1), ambient=sphere(2)),
        PairInclusion(sub=sphere(2), ambient=sphere(3)),
        PairInclusion(sub=sphere(1), ambient=wedge(sphere(1), sphere(2))),
        PairInclusion(sub=sphere(1), ambient=cone(sphere(1))),
    ]
    for pair in pairs:
        oracle = loop_series_oracle(pair, 10)
        closed = formulas.loop_series(pair).expand(10)
        assert oracle == closed, (pair.sub.name, pair.ambient.name)
        assert all(c >= 0 for c in oracle)


def test_oracle_hypothesis_gates():
    disconnected = SpaceProfile("two points", RationalGF.from_coeffs([1]))
    with pytest.raises(PathConnectednessViolation):
        loop_series_oracle(PairInclusion(sub=sphere(1), ambient=disconnected), 4)
    with pytest.raises(HypothesisViolation):
        loop_series_oracle(PairInclusion(sub=projective(2), ambient=sphere(2)), 4)
    with pytest.raises(ValueError):
        loop_series_oracle(PAIR_CIRCLE_IN_TWO_SPHERE, -1)


@pytest.mark.parametrize("role", ["sub", "ambient"])
def test_oracle_refuses_a_negative_betti_series(role):
    # t^2 - t^3 is path-connected and may be declared diagonal-null, but its
    # coefficient of t^3 cannot be a Betti number
    negative = SpaceProfile("N", RationalGF.from_coeffs([0, 0, 1, -1]), diagonal_null=True)
    pair = PairInclusion(**{"sub": sphere(1), "ambient": sphere(2), role: negative})
    assert list(loop_series_oracle(pair, 2)) == list(formulas.loop_series(pair).expand(2))
    with pytest.raises(ValueError, match=r"N: series coefficient -1 of t\^3 is negative"):
        loop_series_oracle(pair, 3)


def test_oracle_reaches_degree_100_on_the_projective_pair():
    pair = PairInclusion(sub=wedge(sphere(1), sphere(1)), ambient=projective(math.inf))
    start = time.perf_counter()
    oracle = loop_series_oracle(pair, 100)
    elapsed = time.perf_counter() - start
    assert oracle == formulas.loop_series(pair).expand(100)
    assert elapsed < 10.0, f"oracle took {elapsed:.1f} s at degree 100"


def densest_pair():
    # README's densest verify pair: every degree of both series is occupied
    sub = functools.reduce(wedge, [sphere(1)] * 4 + [suspend(projective(math.inf))])
    ambient = functools.reduce(wedge, [projective(math.inf)] * 3 + [suspend(projective(math.inf))])
    return PairInclusion(sub=sub, ambient=ambient)


def test_oracle_agrees_with_closed_form_on_the_densest_pair_at_degree_200():
    pair = densest_pair()
    assert loop_series_oracle(pair, 200) == formulas.loop_series(pair).expand(200)


def test_oracle_needs_neither_the_closed_form_nor_fractions_nor_power_lists(monkeypatch):
    # The oracle reads its inputs only through SpaceProfile.betti: with the
    # closed form, every fraction reduction and the stage readers' power
    # lists all broken, it still counts the same numbers.
    pair = densest_pair()
    closed = formulas.loop_series(pair).expand(60)

    def broken(*args, **kwargs):
        raise AssertionError("the oracle reached a function it must not use")

    monkeypatch.setattr(formulas, "loop_series", broken)
    monkeypatch.setattr(formulas, "_tensor_series", broken)
    monkeypatch.setattr(gfcore, "_cancel", broken)
    monkeypatch.setattr(RationalGF, "__init__", broken)
    monkeypatch.setattr(combinatorics, "_betti_powers", broken)
    monkeypatch.setattr(math, "comb", broken)
    monkeypatch.setattr(combinatorics, "comb", broken)
    assert loop_series_oracle(pair, 60) == closed


def test_combinatorics_imports_nothing_from_formulas():
    tree = ast.parse(Path(combinatorics.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported |= {f"{node.module or ''}.{alias.name}" for alias in node.names}
    assert imported
    assert not any("formulas" in name.split(".") for name in imported), imported


@pytest.mark.parametrize("sub", [wedge(sphere(3), sphere(4)), smash(sphere(2), sphere(2))])
def test_oracle_agrees_with_closed_form_at_degree_80_for_a_subspace_of_valuation_above_1(sub):
    # P_A starts in degree 3 or 4, so P_A^j starts above 80 - j for every j
    # above 20 (or 16) of the 40 powers built: the oracle must skip them and
    # still count the rest
    ambient = wedge(projective(math.inf), suspend(projective(math.inf)))
    pair = PairInclusion(sub=sub, ambient=ambient)
    assert loop_series_oracle(pair, 80) == formulas.loop_series(pair).expand(80)


ATOMS = st.one_of(
    st.integers(min_value=1, max_value=4).map(sphere),
    st.just(projective(1)),
    st.just(projective(math.inf)),
    st.just(point()),
)

SPACES = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: wedge(*ab)),
        st.tuples(inner, inner).map(lambda ab: smash(*ab)),
        inner.map(suspend),
    ),
    max_leaves=4,
)


@settings(max_examples=60, deadline=None)
@given(
    sub=SPACES.filter(lambda space: space.diagonal_null),
    ambient=SPACES.filter(lambda space: space.series.num.constant == 0),
    bound=st.integers(min_value=0, max_value=12),
)
def test_oracle_matches_closed_form_on_random_pairs(sub, ambient, bound):
    pair = PairInclusion(sub=sub, ambient=ambient)
    assert loop_series_oracle(pair, bound) == formulas.loop_series(pair).expand(bound)


@settings(max_examples=60, deadline=None)
@given(
    sub=SPACES.filter(lambda space: space.diagonal_null),
    ambient=SPACES.filter(lambda space: space.series.num.constant == 0),
    bound=st.integers(min_value=0, max_value=10),
)
def test_oracle_is_the_sum_of_its_stage_readers(sub, ambient, bound):
    # the oracle regroups the stages' sums; the readers keep them stage by
    # stage: the smash power with its fat diagonal, one degree down, collapsed
    pair = PairInclusion(sub=sub, ambient=ambient)
    expected = [0] + [
        sum(
            smash_power_betti(pair.ambient, s, q) + fat_diagonal_betti(pair, s, q - 1)
            for s in range(1, q + 1)
        )
        for q in range(1, bound + 1)
    ]
    assert list(loop_series_oracle(pair, bound).coeffs) == expected
