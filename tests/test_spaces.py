"""Space profiles, constructors, the glued-union series, and the catalog."""

import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopspace.errors import HypothesisViolation
from loopspace.gfcore import IntPolynomial, RationalGF, T, TruncSeries
from loopspace.spaces import (
    MAX_DIMENSION,
    PairInclusion,
    SpaceProfile,
    cone,
    load_catalog,
    parse_catalog,
    point,
    projective,
    smash,
    sphere,
    suspend,
    union_series,
    wedge,
)


def test_sphere_series_and_flags():
    s = sphere(1)
    assert s.series == RationalGF.from_coeffs([0, 1])
    assert s.diagonal_null
    assert s.is_path_connected
    assert sphere(2).series == RationalGF.from_coeffs([0, 0, 1])
    assert sphere(3).betti(5).coeffs == (0, 0, 0, 1, 0, 0)


def test_sphere_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        sphere(0)
    with pytest.raises(ValueError):
        sphere(-2)


def test_dimensions_above_the_limit_are_refused():
    assert sphere(MAX_DIMENSION).series == RationalGF(IntPolynomial.monomial(MAX_DIMENSION))
    with pytest.raises(ValueError, match="between 1 and"):
        sphere(MAX_DIMENSION + 1)
    with pytest.raises(ValueError, match="between 1 and"):
        projective(99_999_999_999)  # refused before any coefficient list is built


def test_profiles_hash():
    assert hash(sphere(2)) == hash(sphere(2))
    seen = {sphere(2): "S^2", projective(math.inf): "RP^inf"}
    assert seen[sphere(2)] == "S^2"
    assert seen[projective(math.inf)] == "RP^inf"
    assert wedge(sphere(1), sphere(1)) in {wedge(sphere(1), sphere(1))}


def test_projective_line_is_the_circle():
    p1 = projective(1)
    s1 = sphere(1)
    assert p1.series == s1.series
    assert p1.diagonal_null == s1.diagonal_null
    assert p1.series.num.coeffs == s1.series.num.coeffs
    assert p1.series.den.coeffs == s1.series.den.coeffs


def test_projective_finite_and_infinite():
    assert projective(3).series == RationalGF.from_coeffs([0, 1, 1, 1])
    assert not projective(3).diagonal_null
    assert not projective(2).diagonal_null
    inf = projective(math.inf)
    assert inf.series == RationalGF.from_coeffs([0, 1], [1, -1])
    assert not inf.diagonal_null
    assert inf.betti(5).coeffs == (0, 1, 1, 1, 1, 1)


def test_projective_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        projective(0)
    with pytest.raises(ValueError):
        projective(-1)
    with pytest.raises(ValueError):
        projective(2.5)


def test_point_and_cone_are_trivial():
    assert point().series.num.is_zero
    assert point().diagonal_null
    c = cone(sphere(1))
    assert c.series.num.is_zero
    assert c.diagonal_null
    assert c.name == "cone(S^1)"


def test_wedge_adds_series():
    w = wedge(sphere(1), sphere(1))
    assert w.series == RationalGF.from_coeffs([0, 2])
    assert w.diagonal_null  # both factors null
    assert not wedge(sphere(1), projective(3)).diagonal_null


def test_smash_multiplies_series():
    sm = smash(sphere(1), sphere(2))
    assert sm.series == RationalGF.from_coeffs([0, 0, 0, 1])
    assert smash(sphere(1), projective(math.inf)).series == RationalGF.from_coeffs(
        [0, 0, 1], [1, -1]
    )
    # one null factor suffices
    assert smash(sphere(1), projective(3)).diagonal_null
    assert not smash(projective(2), projective(3)).diagonal_null


def test_suspend_shifts_degree():
    assert suspend(sphere(1)).series == RationalGF.from_coeffs([0, 0, 1])
    assert suspend(projective(math.inf)).series == RationalGF.from_coeffs(
        [0, 0, 1], [1, -1]
    )
    assert suspend(point()).series.num.is_zero
    # suspensions are declared diagonal-null even when the input is not
    assert suspend(projective(3)).diagonal_null


def test_diagonal_null_requires_path_connected():
    with pytest.raises(HypothesisViolation):
        SpaceProfile("bad", RationalGF.from_coeffs([1, 1]), diagonal_null=True)


def test_profile_is_path_connected():
    assert sphere(4).is_path_connected
    disconnected = SpaceProfile("two points", RationalGF.from_coeffs([1]))
    assert not disconnected.is_path_connected


def test_union_series_requires_mono_flag():
    pair = PairInclusion(sub=sphere(1), ambient=sphere(2))
    with pytest.raises(HypothesisViolation):
        union_series(pair)


def test_union_series_point_sub_is_suspension():
    pair = PairInclusion(sub=point(), ambient=sphere(1), mono_in_homology=True)
    assert union_series(pair) == RationalGF.from_coeffs([0, 0, 1])
    assert union_series(pair) == suspend(sphere(1)).series


def test_union_series_identity_inclusion():
    pair = PairInclusion(sub=sphere(1), ambient=sphere(1), mono_in_homology=True)
    got = union_series(pair)
    assert got == RationalGF.from_coeffs([0, 0, 1], [1, -1])
    assert got == smash(sphere(1), projective(math.inf)).series


def test_union_series_wedge_ambient():
    pair = PairInclusion(
        sub=sphere(2), ambient=wedge(sphere(2), sphere(3)), mono_in_homology=True
    )
    expected = RationalGF.from_coeffs([0, 0, 0, 1, 1]) + RationalGF.from_coeffs(
        [0, 0, 0, 0, 1], [1, -1]
    )
    assert union_series(pair) == expected


def test_union_series_of_point_sub_matches_suspension_randomized():
    rng = random.Random(41)
    for _ in range(10):
        coeffs = [0] + [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
        y = SpaceProfile("Y", RationalGF.from_coeffs(coeffs))
        pair = PairInclusion(sub=point(), ambient=y, mono_in_homology=True)
        assert union_series(pair) == T * y.series


def test_constructor_series_nonnegative_to_degree_30():
    profiles = [
        sphere(1),
        sphere(2),
        sphere(4),
        projective(1),
        projective(2),
        projective(4),
        projective(math.inf),
        point(),
        cone(projective(2)),
        wedge(sphere(1), projective(math.inf)),
        smash(sphere(2), projective(math.inf)),
        smash(projective(math.inf), projective(math.inf)),
        suspend(projective(3)),
        suspend(wedge(sphere(1), sphere(1))),
    ]
    for profile in profiles:
        assert all(c >= 0 for c in profile.betti(30)), profile.name


def test_betti_returns_trunc_series():
    assert sphere(2).betti(4) == TruncSeries([0, 0, 1, 0, 0])


# ------------------------------------------------------------------ catalog


def _entry(name="M", num=(0, 1), den=(1,), diag=False, **extra):
    d = {
        "name": name,
        "numerator": list(num),
        "denominator": list(den),
        "diagonal_null": diag,
    }
    d.update(extra)
    return d


def test_parse_catalog_happy_path():
    cat = parse_catalog([_entry(), _entry(name="W", num=(0, 2), diag=True, notes="wedge")])
    assert set(cat) == {"M", "W"}
    assert cat["M"].series == RationalGF.from_coeffs([0, 1])
    assert cat["W"].diagonal_null
    assert cat["W"].notes == "wedge"


def test_parse_catalog_rejects_bad_shapes():
    with pytest.raises(ValueError):
        parse_catalog({"name": "M"})
    with pytest.raises(ValueError):
        parse_catalog(["not an object"])
    with pytest.raises(ValueError):
        parse_catalog([{"name": "M", "numerator": [0, 1]}])  # missing keys
    with pytest.raises(ValueError):
        parse_catalog([_entry(name="")])
    with pytest.raises(ValueError):
        parse_catalog([_entry(num=(0, 1.5))])
    with pytest.raises(ValueError):
        parse_catalog([_entry(den=())])
    with pytest.raises(ValueError):
        parse_catalog([_entry(den=(0, 1))])
    with pytest.raises(ValueError):
        parse_catalog([_entry(diag="yes")])
    with pytest.raises(ValueError):
        parse_catalog([_entry(), _entry()])  # duplicate name


def test_parse_catalog_rejects_bool_coefficients():
    # JSON true decodes to a bool, which is an int subclass equal to 1.
    with pytest.raises(ValueError, match="numerator"):
        parse_catalog([_entry(num=(0, True))])
    with pytest.raises(ValueError, match="denominator"):
        parse_catalog([_entry(den=(True, False))])


@pytest.mark.parametrize(
    "name",
    ["S", "RP", "pt", "susp", "cone", "v", "inf", "a b", "S^2", "1a", "a-b", "x(y)", " a", "a "],
)
def test_parse_catalog_refuses_names_no_expression_can_reach(name):
    # the grammar's words would be shadowed; the rest are not one identifier
    with pytest.raises(ValueError, match=re.escape(f"catalog entry 0: no expression can name {name!r}")):
        parse_catalog([_entry(name=name)])


def test_parse_catalog_accepts_identifier_names():
    # the benchmark's names and those the tests use
    names = [f"c{i}" for i in range(24)] + [f"E{i}" for i in range(24)]
    names += ["M", "N", "W", "fib", "neg", "bad", "torusish", "alpha", "beta_2", "_x", "Sv", "pts"]
    assert list(parse_catalog([_entry(name=name) for name in names])) == names


def test_parse_catalog_enforces_profile_invariants():
    # diagonal_null with nonzero constant coefficient is contradictory
    with pytest.raises(HypothesisViolation):
        parse_catalog([_entry(num=(1, 1), diag=True)])


COEFFS = st.lists(st.integers(min_value=-3, max_value=3), max_size=4)


@settings(max_examples=200, deadline=None)
@given(num=COEFFS, den=COEFFS.filter(lambda cs: cs and cs[0] != 0), diag=st.booleans())
def test_parse_catalog_checks_raw_entries_as_the_profile_would(num, den, diag):
    # parse_catalog vets diagonal_null on the raw numerator; the profile,
    # built on lookup, must agree with building it from the reduced series.
    try:
        expected = SpaceProfile("M", RationalGF.from_coeffs(num, den), diagonal_null=diag)
    except HypothesisViolation as exc:
        with pytest.raises(HypothesisViolation, match=re.escape(str(exc))):
            parse_catalog([_entry(num=num, den=den, diag=diag)])
    else:
        assert parse_catalog([_entry(num=num, den=den, diag=diag)])["M"] == expected


def test_load_catalog_roundtrip(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([_entry(name="torusish", num=(0, 2, 1))]))
    cat = load_catalog(path)
    assert cat["torusish"].series == RationalGF.from_coeffs([0, 2, 1])
    assert not cat["torusish"].diagonal_null
