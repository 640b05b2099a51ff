"""Space profiles, constructors, the glued-union series, and the catalog."""

import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopspace import combinatorics, formulas, gfcore
from loopspace.errors import (
    HypothesisViolation,
    NonIntegerSeriesError,
    PathConnectednessViolation,
)
from loopspace.gfcore import IntPolynomial, RationalGF, T, TruncSeries
from loopspace.spaces import (
    MAX_CATALOG_BITS,
    MAX_CATALOG_LENGTH,
    MAX_DIMENSION,
    MAX_SERIES_DEGREE,
    PairInclusion,
    SpaceProfile,
    cone,
    load_catalog,
    parse_catalog,
    point,
    projective,
    short_name,
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


def test_series_degrees_above_the_limit_are_refused():
    top = sphere(MAX_DIMENSION)
    largest = smash(top, top)
    assert largest.series.num.degree == 2 * MAX_DIMENSION == MAX_SERIES_DEGREE
    with pytest.raises(ValueError, match=f"degree {MAX_SERIES_DEGREE + 1}, above the limit"):
        smash(largest, sphere(1))
    # a wedge counts the unreduced sum, here t + (1 - t) * t^n over 1 - t
    wedge(projective(math.inf), smash(top, sphere(MAX_DIMENSION - 1)))
    with pytest.raises(ValueError, match=f"wedge of RP\\^inf and {re.escape(largest.name)}"):
        wedge(projective(math.inf), largest)


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


def test_projective_infinite_reduces_nothing(monkeypatch):
    # t/(1 - t) is reduced once, at import, not on every RP^inf atom
    calls = []
    monkeypatch.setattr(gfcore, "_cancel", lambda a, b: calls.append((a, b)))
    projective(math.inf)
    assert calls == []


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


TWO_POINTS = SpaceProfile("two points", RationalGF.from_coeffs([1]))
CONNECTED = "needs a path-connected space (zero constant series coefficient)"
DIAGONAL = "needs the reduced diagonal declared null"
SIMPLY = "needs a simply-connected space (series coefficients 0 in degrees 0 and 1)"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: formulas.loop_series(PairInclusion(sub=projective(2), ambient=TWO_POINTS)),
            PathConnectednessViolation,
            f"two points: the loop series {CONNECTED}",
        ),
        (
            lambda: formulas.loop_series(PairInclusion(sub=projective(2), ambient=sphere(2))),
            HypothesisViolation,
            f"RP^2: the loop series {DIAGONAL}",
        ),
        (
            lambda: formulas.bott_samelson_series(TWO_POINTS),
            PathConnectednessViolation,
            f"two points: the Bott-Samelson series {CONNECTED}",
        ),
        (
            lambda: formulas.bousfield_curtis_series(smash(projective(2), projective(2))),
            HypothesisViolation,
            f"RP^2 ^ RP^2: the Bousfield-Curtis series {DIAGONAL}",
        ),
        (
            lambda: combinatorics.loop_series_oracle(
                PairInclusion(sub=projective(2), ambient=TWO_POINTS), 4
            ),
            PathConnectednessViolation,
            f"two points: the stage decomposition {CONNECTED}",
        ),
        (
            lambda: combinatorics.loop_series_oracle(
                PairInclusion(sub=projective(2), ambient=sphere(2)), 4
            ),
            HypothesisViolation,
            f"RP^2: the stage decomposition {DIAGONAL}",
        ),
        (
            lambda: combinatorics.fat_diagonal_betti(
                PairInclusion(sub=projective(2), ambient=sphere(2)), 2, 2
            ),
            HypothesisViolation,
            f"RP^2: the fat diagonal {DIAGONAL}",
        ),
        (
            lambda: combinatorics.smash_power_betti(TWO_POINTS, 2, 2),
            PathConnectednessViolation,
            f"two points: a smash power {CONNECTED}",
        ),
        (
            lambda: formulas.bousfield_curtis_series(sphere(1)),
            HypothesisViolation,
            f"S^1: the Bousfield-Curtis series {SIMPLY}",
        ),
        (
            lambda: formulas.euler_series_e1(T),
            HypothesisViolation,
            f"P: the first term's Euler series {SIMPLY}",
        ),
    ],
)
def test_gates_name_the_space_and_the_purpose(call, error, message):
    # each gated function refuses through the profile's gate, so the class
    # and wording are the same everywhere; the ambient space is checked first
    with pytest.raises(HypothesisViolation) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_betti_refuses_a_negative_coefficient():
    negative = SpaceProfile("N", RationalGF.from_coeffs([0, 1], [1, 1]))
    assert list(negative.betti(0)) == [0]
    assert list(negative.betti(1)) == [0, 1]
    with pytest.raises(ValueError) as info:
        negative.betti(2)
    assert str(info.value) == "N: series coefficient -1 of t^2 is negative, so it cannot hold Betti numbers"


def test_betti_refuses_a_non_integer_coefficient():
    halves = SpaceProfile("H", RationalGF.from_coeffs([0, 1], [2, -1]))
    assert list(halves.betti(0)) == [0]
    with pytest.raises(NonIntegerSeriesError) as info:
        halves.betti(1)
    assert str(info.value) == "H: series coefficient of t^1 is not an integer, so it cannot hold Betti numbers"


@pytest.mark.parametrize(
    "b, shown",
    [
        (-(10**39 - 1), f"coefficient {-(10**39 - 1)} of t^1 is negative"),  # 40 characters
        (-(10**39), "coefficient of t^1 is negative and has 40 digits"),
        (-(10**9000), "coefficient of t^1 is negative and has 9001 digits"),
    ],
    ids=["40", "41", "9002"],
)
def test_betti_shows_a_long_negative_coefficient_by_its_digit_count(b, shown):
    space = SpaceProfile("N", RationalGF.from_coeffs([0, b]))
    with pytest.raises(ValueError) as info:
        space.betti(1)
    assert str(info.value) == f"N: series {shown}, so it cannot hold Betti numbers"


def test_short_name_shortens_each_long_identifier_and_nothing_else():
    assert short_name("(S^2 v " + "a" * 40 + ") ^ RP^inf") == "(S^2 v " + "a" * 40 + ") ^ RP^inf"
    long = "b" * 41
    shown = "'bbbbbbbbbbbbbbbb'... (a 41-character string)"
    assert short_name(f"susp({long}) v S^1 ^ {long}_2") == (
        f"susp({shown}) v S^1 ^ 'bbbbbbbbbbbbbbbb'... (a 43-character string)"
    )


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


@pytest.mark.parametrize("label", ["numerator", "denominator"])
def test_parse_catalog_refuses_arrays_above_the_length_limit(label):
    longest = [1] + [0] * (MAX_CATALOG_LENGTH - 1)
    parse_catalog([_entry(**{label[:3]: longest})])
    with pytest.raises(ValueError, match=f"{label} has {MAX_CATALOG_LENGTH + 1} coefficients"):
        parse_catalog([_entry(**{label[:3]: longest + [1]})])


@pytest.mark.parametrize("label", ["numerator", "denominator"])
def test_parse_catalog_refuses_arrays_above_the_size_limit(label):
    # size is length times the largest coefficient's bit length, so one
    # large coefficient in a long array counts as many
    top = 2 ** (MAX_CATALOG_BITS // MAX_CATALOG_LENGTH - 1)
    largest = [1] + [0] * (MAX_CATALOG_LENGTH - 2) + [top]
    parse_catalog([_entry(**{label[:3]: largest})])
    with pytest.raises(ValueError, match=f"{label} has {MAX_CATALOG_LENGTH} coefficients of up to"):
        parse_catalog([_entry(**{label[:3]: largest[:-1] + [2 * top]})])
    short = [1, 2 ** (MAX_CATALOG_BITS // 2 - 1)]
    parse_catalog([_entry(**{label[:3]: short})])
    with pytest.raises(ValueError, match=f"above the limit {MAX_CATALOG_BITS}"):
        parse_catalog([_entry(**{label[:3]: short + [0]})])


def test_parse_catalog_rejects_bool_coefficients():
    # JSON true decodes to a bool, which is an int subclass equal to 1.
    with pytest.raises(ValueError, match="numerator"):
        parse_catalog([_entry(num=(0, True))])
    with pytest.raises(ValueError, match="denominator"):
        parse_catalog([_entry(den=(True, False))])


@pytest.mark.parametrize(
    "num, den, message",
    [
        # a wrong type anywhere in an array, before its length
        ([0] * MAX_CATALOG_LENGTH + [True], [1], "numerator must be a list of integers"),
        ([True] + [0] * MAX_CATALOG_LENGTH, [1], "numerator must be a list of integers"),
        ([0, 1], [1] * MAX_CATALOG_LENGTH + [1.0], "denominator must be a list of integers"),
        # length before size
        ([2**MAX_CATALOG_BITS] + [0] * MAX_CATALOG_LENGTH, [1],
         f"numerator has {MAX_CATALOG_LENGTH + 1} coefficients, more than"),
        # the numerator before the denominator
        ([0, 2**MAX_CATALOG_BITS], [None], "numerator has 2 coefficients of up to"),
    ],
)
def test_parse_catalog_refusals_keep_their_order(num, den, message):
    with pytest.raises(ValueError, match=re.escape(f"catalog entry 'M': {message}")):
        parse_catalog([_entry(num=num, den=den)])


@pytest.mark.parametrize(
    "name",
    ["S", "RP", "pt", "susp", "cone", "v", "inf", "a b", "S^2", "1a", "a-b", "x(y)", " a", "a "],
)
def test_parse_catalog_refuses_names_no_expression_can_reach(name):
    # the grammar's words would be shadowed; the rest are not one identifier
    with pytest.raises(ValueError, match=re.escape(f"catalog entry 0: no expression can name {name!r}")):
        parse_catalog([_entry(name=name)])


@pytest.mark.parametrize("length", [3, 40, 41, 5000])
@pytest.mark.parametrize(
    "entry, message",
    [
        ({"invalid": True}, "catalog entry 0: no expression can name {}; a name must be"),
        ({"numerator": "no"}, "catalog entry {}: numerator must be a list of integers"),
        ({"den": [1, "a"]}, "catalog entry {}: denominator must be a list of integers"),
        ({"num": [0] * (MAX_CATALOG_LENGTH + 1)}, "catalog entry {}: numerator has 65 coefficients"),
        ({"num": [0, 2**MAX_CATALOG_BITS]}, "catalog entry {}: numerator has 2 coefficients of up to"),
        ({"den": [0, 1]}, "catalog entry {}: denominator needs a nonzero entry at index 0"),
        ({"diag": 1}, "catalog entry {}: diagonal_null must be a boolean"),
        ({"twice": True}, "catalog defines {} twice"),
    ],
    ids=["name", "numerator", "denominator", "length", "bits", "constant", "flag", "twice"],
)
def test_parse_catalog_refusals_show_a_long_name_by_its_length(length, entry, message):
    # up to 40 characters the name is quoted whole, as it always was
    name = "x" * length
    fields = dict(entry)
    if fields.pop("invalid", False):
        name = name[:-1] + "-"
    copies = 2 if fields.pop("twice", False) else 1
    entries = [_entry(name=name, **fields)] * copies
    with pytest.raises(ValueError) as refusal:
        parse_catalog(entries)
    shown = repr(name) if length <= 40 else f"'{name[:16]}'... (a {length}-character string)"
    assert str(refusal.value).startswith(message.format(shown))
    assert len(str(refusal.value)) < 300


@pytest.mark.parametrize(
    "name, shown",
    [(["a"] * 2000, "an array"), ({"a": 1}, "an object"), (7, "a number"), (1.5, "a number"),
     (True, "a boolean"), (None, "null")],
)
def test_parse_catalog_shows_a_name_that_is_not_a_string_by_its_type(name, shown):
    with pytest.raises(ValueError, match=re.escape(f"catalog entry 0: no expression can name {shown};")):
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
    # built on lookup, must agree with building it from the reduced series,
    # and the lookup refuses a reduced denominator other than 1 at t = 0.
    try:
        expected = SpaceProfile("M", RationalGF.from_coeffs(num, den), diagonal_null=diag)
    except HypothesisViolation as exc:
        with pytest.raises(HypothesisViolation, match=re.escape(str(exc))):
            parse_catalog([_entry(num=num, den=den, diag=diag)])
        return
    catalog = parse_catalog([_entry(num=num, den=den, diag=diag)])
    if expected.series.den.constant == 1:
        assert catalog["M"] == expected
    else:
        with pytest.raises(NonIntegerSeriesError, match="^M: series in lowest terms has a denominator"):
            catalog["M"]


@pytest.mark.parametrize("num, den, expands", [
    ((0, 1, 2), (1, -1, -1), 0),
    ((0, 1, -1), (1, -2, 1), 0),  # t(1 - t)/(1 - t)^2 is t/(1 - t) in lowest terms
    ((), (1,), 0),
    ((0, 1), (1, -3, 1), 1),  # one positive tap: nonnegative, but not provably so here
    ((0, 1), (1, -1, 1), 1),
], ids=["nonnegative", "nonnegative-reduced", "zero", "positive-tap", "alternating"])
def test_check_signs_skips_only_provably_nonnegative_entries(monkeypatch, num, den, expands):
    # num >= 0 and den <= 0 past t^0 = 1 make every recurrence step a sum of
    # nonnegative terms, so those entries need no expansion
    catalog = parse_catalog([_entry(num=num, den=den, diag=True)])
    catalog["M"]
    calls = []
    betti = SpaceProfile.betti
    monkeypatch.setattr(SpaceProfile, "betti", lambda self, bound: calls.append(bound) or betti(self, bound))
    catalog.check_signs(2)
    assert len(calls) == expands


def test_load_catalog_roundtrip(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([_entry(name="torusish", num=(0, 2, 1))]))
    cat = load_catalog(path)
    assert cat["torusish"].series == RationalGF.from_coeffs([0, 2, 1])
    assert not cat["torusish"].diagonal_null
