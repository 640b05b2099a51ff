"""Space-expression parsing: each expression is built into its profile."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopspace.errors import ParseError, UnknownName
from loopspace.gfcore import RationalGF
from loopspace.spaces import (
    SpaceProfile,
    cone,
    parse_catalog,
    point,
    projective,
    smash,
    sphere,
    suspend,
    wedge,
)
from loopspace.spaceexpr import MAX_DEPTH, _Parser, _tokenize, parse_space


def test_parse_atoms():
    assert parse_space("S^2") == sphere(2)
    assert parse_space("RP^3") == projective(3)
    assert parse_space("RP^inf") == projective(math.inf)
    assert parse_space("pt") == point()
    with pytest.raises(UnknownName) as info:
        parse_space("mystery")
    assert info.value.name == "mystery"


def test_parse_precedence_smash_binds_tighter():
    s1, s2, s3 = sphere(1), sphere(2), sphere(3)
    assert parse_space("S^1 ^ S^2 v S^3") == wedge(smash(s1, s2), s3)
    assert parse_space("S^1 v S^2 ^ S^3") == wedge(s1, smash(s2, s3))


def test_parse_left_associativity():
    s1, s2, s3 = sphere(1), sphere(2), sphere(3)
    assert parse_space("S^1 v S^2 v S^3") == wedge(wedge(s1, s2), s3)
    assert parse_space("S^1 ^ S^2 ^ S^3") == smash(smash(s1, s2), s3)


def test_parse_parentheses_override():
    assert parse_space("S^1 ^ (S^2 v S^3)") == smash(sphere(1), wedge(sphere(2), sphere(3)))


def test_parse_susp_and_cone():
    assert parse_space("susp(S^1 v S^1)") == suspend(wedge(sphere(1), sphere(1)))
    assert parse_space("cone(S^1)") == cone(sphere(1))
    assert parse_space("susp(cone(pt))") == suspend(cone(point()))


def test_parse_ignores_whitespace():
    assert parse_space("  S^1v S^2 ") == parse_space("S^1 v S^2")
    assert parse_space("susp( S^1 )") == parse_space("susp(S^1)")


def test_parse_double_caret_is_one_bad_token():
    with pytest.raises(ParseError) as info:
        parse_space("S^1 ^^ S^2")
    assert info.value.offset == 4


def test_parse_error_positions():
    with pytest.raises(ParseError):
        parse_space("")
    with pytest.raises(ParseError):
        parse_space("(S^1")
    with pytest.raises(ParseError):
        parse_space("S^1 v")
    with pytest.raises(ParseError):
        parse_space("S^")
    with pytest.raises(ParseError):
        parse_space("RP^x")
    with pytest.raises(ParseError):
        parse_space("S^1 )")
    with pytest.raises(ParseError) as info:
        parse_space("S^1 $ S^2")
    assert info.value.offset == 4


def test_parse_accepts_ascii_digits_only():
    # str.isdigit accepts superscripts, which int() then refuses
    with pytest.raises(ParseError) as info:
        parse_space("S^\u00b2")
    assert info.value.offset == 2


def test_parse_error_carries_expected_tokens():
    # "v S^1" reads the name v first, and no catalog defines it: UnknownName
    with pytest.raises(ParseError) as info:
        parse_space("^ S^1")
    assert info.value.expected == (
        "S^<int>", "RP^<int|inf>", "pt", "identifier", "susp(", "cone(", "("
    )
    with pytest.raises(ParseError) as info:
        parse_space("S^1 S^2")
    assert (info.value.offset, info.value.expected) == (4, ("v", "^", "end of input"))


def test_depth_limit():
    # parentheses, susp( and cone( each count one level, as does each operator
    at_limit = "(" * MAX_DEPTH + "S^1" + ")" * MAX_DEPTH
    assert parse_space(at_limit) == sphere(1)
    chain = parse_space(" v ".join(["S^1"] * (MAX_DEPTH + 1)))
    assert chain.series == RationalGF.from_coeffs([0, MAX_DEPTH + 1])
    too_deep = [
        "(" * (MAX_DEPTH + 1) + "S^1" + ")" * (MAX_DEPTH + 1),
        "susp(" * (MAX_DEPTH + 1) + "pt" + ")" * (MAX_DEPTH + 1),
        " ^ ".join(["S^1"] * (MAX_DEPTH + 2)),
        "(" * 50 + " v ".join(["S^1"] * (MAX_DEPTH - 48)) + ")" * 50,  # 50 + 51 levels
        "(" * 5000 + "S^1" + ")" * 5000,
        " v ".join(["S^1"] * 3000),
    ]
    for text in too_deep:
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH}"):
            parse_space(text)


def test_catalog_names_resolve_eagerly():
    cat = {"M": SpaceProfile("M", RationalGF.from_coeffs([0, 1]))}
    assert parse_space("M v S^1", cat) == wedge(cat["M"], sphere(1))
    for catalog in ({}, None):
        with pytest.raises(UnknownName):
            parse_space("S^1 v mystery", catalog)
        # the name is read, and refused, before the syntax error after it
        with pytest.raises(UnknownName):
            parse_space("mystery v (", catalog)


def test_keywords_in_operand_position_are_plain_names():
    cat = parse_catalog([{"name": "M", "numerator": [0, 1], "denominator": [1], "diagonal_null": True}])
    for text, catalog in (("susp", None), ("S", None), ("v", None), ("cone v M", cat), ("inf", cat)):
        with pytest.raises(UnknownName) as info:
            parse_space(text, catalog)
        assert info.value.name == text.split()[0]


def test_evaluate_atoms():
    assert parse_space("S^2").series == RationalGF.from_coeffs([0, 0, 1])
    assert parse_space("RP^inf").series == RationalGF.from_coeffs([0, 1], [1, -1])
    assert parse_space("RP^2").series == RationalGF.from_coeffs([0, 1, 1])
    assert parse_space("pt").series.num.is_zero


def test_evaluate_operators():
    susp_wedge = parse_space("susp(S^1 v S^1)")
    assert susp_wedge.series == RationalGF.from_coeffs([0, 0, 2])
    assert susp_wedge.diagonal_null
    assert parse_space("S^1 ^ S^2").series == RationalGF.from_coeffs([0, 0, 0, 1])
    assert parse_space("cone(RP^3)").series.num.is_zero


def test_evaluate_rejects_invalid_dimensions():
    with pytest.raises(ValueError):
        parse_space("S^0")
    with pytest.raises(ValueError):
        parse_space("RP^0")
    # an invalid atom is refused as it is read, before a later syntax error
    with pytest.raises(ValueError, match="sphere dimension"):
        parse_space("S^0 v (")


def test_evaluate_named_needs_catalog():
    cat = {"M": SpaceProfile("M", RationalGF.from_coeffs([0, 3]))}
    assert parse_space("M", cat).series == RationalGF.from_coeffs([0, 3])
    with pytest.raises(UnknownName):
        parse_space("M")


def test_format_inserts_parens_only_when_needed():
    # a profile's name parenthesizes the wedge operands of a smash and the
    # right operands that would otherwise regroup to the left
    assert parse_space("S^1 ^ (S^2 v S^3)").name == "S^1 ^ (S^2 v S^3)"
    assert parse_space("S^1 ^ S^2 v S^3").name == "S^1 ^ S^2 v S^3"
    assert parse_space("S^1 v (S^2 ^ S^3)").name == "S^1 v S^2 ^ S^3"
    assert parse_space("(S^1 v S^2) v S^3").name == "S^1 v S^2 v S^3"
    assert parse_space("S^1 v (S^2 v S^3)").name == "S^1 v (S^2 v S^3)"
    assert parse_space("(S^1 ^ S^2) ^ S^3").name == "S^1 ^ S^2 ^ S^3"
    assert parse_space("S^1 ^ (S^2 ^ S^3)").name == "S^1 ^ (S^2 ^ S^3)"
    assert parse_space("(S^1 v S^2) ^ (S^3 ^ (pt v pt))").name == (
        "(S^1 v S^2) ^ (S^3 ^ (pt v pt))"
    )
    assert parse_space("susp(S^1 v S^2) ^ cone(S^1 v S^1)").name == (
        "susp(S^1 v S^2) ^ cone(S^1 v S^1)"
    )
    # the same names when the profiles are built directly
    assert smash(wedge(sphere(1), sphere(2)), sphere(3)).name == "(S^1 v S^2) ^ S^3"
    assert smash(sphere(3), smash(wedge(sphere(1), sphere(2)), sphere(3))).name == (
        "S^3 ^ ((S^1 v S^2) ^ S^3)"
    )


def depth(text):
    """The depth the parser counts for text (see spaceexpr.MAX_DEPTH)."""
    return _Parser(_tokenize(text), CATALOG).parse_expr(0)[1]


def test_name_of_a_deep_expression_reparses():
    # two 60-term smash chains: a flattened name would be one 120-term chain,
    # deeper than the limit, though the expression is not
    chain = " ^ ".join(["S^1"] * 60)
    space = parse_space(f"({chain}) ^ ({chain})")
    assert space.name == f"{chain} ^ ({chain})"
    assert depth(space.name) == depth(f"({chain}) ^ ({chain})") == 61
    assert parse_space(space.name) == space


CATALOG = parse_catalog(
    [
        {"name": "alpha", "numerator": [0, 1, 2], "denominator": [1, -2], "diagonal_null": True},
        {"name": "beta_2", "numerator": [1, 3], "denominator": [1, -1], "diagonal_null": False},
        {"name": "M", "numerator": [0, 0, 1], "denominator": [1], "diagonal_null": False},
    ]
)
ATOMS = st.sampled_from(
    ["S^1", "S^2", "S^4", "RP^1", "RP^2", "RP^3", "RP^inf", "pt", "alpha", "beta_2", "M"]
)
EXPRESSIONS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.builds("{} v {}".format, inner, inner),
        st.builds("{} ^ {}".format, inner, inner),
        st.builds("susp({})".format, inner),
        st.builds("cone({})".format, inner),
        st.builds("({})".format, inner),
        st.builds("{} v ({} v {})".format, inner, inner, inner),
        st.builds("{} ^ ({} ^ {})".format, inner, inner, inner),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(text=EXPRESSIONS)
def test_roundtrip_random_trees(text):
    # A diagnostic names a space by its profile's name, so the name must
    # parse back to the same profile, which prints the same name again.
    space = parse_space(text, CATALOG)
    again = parse_space(space.name, CATALOG)
    assert again == space
    assert again.name == space.name
    # the name drops only parentheses the grammar does not need
    assert depth(space.name) <= depth(text)


@settings(max_examples=300, deadline=None)
@given(text=EXPRESSIONS)
def test_roundtrip_evaluation_consistency(text):
    # printing and reparsing cannot change the computed series or flags
    space = parse_space(text, CATALOG)
    again = parse_space(space.name, CATALOG)
    assert again.series == space.series
    assert again.diagonal_null == space.diagonal_null
