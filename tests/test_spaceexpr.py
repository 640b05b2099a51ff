"""Space-expression lexing, parsing, printing, and evaluation."""

import random

import pytest

from loopspace.errors import HypothesisViolation, ParseError, UnknownName
from loopspace.gfcore import RationalGF
from loopspace.spaces import SpaceProfile, sphere
from loopspace.spaceexpr import (
    MAX_DEPTH,
    Cone,
    Named,
    Point,
    Projective,
    Smash,
    Sphere,
    Susp,
    Wedge,
    evaluate,
    format_space,
    parse_space,
)


def test_parse_atoms():
    assert parse_space("S^2") == Sphere(2)
    assert parse_space("RP^3") == Projective(3)
    assert parse_space("RP^inf") == Projective(None)
    assert parse_space("pt") == Point()
    assert parse_space("mystery") == Named("mystery")


def test_parse_precedence_smash_binds_tighter():
    assert parse_space("S^1 ^ S^2 v S^3") == Wedge(Smash(Sphere(1), Sphere(2)), Sphere(3))
    assert parse_space("S^1 v S^2 ^ S^3") == Wedge(Sphere(1), Smash(Sphere(2), Sphere(3)))


def test_parse_left_associativity():
    assert parse_space("S^1 v S^2 v S^3") == Wedge(Wedge(Sphere(1), Sphere(2)), Sphere(3))
    assert parse_space("S^1 ^ S^2 ^ S^3") == Smash(Smash(Sphere(1), Sphere(2)), Sphere(3))


def test_parse_parentheses_override():
    assert parse_space("S^1 ^ (S^2 v S^3)") == Smash(Sphere(1), Wedge(Sphere(2), Sphere(3)))


def test_parse_susp_and_cone():
    assert parse_space("susp(S^1 v S^1)") == Susp(Wedge(Sphere(1), Sphere(1)))
    assert parse_space("cone(S^1)") == Cone(Sphere(1))
    assert parse_space("susp(cone(pt))") == Susp(Cone(Point()))


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


def test_parse_error_carries_expected_tokens():
    with pytest.raises(ParseError) as info:
        parse_space("v S^1")
    assert info.value.expected  # nonempty description of what was allowed


def test_depth_limit():
    # parentheses, susp( and cone( each count one level, as does each operator
    at_limit = "(" * MAX_DEPTH + "S^1" + ")" * MAX_DEPTH
    assert parse_space(at_limit) == Sphere(1)
    assert isinstance(parse_space(" v ".join(["S^1"] * (MAX_DEPTH + 1))), Wedge)
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
    assert parse_space("M v S^1", cat) == Wedge(Named("M"), Sphere(1))
    with pytest.raises(UnknownName):
        parse_space("S^1 v mystery", {})


def test_keywords_in_operand_position_are_plain_names():
    assert parse_space("susp") == Named("susp")
    assert parse_space("S") == Named("S")
    assert parse_space("v", None) == Named("v")


def test_evaluate_atoms():
    assert evaluate(parse_space("S^2")).series == RationalGF.from_coeffs([0, 0, 1])
    assert evaluate(parse_space("RP^inf")).series == RationalGF.from_coeffs(
        [0, 1], [1, -1]
    )
    assert evaluate(parse_space("RP^2")).series == RationalGF.from_coeffs([0, 1, 1])
    assert evaluate(parse_space("pt")).series.num.is_zero


def test_evaluate_operators():
    susp_wedge = evaluate(parse_space("susp(S^1 v S^1)"))
    assert susp_wedge.series == RationalGF.from_coeffs([0, 0, 2])
    assert susp_wedge.diagonal_null
    assert evaluate(parse_space("S^1 ^ S^2")).series == RationalGF.from_coeffs(
        [0, 0, 0, 1]
    )
    assert evaluate(parse_space("cone(RP^3)")).series.num.is_zero


def test_evaluate_rejects_invalid_dimensions():
    with pytest.raises(ValueError):
        evaluate(parse_space("S^0"))
    with pytest.raises(ValueError):
        evaluate(parse_space("RP^0"))


def test_evaluate_named_needs_catalog():
    cat = {"M": SpaceProfile("M", RationalGF.from_coeffs([0, 3]))}
    assert evaluate(parse_space("M"), cat).series == RationalGF.from_coeffs([0, 3])
    with pytest.raises(UnknownName):
        evaluate(Named("M"))


def test_evaluate_rejects_foreign_objects():
    with pytest.raises(TypeError):
        evaluate("S^1")  # must be a tree, not raw text


def test_format_inserts_parens_only_when_needed():
    assert format_space(parse_space("S^1 ^ (S^2 v S^3)")) == "S^1 ^ (S^2 v S^3)"
    assert format_space(parse_space("S^1 ^ S^2 v S^3")) == "S^1 ^ S^2 v S^3"
    assert format_space(Wedge(Wedge(Sphere(1), Sphere(2)), Sphere(3))) == "S^1 v S^2 v S^3"
    assert format_space(Smash(Sphere(1), Smash(Sphere(2), Sphere(3)))) == (
        "S^1 ^ (S^2 ^ S^3)"
    )


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(
            [
                Sphere(rng.randint(1, 4)),
                Projective(rng.choice([1, 2, 3, None])),
                Point(),
                Named(rng.choice(["alpha", "beta_2", "M"])),
            ]
        )
    kind = rng.randrange(4)
    if kind == 0:
        return Wedge(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if kind == 1:
        return Smash(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if kind == 2:
        return Susp(random_tree(rng, depth - 1))
    return Cone(random_tree(rng, depth - 1))


def test_roundtrip_random_trees():
    rng = random.Random(29)
    for _ in range(60):
        tree = random_tree(rng, 5)
        assert parse_space(format_space(tree)) == tree


def test_roundtrip_evaluation_consistency():
    # printing and reparsing cannot change the computed series
    rng = random.Random(31)
    for _ in range(20):
        tree = random_tree(rng, 4)
        text = format_space(tree)
        try:
            direct = evaluate(tree)
        except (UnknownName, ValueError, HypothesisViolation):
            continue
        again = evaluate(parse_space(text))
        assert again.series == direct.series
        assert again.diagonal_null == direct.diagonal_null
