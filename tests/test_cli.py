"""Command-line behavior: output formats, exit codes, catalog loading.

Each invocation goes through ``main`` in-process; exit codes are the
function's return value, never a raised SystemExit.
"""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import loopspace
from loopspace import cli, formulas, gfcore, spaces
from loopspace.errors import LoopspaceError
from loopspace.gfcore import RationalGF, TruncSeries
from loopspace.spaceexpr import parse_space
from rational_reference import _prs_gcd, planted_roots_pair


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_plain_output(capsys):
    code, out, err = run_cli(
        ["compute", "--A", "S^1", "--Y", "S^2", "--degree", "12", "--format", "plain"],
        capsys,
    )
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "num: [0,0,2,-1]",
        "den: [1,-1,-2,1]",
        "coeffs: [0,0,2,1,5,5,14,19,42,66,131,221,417]",
    ]


def test_compute_json_output_schema(capsys):
    code, out, _ = run_cli(
        ["compute", "--A", "pt", "--Y", "S^1", "--degree", "4", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"numerator", "denominator", "coefficients", "degree"}
    assert payload["numerator"] == [0, 1]
    assert payload["denominator"] == [1, -1]
    assert payload["coefficients"] == [0, 1, 1, 1, 1]
    assert payload["degree"] == 4


def test_compute_csv_output(capsys):
    code, out, _ = run_cli(
        ["compute", "--A", "S^1", "--Y", "S^2", "--degree", "3", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["degree,coefficient", "0,0", "1,0", "2,2", "3,1"]


BUILT_IN = st.recursive(
    st.sampled_from(["S^1", "S^2", "S^3", "RP^1", "RP^2", "RP^3", "RP^inf", "pt"]),
    lambda inner: st.one_of(
        st.builds("({} v {})".format, inner, inner),
        st.builds("({} ^ {})".format, inner, inner),
        st.builds("susp({})".format, inner),
        st.builds("cone({})".format, inner),
    ),
    max_leaves=4,
)


@pytest.mark.parametrize("per_step", [0, 10**9], ids=["decimal", "int"])
@settings(max_examples=60, deadline=None)
@given(a=BUILT_IN, y=BUILT_IN, degree=st.integers(0, 320))
def test_compute_prints_what_str_and_json_dumps_print_for_the_expansion(per_step, a, y, degree):
    try:
        series = formulas.loop_series(spaces.PairInclusion(sub=parse_space(a), ambient=parse_space(y)))
    except LoopspaceError:
        assume(False)
    num = list(series.num.coeffs) or [0]
    den = list(series.den.coeffs)
    coeffs = list(series.expand(degree).coeffs)
    expected = {
        "plain": f"num: {num}\nden: {den}\ncoeffs: {coeffs}\n".replace(", ", ","),
        "json": json.dumps(
            {"numerator": num, "denominator": den, "coefficients": coeffs, "degree": degree}
        ) + "\n",
        "csv": "degree,coefficient\n" + "".join(f"{q},{c}\n" for q, c in enumerate(coeffs)),
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gfcore, "_DECIMAL_DEGREES_PER_STEP", per_step)
        for fmt, text in expected.items():
            out, err = io.StringIO(), io.StringIO()
            argv = ["compute", "--A", a, "--Y", y, "--degree", str(degree), "--format", fmt]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert (code, err.getvalue(), out.getvalue()) == (0, "", text)


def test_compute_defaults_to_degree_20(capsys):
    code, out, _ = run_cli(
        ["compute", "--A", "pt", "--Y", "S^1", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 20
    assert len(payload["coefficients"]) == 21


def test_compute_inverted_pair_still_runs(capsys):
    # no stated hypothesis constrains the ambient space's dimension
    code, out, _ = run_cli(
        ["compute", "--A", "S^2", "--Y", "S^1", "--degree", "4"], capsys
    )
    assert code == 0
    assert "coeffs: [0,1,1,2,4]" in out


def test_compute_rejects_non_diagonal_null_subspace(capsys):
    code, out, err = run_cli(
        ["compute", "--A", "RP^2", "--Y", "S^2", "--degree", "4"], capsys
    )
    assert code == 2
    assert out == ""
    assert "diagonal" in err


def test_refusal_names_the_space_that_failed(capsys):
    # without parentheses the name would read as RP^2 v (S^1 ^ RP^2)
    argv = ["compute", "--A", "(RP^2 v S^1) ^ RP^2", "--Y", "RP^inf"]
    assert run_cli(argv, capsys) == (
        2,
        "",
        "error: (RP^2 v S^1) ^ RP^2: the loop series needs the reduced "
        "diagonal declared null\n",
    )


def test_compute_rejects_malformed_expression(capsys):
    code, _, err = run_cli(["compute", "--A", "S^1 ^^ S^2", "--Y", "S^2"], capsys)
    assert code == 2
    assert "offset 4" in err


def test_compute_rejects_negative_degree(capsys):
    code, _, err = run_cli(
        ["compute", "--A", "pt", "--Y", "S^1", "--degree", "-3"], capsys
    )
    assert code == 2
    assert err != ""


def test_verify_agreement(capsys):
    code, out, _ = run_cli(
        ["verify", "--A", "S^1", "--Y", "cone(S^1)", "--degree", "8"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "closed form: [0,0,1,1,2,3,5,8,13]"
    assert lines[1] == "oracle:      [0,0,1,1,2,3,5,8,13]"
    assert lines[2] == "diff:        [0,0,0,0,0,0,0,0,0]"
    assert lines[3] == "agree through degree 8"


def test_verify_at_the_degree_limit_on_the_densest_pair(capsys):
    # README's densest pair, at the largest verify degree it states a time for
    argv = ["verify", "--A", "S^1 v S^1 v S^1 v S^1 v susp(RP^inf)",
            "--Y", "RP^inf v RP^inf v RP^inf v susp(RP^inf)", "--degree", str(cli.MAX_VERIFY_DEGREE)]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out.endswith(f"\nagree through degree {cli.MAX_VERIFY_DEGREE}\n")
    assert cli.MAX_VERIFY_DEGREE == 250


def test_verify_mismatch_reports_first_degree(capsys, monkeypatch):
    # the two routes agree for every valid input, so the mismatch path is
    # exercised by perturbing the oracle
    def broken_oracle(pair, bound):
        return TruncSeries([0, 0, 0, 9])

    monkeypatch.setattr(cli.combinatorics, "loop_series_oracle", broken_oracle)
    code, out, _ = run_cli(
        ["verify", "--A", "S^1", "--Y", "S^2", "--degree", "3"], capsys
    )
    assert code == 1
    assert "first differing degree: 2" in out


def test_verify_hypothesis_violation_exits_2(capsys):
    code, _, err = run_cli(["verify", "--A", "RP^2", "--Y", "S^2"], capsys)
    assert code == 2
    assert err != ""


def test_collapse_equal(capsys):
    code, out, _ = run_cli(
        ["collapse", "--A", "S^1", "--Y", "S^1 v S^2", "--mono"], capsys
    )
    assert code == 0
    assert out.splitlines()[-1] == "equal"
    assert out.count("chi") == 2


def test_collapse_mono_is_an_unchecked_assertion(capsys):
    # injectivity in homology is not derivable from series data, so the
    # flag is taken at the caller's word and the comparison still runs
    code, out, _ = run_cli(["collapse", "--A", "S^1", "--Y", "S^2", "--mono"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "equal"


def test_collapse_without_mono_exits_2(capsys):
    code, _, err = run_cli(["collapse", "--A", "S^1", "--Y", "S^2"], capsys)
    assert code == 2
    assert "monomorphism" in err


def test_collapse_refuses_a_disconnected_space_as_compute_does(capsys, tmp_path):
    # the union is built first, so --mono is still the first refusal; then
    # the loop series' gates run before E1's, which reads a derived series
    path = tmp_path / "catalog.json"
    path.write_text('[{"name": "X", "numerator": [1], "denominator": [1], "diagonal_null": false}]')
    message = (
        "error: X: the loop series needs a path-connected space "
        "(zero constant series coefficient)\n"
    )
    for command in (["compute"], ["collapse", "--mono"]):
        argv = [*command, "--A", "pt", "--Y", "X", "--catalog", str(path)]
        assert run_cli(argv, capsys) == (2, "", message)
    code, _, err = run_cli(["collapse", "--A", "pt", "--Y", "X", "--catalog", str(path)], capsys)
    assert code == 2 and "monomorphism" in err


def test_collapse_unequal_path(capsys, monkeypatch):
    monkeypatch.setattr(cli.formulas, "euler_series_einf", lambda series: series)
    code, out, _ = run_cli(["collapse", "--A", "pt", "--Y", "S^1", "--mono"], capsys)
    assert code == 1
    assert out.splitlines()[-1] == "unequal"


def test_identity_all_pass(capsys):
    code, out, _ = run_cli(["identity", "--kmax", "8", "--degree", "30"], capsys)
    assert code == 0
    assert "checked 45" in out
    assert "all agree" in out


@pytest.mark.parametrize("kmax", range(9))
def test_identity_stdout(capsys, kmax):
    code, out, err = run_cli(["identity", "--kmax", str(kmax), "--degree", "30"], capsys)
    pairs = [1, 3, 6, 10, 15, 21, 28, 36, 45][kmax]
    assert (code, out, err) == (
        0, f"checked {pairs} binomial series pairs to degree 30: all agree\n", ""
    )


def test_identity_failure_path(capsys, monkeypatch):
    # one check per row k, and a failing row names each of its pairs (k, m)
    calls = []
    monkeypatch.setattr(
        cli.combinatorics, "binomial_gf_check", lambda k, n: calls.append(k) or k != 2
    )
    code, out, _ = run_cli(["identity", "--kmax", "3", "--degree", "5"], capsys)
    assert code == 1
    assert calls == [0, 1, 2, 3]
    assert out == "mismatch: k=2 m=0\nmismatch: k=2 m=1\nmismatch: k=2 m=2\n"


def test_identity_rejects_negative_kmax(capsys):
    code, out, err = run_cli(["identity", "--kmax", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "--kmax" in err


def test_catalog_names_usable_in_expressions(capsys, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(
        json.dumps(
            [
                {
                    "name": "fib",
                    "numerator": [0, 1],
                    "denominator": [1, -1, -1],
                    "diagonal_null": True,
                }
            ]
        )
    )
    code, out, _ = run_cli(
        [
            "compute",
            "--A", "pt",
            "--Y", "fib v S^2",
            "--degree", "4",
            "--catalog", str(path),
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["coefficients"][1] == 1


def test_unknown_catalog_name_exits_2(capsys, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text("[]")
    code, _, err = run_cli(
        ["compute", "--A", "ghost", "--Y", "S^2", "--catalog", str(path)], capsys
    )
    assert code == 2
    assert "ghost" in err


def test_missing_catalog_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        ["compute", "--A", "pt", "--Y", "S^1", "--catalog", str(tmp_path / "nope.json")],
        capsys,
    )
    assert code == 2


def test_malformed_catalog_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(
        ["compute", "--A", "pt", "--Y", "S^1", "--catalog", str(path)], capsys
    )
    assert code == 2


def test_deeply_nested_catalog_json_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli(
        ["compute", "--A", "S^1", "--Y", "S^2", "--catalog", str(path)], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "nested too deeply" in err


def test_bool_catalog_coefficient_exits_2(capsys, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(
        '[{"name": "M", "numerator": [0, true], "denominator": [1], "diagonal_null": true}]'
    )
    code, out, err = run_cli(
        ["compute", "--A", "M", "--Y", "S^2", "--catalog", str(path)], capsys
    )
    assert code == 2
    assert out == ""
    assert "numerator" in err


@pytest.mark.parametrize("name", ["pt", "a b"])
def test_catalog_name_no_expression_can_reach_exits_2(capsys, tmp_path, name):
    # the point would shadow an entry "pt", and no expression can name "a b"
    path = tmp_path / "catalog.json"
    entry = {"name": name, "numerator": [0, 0, 5], "denominator": [1], "diagonal_null": True}
    path.write_text(json.dumps([entry]))
    argv = ["compute", "--A", "pt", "--Y", "S^1", "--degree", "5", "--catalog", str(path)]
    assert run_cli(argv, capsys) == (
        2,
        "",
        f"error: catalog entry 0: no expression can name {name!r}; a name must be "
        "one identifier other than S, RP, pt, susp, cone, v and inf\n",
    )


def write_catalog(tmp_path, numerator, denominator=(1,)):
    path = tmp_path / "catalog.json"
    entry = {"name": "M", "numerator": numerator, "denominator": denominator, "diagonal_null": True}
    path.write_text(json.dumps([entry]))
    return str(path)


def negative_at(q, b, name="M"):
    return f"error: {name}: series coefficient {b} of t^{q} is negative, so it cannot hold Betti numbers\n"


@pytest.mark.parametrize("command", ["compute", "verify"])
@pytest.mark.parametrize(
    "a, y", [("M", "S^2"), ("pt", "S^2 v M"), ("pt", "M ^ M"), ("pt", "M v S^1"), ("M ^ M", "RP^inf")]
)
def test_negative_catalog_series_exits_2(capsys, tmp_path, command, a, y):
    # M = -t: M ^ M = t^2 and M v S^1 = 0 have no negative coefficient, but
    # they are built from a series that cannot hold Betti numbers
    catalog = write_catalog(tmp_path, [0, -1])
    argv = [command, "--A", a, "--Y", y, "--degree", "5", "--catalog", catalog]
    assert run_cli(argv, capsys) == (2, "", negative_at(1, -1))


FATOU = (
    "error: M: series in lowest terms has a denominator other than 1 at t = 0, "
    "so some coefficient is not an integer and it cannot hold Betti numbers\n"
)


@pytest.mark.parametrize("command", ["compute", "verify"])
@pytest.mark.parametrize("a, y", [("M", "S^2"), ("pt", "S^2 v M")])
@pytest.mark.parametrize("degree", ["0", "5"])
def test_non_integer_catalog_series_names_the_space(capsys, tmp_path, command, a, y, degree):
    # t/(2 - t) = t/2 + t^2/4 + ... has no integer coefficient past degree 0;
    # the entry is refused when it is looked up, at any degree.
    catalog = write_catalog(tmp_path, [0, 1], [2, -1])
    argv = [command, "--A", a, "--Y", y, "--degree", degree, "--catalog", catalog]
    assert run_cli(argv, capsys) == (2, "", FATOU)


def test_catalog_entry_above_the_length_limit_exits_2(capsys, tmp_path):
    catalog = write_catalog(tmp_path, [0] * spaces.MAX_CATALOG_LENGTH + [1])
    argv = ["collapse", "--mono", "--A", "M", "--Y", "M v S^1", "--catalog", catalog]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: catalog entry 'M': numerator has {spaces.MAX_CATALOG_LENGTH + 1} "
        f"coefficients, more than the limit {spaces.MAX_CATALOG_LENGTH}\n"
    )


def test_catalog_entry_above_the_size_limit_exits_2(capsys, tmp_path):
    # 7 coefficients, the largest of 9143 bits: 7 * 9143 is one above the limit
    assert spaces.MAX_CATALOG_BITS + 1 == 7 * 9143
    catalog = write_catalog(tmp_path, [0] * 6 + [2**9142])
    argv = ["collapse", "--mono", "--A", "M", "--Y", "M v S^1", "--catalog", catalog]
    assert run_cli(argv, capsys) == (
        2,
        "",
        "error: catalog entry 'M': numerator has 7 coefficients of up to 9143 bits; "
        f"length times that bit length is 64001, above the limit {spaces.MAX_CATALOG_BITS}\n",
    )


def test_entry_whose_gcd_outlasts_six_evaluation_points_exits_2_quickly(capsys, tmp_path):
    # The numerator (63 coefficients of up to 891 bits) vanishes at the six
    # points the gcd first evaluates at; the old six-try cap then left the
    # reduction to the remainder sequence, which took 6-11 s for this entry.
    a, b = planted_roots_pair(10, (20, 43, 35), 6)
    catalog = write_catalog(tmp_path, list(a.coeffs), list(b.coeffs))
    argv = ["compute", "--A", "pt", "--Y", "M", "--degree", "3", "--catalog", catalog]
    start = time.perf_counter()
    result = run_cli(argv, capsys)
    assert time.perf_counter() - start < 3.0
    assert result == (2, "", FATOU)


@pytest.mark.parametrize(
    "numerator, denominator, refused",
    [([0, 1], [2], True), ([0, 1], [2, -1], True), ([0, 2], [2], False)],
    ids=["t/2", "t/(2-t)", "2t/2"],
)
def test_collapse_refuses_a_catalog_series_with_non_integer_coefficients(
    capsys, tmp_path, numerator, denominator, refused
):
    # By Fatou's lemma a series in lowest terms has integer coefficients
    # exactly when its denominator is 1 at t = 0; 2t/2 is t.
    catalog = write_catalog(tmp_path, numerator, denominator)
    for a, y in (("M", "S^2"), ("pt", "S^2 v M")):
        code, out, err = run_cli(["collapse", "--mono", "--A", a, "--Y", y, "--catalog", catalog], capsys)
        if refused:
            assert (code, out, err) == (2, "", FATOU)
        else:
            assert (code, err) == (0, "")
            assert out.endswith("equal\n")


@pytest.mark.parametrize(
    "argv, name, den_degree",
    [
        # the loop series of S^1 in RP^1000 has a denominator of degree 1001
        (["compute", "--A", "S^1", "--Y", "RP^1000"], "the loop series", 1001),
        # Y = M^9 for M = t/(1 - t^63): only the loop series is held to the
        # limit, and its denominator has the degree of (1 - t^63)^9
        (["compute", "--A", "pt", "--Y", " ^ ".join(["M"] * 9), "--catalog", "{catalog}"],
         "the loop series", 567),
    ],
)
def test_expansion_above_the_work_limit_exits_2_quickly(capsys, tmp_path, argv, name, den_degree):
    path = tmp_path / "catalog.json"
    entry = {"name": "M", "numerator": [0, 1], "denominator": [1] + [0] * 62 + [-1],
             "diagonal_null": True}
    path.write_text(json.dumps([entry]))
    argv = [str(path) if a == "{catalog}" else a for a in argv]
    largest = cli.MAX_EXPANSION_WORK // den_degree
    start = time.perf_counter()
    code, out, err = run_cli(argv + ["--degree", str(largest + 1)], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith(f"error: expanding {name}, whose ")
    assert f"denominator has degree {den_degree}, to degree {largest + 1} is above" in err
    assert err.endswith(f"lower --degree to {largest} or below\n")
    assert err.count("\n") == 1


def test_closed_form_too_long_to_print_exits_2_before_the_oracle_runs(capsys, tmp_path):
    # With M = 10^300 t, the loop series of (M, M v RP^inf) passes the print
    # limit at t^15 under the default limit; the oracle would take over a
    # minute to get there at the largest verify degree.
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter prints ints of any length")
    catalog = write_catalog(tmp_path, [0, 10**300])
    argv = ["--A", "M", "--Y", "M v RP^inf", "--degree", str(cli.MAX_VERIFY_DEGREE), "--catalog", catalog]
    start = time.perf_counter()
    code, out, err = run_cli(["verify"] + argv, capsys)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    # compute names the same degree, which is t^15 under the default limit
    assert run_cli(["compute"] + argv, capsys) == (2, "", err)
    assert err.endswith("; lower --degree below 15\n") or limit != 4300


def test_smash_above_the_degree_limit_exits_2_quickly(capsys):
    # twelve factors of degree 1000; the third passes the limit
    argv = ["compute", "--A", " ^ ".join(["RP^1000"] * 12), "--Y", "S^2", "--degree", "5"]
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: smash of RP^1000 ^ RP^1000 and RP^1000: ")
    assert err.endswith(f"degree 3000, above the limit {spaces.MAX_SERIES_DEGREE}\n")
    assert err.count("\n") == 1


def test_negative_coefficient_beyond_degree_is_not_checked(capsys, tmp_path):
    # P = t/(1 - t + t^2) = t + t^2 - t^4 - t^5 + ...: m + n = 3, and the
    # first negative coefficient, t^4, lies above it
    catalog = write_catalog(tmp_path, [0, 1], [1, -1, 1])
    for a, y in (("M", "S^2"), ("pt", "M")):
        pair = ["--A", a, "--Y", y, "--catalog", catalog]
        for argv in (["collapse", "--mono"], ["compute", "--degree", "3"]):
            code, out, err = run_cli(argv + pair, capsys)
            assert (code, err) == (0, "")
        assert run_cli(["compute", "--degree", "4"] + pair, capsys) == (2, "", negative_at(4, -1))


@pytest.mark.parametrize("numerator, q", [([0, -1], 1), ([0, 1, 0, -1], 3)], ids=["-t", "t-t^3"])
def test_negative_coefficient_within_the_entry_horizon_is_refused_above_degree(
    capsys, tmp_path, numerator, q
):
    # A polynomial has m + n = its degree, so its first negative coefficient
    # is refused below it, and by collapse, which takes no degree
    catalog = write_catalog(tmp_path, numerator)
    for argv in (["compute", "--degree", str(q - 1)], ["verify", "--degree", "0"], ["collapse", "--mono"]):
        argv += ["--A", "pt", "--Y", "M", "--catalog", catalog]
        assert run_cli(argv, capsys) == (2, "", negative_at(q, -1))


def test_negative_coefficient_too_long_to_print_is_shown_by_its_length(capsys, tmp_path):
    # 1 - 19754e296 t + 1e600 t^2 has complex roots of modulus 10^-300 at an
    # angle near pi/20, so M's first negative coefficient is at t^21, and
    # it has 6000 digits: more than str() of an int may print by default
    catalog = write_catalog(tmp_path, [0, 1], [1, -19754 * 10**296, 10**600])
    message = (
        "error: M: series coefficient of t^21 is negative and has 6000 digits, "
        "so it cannot hold Betti numbers\n"
    )
    for command in ("compute", "verify"):
        argv = [command, "--A", "pt", "--Y", "M", "--degree", "25", "--catalog", catalog]
        assert run_cli(argv, capsys) == (2, "", message)


def test_unprintable_betti_number_of_the_subspace_reaches_the_loop_series_a_degree_later(
    capsys, tmp_path
):
    # M = t/(1 - 10^297 t) has b_q = 10^(297 (q - 1)), too long to print from
    # t^16 on.  The loop series is at least b_q(Y) in degree q, but only at
    # least b_(q-1)(A): an early stop at A's first unprintable degree would
    # refuse the first command, which prints.
    if sys.get_int_max_str_digits() != 4300:
        pytest.skip("the degrees below are those of the default print limit")
    catalog = write_catalog(tmp_path, [0, 1], [1, -(10**297)])
    refusal = (
        "error: the coefficient of t^{0} has more than 4300 digits, too long to print; "
        "lower --degree below {0}\n"
    )
    argv = ["compute", "--A", "M", "--Y", "S^1", "--degree", "16", "--catalog", catalog]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[2].startswith("coeffs: [0,1,2,")
    argv[argv.index("16")] = "17"
    assert run_cli(argv, capsys) == (2, "", refusal.format(17))
    argv = ["compute", "--A", "pt", "--Y", "S^1 v M", "--degree", "16", "--catalog", catalog]
    assert run_cli(argv, capsys) == (2, "", refusal.format(16))


def test_sign_check_of_the_largest_nonnegative_entries_stays_quick(capsys, tmp_path):
    # Two entries at both catalog limits, 64 coefficients of 301 digits,
    # nonnegative since den = 1 - (positive terms): collapse reduces them
    # and expands each to its m + n = 126.
    rng = random.Random(1)
    entries = [
        {"name": f"E{i}", "numerator": [0] + [rng.randrange(10**300, 10**301) for _ in range(63)],
         "denominator": [1] + [-rng.randrange(10**300, 10**301) for _ in range(63)],
         "diagonal_null": True}
        for i in range(2)
    ]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(entries))
    start = time.perf_counter()
    argv = ["collapse", "--mono", "--A", "E0", "--Y", "E0 v E1", "--catalog", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 3.0
    assert (code, err) == (0, "")
    assert out.endswith("\nequal\n")


def test_a_catalog_entry_is_always_within_the_expansion_work_limit():
    # The sign check expands each entry to at most MAX_DEGREE, or to its
    # m + n below 2 * MAX_CATALOG_LENGTH, over a denominator of degree
    # below MAX_CATALOG_LENGTH; only the loop series needs the limit.
    assert 2 * spaces.MAX_CATALOG_LENGTH <= cli.MAX_DEGREE
    assert spaces.MAX_CATALOG_LENGTH * cli.MAX_DEGREE <= cli.MAX_EXPANSION_WORK


LONG_NAME_REFUSALS = [
    # refused when the file is loaded, before any expression is read
    ({"numerator": [1], "diagonal_null": True}, ["--A", "pt", "--Y", "S^1"], False,
     "{}: diagonal-null spaces are path-connected, but the series has a nonzero constant coefficient"),
    ({"numerator": [0, 1], "diagonal_null": False}, ["--A", "{}", "--Y", "S^2"], True,
     "{}: the loop series needs the reduced diagonal declared null"),
    ({"numerator": [1], "diagonal_null": False}, ["--A", "pt", "--Y", "{}"], True,
     "{}: the loop series needs a path-connected space (zero constant series coefficient)"),
    ({"numerator": [0, -1], "diagonal_null": True}, ["--A", "pt", "--Y", "{}"], False,
     "{}: series coefficient -1 of t^1 is negative, so it cannot hold Betti numbers"),
    ({"numerator": [0, 1], "denominator": [2], "diagonal_null": True}, ["--A", "pt", "--Y", "{}"], False,
     "{}: series in lowest terms has a denominator other than 1 at t = 0, "
     "so some coefficient is not an integer and it cannot hold Betti numbers"),
]


@pytest.mark.parametrize("entry, argv, names_the_space, message", LONG_NAME_REFUSALS,
                         ids=["diagonal-null", "gate-diagonal", "gate-connected", "negative", "fatou"])
@pytest.mark.parametrize("inside", [False, True], ids=["alone", "in-wedge"])
@pytest.mark.parametrize("length", [40, 41, 5000])
def test_long_entry_name_is_shown_by_its_length_in_every_refusal(
    capsys, tmp_path, entry, argv, names_the_space, message, inside, length
):
    # The gates name the space they refuse, so a wedge is named whole, with
    # the entry's name shortened in it; an entry's own refusals name the entry.
    name = "x" * length
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([{"name": name, "denominator": [1], **entry}]))
    expression = f"S^2 v {name}" if inside else name
    argv = ["compute", *(a.format(expression) for a in argv), "--catalog", str(path)]
    shown = name if length <= 40 else _shown(name)
    if inside and names_the_space:
        shown = f"S^2 v {shown}"
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message.format(shown)}\n")
    assert len(err.encode()) < 300


# Catalog entries of small signed coefficients with den(0) = 1; num(0) = 0
# keeps them path-connected and diagonal-null.
SIGNED_ENTRIES = st.lists(
    st.tuples(
        st.lists(st.integers(-2, 2), min_size=1, max_size=4).map(lambda cs: [0, *cs]),
        st.lists(st.integers(-2, 2), max_size=3).map(lambda cs: [1, *cs]),
    ),
    min_size=2,
    max_size=2,
)
SIGNED_EXPRESSIONS = st.recursive(
    st.sampled_from(["E0", "E1", "E0", "E1", "S^1", "S^2", "RP^2", "RP^inf", "pt"]),
    lambda inner: st.one_of(
        st.builds("{} v {}".format, inner, inner),
        st.builds("({}) ^ ({})".format, inner, inner),
        st.builds("susp({})".format, inner),
        st.builds("cone({})".format, inner),
    ),
    max_leaves=4,
)


def _first_negative(num, den, bound):
    """(q, a_q) for the first negative a_q of num/den up to bound, by the recurrence den * a = num."""
    out = []
    for q in range(bound + 1):
        a = num[q] if q < len(num) else 0
        a -= sum(den[k] * out[q - k] for k in range(1, min(q, len(den) - 1) + 1))
        if a < 0:
            return q, a
        out.append(a)
    return None


@settings(max_examples=200, deadline=None)
@given(entries=SIGNED_ENTRIES, a=SIGNED_EXPRESSIONS, y=SIGNED_EXPRESSIONS, degree=st.integers(0, 12))
def test_compute_refuses_exactly_an_entry_with_a_negative_coefficient_in_its_horizon(
    tmp_path_factory, entries, a, y, degree
):
    catalog = [
        {"name": f"E{i}", "numerator": num, "denominator": den, "diagonal_null": True}
        for i, (num, den) in enumerate(entries)
    ]
    path = tmp_path_factory.mktemp("signed") / "catalog.json"
    path.write_text(json.dumps(catalog))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["compute", "--A", a, "--Y", y, "--degree", str(degree), "--catalog", str(path)])
    # Entries are checked in the order the two expressions first name them.
    for name in dict.fromkeys(re.findall(r"E\d", f"{a} {y}")):
        num, den = entries[int(name[1])]
        g = _prs_gcd(gfcore.IntPolynomial(num), gfcore.IntPolynomial(den))
        horizon = gfcore.IntPolynomial(num).degree + gfcore.IntPolynomial(den).degree - 2 * g.degree
        first = _first_negative(num, den, max(degree, horizon))
        if first is not None:
            assert (code, out.getvalue(), err.getvalue()) == (2, "", negative_at(*first, name=name))
            return
    # Otherwise the command prints what the library computes, and the
    # accepted expansion is nonnegative, as Betti numbers of a loop space are.
    table = spaces.parse_catalog(catalog)
    try:
        series = formulas.loop_series(
            spaces.PairInclusion(sub=parse_space(a, table), ambient=parse_space(y, table))
        )
    except LoopspaceError as exc:
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {exc}\n")
        return
    coeffs = list(series.expand(degree))
    assert min(coeffs) >= 0
    expected = (
        f"num: {cli._fmt_list(series.num.coeffs or [0])}\n"
        f"den: {cli._fmt_list(series.den.coeffs)}\n"
        f"coeffs: {cli._fmt_list(coeffs)}\n"
    )
    assert (code, out.getvalue(), err.getvalue()) == (0, expected, "")


def write_entries(tmp_path, extra=()):
    """A catalog of 24 non-monic series E0..E23 (even ones diagonal-null), plus extra."""
    entries = [
        {
            "name": f"E{i}",
            "numerator": [0, 1 + i, i % 3],
            "denominator": [1, -(1 + i % 3)],
            "diagonal_null": i % 2 == 0,
        }
        for i in range(24)
    ]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(entries + list(extra)))
    return str(path)


def test_compute_builds_only_the_catalog_entries_it_names(capsys, tmp_path, monkeypatch):
    catalog = write_entries(tmp_path)
    built = []
    from_coeffs = RationalGF.from_coeffs.__func__

    def recording(cls, num, den=(1,)):
        built.append(f"E{num[1] - 1}")
        return from_coeffs(cls, num, den)

    monkeypatch.setattr(RationalGF, "from_coeffs", classmethod(recording))
    argv = ["compute", "--A", "E4", "--Y", "E7 v S^2 v E7", "--catalog", catalog]
    code, _, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert sorted(built) == ["E4", "E7"]


@pytest.mark.parametrize(
    "bad, message",
    [
        (
            {"numerator": [1, 1], "denominator": [1], "diagonal_null": True},
            "bad: diagonal-null spaces are path-connected, "
            "but the series has a nonzero constant coefficient",
        ),
        (
            {"numerator": [0, 1], "denominator": [0, 1], "diagonal_null": False},
            "catalog entry 'bad': denominator needs a nonzero entry at index 0",
        ),
    ],
)
def test_invalid_catalog_entry_is_refused_though_never_named(capsys, tmp_path, bad, message):
    catalog = write_entries(tmp_path, [dict(bad, name="bad")])
    argv = ["compute", "--A", "E0", "--Y", "S^2", "--catalog", catalog]
    assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [["compute", "--format", fmt] for fmt in ("plain", "json", "csv")] + [["verify"]],
)
def test_coefficient_too_long_to_print_exits_2(capsys, tmp_path, argv):
    # M has Betti number 10^600 in degree 1, so the loop series is
    # 10^600 t / (1 - 10^600 t) and t^q has 600 q + 1 digits
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter prints ints of any length")
    first = (limit - 1) // 600 + 1
    catalog = write_catalog(tmp_path, [0, 10**600])
    argv = argv + ["--A", "pt", "--Y", "M", "--degree", str(first + 2), "--catalog", catalog]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"coefficient of t^{first} " in err and "lower --degree" in err
    assert "set_int_max_str_digits" not in err
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("per_step", [0, 10**9], ids=["decimal", "int"])
@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_print_limit_boundary_is_the_same_for_both_number_types(capsys, tmp_path, fmt, per_step):
    # M = a t + b t^2 with a = 10^320 - 1, so the loop series P/(1 - P) has
    # a^2 + b at t^2: 10^640 - 1 (640 digits) for the first b, 10^640 for the next
    old_limit = sys.get_int_max_str_digits()
    a = 10**320 - 1
    try:
        sys.set_int_max_str_digits(640)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gfcore, "_DECIMAL_DEGREES_PER_STEP", per_step)
            results = []
            for b in (2 * 10**320 - 2, 2 * 10**320 - 1):
                catalog = write_catalog(tmp_path, [0, a, b])
                argv = ["compute", "--A", "pt", "--Y", "M", "--degree", "2", "--format", fmt,
                        "--catalog", catalog]
                results.append(run_cli(argv, capsys))
    finally:
        sys.set_int_max_str_digits(old_limit)
    (code, out, err), refused = results
    assert (code, err) == (0, "")
    assert str(10**640 - 1) in out
    assert refused == (
        2, "", "error: the coefficient of t^2 has more than 640 digits, too long to print; "
        "lower --degree below 2\n",
    )


BIG = 10**4000 + 7  # 4001 digits: readable, but its square is too long to print


@pytest.mark.parametrize(
    "numerator, denominator, argv, row",
    [
        # M^M = t^4/(1 - BIG t)^2: the numerator [0,0,0,0,1] prints, the denominator cannot
        ([0, 0, 1], [1, -BIG], ["compute"], "the loop series denominator"),
        # M^M = BIG^2 t^4/(1 - t)^2
        ([0, 0, BIG], [1, -1], ["compute"], "the loop series numerator"),
        ([0, 0, BIG], [1, -1], ["compute", "--format", "json"], "the loop series numerator"),
        ([0, 0, BIG], [1, -1], ["collapse", "--mono"], "chi E1 denominator"),
    ],
)
def test_polynomial_too_long_to_print_exits_2_before_any_output(
    capsys, tmp_path, numerator, denominator, argv, row
):
    limit = sys.get_int_max_str_digits()
    if not limit or limit > 8000:
        pytest.skip("this interpreter prints these ints")
    catalog = write_catalog(tmp_path, numerator, denominator)
    argv = argv + ["--A", "pt", "--Y", "M^M", "--catalog", catalog]
    if argv[0] == "compute":
        argv += ["--degree", "0"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {row}: the coefficient of t^")
    assert "lower --degree" not in err
    assert "set_int_max_str_digits" not in err


def test_catalog_integer_too_long_to_read_exits_2(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter reads ints of any length")
    path = tmp_path / "catalog.json"
    path.write_text(
        '[{"name": "M", "numerator": [0, 1' + "0" * limit + '], '
        '"denominator": [1], "diagonal_null": true}]'
    )
    argv = ["compute", "--A", "pt", "--Y", "M", "--catalog", str(path)]
    assert run_cli(argv, capsys) == (
        2, "", f"error: {path}: a catalog integer has over {limit} digits\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--A", "pt", "--Y", "(" * 5000 + "S^1" + ")" * 5000],
        ["compute", "--A", "pt", "--Y", " v ".join(["S^1"] * 3000)],
        ["verify", "--A", "S^99999999999", "--Y", "S^2"],
        ["compute", "--A", "pt", "--Y", "RP^99999999999"],
        ["compute", "--A", "pt", "--Y", "S^1", "--degree", str(cli.MAX_DEGREE + 1)],
        ["verify", "--A", "pt", "--Y", "S^1", "--degree", str(cli.MAX_DEGREE + 1)],
        ["verify", "--A", "susp(RP^inf)", "--Y", "RP^inf v S^2",
         "--degree", str(cli.MAX_VERIFY_DEGREE + 1)],
        ["identity", "--kmax", "1", "--degree", str(cli.MAX_DEGREE + 1)],
        ["identity", "--kmax", str(cli.MAX_KMAX + 1)],
    ],
)
def test_inputs_beyond_the_limits_exit_2(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("digits", [1001, 4301, 100_000])
@pytest.mark.parametrize("atom, message", [
    ("S", f"sphere dimension must be between 1 and {spaces.MAX_DIMENSION}"),
    ("RP", f"projective dimension must be an integer between 1 and {spaces.MAX_DIMENSION} or inf"),
])
def test_dimension_literal_is_refused_by_its_length(capsys, digits, atom, message):
    # int() of a literal over the int-to-str limit would fail with advice
    # about an interpreter setting; no digit of the literal is echoed
    start = time.perf_counter()
    code, out, err = run_cli(["compute", "--A", "pt", "--Y", f"{atom}^{'9' * digits}"], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: {message}, got a {digits}-digit number\n"


FLAG_LIMITS = pytest.mark.parametrize(
    "argv, flag, limit",
    [
        (["compute", "--A", "pt", "--Y", "S^1"], "--degree", cli.MAX_DEGREE),
        (["verify", "--A", "pt", "--Y", "S^1"], "--degree", cli.MAX_VERIFY_DEGREE),
        (["identity"], "--kmax", cli.MAX_KMAX),
    ],
    ids=["compute", "verify", "identity"],
)


@pytest.mark.parametrize("digits", [4301, 5000, 100_000])
@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
@FLAG_LIMITS
def test_flag_literal_is_refused_by_its_length(capsys, digits, sign, argv, flag, limit):
    # over the int-to-str limit argparse's int() would fail and echo the
    # literal; under it the range message would show every digit
    start = time.perf_counter()
    code, out, err = run_cli(argv + [flag, sign + "9" * digits], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be between 0 and {limit}, got a {digits}-digit number\n"
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "literal, shown",
    [("10001", "10001"), ("-1", "-1"), ("0" * 5000 + "10001", "10001")],
    ids=["10001", "-1", "leading-zeros"],
)
@FLAG_LIMITS
def test_short_flag_literal_is_shown_in_the_refusal(capsys, literal, shown, argv, flag, limit):
    code, out, err = run_cli(argv + [flag, literal], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be between 0 and {limit}, got {shown}\n"


def _shown(text):
    """How a refusal shows text: whole up to 40 characters, else its start and length."""
    if len(text) <= 40:
        return repr(text)
    return f"'{text[:16]}'... (a {len(text)}-character string)"


@pytest.mark.parametrize("length", [3, 40, 41, 5000])
@pytest.mark.parametrize(
    "letter, argv, message",
    [
        ("x", ["--Y", "S^1", "--degree", "{}"], "argument --degree: invalid int value: {}"),
        ("n", ["--Y", "{}"], "unknown space name {}"),
        ("n", ["--Y", "S^1 {}"], "unexpected {} at offset 4; expected one of v, ^, end of input"),
        ("^", ["--Y", "S^1 {} S^2"], "unexpected token {} at offset 4"),
    ],
    ids=["degree", "unknown-name", "parse", "caret-run"],
)
def test_long_token_is_shown_by_its_length(capsys, length, letter, argv, message):
    # up to 40 characters the refusal quotes the token whole, as it always did
    token = letter * length
    code, out, err = run_cli(["compute", "--A", "pt"] + [a.format(token) for a in argv], capsys)
    assert (code, out) == (2, "")
    # argparse puts its usage lines first
    assert err.endswith(f"error: {message.format(_shown(token))}\n")
    assert len(err.encode()) < 300


@pytest.mark.parametrize(
    "name, shown",
    [("x" * 5000, _shown("x" * 5000)), (["a"] * 2000, "an array")],
    ids=["long", "array"],
)
def test_catalog_name_in_a_refusal_is_short(capsys, tmp_path, name, shown):
    path = tmp_path / "catalog.json"
    entry = {"name": name, "numerator": [0, 1], "denominator": "no", "diagonal_null": True}
    path.write_text(json.dumps([entry]))
    code, out, err = run_cli(["compute", "--A", "pt", "--Y", "S^1", "--catalog", str(path)], capsys)
    assert (code, out) == (2, "")
    assert shown in err
    assert len(err.encode()) < 300


def test_dimension_literal_with_leading_zeros_reads_as_its_value(capsys):
    code, out, _ = run_cli(["compute", "--A", "pt", "--Y", "S^" + "0" * 5000 + "2"], capsys)
    assert code == 0
    assert out == run_cli(["compute", "--A", "pt", "--Y", "S^2"], capsys)[1]


def test_readme_input_limits_match_the_constants():
    # Each limit in the README's list is written as a number, perhaps a unit
    # and a line break, then (`module.MAX_NAME`); every MAX_* of the three
    # modules with limits must be listed.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\nInput limits", 1)[1].split("\n\n")[1]
    cited = re.findall(r"`(\w+)\.(MAX_\w+)`", section)
    numbered = re.findall(r"([\d,]+)(?: \w+)?\s+\(`(\w+)\.(MAX_\w+)`", section)
    assert [(module, name) for _, module, name in numbered] == cited
    for number, module, name in numbered:
        assert int(number.replace(",", "")) == getattr(getattr(loopspace, module), name), name
    constants = {
        (module, name)
        for module in ("cli", "spaces", "spaceexpr")
        for name in vars(getattr(loopspace, module))
        if name.startswith("MAX_")
    }
    assert constants == set(cited)


def test_parser_is_built_once_and_reused(capsys):
    sequence = [
        ["compute", "--A", "S^1", "--Y", "S^2", "--degree", "6"],
        ["compute", "--A", "S^1"],  # usage error: --Y missing
        ["verify", "--A", "S^1", "--Y", "cone(S^1)", "--degree", "5"],
        ["collapse", "--A", "S^1", "--Y", "S^1 v S^2", "--mono"],
    ]
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(argv, capsys))
    reused = [run_cli(argv, capsys) for argv in sequence]
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0]
    assert cli.build_parser() is cli.build_parser()


def test_usage_errors_exit_2(capsys):
    assert run_cli(["compute", "--A", "S^1"], capsys)[0] == 2  # missing --Y
    assert run_cli(["nonsense"], capsys)[0] == 2
    assert run_cli([], capsys)[0] == 2
    assert run_cli(["compute", "--A", "pt", "--Y", "S^1", "--format", "xml"], capsys)[0] == 2


def test_help_exits_0(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "compute" in out


def test_exit_codes_stay_in_contract(capsys):
    invocations = [
        ["compute", "--A", "S^1", "--Y", "S^2"],
        ["compute", "--A", "RP^2", "--Y", "S^2"],
        ["compute", "--A", "(((", "--Y", "S^2"],
        ["verify", "--A", "pt", "--Y", "S^2", "--degree", "6"],
        ["collapse", "--A", "pt", "--Y", "S^1", "--mono"],
        ["collapse", "--A", "pt", "--Y", "S^1"],
        ["identity", "--kmax", "3", "--degree", "10"],
        ["bogus"],
    ]
    for argv in invocations:
        assert cli.main(argv) in (0, 1, 2), argv
    capsys.readouterr()


@pytest.mark.parametrize("module", ["loopspace", "loopspace.cli"])
def test_runs_as_a_module(module):
    env = dict(os.environ, PYTHONPATH=str(Path(loopspace.__file__).parents[1]))
    argv = ["compute", "--A", "S^1", "--Y", "S^2", "--degree", "4"]
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "num: [0,0,2,-1]",
        "den: [1,-1,-2,1]",
        "coeffs: [0,0,2,1,5]",
    ]


# ---------------------------------------------------------------- argv fuzz

# Mostly well-formed pairs, so that the commands run through to their
# output; odd atoms and junk text make the rest.
ATOMS = st.sampled_from(
    ["S^1", "S^2", "S^3", "RP^1", "RP^inf", "pt", "M", "N"] * 4
    + ["RP^2", "neg", "ghost", "S^0", "RP^99999999999", "S^\u00b2", "((", ""]
)
WELL_FORMED = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.builds("{} v {}".format, inner, inner),
        st.builds("{} ^ {}".format, inner, inner),
        st.builds("susp({})".format, inner),
        st.builds("cone({})".format, inner),
        st.builds("({})".format, inner),
    ),
    max_leaves=5,
)
JUNK = st.text(alphabet="SRPMinfptv^()0123456789 ,-", max_size=12)
EXPRESSIONS = st.one_of(WELL_FORMED, WELL_FORMED, WELL_FORMED, JUNK)
NUMBERS = st.sampled_from([str(n) for n in range(-1, 31)] + ["", "x", "1.5", "-0"])


@pytest.fixture(scope="module")
def fuzz_catalog(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "catalog.json"
    entries = [
        {"name": "M", "numerator": [0, 1, 2], "denominator": [1, -2], "diagonal_null": True},
        {"name": "N", "numerator": [0, 3], "denominator": [1, -1], "diagonal_null": False},
        {"name": "neg", "numerator": [0, 0, -1], "denominator": [1], "diagonal_null": True},
    ]
    path.write_text(json.dumps(entries))
    return str(path)


@st.composite
def argvs(draw, catalog):
    command = draw(st.sampled_from(["compute", "verify", "collapse", "identity"]))
    if command == "identity":
        flags = {"--kmax": st.integers(-2, 8).map(str), "--degree": NUMBERS}
    else:
        flags = {"--A": EXPRESSIONS, "--Y": EXPRESSIONS, "--catalog": st.just(catalog)}
        if command != "collapse":
            flags["--degree"] = NUMBERS
        if command == "compute":
            flags["--format"] = st.sampled_from(["plain", "json", "csv"] * 3 + ["xml"])
    argv = [command]
    for flag, values in flags.items():
        # Flags are sometimes left out, so required ones go missing too.
        if draw(st.sampled_from([True] * 9 + [False])):
            argv += [flag, draw(values)]
    if command == "collapse" and draw(st.booleans()):
        argv.append("--mono")
    if draw(st.sampled_from([False] * 9 + [True])):
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--help"])))
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_argv_fuzz_keeps_the_exit_contract(fuzz_catalog, data):
    argv = data.draw(argvs(fuzz_catalog))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    assert "Traceback" not in out.getvalue() + err.getvalue()
