"""Command-line behavior: output formats, exit codes, catalog loading.

Each invocation goes through ``main`` in-process; exit codes are the
function's return value, never a raised SystemExit.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopspace
from loopspace import cli
from loopspace.gfcore import RationalGF, TruncSeries


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
        "error: (RP^2 v S^1) ^ RP^2: formula requires the subspace's reduced "
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


def test_identity_failure_path(capsys, monkeypatch):
    monkeypatch.setattr(cli.combinatorics, "binomial_gf_check", lambda k, m, n: False)
    code, out, _ = run_cli(["identity", "--kmax", "1", "--degree", "5"], capsys)
    assert code == 1
    assert "mismatch: k=0 m=0" in out


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


def write_catalog(tmp_path, numerator):
    path = tmp_path / "catalog.json"
    entry = {"name": "M", "numerator": numerator, "denominator": [1], "diagonal_null": True}
    path.write_text(json.dumps([entry]))
    return str(path)


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_negative_catalog_series_exits_2(capsys, tmp_path, command):
    catalog = write_catalog(tmp_path, [0, -1])
    for a, y in (("M", "S^2"), ("pt", "S^2 v M")):
        argv = [command, "--A", a, "--Y", y, "--degree", "5", "--catalog", catalog]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "negative" in err and "t^1" in err


def test_negative_coefficient_beyond_degree_is_not_checked(capsys, tmp_path):
    catalog = write_catalog(tmp_path, [0, 0, 1, 0, 0, -1])
    argv = ["compute", "--A", "M", "--Y", "S^2", "--degree", "4", "--catalog", catalog]
    assert run_cli(argv, capsys)[0] == 0
    argv[argv.index("4")] = "5"
    assert run_cli(argv, capsys)[0] == 2


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
