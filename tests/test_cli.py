"""Command-line behavior: output formats, exit codes, catalog loading.

Each invocation goes through ``main`` in-process; exit codes are the
function's return value, never a raised SystemExit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopspace
from loopspace import cli
from loopspace.gfcore import TruncSeries


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
        return TruncSeries([0] * 3 + [9], bound=bound)

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


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--A", "pt", "--Y", "(" * 5000 + "S^1" + ")" * 5000],
        ["compute", "--A", "pt", "--Y", " v ".join(["S^1"] * 3000)],
        ["verify", "--A", "S^99999999999", "--Y", "S^2"],
        ["compute", "--A", "pt", "--Y", "RP^99999999999"],
        ["compute", "--A", "pt", "--Y", "S^1", "--degree", str(cli.MAX_DEGREE + 1)],
        ["verify", "--A", "pt", "--Y", "S^1", "--degree", str(cli.MAX_DEGREE + 1)],
        ["identity", "--kmax", "1", "--degree", str(cli.MAX_DEGREE + 1)],
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
