"""Command-line front end.

Four subcommands:

* ``compute``   closed-form loop-space series for a pair, plus expansion
* ``verify``    closed form against the degreewise combinatorial oracle
* ``collapse``  Euler-characteristic comparison for the two-stage filtration
* ``identity``  binomial generating-function self-test

Exit codes are part of the contract: 0 success, 1 a verification or
identity mismatch, 2 usage or hypothesis errors.  Nothing else.
All numeric output is exact integers; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Mapping, Sequence

from . import combinatorics, formulas, spaces
from .errors import LoopspaceError
from .gfcore import RationalGF
from .spaces import PairInclusion, SpaceProfile
from .spaceexpr import evaluate, parse_space


def _fmt_list(values: Sequence[int]) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


def _poly_list(series: RationalGF, part: str) -> list[int]:
    poly = series.num if part == "num" else series.den
    return list(poly.coeffs) or [0]


def _load_catalog(path: str | None) -> dict[str, SpaceProfile] | None:
    if path is None:
        return None
    return spaces.load_catalog(path)


def _build_pair(
    a_text: str,
    y_text: str,
    catalog: Mapping[str, SpaceProfile] | None,
    mono: bool = False,
) -> PairInclusion:
    sub = evaluate(parse_space(a_text, catalog), catalog)
    ambient = evaluate(parse_space(y_text, catalog), catalog)
    return PairInclusion(sub=sub, ambient=ambient, mono_in_homology=mono)


def cmd_compute(args: argparse.Namespace) -> int:
    catalog = _load_catalog(args.catalog)
    pair = _build_pair(args.A, args.Y, catalog)
    series = formulas.loop_series(pair).normalized()
    coeffs = list(series.expand(args.degree).coeffs)
    num = _poly_list(series, "num")
    den = _poly_list(series, "den")
    if args.format == "plain":
        print(f"num: {_fmt_list(num)}")
        print(f"den: {_fmt_list(den)}")
        print(f"coeffs: {_fmt_list(coeffs)}")
    elif args.format == "json":
        payload = {
            "numerator": num,
            "denominator": den,
            "coefficients": coeffs,
            "degree": args.degree,
        }
        print(json.dumps(payload))
    else:
        print("degree,coefficient")
        for q, c in enumerate(coeffs):
            print(f"{q},{c}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    catalog = _load_catalog(args.catalog)
    pair = _build_pair(args.A, args.Y, catalog)
    closed = list(formulas.loop_series(pair).expand(args.degree).coeffs)
    oracle = list(combinatorics.loop_series_oracle(pair, args.degree).coeffs)
    diff = [c - o for c, o in zip(closed, oracle)]
    print(f"closed form: {_fmt_list(closed)}")
    print(f"oracle:      {_fmt_list(oracle)}")
    print(f"diff:        {_fmt_list(diff)}")
    if closed == oracle:
        print(f"agree through degree {args.degree}")
        return 0
    first = next(q for q, d in enumerate(diff) if d != 0)
    print(f"first differing degree: {first}")
    return 1


def cmd_collapse(args: argparse.Namespace) -> int:
    catalog = _load_catalog(args.catalog)
    pair = _build_pair(args.A, args.Y, catalog, mono=args.mono)
    # The mono flag is a user assertion; injectivity of the pair map in
    # homology cannot be read off from the series, so a wrong assertion
    # here still produces a (vacuously) equal comparison.
    e1 = formulas.euler_series_e1(spaces.union_series(pair)).normalized()
    einf = formulas.euler_series_einf(formulas.loop_series(pair)).normalized()
    print(f"chi E1:   {e1}")
    print(f"chi Einf: {einf}")
    if e1 == einf:
        print("equal")
        return 0
    print("unequal")
    return 1


def cmd_identity(args: argparse.Namespace) -> int:
    if args.kmax < 0:
        raise ValueError(f"--kmax must be >= 0, got {args.kmax}")
    failures = []
    total = 0
    for k in range(args.kmax + 1):
        for m in range(k + 1):
            total += 1
            if not combinatorics.binomial_gf_check(k, m, args.degree):
                failures.append((k, m))
    for k, m in failures:
        print(f"mismatch: k={k} m={m}")
    if failures:
        return 1
    print(f"checked {total} binomial series pairs to degree {args.degree}: all agree")
    return 0


def _add_pair_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--A", required=True, metavar="EXPR", help="subspace expression")
    sub.add_argument("--Y", required=True, metavar="EXPR", help="ambient space expression")
    sub.add_argument("--catalog", metavar="FILE", help="JSON catalog of named spaces")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopspace",
        description="Exact mod-2 Betti series of looped smash-product unions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compute", help="closed-form series and its expansion")
    _add_pair_flags(p)
    p.add_argument("--degree", type=int, default=20, metavar="N")
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(func=cmd_compute)

    p = subs.add_parser("verify", help="closed form vs. degreewise oracle")
    _add_pair_flags(p)
    p.add_argument("--degree", type=int, default=20, metavar="N")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("collapse", help="Euler series comparison for the union")
    _add_pair_flags(p)
    p.add_argument(
        "--mono",
        action="store_true",
        help="assert the subspace map is injective in homology (not checkable)",
    )
    p.set_defaults(func=cmd_collapse)

    p = subs.add_parser("identity", help="binomial generating-function self-test")
    p.add_argument("--kmax", type=int, default=8, metavar="K")
    p.add_argument("--degree", type=int, default=30, metavar="N")
    p.set_defaults(func=cmd_identity)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 after --help; keep both.
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (LoopspaceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
