"""Command-line front end.

Four subcommands:

* ``compute``   closed-form loop-space series for a pair, plus expansion
* ``verify``    closed form against the degreewise combinatorial oracle
* ``collapse``  Euler-characteristic comparison for the two-stage filtration
* ``identity``  binomial generating-function self-test

Exit codes are part of the contract: 0 success, 1 a verification or
identity mismatch, 2 usage or hypothesis errors.  Nothing else.
All numeric output is exact integers; diagnostics go to stderr.
Inputs beyond the documented limits (``--degree`` above ``MAX_DEGREE``,
``verify --degree`` above ``MAX_VERIFY_DEGREE``, ``--kmax`` above
``MAX_KMAX``, ``spaceexpr.MAX_DEPTH``,
``spaces.MAX_DIMENSION``) are usage errors, and so is a coefficient too long
for Python's int-to-str limit, which is read and never changed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from . import combinatorics, formulas, spaces
from .errors import LoopspaceError
from .spaces import PairInclusion
from .spaceexpr import evaluate, parse_space

#: Largest --degree accepted; expansion time and memory grow with it.
MAX_DEGREE = 10_000

#: Largest verify --degree accepted.  The oracle's power table has about
#: N^3/2 entries and its sum costs O(N^4); at this degree the densest pairs
#: take about 3 s and 40 MB.
MAX_VERIFY_DEGREE = 120

#: Largest --kmax accepted.  identity checks each k once, expanded to
#: --degree; at kmax 48 and degree 10000 that takes about 3 s.
MAX_KMAX = 48


def _fmt_list(values: Sequence[int]) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


def _check_printable(*rows: Sequence[int]) -> None:
    """Refuse, naming its degree, the first coefficient too long for str()."""
    limit = sys.get_int_max_str_digits()
    too_long = 10**limit
    if limit and any(max(map(abs, row)) >= too_long for row in rows):
        q = min(i for row in rows for i, c in enumerate(row) if abs(c) >= too_long)
        raise ValueError(
            f"the coefficient of t^{q} has more than {limit} digits, too long "
            f"to print; lower --degree below {q}"
        )


def _check_limit(flag: str, value: int, limit: int) -> None:
    if not 0 <= value <= limit:
        raise ValueError(f"{flag} must be between 0 and {limit}, got {value}")


def _build_pair(
    args: argparse.Namespace, degree: int | None = None, mono: bool = False
) -> PairInclusion:
    """The pair named by --A and --Y, resolved against --catalog if given.

    With a degree, a catalog-built A or Y whose series has a negative
    coefficient up to that degree is refused, since it cannot hold Betti
    numbers.  Built-in atoms and their wedges, smashes and suspensions are
    never negative, so without a catalog nothing is expanded here.
    """
    catalog = None if args.catalog is None else spaces.load_catalog(args.catalog)
    sub = evaluate(parse_space(args.A, catalog))
    ambient = evaluate(parse_space(args.Y, catalog))
    if catalog is not None and degree is not None:
        for space in (sub, ambient):
            for q, b in enumerate(space.betti(degree)):
                if b < 0:
                    raise ValueError(
                        f"{space.name}: series coefficient {b} of t^{q} is negative, "
                        "so it cannot hold Betti numbers"
                    )
    return PairInclusion(sub=sub, ambient=ambient, mono_in_homology=mono)


def cmd_compute(args: argparse.Namespace) -> int:
    _check_limit("--degree", args.degree, MAX_DEGREE)
    pair = _build_pair(args, args.degree)
    series = formulas.loop_series(pair)
    coeffs = list(series.expand(args.degree).coeffs)
    _check_printable(coeffs)
    num = list(series.num.coeffs) or [0]
    den = list(series.den.coeffs)
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
    _check_limit("--degree", args.degree, MAX_VERIFY_DEGREE)
    pair = _build_pair(args, args.degree)
    closed = list(formulas.loop_series(pair).expand(args.degree).coeffs)
    oracle = list(combinatorics.loop_series_oracle(pair, args.degree).coeffs)
    diff = [c - o for c, o in zip(closed, oracle)]
    _check_printable(closed, oracle, diff)
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
    pair = _build_pair(args, mono=args.mono)
    # The mono flag is a user assertion; injectivity of the pair map in
    # homology cannot be read off from the series, so a wrong assertion
    # here still produces a (vacuously) equal comparison.
    e1, einf = formulas.collapse_series(pair)
    print(f"chi E1:   {e1}")
    print(f"chi Einf: {einf}")
    if e1 == einf:
        print("equal")
        return 0
    print("unequal")
    return 1


def cmd_identity(args: argparse.Namespace) -> int:
    _check_limit("--kmax", args.kmax, MAX_KMAX)
    _check_limit("--degree", args.degree, MAX_DEGREE)
    pairs = [(k, m) for k in range(args.kmax + 1) for m in range(k + 1)]
    check = combinatorics.binomial_gf_check
    failures = []
    for k in range(args.kmax + 1):
        # binom(n, k) = 0 for 0 <= n < k, so every (k, m) with m <= k has the
        # direct series of (k, 0): when (k, 0) agrees, the whole row agrees.
        # Only a failing row is checked pair by pair, to name its pairs.
        if not check(k, 0, args.degree):
            failures += [(k, m) for m in range(k + 1) if not check(k, m, args.degree)]
    for k, m in failures:
        print(f"mismatch: k={k} m={m}")
    if failures:
        return 1
    print(f"checked {len(pairs)} binomial series pairs to degree {args.degree}: all agree")
    return 0


def _add_pair_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--A", required=True, metavar="EXPR", help="subspace expression")
    sub.add_argument("--Y", required=True, metavar="EXPR", help="ambient space expression")
    sub.add_argument("--catalog", metavar="FILE", help="JSON catalog of named spaces")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
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
