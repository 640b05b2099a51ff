"""Command-line front end.

Four subcommands:

* ``compute``   closed-form loop-space series for a pair, plus expansion
* ``verify``    closed form against the degreewise combinatorial oracle
* ``collapse``  Euler-characteristic comparison for the two-stage filtration
* ``identity``  binomial generating-function self-test

Exit codes are part of the contract: 0 success, 1 a verification or
identity mismatch, 2 usage or hypothesis errors.  Nothing else.
All numeric output is exact integers; diagnostics go to stderr.
Inputs beyond the documented limits (the ``MAX_*`` constants of this
module, ``spaceexpr`` and ``spaces``, each listed in the README) are usage
errors, and so is a number too long for Python's int-to-str limit, which
is read and never changed: every number a command prints is checked
before its first line is written.
"""

from __future__ import annotations

import argparse
import functools
import sys
from decimal import Decimal
from typing import Sequence

from . import combinatorics, formulas, spaces
from .errors import LoopspaceError, quoted
from .spaces import PairInclusion
from .spaceexpr import evaluate  # noqa: F401  bench/tracing.py wraps cli.evaluate by name
from .spaceexpr import literal_value, parse_space

#: Largest --degree accepted; expansion time and memory grow with it.
MAX_DEGREE = 10_000

#: Largest verify --degree accepted.  The oracle costs O(N^3) integer
#: operations and O(N^2) memory; at this degree the densest pairs tried
#: take about 0.5 s and 18.5 MB peak RSS, for the whole command.
MAX_VERIFY_DEGREE = 250

#: Largest --degree times denominator degree accepted for the loop series'
#: expansion: at most that many multiply-adds on growing integers, one per
#: nonzero denominator coefficient and degree (a catalog entry's sign check
#: needs at most 64 * MAX_DEGREE = 640,000).  In process on one CPU,
#: ``compute --A S^1 --Y RP^499 --degree 10000`` takes about 0.1 s, ``--Y
#: "RP^1000 ^ RP^1000" --degree 2498`` 0.4 s, and the densest tried, ``--Y
#: "RP^300 ^ RP^300 ^ RP^300" --degree 5500`` (901 nonzero taps), 1.6 s.
MAX_EXPANSION_WORK = 5_000_000

#: Largest --kmax accepted.  identity checks each k once, expanded to
#: --degree; at kmax 48 and degree 10000 that takes about 2.5 s.
MAX_KMAX = 48


@functools.cache
def _printable_range(limit: int, kind: type) -> tuple[int, int] | tuple[Decimal, Decimal]:
    """(-b, b) for b = 10^limit, the least value too long to print, as an int or a Decimal.

    A row is compared with the bound of its own type: comparing a Decimal
    with an int converts the int, in time quadratic in its length.
    """
    if kind is Decimal:
        return Decimal(f"-1e{limit}"), Decimal(f"1e{limit}")
    bound = 10**limit
    return -bound, bound


def _fmt_list(values: Sequence[int] | Sequence[Decimal], sep: str = ",") -> str:
    return "[" + sep.join(map(str, values)) + "]"


def _check_printable(*rows: Sequence[int] | Sequence[Decimal], name: str | None = None) -> None:
    """Refuse the first coefficient too long for str(): a named polynomial's, or an expansion's.

    Decimals, whose str() has no digit limit, are held to the int limit.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    firsts = []
    for r in rows:
        low, high = _printable_range(limit, type(r[0]))
        if low < min(r) and max(r) < high:
            continue
        firsts.append(next(i for i, c in enumerate(r) if not low < c < high))
    if firsts:
        q = min(firsts)
        message = f"the coefficient of t^{q} has more than {limit} digits, too long to print"
        if name is None:
            raise ValueError(f"{message}; lower --degree below {q}")
        raise ValueError(f"{name}: {message}")


def _integer(text: str) -> int | str:
    """A --degree or --kmax value, read by literal_value against MAX_DEGREE, the largest limit.

    A literal with more digits than that becomes "a N-digit number", which
    _check_limit then shows in place of the digits.
    """
    try:
        return literal_value(text, MAX_DEGREE)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quoted(text)}") from None


def _check_limit(flag: str, value: int | str, limit: int) -> None:
    if isinstance(value, str) or not 0 <= value <= limit:
        raise ValueError(f"{flag} must be between 0 and {limit}, got {value}")


def _build_pair(args: argparse.Namespace, degree: int = 0, mono: bool = False) -> PairInclusion:
    """The pair named by --A and --Y, resolved against --catalog if given.

    Each catalog entry named must hold Betti numbers (``spaces._Catalog``),
    and the operators keep that, so A and Y have Betti numbers up to degree.
    """
    catalog = None if args.catalog is None else spaces.load_catalog(args.catalog)
    sub = parse_space(args.A, catalog)
    ambient = parse_space(args.Y, catalog)
    if catalog is not None:
        catalog.check_signs(degree)
    return PairInclusion(sub=sub, ambient=ambient, mono_in_homology=mono)


def cmd_compute(args: argparse.Namespace) -> int:
    _check_limit("--degree", args.degree, MAX_DEGREE)
    pair = _build_pair(args, args.degree)
    series = formulas.loop_series(pair)
    num = list(series.num.coeffs) or [0]
    den = list(series.den.coeffs)
    _check_printable(num, name="the loop series numerator")
    _check_printable(den, name="the loop series denominator")
    if args.degree * series.den.degree > MAX_EXPANSION_WORK:
        raise ValueError(
            f"expanding the loop series, whose denominator has degree {series.den.degree}, to "
            f"degree {args.degree} is above the work limit {MAX_EXPANSION_WORK} for the product "
            f"of the two; lower --degree to {MAX_EXPANSION_WORK // series.den.degree} or below"
        )
    coeffs = series.expand_for_str(args.degree)
    _check_printable(coeffs)
    if args.format == "plain":
        text = f"num: {_fmt_list(num)}\nden: {_fmt_list(den)}\ncoeffs: {_fmt_list(coeffs)}\n"
    elif args.format == "json":
        # json.dumps prints no Decimal; this is its text for the same ints.
        text = (
            f'{{"numerator": {_fmt_list(num, ", ")}, "denominator": {_fmt_list(den, ", ")}, '
            f'"coefficients": {_fmt_list(coeffs, ", ")}, "degree": {args.degree}}}\n'
        )
    else:
        text = "degree,coefficient\n" + "".join(
            [f"{q},{c}\n" for q, c in enumerate(map(str, coeffs))]
        )
    sys.stdout.write(text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    _check_limit("--degree", args.degree, MAX_VERIFY_DEGREE)
    pair = _build_pair(args, args.degree)
    closed = list(formulas.loop_series(pair).expand(args.degree).coeffs)
    # When the routes agree the oracle prints these numbers too, so a
    # closed form too long to print is refused before the oracle runs.
    _check_printable(closed)
    oracle = list(combinatorics.loop_series_oracle(pair, args.degree).coeffs)
    diff = [c - o for c, o in zip(closed, oracle)]
    _check_printable(oracle, diff)
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
    for label, series in (("chi E1", e1), ("chi Einf", einf)):
        _check_printable(series.num.coeffs, name=f"{label} numerator")
        _check_printable(series.den.coeffs, name=f"{label} denominator")
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
    # A pair (k, m) sums binom(n, k) t^n from n = m; for m <= k that is the
    # row k series, so one check decides every pair of the row.
    failures = [
        k for k in range(args.kmax + 1) if not combinatorics.binomial_gf_check(k, args.degree)
    ]
    for k in failures:
        for m in range(k + 1):
            print(f"mismatch: k={k} m={m}")
    if failures:
        return 1
    pairs = (args.kmax + 1) * (args.kmax + 2) // 2
    print(f"checked {pairs} binomial series pairs to degree {args.degree}: all agree")
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
    p.add_argument("--degree", type=_integer, default=20, metavar="N")
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(func=cmd_compute)

    p = subs.add_parser("verify", help="closed form vs. degreewise oracle")
    _add_pair_flags(p)
    p.add_argument("--degree", type=_integer, default=20, metavar="N")
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
    p.add_argument("--kmax", type=_integer, default=8, metavar="K")
    p.add_argument("--degree", type=_integer, default=30, metavar="N")
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
