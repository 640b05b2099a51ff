"""Stagewise combinatorial route to the loop-space Betti numbers.

The closed form in :mod:`loopspace.formulas` collapses a double sum over
word-filtration stages and multiindex pairs.  This module keeps that sum
un-collapsed: generalized binomials, Betti numbers of the fat diagonal
inside each smash power, and the degree-by-degree total.  Agreement of the
two routes is the package's central self-check.

The sum over all multiindexes of one dimension and length of the products
of their Betti numbers is a coefficient of a power of the Betti series, so
every term is read off one table of truncated products P_Y^i * P_A^j.  For
a degree bound N the oracle builds that table once and makes O(N^4)
integer operations in all.
"""

from __future__ import annotations

from math import factorial

from .errors import HypothesisViolation, PathConnectednessViolation
from .gfcore import IntPolynomial, RationalGF, TruncSeries
from .spaces import PairInclusion, SpaceProfile


def binom(n: int, k: int) -> int:
    """Generalized binomial coefficient for arbitrary integer n.

    Zero for k < 0; otherwise n(n-1)...(n-k+1)/k!, which is exact for every
    integer n (negative upper arguments included) and 1 at k = 0.
    """
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    return num // factorial(k)


def binomial_gf_check(k: int, m: int, bound: int) -> bool:
    """Check sum_{n>=m} binom(n,k) t^n == t^k/(1-t)^(k+1) through t^bound.

    Valid for 0 <= m <= k because binom(n,k) vanishes for 0 <= n < k.  The
    left side is summed term by term from binom; the right side comes from
    the rational-function expander, so the two routes are independent.
    """
    if not 0 <= m <= k:
        raise ValueError(f"need 0 <= m <= k, got m={m}, k={k}")
    direct = TruncSeries(
        [binom(n, k) if n >= m else 0 for n in range(bound + 1)]
    )
    closed = RationalGF(
        IntPolynomial.monomial(k), IntPolynomial((1, -1)) ** (k + 1)
    ).expand(bound)
    return direct == closed


def _positive_betti(space: SpaceProfile, bound: int) -> list[tuple[int, int]]:
    """(degree, Betti number) for the nonzero reduced Betti numbers in degrees 1..bound.

    Multiindex entries are positive, so degree 0 never enters a product.
    """
    coeffs = space.betti(bound).coeffs
    return [(d, coeffs[d]) for d in range(1, bound + 1) if coeffs[d] != 0]


def _times(row: list[int], factor: list[tuple[int, int]], bound: int) -> list[int]:
    """The product of a truncated series and a sparse factor, truncated at bound."""
    out = [0] * (bound + 1)
    for i, c in enumerate(row):
        if c:
            for d, b in factor:
                if i + d > bound:
                    break
                out[i + d] += c * b
    return out


def _powers(
    row: list[int], factor: list[tuple[int, int]], count: int, bound: int
) -> list[list[int]]:
    """[row, row * F, ..., row * F^count] for the sparse factor F, truncated at bound."""
    rows = [row]
    for _ in range(count):
        rows.append(_times(rows[-1], factor, bound))
    return rows


def _power_table(pair: PairInclusion, bound: int, max_dim: int) -> list[list[list[int]]]:
    """table[i][j][n] = [t^n] P_Y^i * P_A^j for i + j <= max_dim and n <= bound.

    P_Y and P_A are the Betti series of the ambient space and the subspace
    with degree 0 dropped, so table[i][j][n] sums the Betti products of all
    multiindex pairs of dimensions (i, j) and total length n.  Column j = 0
    holds the powers of P_Y; entry j of a column is entry j - 1 times P_A.
    """
    y = _positive_betti(pair.ambient, bound)
    a = _positive_betti(pair.sub, bound)
    one = [1] + [0] * bound
    return [
        _powers(y_power, a, max_dim - i, bound)
        for i, y_power in enumerate(_powers(one, y, max_dim, bound))
    ]


def _pascal(n: int) -> list[list[int]]:
    """pascal[m][k] = binom(m, k) for 0 <= m, k <= n (zero for k > m)."""
    rows = [[1] + [0] * n]
    for m in range(1, n + 1):
        prev = rows[-1]
        rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, n + 1)])
    return rows


def _fat_diagonal(table: list[list[list[int]]], pascal: list[list[int]], s: int, q: int) -> int:
    """The stage-s fat-diagonal sum in degree q, read off a power table.

    Cells of dimensions (d_lam, d_mu) with d = d_lam + d_mu in 1..s-1 have
    total length q - s + d + 1 and multiplicity
    binom(d, d_mu) * binom(s - d - 1, d_mu - 1), which vanishes unless
    1 <= d_mu <= s - d.  Needs s <= q + 1, so that the length is at least d
    and the table reaches it.
    """
    total = 0
    for d in range(1, s):
        length = q - s + d + 1
        choose_d, choose_rest = pascal[d], pascal[s - d - 1]
        for d_mu in range(1, min(d, s - d) + 1):
            weight = table[d - d_mu][d_mu][length]
            if weight:
                total += choose_d[d_mu] * choose_rest[d_mu - 1] * weight
    return total


def _check_stage(s: int, q: int) -> None:
    if s < 1:
        raise ValueError(f"stage must be >= 1, got {s}")
    if q < 0:
        raise ValueError(f"degree must be >= 0, got {q}")


def fat_diagonal_betti(pair: PairInclusion, s: int, q: int) -> int:
    """Reduced Betti number in degree q of the stage-s fat diagonal.

    The fat diagonal sits inside the s-fold smash power of the ambient space;
    its homology decomposes into cells indexed by multiindex pairs (lam over
    the ambient space, mu over the subspace) constrained by

        |lam| + |mu| = q - s + dim lam + dim mu + 1,
        2 <= dim lam + dim mu + 1 <= s.

    That decomposition needs the subspace's reduced diagonal declared null.
    Entries >= 1 force |lam|+|mu| >= dim lam + dim mu, so the sum is finite
    and vanishes whenever s > q + 1 (and always at s = 1).
    """
    if not pair.sub.diagonal_null:
        raise HypothesisViolation(
            f"{pair.sub.name}: fat-diagonal Betti numbers need the subspace "
            "declared diagonal-null"
        )
    _check_stage(s, q)
    if s > q + 1:
        return 0
    table = _power_table(pair, q, s - 1)
    return _fat_diagonal(table, _pascal(s - 1), s, q)


def smash_power_betti(space: SpaceProfile, s: int, q: int) -> int:
    """Reduced Betti number in degree q of the s-fold smash power.

    The series of the power is the s-th power of the space's series; the
    space must be path-connected so the power has no terms below degree s.
    """
    if not space.is_path_connected:
        raise PathConnectednessViolation(
            f"{space.name}: smash powers are taken of path-connected spaces only"
        )
    _check_stage(s, q)
    if s > q:
        return 0
    one = [1] + [0] * q
    return _powers(one, _positive_betti(space, q), s, q)[s][q]


def smash_quotient_betti(pair: PairInclusion, s: int, q: int) -> int:
    """Betti number of the smash power with its fat diagonal collapsed.

    The cofiber sequence of the fat-diagonal inclusion splits under the
    diagonal-null hypothesis, so the quotient's Betti number is the smash
    power's plus the diagonal's one degree down.
    """
    below = fat_diagonal_betti(pair, s, q - 1) if q >= 1 else 0
    return smash_power_betti(pair.ambient, s, q) + below


def loop_series_oracle(pair: PairInclusion, bound: int) -> TruncSeries:
    """Loop-space Betti numbers by direct summation over filtration stages.

    Degree q collects the smash quotients' Betti numbers over stages 1..q;
    higher stages contribute nothing (smash powers start in degree s, the
    fat diagonal vanishes for s > q).  Degree 0 is 0.  One power table and
    one Pascal table serve every stage and degree.  This never consults the
    closed form, so it serves as an independent cross-check of it.
    """
    if not pair.ambient.is_path_connected:
        raise PathConnectednessViolation(
            f"{pair.ambient.name}: the stage decomposition needs a path-connected "
            "ambient space"
        )
    if not pair.sub.diagonal_null:
        raise HypothesisViolation(
            f"{pair.sub.name}: the stage decomposition needs the subspace "
            "declared diagonal-null"
        )
    if bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {bound}")
    table = _power_table(pair, bound, bound)
    pascal = _pascal(bound)
    coeffs = [0]
    for q in range(1, bound + 1):
        coeffs.append(
            sum(
                table[s][0][q] + _fat_diagonal(table, pascal, s, q - 1)
                for s in range(1, q + 1)
            )
        )
    return TruncSeries(coeffs)
