"""Stagewise combinatorial route to the loop-space Betti numbers.

The closed form in :mod:`loopspace.formulas` collapses a double sum over
word-filtration stages and multiindex pairs.  This module keeps that sum
un-collapsed: generalized binomials, Betti numbers of the fat diagonal
inside each smash power, and the degree-by-degree total.  Agreement of the
two routes is the package's central self-check.

The sum over all multiindexes of one dimension and length of the products
of their Betti numbers is a coefficient of a power of the Betti series, so
every term is read off truncated powers of P_Y and P_A.  To degree N the
oracle regroups its sum into O(N^3) integer operations and O(N^2) memory.
"""

from __future__ import annotations

from math import comb, factorial

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


def _betti_powers(space: SpaceProfile, count: int, bound: int) -> list[list[int]]:
    """[P^0, ..., P^count] truncated at bound, for P the Betti series without degree 0.

    Multiindex entries are positive, so degree 0 never enters a product, and
    [t^n] P^i sums the Betti products of all multiindexes over the space of
    dimension i and total length n.
    """
    coeffs = space.betti(bound).coeffs
    factor = [(d, coeffs[d]) for d in range(1, bound + 1) if coeffs[d] != 0]
    rows = [[1] + [0] * bound]
    for _ in range(count):
        rows.append(_times(rows[-1], factor, bound))
    return rows


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
    # Cells with d = dim lam + dim mu and j = dim mu have multiplicity
    # binom(d, j) * binom(s - d - 1, j - 1), zero unless 1 <= j <= s - d.
    y = _betti_powers(pair.ambient, s - 1, q)
    a = _betti_powers(pair.sub, s // 2, q)
    total = 0
    for d in range(1, s):
        n = q - s + d + 1
        for j in range(1, min(d, s - d) + 1):
            cells = sum(y[d - j][m] * a[j][n - m] for m in range(n + 1))
            total += comb(d, j) * comb(s - d - 1, j - 1) * cells
    return total


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
    return _betti_powers(space, s, q)[s][q]


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
    fat diagonal vanishes for s > q).  Degree 0 is 0.  This never consults
    the closed form, so it serves as an independent cross-check of it.

    The smash powers sum to sum_s P_Y^s.  The fat diagonals, one degree
    down, regroup with k = s - d - 1 and j = dim mu into
    sum_j sum_k binom(k, j - 1) t^(k+1) U_j, for
    U_j = P_A^j * sum_i binom(i + j, j) P_Y^i; each j costs O(N^2).
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
    y = _betti_powers(pair.ambient, bound, bound)
    coeffs = [sum(power[q] for power in y[1:]) for q in range(bound + 1)]
    a_powers = _betti_powers(pair.sub, bound // 2, bound)
    for j in range(1, len(a_powers)):
        # U_j is read up to degree top; once P_A^j starts above it, so does
        # every higher power.
        top = bound - j
        a_terms = [(n, c) for n, c in enumerate(a_powers[j][: top + 1]) if c]
        if not a_terms:
            break
        v = [0] * (top + 1)
        for i, row in enumerate(y[: top + 1]):
            weight = comb(i + j, j)
            for n in range(i, top + 1):
                v[n] += weight * row[n]
        shifts = [(k + 1, comb(k, j - 1)) for k in range(j - 1, bound)]
        for q, c in enumerate(_times(_times(v, a_terms, top), shifts, bound)):
            coeffs[q] += c
    return TruncSeries(coeffs)
