"""Stagewise combinatorial route to the loop-space Betti numbers.

The closed form in :mod:`loopspace.formulas` collapses a double sum over
word-filtration stages and multiindex pairs.  This module keeps that sum
un-collapsed: Betti numbers of the fat diagonal inside each smash power,
and the degree-by-degree total.  Agreement of the two routes is the
package's central self-check.  Hypotheses and Betti signs are checked by
the space profiles of :mod:`loopspace.spaces`.

The sum over all multiindexes of one dimension and length of the products
of their Betti numbers is a coefficient of a power of the Betti series.
The stage readers read each term off truncated powers of P_Y and P_A.  The
oracle builds no powers: it solves Pascal's rule for the binomially
weighted sums of powers of P_Y degree by degree, and folds in P_A by
Horner's rule, in O(N^3) integer operations and O(N^2) memory to degree N.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb

from .gfcore import IntPolynomial, RationalGF, TruncSeries
from .spaces import PairInclusion, SpaceProfile


def binomial_gf_check(k: int, bound: int) -> bool:
    """Check sum_n binom(n,k) t^n == t^k/(1-t)^(k+1) through t^bound, for k >= 0.

    binom(n,k) vanishes for n < k, so the sum from any m <= k is this one.
    The left side is summed with math.comb and the right side expanded as a
    rational function, so the two routes are independent.
    """
    direct = TruncSeries([comb(n, k) for n in range(bound + 1)])
    closed = RationalGF(IntPolynomial.monomial(k), IntPolynomial((1, -1)) ** (k + 1))
    return direct == closed.expand(bound)


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


def _betti_terms(space: SpaceProfile, bound: int) -> list[tuple[int, int]]:
    """The nonzero reduced Betti numbers (d, b_d) of the space, 1 <= d <= bound."""
    coeffs = space.betti(bound).coeffs
    return [(d, coeffs[d]) for d in range(1, bound + 1) if coeffs[d] != 0]


def _betti_powers(space: SpaceProfile, count: int, bound: int) -> list[list[int]]:
    """[P^0, ..., P^count] truncated at bound, for P the Betti series without degree 0.

    Multiindex entries are positive, so degree 0 never enters a product, and
    [t^n] P^i sums the Betti products of all multiindexes over the space of
    dimension i and total length n.
    """
    factor = _betti_terms(space, bound)
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
    pair.sub.require_diagonal_null("the fat diagonal")
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
    space.require_path_connected("a smash power")
    _check_stage(s, q)
    if s > q:
        return 0
    return _betti_powers(space, s, q)[s][q]


def loop_series_oracle(pair: PairInclusion, bound: int) -> TruncSeries:
    """Loop-space Betti numbers by direct summation over filtration stages.

    Degree q collects, over stages s = 1..q, the Betti number of the s-fold
    smash power with its fat diagonal collapsed.  Under the diagonal-null
    hypothesis the cofiber sequence splits, so that is the smash power's
    Betti number in degree q plus the fat diagonal's in degree q - 1.
    Higher stages contribute nothing (smash powers start in degree s, the
    fat diagonal vanishes for s > q).  Degree 0 is 0.  This never consults
    the closed form, so it serves as an independent cross-check of it.

    Grouped by j = dim mu, the stages sum to sum_j (t/(1-t))^j P_A^j V_j - 1,
    with V_j = sum_i binom(i + j, j) P_Y^i: j = 0 is sum_s P_Y^s, the smash
    powers, and (t/(1-t))^j carries the fat diagonals' stage shifts.
    Pascal's rule gives V_j = V_{j-1} + P_Y V_j from V_{-1} = 1, and P_Y has
    no constant term, so V_j[n] follows from V_{j-1}[n] and V_j below n: one
    pass over P_Y's nonzero terms per degree.  Horner's rule then runs from
    the highest j down, multiplying by the sparse P_A and by t/(1-t) as a
    shift and a prefix sum.  Nothing builds a power of P_Y or P_A.
    """
    pair.require_hypotheses("the stage decomposition")
    if bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {bound}")
    y = _betti_terms(pair.ambient, bound)
    a = _betti_terms(pair.sub, bound)
    # Term j is read to degree bound - j.  Betti numbers are >= 0, so P_A^j
    # starts in degree j * v, v = P_A's lowest degree: above bound - j past top_j.
    top_j = bound // (a[0][0] + 1) if a else 0
    rows = []
    previous = [1] + [0] * bound  # V_{-1}
    for j in range(top_j + 1):
        v = []
        for n in range(bound - j + 1):
            c = previous[n]
            for d, b in y:
                if d > n:
                    break
                c += b * v[n - d]
            v.append(c)
        rows.append(v)
        previous = v
    total = rows.pop()
    for v in reversed(rows):
        shifted = [0, *accumulate(_times(total, a, len(v) - 1)[:-1])]
        total = [x + s for x, s in zip(v, shifted)]
    total[0] -= 1  # the empty word
    return TruncSeries(total)
