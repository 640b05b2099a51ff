"""Closed forms for mod-2 loop-space Poincare series, with exact hypothesis gates.

Every formula here is conditional on hypotheses about the input spaces.
The path-connected and diagonal-null gates live on the profiles in
:mod:`loopspace.spaces`; the simply-connected gates, which read a raw
series, live here.  Each raises with the name of the failed condition
instead of emitting a plausible but wrong series.

Each series is built as one fraction of polynomials and reduced once, by
the ``RationalGF`` constructor; partial sums such as N below are never
reduced on their own.  The three loop-space series are tensor-algebra
series P/(c - P), built by ``_tensor_series``.
"""

from __future__ import annotations

from . import spaces
from .errors import HypothesisViolation
from .gfcore import ONE, IntPolynomial, RationalGF, T
from .spaces import PairInclusion, SpaceProfile


def _require_simply_connected(name: str, series: RationalGF, purpose: str) -> None:
    """Raise HypothesisViolation unless the series vanishes in degrees 0 and 1."""
    # a_0 = num(0)/den(0) and, once a_0 = 0, a_1 = num[1]/den(0).
    if series.num.constant != 0 or series.num[1] != 0:
        raise HypothesisViolation(
            f"{name}: {purpose} needs a simply-connected space "
            "(series coefficients 0 in degrees 0 and 1)"
        )


def _tensor_series(n: IntPolynomial, d: IntPolynomial, c: IntPolynomial) -> RationalGF:
    """P/(c - P) for P = n/d, built as the one fraction n/(c*d - n) and reduced once.

    n/d need not be in lowest terms: a factor common to both cancels in the
    one reduction, which gives the same canonical value.
    """
    return RationalGF(n, c * d - n)


def bott_samelson_series(y: SpaceProfile) -> RationalGF:
    """Series of the loop space of a suspension: P/(1 - P).

    The tensor algebra on the reduced homology of a path-connected space has
    exactly this Euler series, one tensor word per composition of the degree.
    """
    y.require_path_connected("the Bott-Samelson series")
    return _tensor_series(y.series.num, y.series.den, ONE.num)


def bousfield_curtis_series(x: SpaceProfile) -> RationalGF:
    """Loop-space series P/(t - P) for a simply-connected, diagonal-null space.

    The lower-central-series spectral sequence of the loops on such a space
    collapses, leaving the desuspended tensor algebra; both hypotheses are
    checked (degrees 0 and 1 of the series must vanish; the diagonal-null
    flag must be declared).
    """
    _require_simply_connected(spaces.short_name(x.name), x.series, "the Bousfield-Curtis series")
    x.require_diagonal_null("the Bousfield-Curtis series")
    return _tensor_series(x.series.num, x.series.den, T.num)


def loop_series(pair: PairInclusion) -> RationalGF:
    """Loop-space series of (A ^ RP^inf) glued to (Y ^ RP^1) along A ^ RP^1.

    With A = pair.sub included in Y = pair.ambient, Y path-connected and A
    diagonal-null, the series is N/(1 - t - N) with N = (1-t) P(Y) + t P(A),
    in lowest terms.  Specializations: A = pt recovers the suspension formula,
    A = Y gives P(A)/(1 - t - P(A)), Y contractible gives
    t P(A)/(1 - t - t P(A)).
    """
    pair.require_hypotheses("the loop series")
    y, a = pair.ambient.series, pair.sub.series
    one_minus_t = IntPolynomial((1, -1))
    n = one_minus_t * y.num * a.den + T.num * a.num * y.den
    return _tensor_series(n, y.den * a.den, one_minus_t)


def euler_series_e1(space_series: RationalGF) -> RationalGF:
    """Euler series t/(t - P) of the first term of the loop spectral sequence.

    The first term is the tensor algebra on the desuspended reduced homology
    of the space, so its Euler series is geometric in t^{-1} P.  Takes a raw
    series (not a profile) so series-only spaces such as the glued union can
    be fed directly; the series, which a refusal calls P, must vanish in
    degrees 0 and 1 for the desuspension to stay in nonnegative degrees.
    """
    _require_simply_connected("P", space_series, "the first term's Euler series")
    # t/(t - n/d) as the one fraction t*d/(t*d - n).
    td = T.num * space_series.den
    return RationalGF(td, td - space_series.num)


def euler_series_einf(loop_space_series: RationalGF) -> RationalGF:
    """Euler series of the limit term: the loop space's reduced series plus 1.

    The limit term is the associated graded of the full loop-space homology,
    whose unreduced series adds the unit class in degree 0.
    """
    return loop_space_series + ONE


def collapse_series(pair: PairInclusion) -> tuple[RationalGF, RationalGF]:
    """Euler series of the first and limit terms, (E1, Einf), for comparison.

    Requires the inclusion declared a monomorphism in homology (so the
    union's series is the split Mayer-Vietoris sum), the ambient space
    path-connected and the subspace diagonal-null.  Under those hypotheses
    the two rational functions agree identically; unequal results mean the
    implementation, not the mathematics, is broken.

    The hypotheses are checked in that order, so a pair that fails the loop
    series' gates is refused as ``loop_series`` refuses it.
    """
    union = spaces.union_series(pair)
    loop = loop_series(pair)
    return euler_series_e1(union), euler_series_einf(loop)
