"""Closed forms for mod-2 loop-space Poincare series, with exact hypothesis gates.

Every formula here is conditional on hypotheses about the input spaces;
each gate raises with the name of the failed condition instead of emitting
a plausible but wrong series.
"""

from __future__ import annotations

from . import spaces
from .errors import HypothesisViolation, PathConnectednessViolation
from .gfcore import ONE, RationalGF, T
from .spaces import PairInclusion, SpaceProfile


def _require_path_connected(space: SpaceProfile) -> None:
    if not space.is_path_connected:
        raise PathConnectednessViolation(
            f"{space.name}: formula requires a path-connected space "
            "(zero constant series coefficient)"
        )


def _series_starts_above_degree_one(series: RationalGF) -> bool:
    # a_0 = num(0)/den(0) and, once a_0 = 0, a_1 = num[1]/den(0).
    return series.num.constant == 0 and series.num[1] == 0


def bott_samelson_series(y: SpaceProfile) -> RationalGF:
    """Series of the loop space of a suspension: P/(1 - P).

    The tensor algebra on the reduced homology of a path-connected space has
    exactly this Euler series, one tensor word per composition of the degree.
    """
    _require_path_connected(y)
    return y.series / (ONE - y.series)


def bousfield_curtis_series(x: SpaceProfile) -> RationalGF:
    """Loop-space series P/(t - P) for a simply-connected, diagonal-null space.

    The lower-central-series spectral sequence of the loops on such a space
    collapses, leaving the desuspended tensor algebra; both hypotheses are
    checked (degrees 0 and 1 of the series must vanish; the diagonal-null
    flag must be declared).
    """
    if not _series_starts_above_degree_one(x.series):
        raise HypothesisViolation(
            f"{x.name}: formula requires a simply-connected space "
            "(series coefficients 0 in degrees 0 and 1)"
        )
    if not x.diagonal_null:
        raise HypothesisViolation(
            f"{x.name}: formula requires the reduced diagonal declared null"
        )
    return x.series / (T - x.series)


def loop_series(pair: PairInclusion) -> RationalGF:
    """Loop-space series of (A ^ RP^inf) glued to (Y ^ RP^1) along A ^ RP^1.

    With A = pair.sub included in Y = pair.ambient, Y path-connected and A
    diagonal-null, the series is

        ((1-t) P(Y) + t P(A)) / (1 - t - (1-t) P(Y) - t P(A)),

    in lowest terms.  Specializations: A = pt recovers the suspension formula,
    A = Y gives P(A)/(1 - t - P(A)), Y contractible gives
    t P(A)/(1 - t - t P(A)).
    """
    _require_path_connected(pair.ambient)
    if not pair.sub.diagonal_null:
        raise HypothesisViolation(
            f"{pair.sub.name}: formula requires the subspace's reduced diagonal "
            "declared null"
        )
    p_y = pair.ambient.series
    p_a = pair.sub.series
    num = (ONE - T) * p_y + T * p_a
    den = ONE - T - (ONE - T) * p_y - T * p_a
    return num / den


def euler_series_e1(space_series: RationalGF) -> RationalGF:
    """Euler series t/(t - P) of the first term of the loop spectral sequence.

    The first term is the tensor algebra on the desuspended reduced homology
    of the space, so its Euler series is geometric in t^{-1} P.  Takes a raw
    series (not a profile) so series-only spaces such as the glued union can
    be fed directly; the series must vanish in degrees 0 and 1 for the
    desuspension to stay in nonnegative degrees.
    """
    if not _series_starts_above_degree_one(space_series):
        raise HypothesisViolation(
            "Euler series of the first term needs a simply-connected space "
            "(series coefficients 0 in degrees 0 and 1)"
        )
    return T / (T - space_series)


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
    """
    e1 = euler_series_e1(spaces.union_series(pair))
    einf = euler_series_einf(loop_series(pair))
    return e1, einf
