"""Exact mod-2 Betti-number series for looped unions of smash powers.

The library works with integer-coefficient rational generating functions
throughout: no floats, no truncation error.  ``formulas`` holds the
closed-form results, ``combinatorics`` the degree-by-degree counting
oracle used to cross-check them, ``spaces`` the space descriptions, and
``spaceexpr`` the CLI's parser, which reads expression text straight into
space profiles.
"""

from .combinatorics import (
    binomial_gf_check,
    fat_diagonal_betti,
    loop_series_oracle,
    smash_power_betti,
)
from .errors import (
    HypothesisViolation,
    LoopspaceError,
    NonIntegerSeriesError,
    NonUnitConstantError,
    ParseError,
    PathConnectednessViolation,
    UnknownName,
    ZeroDenominatorError,
)
from .formulas import (
    bott_samelson_series,
    bousfield_curtis_series,
    collapse_series,
    euler_series_e1,
    euler_series_einf,
    loop_series,
)
from .gfcore import ONE, T, ZERO, IntPolynomial, RationalGF, TruncSeries, poly_gcd
from .spaces import (
    PairInclusion,
    SpaceProfile,
    cone,
    load_catalog,
    parse_catalog,
    point,
    projective,
    smash,
    sphere,
    suspend,
    union_series,
    wedge,
)
from .spaceexpr import parse_space

__all__ = [
    "HypothesisViolation",
    "IntPolynomial",
    "LoopspaceError",
    "NonIntegerSeriesError",
    "NonUnitConstantError",
    "ONE",
    "PairInclusion",
    "ParseError",
    "PathConnectednessViolation",
    "RationalGF",
    "SpaceProfile",
    "T",
    "TruncSeries",
    "UnknownName",
    "ZERO",
    "ZeroDenominatorError",
    "binomial_gf_check",
    "bott_samelson_series",
    "bousfield_curtis_series",
    "collapse_series",
    "cone",
    "euler_series_e1",
    "euler_series_einf",
    "fat_diagonal_betti",
    "load_catalog",
    "loop_series",
    "loop_series_oracle",
    "parse_catalog",
    "parse_space",
    "point",
    "poly_gcd",
    "projective",
    "smash",
    "smash_power_betti",
    "sphere",
    "suspend",
    "union_series",
    "wedge",
]

__version__ = "0.1.0"
