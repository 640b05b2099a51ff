"""Reference difference and quotient of rational functions, for tests only.

``RationalGF`` has only the ``+`` and ``*`` the library uses.  These build
a - b and a / b as one fraction of the operands' numerators and denominators
and reduce it once, through the constructor, independently of
``formulas._tensor_series``.
"""

from loopspace.gfcore import RationalGF


def sub(a: RationalGF, b: RationalGF) -> RationalGF:
    return RationalGF(a.num * b.den - b.num * a.den, a.den * b.den)


def div(a: RationalGF, b: RationalGF) -> RationalGF:
    return RationalGF(a.num * b.den, a.den * b.num)
