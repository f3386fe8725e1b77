"""The McShane-Mirzakhani kernel and its exact moment polynomials.

The kernel is H(x, y) = 1/(1 + e^((x+y)/2)) + 1/(1 + e^((x-y)/2)); it,
and the companion functions D and R whose x-derivatives reduce to it,
are evaluated only by :mod:`wpvol.oracle`.  Mirzakhani's recursion
integrates two moments of H, held here exactly (no float is computed):

    F_{2k+1}(t) = int_0^oo x^(2k+1) H(x, t) dx
                = (2k+1)! sum_{m=0}^{k+1} r_{k+1-m} pi^(2(k+1-m)) t^(2m) / (2m)!
    G_{i,j}(t)  = int_0^oo int_0^oo x^(2i+1) y^(2j+1) H(x+y, t) dx dy
                = (2i+1)! (2j+1)! / (2i+2j+3)! F_{2i+2j+3}     (Beta integral)

Both reduce to the rational constants r_i = (2^(2i+1) - 4) zeta(2i) /
pi^(2i) of :func:`moment_constant`, r_0 = 1 from zeta(0) = -1/2, which
are all the recursion reads.  The test suite checks F and G against
independent quadrature.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .exact import zeta_even
from .lpoly import LPoly

__all__ = [
    "moment_constant",
    "h_moment",
    "h_double_moment",
    "shift_symmetrize",
]


@lru_cache(maxsize=None)
def moment_constant(i: int) -> Fraction:
    """The rational r_i = (2^(2i+1) - 4) zeta(2i) / pi^(2i), positive for
    every i >= 0: r_0 = 1, r_1 = 2/3, r_2 = 14/45, r_3 = 124/945."""
    if i < 0:
        raise ValueError("moment index must be non-negative")
    return (2 ** (2 * i + 1) - 4) * zeta_even(i)


@lru_cache(maxsize=None)
def h_moment(k: int) -> LPoly:
    """Exact moment F_{2k+1}(t) = int_0^oo x^(2k+1) H(x, t) dx.

    A one-variable even polynomial of weight k+1: the t^(2m) coefficient
    is a strictly positive rational multiple of pi^(2(k+1-m)).
    """
    if k < 0:
        raise ValueError("moment index must be non-negative")
    f = factorial(2 * k + 1)
    terms = {
        (m,): moment_constant(k + 1 - m) * Fraction(f, factorial(2 * m))
        for m in range(k + 2)
    }
    return LPoly(1, k + 1, terms)


@lru_cache(maxsize=None)
def h_double_moment(i: int, j: int) -> LPoly:
    """Exact double moment G_{i,j}(t) = int int x^(2i+1) y^(2j+1) H(x+y, t).

    Substituting u = x + y and integrating the Beta factor
    int_0^u x^(2i+1) (u-x)^(2j+1) dx = B(2i+2, 2j+2) u^(2i+2j+3) gives

        G_{i,j} = (2i+1)! (2j+1)! / (2i+2j+3)! * F_{2i+2j+3},

    symmetric in (i, j), of degree i + j + 2 in t^2.
    """
    if i < 0 or j < 0:
        raise ValueError("moment indices must be non-negative")
    scale = Fraction(
        factorial(2 * i + 1) * factorial(2 * j + 1), factorial(2 * i + 2 * j + 3)
    )
    return h_moment(i + j + 1).scale(scale)


def shift_symmetrize(f: LPoly) -> LPoly:
    """The bivariate even polynomial (F(a+b) + F(a-b)) / 2.

    Expanding binomially, odd cross powers cancel and each t^(2m) term of
    F splits into sum_s C(2m, 2s) a^(2s) b^(2(m-s)); the weight is kept.
    """
    if f.n != 1:
        raise ValueError("expected a one-variable polynomial")
    terms = {
        (s, m - s): q * comb(2 * m, 2 * s)
        for (m,), q in f.items()
        for s in range(m + 1)
    }
    return LPoly(2, f.weight, terms)
