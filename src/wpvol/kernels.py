"""The McShane-Mirzakhani kernel and its exact moment polynomials.

The kernel is the rational exponential function

    H(x, y) = 1/(1 + e^((x+y)/2)) + 1/(1 + e^((x-y)/2)),

together with the companion functions D and R on R^3 whose x-derivatives
reduce to H.  The volume recursion only ever consumes two moment
integrals of H, both even polynomials in t:

    F_{2k+1}(t) = int_0^oo x^(2k+1) H(x, t) dx
    G_{i,j}(t)  = int_0^oo int_0^oo x^(2i+1) y^(2j+1) H(x+y, t) dx dy

F has exact closed form

    F_{2k+1}(t) = (2k+1)! * sum_{i=0}^{k+1}
                  zeta(2i) (2^(2i+1) - 4) t^(2(k+1-i)) / (2(k+1-i))!

with zeta(0) = -1/2, and G reduces to F through the Beta integral:
G_{i,j} = (2i+1)! (2j+1)! / (2i+2j+3)! * F_{2i+2j+3}.  Both closed forms
are validated against independent quadrature in the test suite before
anything downstream relies on them.

The numeric evaluators use overflow-safe exponential rewrites; the
displayed formulas break down in double precision for arguments around
1400 and beyond.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .exact import zeta_even
from .lpoly import LPoly

__all__ = [
    "kernel_h",
    "kernel_d",
    "kernel_r",
    "h_moment",
    "h_double_moment",
    "shift_symmetrize",
]


def _logistic(u: float) -> float:
    # 1 / (1 + e^u) without overflow for large |u|
    if u >= 0.0:
        t = math.exp(-u)
        return t / (1.0 + t)
    return 1.0 / (1.0 + math.exp(u))


def _logaddexp(p: float, q: float) -> float:
    if p < q:
        p, q = q, p
    return p + math.log1p(math.exp(q - p))


def _log_cosh(u: float) -> float:
    u = abs(u)
    return u - math.log(2.0) + math.log1p(math.exp(-2.0 * u))


def kernel_h(x: float, y: float) -> float:
    """H(x, y), evaluated in a numerically stable form.

    Even in y; H(0, 0) = 1.
    """
    return _logistic((x + y) / 2.0) + _logistic((x - y) / 2.0)


def kernel_d(x: float, y: float, z: float) -> float:
    """D(x, y, z) = 2 log( (e^(x/2) + e^((y+z)/2)) / (e^(-x/2) + e^((y+z)/2)) ).

    Satisfies dD/dx = H(y + z, x) and D(0,0,0) = 0.
    """
    b = (y + z) / 2.0
    return 2.0 * (_logaddexp(x / 2.0, b) - _logaddexp(-x / 2.0, b))


def kernel_r(x: float, y: float, z: float) -> float:
    """R(x, y, z) = x - log( (cosh(y/2) + cosh((x+z)/2))
                            / (cosh(y/2) + cosh((x-z)/2)) ).

    Satisfies 2 dR/dx = H(z, x + y) + H(z, x - y) and R(0,0,0) = 0, and
    the gap identity R(x,y,z) + R(x,z,y) = x + D(x,y,z).
    """
    lc_y = _log_cosh(y / 2.0)
    num = _logaddexp(lc_y, _log_cosh((x + z) / 2.0))
    den = _logaddexp(lc_y, _log_cosh((x - z) / 2.0))
    return x - (num - den)


@lru_cache(maxsize=None)
def h_moment(k: int) -> LPoly:
    """Exact moment F_{2k+1}(t) = int_0^oo x^(2k+1) H(x, t) dx.

    A one-variable even polynomial of weight k+1: the t^(2m) coefficient
    is a strictly positive rational multiple of pi^(2(k+1-m)).
    """
    if k < 0:
        raise ValueError("moment index must be non-negative")
    terms = {}
    f = factorial(2 * k + 1)
    for i in range(k + 2):
        m = k + 1 - i
        # zeta(2i) is a rational multiple of pi^(2i), the power the weight implies
        terms[(m,)] = zeta_even(i).coefficient(i) * Fraction(
            f * (2 ** (2 * i + 1) - 4), factorial(2 * m)
        )
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
