"""Helpers shared by the test modules: reference values that the package
itself no longer computes."""
from fractions import Fraction
from math import factorial, lcm, prod
from typing import Sequence


def numerators(p):
    """The table entry (D, {alpha: N}) of the LPoly p: N / D = [alpha] = q
    prod_i (2 alpha_i+1)! for its coefficient q at alpha, D the LCM of the
    denominators of q, as ``VolumeTable._store`` takes it."""
    den = lcm(*(q.denominator for _, q in p.items()))
    return den, {a: int(q * den) * prod(factorial(2 * b + 1) for b in a) for a, q in p.items()}


def genus0_correlator(alpha: Sequence[int]) -> Fraction:
    """Closed form <tau_alpha>_0 = (n-3)! / prod alpha_i!, the multinomial
    coefficient for n - 3; zero off the degree condition |alpha| = n-3."""
    alpha = tuple(alpha)
    n = len(alpha)
    if n < 3 or any(a < 0 for a in alpha) or sum(alpha) != n - 3:
        return Fraction(0)
    return Fraction(factorial(n - 3), prod(factorial(a) for a in alpha))
