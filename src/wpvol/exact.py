"""Exact scalar arithmetic: rationals, the ring Q[pi^2], Bernoulli numbers
and zeta values at even integers.

Every quantity produced by the volume recursion is an exact element of
Q[pi^2].  Floating point enters only through :func:`PiPoly.to_float`, the
bridge used by the numeric oracle and the CLI.

Nothing parses a :class:`PiPoly` from outside data.  Every value is
computed by this package from zeta values and from volumes, which were
checked where they entered (:meth:`wpvol.lpoly.LPoly.from_records` for
cache records, :func:`wpvol.recursion.validate_volume` for every volume).
The constructor therefore checks nothing and only drops zero
coefficients.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterator, Mapping, Optional, Tuple, Union

__all__ = [
    "Rat",
    "PiPoly",
    "bernoulli",
    "zeta_even",
    "rat_to_str",
    "rat_from_str",
]

# Arbitrary-precision rational scalar.  fractions.Fraction already maintains
# the canonical form we rely on everywhere: positive denominator and
# gcd(|p|, q) = 1 after every operation.
Rat = Fraction

Scalar = Union[int, Fraction]


def rat_to_str(q: Rat) -> str:
    """Serialize a rational as ``"p/q"`` (or ``"p"`` when q = 1), base 10."""
    return str(q)


def rat_from_str(s: str) -> Rat:
    return Fraction(s)


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Rat:
    """Bernoulli number B_m, convention B_1 = -1/2.

    Computed from the defining recurrence
    ``sum_{k=0}^{m} C(m+1, k) B_k = 0`` with B_0 = 1, so that

        B_m = -1/(m+1) * sum_{k<m} C(m+1, k) B_k.

    Values are cached; only even indices are consumed downstream.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if m == 0:
        return Fraction(1)
    if m > 2 and m % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(m):
        acc += comb(m + 1, k) * bernoulli(k)
    return -acc / (m + 1)


@lru_cache(maxsize=None)
def zeta_even(i: int) -> "PiPoly":
    """zeta(2i) as an exact element of Q[pi^2].

    For i >= 1 this is the single monomial

        zeta(2i) = (-1)^(i+1) B_{2i} (2 pi)^(2i) / (2 (2i)!),

    e.g. zeta(2) = pi^2/6, zeta(4) = pi^4/90.  The value at i = 0 is the
    analytic continuation zeta(0) = -1/2; the kernel moment closed forms
    require exactly this convention.
    """
    if i < 0:
        raise ValueError("zeta_even index must be non-negative")
    if i == 0:
        return PiPoly.rational(Fraction(-1, 2))
    q = (
        Fraction((-1) ** (i + 1))
        * bernoulli(2 * i)
        * Fraction(2 ** (2 * i), 2 * factorial(2 * i))
    )
    return PiPoly.monomial(i, q)


class PiPoly:
    """Element of Q[pi^2]: a finite sum ``q_k * pi^(2k)``.

    Terms are stored sparsely as a mapping ``k -> q_k`` with every stored
    coefficient non-zero, so equality is term-wise equality of canonical
    rationals.  The caller passes powers k >= 0 and ``Fraction``
    coefficients.  Instances are immutable after construction.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[int, Fraction]] = None):
        self._terms = {k: q for k, q in terms.items() if q} if terms else {}

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "PiPoly":
        return cls()

    @classmethod
    def rational(cls, q: Scalar) -> "PiPoly":
        """The constant polynomial q (pi-degree zero)."""
        return cls({0: Fraction(q)})

    @classmethod
    def monomial(cls, k: int, q: Scalar = 1) -> "PiPoly":
        """The single term q * pi^(2k)."""
        return cls({k: Fraction(q)})

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def items(self) -> Iterator[Tuple[int, Fraction]]:
        """Iterate (k, q) pairs in increasing pi-power order."""
        return iter(sorted(self._terms.items()))

    def coefficient(self, k: int) -> Fraction:
        return self._terms.get(k, Fraction(0))

    def as_monomial(self) -> Optional[Tuple[int, Fraction]]:
        """Return (k, q) if the value is exactly one term, else None."""
        if len(self._terms) != 1:
            return None
        [(k, q)] = self._terms.items()
        return k, q

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "PiPoly") -> "PiPoly":
        if not isinstance(other, PiPoly):
            return NotImplemented
        terms = dict(self._terms)
        for k, q in other._terms.items():
            terms[k] = terms.get(k, 0) + q
        return PiPoly(terms)

    def __mul__(self, other: Union["PiPoly", Scalar]) -> "PiPoly":
        if isinstance(other, PiPoly):
            terms: dict[int, Fraction] = {}
            for k1, q1 in self._terms.items():
                for k2, q2 in other._terms.items():
                    k = k1 + k2
                    terms[k] = terms.get(k, 0) + q1 * q2
            return PiPoly(terms)
        if isinstance(other, (int, Fraction)):
            return PiPoly({k: q * other for k, q in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PiPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == PiPoly.rational(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    # ------------------------------------------------------------------
    # bridges

    def to_float(self) -> float:
        """Evaluate with pi at machine precision.

        Relative error is below 1e-12 for pi-degree <= 30 with rational
        parts representable in double range.  A rational part outside the
        double range raises OverflowError so the caller can fall back to a
        higher-precision comparison.
        """
        return math.fsum(float(q) * math.pi ** (2 * k) for k, q in self._terms.items())

    def to_records(self) -> list[dict]:
        """Serialize as a list of {pi_power, coeff} records (pi_power = 2k)."""
        return [
            {"pi_power": 2 * k, "coeff": rat_to_str(q)} for k, q in self.items()
        ]

    def __repr__(self) -> str:
        return f"PiPoly({self.as_str()!r})"

    def as_str(self) -> str:
        """Human-readable form, e.g. ``"1/6*pi^2 + 1/24"``."""
        if not self._terms:
            return "0"
        parts = []
        for k, q in self.items():
            if k == 0:
                parts.append(str(q))
            elif q == 1:
                parts.append(f"pi^{2 * k}")
            else:
                parts.append(f"{q}*pi^{2 * k}")
        return " + ".join(parts)
