"""Exact scalar arithmetic: the ring Q[pi^2] and zeta values at even
integers.

Every quantity produced by the volume recursion is an exact element of
Q[pi^2]: a finite sum of rational multiples of pi^(2k), held by
:class:`PiPoly`.  Floating point enters only through :func:`PiPoly.to_float`,
called by the CLI and ``zograf_ratio``; the oracle sums its floats itself.

zeta(2i) is a rational multiple of pi^(2i); :func:`zeta_even` returns
that rational, z_i = zeta(2i) / pi^(2i), from Euler's recurrence

    z_0 = -1/2,  z_1 = 1/6,  z_i = 2/(2i+1) sum_{k=1}^{i-1} z_k z_(i-k),

the identity sum_{k=1}^{i-1} zeta(2k) zeta(2i-2k) = (i + 1/2) zeta(2i).

Nothing parses a :class:`PiPoly` from outside data.  Every value is
computed by this package from zeta values and from volumes, which were
checked where they entered (:meth:`wpvol.lpoly.LPoly.from_records` for
cache records, the volume check of :mod:`wpvol.recursion` for every volume).
The constructor therefore checks nothing and only drops zero
coefficients.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Optional, Tuple, Union

__all__ = ["PiPoly", "zeta_even"]

Scalar = Union[int, Fraction]


@lru_cache(maxsize=None)
def zeta_even(i: int) -> Fraction:
    """The rational zeta(2i) / pi^(2i), by Euler's recurrence: zeta(2) =
    pi^2/6 gives 1/6, zeta(4) = pi^4/90 gives 1/90.  At i = 0 it is the
    analytic continuation zeta(0) = -1/2, the convention the kernel moment
    closed forms require."""
    if i < 0:
        raise ValueError("zeta_even index must be non-negative")
    if i < 2:
        return (Fraction(-1, 2), Fraction(1, 6))[i]
    return Fraction(2, 2 * i + 1) * sum(
        zeta_even(k) * zeta_even(i - k) for k in range(1, i)
    )


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

    def __bool__(self) -> bool:
        return bool(self._terms)

    def items(self) -> Iterator[Tuple[int, Fraction]]:
        """Iterate (k, q) pairs in increasing pi-power order."""
        return iter(sorted(self._terms.items()))

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
            {"pi_power": 2 * k, "coeff": str(q)} for k, q in self.items()
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
