"""Sparse multivariate even polynomials in boundary lengths.

An :class:`LPoly` over n variables with weight w represents an even
polynomial homogeneous of weight w in (L^2, pi^2):

    p(L_1, ..., L_n) = sum_alpha  q_alpha * pi^(2(w - |alpha|)) * L^(2 alpha),

with multi-index keys alpha = (a_1, ..., a_n), |alpha| <= w, and plain
rational coefficients q_alpha.  Volumes V_{g,n} have weight 3g-3+n and
the kernel moment F_{2k+1} has weight k+1, so the power of pi never needs
storing.

Only even polynomials are representable: an exponent vector alpha always
means ``prod_i L_i^(2 a_i)``, so evenness is an invariant of the
representation.  :meth:`LPoly.integrate_back` inverts d/dL_1 (L_1 q);
the recursion folds that division into its integer sums, so nothing in
the package calls it: it stays because ``perfbench/tracing.py`` wraps it.

The canonical term order used for serialization and rendering is graded
lexicographic on alpha.

An LPoly has no notion of label symmetry: a volume table stores each
volume on one key per label orbit, and
:func:`wpvol.recursion.validate_volume` checks the symmetry.

The constructor trusts its caller and only drops zero coefficients.  Each
invariant is checked once, where its kind of data enters:
:meth:`LPoly.from_records` checks records read from outside (integer
exponents, keys of length n within the weight, the implied pi power, a
rational coefficient), and the volume check of :mod:`wpvol.recursion`
checks every volume, computed or loaded (a loaded one through
``validate_volume``).  ``from_records`` keeps a zero coefficient for it.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Tuple, Union

from .exact import PiPoly

__all__ = ["MultiIndex", "LPoly", "grlex_key"]

MultiIndex = Tuple[int, ...]
_ZERO = Fraction(0)


def _not_integers(rec: dict) -> ValueError:
    return ValueError(
        f"term {rec['alpha']!r} with pi power {rec['pi_power']!r}: "
        "exponents and pi powers must be integers"
    )


def grlex_key(alpha: MultiIndex) -> Tuple[int, MultiIndex]:
    """Sort key for the graded-lexicographic term order."""
    return (sum(alpha), alpha)


class LPoly:
    """Even polynomial in L_1^2, ..., L_n^2, homogeneous of a fixed weight
    in (L^2, pi^2), stored as rational coefficients.

    Instances are immutable after construction and no stored coefficient
    is zero, except a zero record kept by :meth:`from_records`.  The
    caller passes ``Fraction`` coefficients and keys of
    length ``n`` with non-negative entries and |alpha| <= weight; nothing
    re-checks them here.
    """

    __slots__ = ("n", "weight", "_terms")

    def __init__(
        self, n: int, weight: int, terms: Optional[Mapping[MultiIndex, Fraction]] = None
    ):
        self.n = n
        self.weight = weight
        self._terms = {a: q for a, q in terms.items() if q} if terms else {}

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def one(cls, n: int) -> "LPoly":
        return cls(n, 0, {(0,) * n: Fraction(1)})

    # ------------------------------------------------------------------
    # inspection

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> Iterator[Tuple[MultiIndex, Fraction]]:
        """(alpha, q) pairs; the term is q * pi^(2(weight - |alpha|)) L^(2 alpha)."""
        return iter(self._terms.items())

    def sorted_items(self) -> list[Tuple[MultiIndex, Fraction]]:
        """Terms in canonical (graded lexicographic) order."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]))

    def coefficient(self, alpha: Sequence[int]) -> Fraction:
        """Rational part of the coefficient of L^(2 alpha); zero when absent."""
        return self._terms.get(tuple(alpha), _ZERO)

    def pi_coefficient(self, alpha: Sequence[int]) -> PiPoly:
        """The coefficient of L^(2 alpha) with its pi power, as a PiPoly."""
        alpha = tuple(alpha)
        q = self._terms.get(alpha)
        if q is None:
            return PiPoly.zero()
        return PiPoly.monomial(self.weight - sum(alpha), q)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LPoly):
            return NotImplemented
        return (self.n, self.weight, self._terms) == (other.n, other.weight, other._terms)

    def __repr__(self) -> str:
        return f"LPoly(n={self.n}, weight={self.weight}, {len(self._terms)} terms)"

    # ------------------------------------------------------------------
    # arithmetic

    def scale(self, c: Union[Fraction, int]) -> "LPoly":
        """Multiply every coefficient by the rational c."""
        return LPoly(self.n, self.weight, {a: q * c for a, q in self._terms.items()})

    # ------------------------------------------------------------------
    # calculus

    def integrate_back(self) -> "LPoly":
        """Invert p = d/dL_1 (L_1 q) for even q: divide each L_1^(2k) term
        by (2k + 1).

        L_1 q vanishes at L_1 = 0, so the constant of integration is 0.
        """
        if self.n < 1:
            raise ValueError("integrate_back needs at least one variable")
        terms = {
            alpha: q * Fraction(1, 2 * alpha[0] + 1) for alpha, q in self._terms.items()
        }
        return LPoly(self.n, self.weight, terms)

    # ------------------------------------------------------------------
    # evaluation

    def eval_rational(self, values: Sequence[Union[Fraction, int]]) -> PiPoly:
        """Exact evaluation at rational boundary lengths."""
        if len(values) != self.n:
            raise ValueError("need one value per variable")
        # L_i^(2a) for a <= weight, each computed once
        squares = [Fraction(v) ** 2 for v in values]
        powers = [[x**a for a in range(self.weight + 1)] for x in squares]
        acc: dict[int, Fraction] = {}
        for alpha, q in self._terms.items():
            for row, a in zip(powers, alpha):
                if a:
                    q *= row[a]
            k = self.weight - sum(alpha)
            acc[k] = acc.get(k, 0) + q
        return PiPoly(acc)

    # ------------------------------------------------------------------
    # serialization

    def to_records(self) -> list[dict]:
        """Canonical JSON term list.

        One record per alpha, sorted by graded-lex alpha, with the implied
        pi power written out; round-trips bit-exactly through from_records.
        """
        return [
            {
                "alpha": list(alpha),
                "pi_power": 2 * (self.weight - sum(alpha)),
                "coeff": str(q),
            }
            for alpha, q in self.sorted_items()
        ]

    @classmethod
    def from_records(cls, n: int, weight: int, records) -> "LPoly":
        """Inverse of :meth:`to_records`, and the parser of outside data.

        Exponents and ``pi_power`` must be integers and ``coeff`` a string
        naming a rational.  Rejects an alpha that is not n non-negative
        exponents with |alpha| <= weight, a record whose pi power is not the
        one its alpha implies, and an alpha listed twice.  A zero
        coefficient, which :meth:`to_records` never writes, is kept rather
        than dropped, so that :func:`wpvol.recursion.validate_volume` can
        name it."""
        terms: dict[MultiIndex, Fraction] = {}
        for rec in records:
            alpha, pi_power, coeff = tuple(rec["alpha"]), rec["pi_power"], rec["coeff"]
            # type(), not isinstance(): JSON true and false are not exponents
            if type(pi_power) is not int:
                raise _not_integers(rec)
            for x in alpha:
                if type(x) is not int:
                    raise _not_integers(rec)
            if len(alpha) != n:
                raise ValueError(
                    f"term {list(alpha)} has length {len(alpha)}, expected {n}"
                )
            if alpha and min(alpha) < 0:
                raise ValueError(f"term {list(alpha)} has a negative exponent")
            total = sum(alpha)
            if total > weight:
                raise ValueError(f"term {list(alpha)} exceeds the weight {weight}")
            implied = 2 * (weight - total)
            if pi_power != implied:
                raise ValueError(
                    f"term {list(alpha)} has pi power {pi_power}, expected {implied}"
                )
            if alpha in terms:
                raise ValueError(f"term {list(alpha)} is listed twice")
            if not isinstance(coeff, str):
                raise ValueError(
                    f"term {list(alpha)} has coefficient {coeff!r}, not a string"
                )
            try:
                terms[alpha] = Fraction(coeff)
            except ZeroDivisionError:
                raise ValueError(
                    f"term {list(alpha)} has coefficient {coeff!r} with denominator 0"
                ) from None
        poly = cls(n, weight)
        poly._terms = terms
        return poly
