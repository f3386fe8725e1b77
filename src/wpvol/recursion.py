"""Mirzakhani's recursion for Weil-Petersson volume polynomials.

The volume V_{g,n}(L_1, ..., L_n) of the moduli space of genus g
hyperbolic surfaces with n geodesic boundaries satisfies

    d/dL_1 (L_1 V_{g,n}) = A^con + A^dcon + B,

where the three terms integrate kernel moments against volumes of the
surfaces left after removing an embedded pair of pants containing the
first boundary:

* A^con: the pants cuts off two boundaries of one connected surface of
  genus g-1, contributing (1/2) sum over terms x^2a y^2b of V_{g-1,n+1}
  of G_{a,b}(L_1);
* A^dcon: the complement splits into two pieces, an ordered sum over
  stable splittings with the same global 1/2;
* B: the pants contains a second boundary L_j, contributing shifted
  moment sums (F_{2a+1}(L_1+L_j) + F_{2a+1}(L_1-L_j)) / 2 against terms
  of V_{g,n-1}.

Base cases are V_{0,3} = 1 and the *halved* torus value
V_{1,1} = pi^2/12 + L^2/48.  The halving accounts for the elliptic
involution; the recursion consumes the halved value everywhere, and
:meth:`VolumeTable.true_volume` doubles only the (1,1) report.

Each term computes on plain rationals.  Volumes and kernel moments are
homogeneous in (L^2, pi^2), so the coefficient of L^(2 alpha) in V_{g,n}
or in its derivative is q * pi^(2(3g-3+n-|alpha|)): an :class:`LPoly`
stores q and its weight 3g-3+n implies the power of pi.  The double
moment is applied through its Beta reduction to F_{2(a+b)+3}, so input
products are summed per (a + b, remaining exponents) before F is expanded.

Every entry, computed or loaded, is validated: its weight is 3g-3+n
(which fixes every pi power and bounds |alpha|), every coefficient is
positive, and it is label-symmetric.  A violation aborts; with exact
arithmetic any mismatch is a logic bug.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator, Tuple

from .kernels import h_moment, shift_symmetrize
from .lpoly import LPoly, MultiIndex

__all__ = [
    "is_stable",
    "moduli_dim",
    "base_volume",
    "stable_splittings",
    "a_con_term",
    "a_dcon_term",
    "b_term",
    "VolumeTable",
    "InvariantViolation",
    "validate_volume",
    "iter_signatures",
]

BASE_SIGNATURES = {(0, 3), (1, 1)}

Splitting = Tuple[Tuple[int, Tuple[int, ...]], Tuple[int, Tuple[int, ...]]]


class InvariantViolation(RuntimeError):
    """A computed volume failed a structural invariant (logic bug)."""


def is_stable(g: int, n: int) -> bool:
    """Whether a genus-g surface with n boundaries is hyperbolic: 2g-2+n > 0."""
    return 2 * g - 2 + n > 0


def moduli_dim(g: int, n: int) -> int:
    """Complex dimension 3g - 3 + n of the moduli space."""
    return 3 * g - 3 + n


def base_volume(g: int, n: int) -> LPoly:
    """The recursion's base cases, in the internal convention.

    V_{0,3} = 1 and V_{1,1} = pi^2/12 + L^2/48 (the halved torus value).
    """
    if (g, n) == (0, 3):
        return LPoly.one(3)
    if (g, n) == (1, 1):
        return LPoly(1, 1, {(0,): Fraction(1, 12), (1,): Fraction(1, 48)})
    raise ValueError(f"({g},{n}) is not a base case")


@lru_cache(maxsize=None)
def stable_splittings(g: int, n: int) -> Tuple[Splitting, ...]:
    """Ordered stable splittings for the disconnected term at (g, n).

    Enumerates ordered pairs ((g1, I1), (g2, I2)) with g1 + g2 = g and
    I1, I2 a partition of the labels {2, ..., n}; each piece carries one
    new boundary, and pieces must admit hyperbolic structures:
    2 g_i - 2 + (|I_i| + 1) > 0, which excludes disks and annuli.

    The symmetric splitting (g/2, {}) | (g/2, {}) occurs once; together
    with the recursion's global 1/2 prefactor this reproduces the
    unordered orbit count with its Z/2 symmetry.
    """
    labels = tuple(range(2, n + 1))
    out: list[Splitting] = []
    for g1 in range(g + 1):
        g2 = g - g1
        for mask in range(1 << len(labels)):
            i1 = tuple(lab for b, lab in enumerate(labels) if mask >> b & 1)
            i2 = tuple(lab for b, lab in enumerate(labels) if not mask >> b & 1)
            if is_stable(g1, len(i1) + 1) and is_stable(g2, len(i2) + 1):
                out.append(((g1, i1), (g2, i2)))
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def _double_moment_rationals(s: int) -> Tuple[Tuple[int, Fraction], ...]:
    # (m, f) with (1/2) G_{a,b}(t) = (2a+1)! (2b+1)! sum_m f t^(2m) pi^(2(s+2-m))
    # for every a + b = s: the Beta reduction G_{a,b} = (2a+1)!(2b+1)!/(2s+3)!
    # F_{2s+3} with the recursion's global 1/2 folded in
    scale = Fraction(1, 2 * factorial(2 * s + 3))
    return tuple((m, f * scale) for (m,), f in h_moment(s + 1).items())


@lru_cache(maxsize=None)
def _shifted_moment_rationals(a: int) -> Tuple[Tuple[int, int, Fraction], ...]:
    # (r, s, f) for (F_{2a+1}(L1 + Lj) + F_{2a+1}(L1 - Lj)) / 2, whose
    # L1^(2r) Lj^(2s) coefficient is f * pi^(2(a+1-r-s))
    return tuple((r, s, f) for (r, s), f in shift_symmetrize(h_moment(a)).items())


def _add(acc: dict, key, q: Fraction) -> None:
    prev = acc.get(key)
    acc[key] = q if prev is None else prev + q


def _apply_double_moment(
    n: int, weight: int, sums: dict[MultiIndex, dict[int, Fraction]]
) -> LPoly:
    """Expand (1/2) G through F once per (a + b, rest) key.

    ``sums[rest][s]`` holds sum q (2a+1)! (2b+1)! over the input products
    x^2a y^2b with a + b = s and labels 2..n carrying exponents ``rest``.
    """
    acc: dict[MultiIndex, Fraction] = {}
    for rest, row in sums.items():
        for s, x in row.items():
            for m, f in _double_moment_rationals(s):
                _add(acc, (m,) + rest, x * f)
    return LPoly(n, weight, acc)


def a_con_term(g: int, n: int, table: "VolumeTable") -> LPoly:
    """Connected pants-removal term (an even polynomial in L_1, ..., L_n).

    Each term x^2a y^2b m(L_2..L_n) of V_{g-1,n+1} contributes
    (1/2) coeff G_{a,b}(L_1) m; absent when (g-1, n+1) is unstable.
    """
    if g < 1 or not is_stable(g - 1, n + 1):
        return LPoly.zero(n, moduli_dim(g, n))
    sums: dict[MultiIndex, dict[int, Fraction]] = {}
    for alpha, q in table.volume(g - 1, n + 1).items():
        a, b = alpha[0], alpha[1]
        row = sums.setdefault(alpha[2:], {})
        _add(row, a + b, q * (factorial(2 * a + 1) * factorial(2 * b + 1)))
    return _apply_double_moment(n, moduli_dim(g, n), sums)


def _by_rest(p: LPoly) -> list[Tuple[MultiIndex, list]]:
    # terms x^2a m(rest) of a volume, grouped by rest as (a, q (2a+1)!) lists
    groups: dict[MultiIndex, list] = {}
    for alpha, q in p.items():
        a = alpha[0]
        groups.setdefault(alpha[1:], []).append((a, q * factorial(2 * a + 1)))
    return list(groups.items())


def a_dcon_term(g: int, n: int, table: "VolumeTable") -> LPoly:
    """Disconnected pants-removal term: ordered stable splittings with the
    global 1/2 prefactor, products taken over disjoint label sets."""
    pieces: dict[Tuple[int, int], list] = {}

    def piece(gi: int, ni: int) -> list:
        if (gi, ni) not in pieces:
            pieces[(gi, ni)] = _by_rest(table.volume(gi, ni))
        return pieces[(gi, ni)]

    sums: dict[MultiIndex, dict[int, Fraction]] = {}
    base = [0] * (n - 1)  # exponents of L_2 .. L_n
    for (g1, i1), (g2, i2) in stable_splittings(g, n):
        terms1 = piece(g1, len(i1) + 1)
        terms2 = piece(g2, len(i2) + 1)
        pos1 = [lab - 2 for lab in i1]
        pos2 = [lab - 2 for lab in i2]
        for rest1, p1 in terms1:
            for p, e in zip(pos1, rest1):
                base[p] = e
            for rest2, p2 in terms2:
                for p, e in zip(pos2, rest2):
                    base[p] = e
                row = sums.setdefault(tuple(base), {})
                for a, x in p1:
                    for b, y in p2:
                        _add(row, a + b, x * y)
    return _apply_double_moment(n, moduli_dim(g, n), sums)


def b_term(g: int, n: int, table: "VolumeTable") -> LPoly:
    """Second-boundary term: for each j >= 2, terms x^2a m of V_{g,n-1}
    contribute coeff * shifted F-moment in (L_1, L_j) times m."""
    if n < 2:
        return LPoly.zero(n, moduli_dim(g, n))
    # the contribution of j = 2, keyed (r, s) + rest; every other j places
    # the same values with s moved to the slot of L_j
    first: dict[MultiIndex, Fraction] = {}
    for alpha, q in table.volume(g, n - 1).items():
        rest = alpha[1:]
        for r, s, f in _shifted_moment_rationals(alpha[0]):
            _add(first, (r, s) + rest, q * f)
    acc = dict(first)
    for pj in range(2, n):
        for key, x in first.items():
            _add(acc, (key[0],) + key[2 : pj + 1] + (key[1],) + key[pj + 1 :], x)
    return LPoly(n, moduli_dim(g, n), acc)


def validate_volume(g: int, n: int, p: LPoly) -> None:
    """Check the structural invariants of a volume polynomial.

    Weight 3g-3+n (every coefficient a rational multiple of
    pi^(2(3g-3+n-|alpha|)) with |alpha| <= 3g-3+n), strictly positive
    coefficients, and symmetry under label permutations.  Raises
    InvariantViolation on any failure.
    """
    d = moduli_dim(g, n)
    if p.n != n:
        raise InvariantViolation(f"V_{{{g},{n}}} has {p.n} variables, expected {n}")
    if p.weight != d:
        raise InvariantViolation(f"V_{{{g},{n}}} has weight {p.weight}, expected {d}")
    if p.is_zero():
        raise InvariantViolation(f"V_{{{g},{n}}} is zero")
    for alpha, q in p.items():
        if q <= 0:
            raise InvariantViolation(
                f"V_{{{g},{n}}}: coefficient of {alpha} is not positive"
            )
    if not p.is_symmetric():
        raise InvariantViolation(f"V_{{{g},{n}}} is not label-symmetric")


def iter_signatures(max_dim: int) -> Iterator[Tuple[int, int]]:
    """All stable (g, n) with n >= 1 and 3g - 3 + n <= max_dim, by
    increasing dimension then (g, n)."""
    sigs = []
    g = 0
    while moduli_dim(g, 1) <= max_dim:
        n = 1
        while moduli_dim(g, n) <= max_dim:
            if is_stable(g, n):
                sigs.append((g, n))
            n += 1
        g += 1
    sigs.sort(key=lambda s: (moduli_dim(*s), s))
    return iter(sigs)


class VolumeTable:
    """Memoized map from (g, n) to the internal-convention volume.

    Entries are computed on demand, dependencies first, and validated
    when computed or loaded.  Completed entries are immutable.
    """

    def __init__(self):
        self._entries: dict[Tuple[int, int], LPoly] = {}

    def __contains__(self, sig: Tuple[int, int]) -> bool:
        return sig in self._entries

    def signatures(self) -> list[Tuple[int, int]]:
        return sorted(self._entries, key=lambda s: (moduli_dim(*s), s))

    def volume(self, g: int, n: int) -> LPoly:
        """V_{g,n} in the internal convention (halved at (1,1))."""
        sig = (g, n)
        cached = self._entries.get(sig)
        if cached is not None:
            return cached
        poly = self._compute(g, n)
        self._entries[sig] = poly
        return poly

    def true_volume(self, g: int, n: int) -> LPoly:
        """The geometric Weil-Petersson volume: doubles only V_{1,1}."""
        v = self.volume(g, n)
        if (g, n) == (1, 1):
            return v.scale(2)
        return v

    def _compute(self, g: int, n: int) -> LPoly:
        if n < 1:
            raise ValueError(
                f"({g},{n}): closed-surface volumes come from the boundary "
                "removal relation, not the recursion"
            )
        if not is_stable(g, n):
            raise ValueError(f"({g},{n}) is not a stable signature")
        if (g, n) in BASE_SIGNATURES:
            poly = base_volume(g, n)
        else:
            derivative = (
                a_con_term(g, n, self)
                + a_dcon_term(g, n, self)
                + b_term(g, n, self)
            )
            poly = derivative.integrate_back()
        validate_volume(g, n, poly)
        return poly

    def ensure(self, max_dim: int) -> None:
        """Compute every stable (g, n), n >= 1, with 3g-3+n <= max_dim."""
        for sig in iter_signatures(max_dim):
            self.volume(*sig)

    # ------------------------------------------------------------------
    # serialization

    def to_entries(self) -> dict[str, list[dict]]:
        """Canonically ordered map ``"g,n" -> term records``."""
        return {
            f"{g},{n}": self._entries[(g, n)].to_records()
            for g, n in self.signatures()
        }

    @classmethod
    def from_entries(cls, entries: dict[str, list[dict]]) -> "VolumeTable":
        """Rebuild a table from serialized entries, validating each one
        before it is trusted."""
        table = cls()
        for key, records in entries.items():
            g_str, n_str = key.split(",")
            g, n = int(g_str), int(n_str)
            poly = LPoly.from_records(n, moduli_dim(g, n), records)
            validate_volume(g, n, poly)
            table._entries[(g, n)] = poly
        return table
