"""Mirzakhani's recursion for Weil-Petersson volume polynomials.

The volume V_{g,n}(L_1, ..., L_n) of the moduli space of genus g
hyperbolic surfaces with n geodesic boundaries satisfies

    d/dL_1 (L_1 V_{g,n}) = A^con + A^dcon + B,

where the three terms integrate kernel moments against volumes of the
surfaces left after removing an embedded pair of pants containing the
first boundary: A^con cuts off two boundaries of one surface of genus
g-1, A^dcon splits the complement into two pieces, and B's pants
contains a second boundary L_j.

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

V_{g,n} is symmetric in its labels, so the terms return only the keys
(a_1, a_2 >= ... >= a_n), one per orbit of the labels 2..n, and read only
such terms of their inputs.  The derivative is integrated back once and
then expanded to every alpha with |alpha| <= 3g-3+n; a term key that the
expansion would not read is an error, not a dropped term.

Every entry, computed or loaded, is validated: its weight is 3g-3+n
(which fixes every pi power), every key has n non-negative exponents with
|alpha| <= 3g-3+n, it has a term for every such alpha, every coefficient
is positive, and it is symmetric under all label permutations, L_1
included.  Symmetry is checked with one lookup per term: since every
alpha is present, it suffices that each coefficient equals the one at its
sorted key (a_1 >= ... >= a_n).  On a computed volume, whose terms were
expanded from the keys (a_1, a_2 >= ... >= a_n), this compares L_1 with
the other labels.  A violation aborts; with exact arithmetic any mismatch
is a logic bug.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Iterator, Tuple

from .kernels import h_double_moment, h_moment, shift_symmetrize
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


class InvariantViolation(RuntimeError):
    """A computed volume failed a structural invariant (logic bug)."""


def is_stable(g: int, n: int) -> bool:
    """Whether a genus-g surface with n boundaries is hyperbolic: g >= 0,
    n >= 0 and 2g-2+n > 0."""
    return g >= 0 and n >= 0 and 2 * g - 2 + n > 0


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
def stable_splittings(g: int, n: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Ordered stable splittings ((g1, k1), (g2, k2)) for the disconnected
    term at (g, n): piece i has genus g_i, k_i of the labels 2..n and one
    new boundary, with k1 + k2 = n - 1.  Pieces must be hyperbolic,
    2 g_i - 2 + (k_i + 1) > 0, which excludes disks and annuli.

    The symmetric splitting occurs once; with the recursion's global 1/2
    this reproduces the unordered count with its Z/2 symmetry.
    """
    return tuple(
        ((g1, k1), (g - g1, n - 1 - k1))
        for g1 in range(g + 1)
        for k1 in range(n)
        if is_stable(g1, k1 + 1) and is_stable(g - g1, n - k1)
    )


@lru_cache(maxsize=None)
def _double_moment_rationals(s: int) -> Tuple[Tuple[int, Fraction], ...]:
    # (m, f) with (1/2) G_{a,b}(t) = (2a+1)! (2b+1)! sum_m f t^(2m) pi^(2(s+2-m))
    # for every a + b = s: by the Beta reduction G_{a,b} / ((2a+1)! (2b+1)!)
    # depends on a + b only, so read it at a = 0 and fold in the global 1/2
    scale = Fraction(1, 2 * factorial(2 * s + 1))
    return tuple((m, f * scale) for (m,), f in h_double_moment(0, s).items())


@lru_cache(maxsize=None)
def _shifted_moment_rationals(a: int) -> Tuple[Tuple[int, int, Fraction], ...]:
    # (r, s, f) for (F_{2a+1}(L1 + Lj) + F_{2a+1}(L1 - Lj)) / 2, whose
    # L1^(2r) Lj^(2s) coefficient is f * pi^(2(a+1-r-s))
    return tuple((r, s, f) for (r, s), f in shift_symmetrize(h_moment(a)).items())


def _add(acc: dict, key, q: Fraction) -> None:
    prev = acc.get(key)
    acc[key] = q if prev is None else prev + q


def _descending(rest: MultiIndex) -> MultiIndex:
    return tuple(sorted(rest, reverse=True))


def _representatives(p: LPoly, free: int) -> list[Tuple[MultiIndex, Fraction]]:
    # terms whose exponents after the first ``free`` do not increase
    return [(a, q) for a, q in p.items() if a[free:] == _descending(a[free:])]


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
    """Connected pants-removal term, on the keys (a_1, a_2 >= ... >= a_n).

    Each term x^2a y^2b m(L_2..L_n) of V_{g-1,n+1} with non-increasing
    exponents in m contributes (1/2) coeff G_{a,b}(L_1) m; absent when
    (g-1, n+1) is unstable.
    """
    if g < 1 or not is_stable(g - 1, n + 1):
        return LPoly.zero(n, moduli_dim(g, n))
    sums: dict[MultiIndex, dict[int, Fraction]] = {}
    for alpha, q in _representatives(table.volume(g - 1, n + 1), 2):
        a, b = alpha[0], alpha[1]
        row = sums.setdefault(alpha[2:], {})
        _add(row, a + b, q * (factorial(2 * a + 1) * factorial(2 * b + 1)))
    return _apply_double_moment(n, moduli_dim(g, n), sums)


def _by_rest(p: LPoly) -> list[Tuple[MultiIndex, list]]:
    # terms x^2a m(rest) with rest non-increasing, as rest -> [(a, q (2a+1)!)]
    groups: dict[MultiIndex, list] = {}
    for alpha, q in _representatives(p, 1):
        a = alpha[0]
        groups.setdefault(alpha[1:], []).append((a, q * factorial(2 * a + 1)))
    return list(groups.items())


def a_dcon_term(g: int, n: int, table: "VolumeTable") -> LPoly:
    """Disconnected pants-removal term, on the keys (a_1, a_2 >= ... >= a_n).

    Ordered stable splittings with the global 1/2 prefactor.  The product
    of terms with rests rest1 and rest2 stands for every way to deal the
    labels of the merged rest onto the pieces: prod_v C(count_v(rest),
    count_v(rest1)) of them.
    """
    sums: dict[MultiIndex, dict[int, Fraction]] = {}
    for (g1, k1), (g2, k2) in stable_splittings(g, n):
        terms2 = _by_rest(table.volume(g2, k2 + 1))
        for rest1, p1 in _by_rest(table.volume(g1, k1 + 1)):
            for rest2, p2 in terms2:
                rest = _descending(rest1 + rest2)
                w = prod(comb(rest.count(v), rest1.count(v)) for v in set(rest1))
                row = sums.setdefault(rest, {})
                for a, x in p1:
                    wx = w * x
                    for b, y in p2:
                        _add(row, a + b, wx * y)
    return _apply_double_moment(n, moduli_dim(g, n), sums)


def b_term(g: int, n: int, table: "VolumeTable") -> LPoly:
    """Second-boundary term, on the keys (a_1, a_2 >= ... >= a_n).

    For each j >= 2, terms x^2a m of V_{g,n-1} contribute coeff * shifted
    F-moment in (L_1, L_j) times m.  The term L_1^2r L_j^2s m stands for
    every j whose L_j carries s: as many as s occurs in the merged rest.
    """
    if n < 2:
        return LPoly.zero(n, moduli_dim(g, n))
    acc: dict[MultiIndex, Fraction] = {}
    for alpha, q in _representatives(table.volume(g, n - 1), 1):
        rest = alpha[1:]
        for r, s, f in _shifted_moment_rationals(alpha[0]):
            merged = _descending(rest + (s,))
            _add(acc, (r,) + merged, q * f * merged.count(s))
    return LPoly(n, moduli_dim(g, n), acc)


def _expand(reps: LPoly) -> LPoly:
    """The polynomial symmetric in L_2..L_n whose terms on the keys
    (a_1, a_2 >= ... >= a_n) are those of ``reps``; any other key in
    ``reps`` raises InvariantViolation."""
    n, d = reps.n, reps.weight
    alphas = [()]
    for _ in range(n):
        alphas = [a + (e,) for a in alphas for e in range(d - sum(a) + 1)]
    keys = {a: (a[0],) + _descending(a[1:]) for a in alphas}
    read = set(keys.values())
    for alpha, _ in reps.items():
        if alpha not in read:
            raise InvariantViolation(
                f"term key {alpha} is not (a_1, a_2 >= ... >= a_{n}) "
                f"with |alpha| <= {d}"
            )
    return LPoly(n, d, {a: reps.coefficient(key) for a, key in keys.items()})


def validate_volume(g: int, n: int, p: LPoly) -> None:
    """Check the structural invariants of a volume polynomial.

    Weight d = 3g-3+n (every coefficient a rational multiple of
    pi^(2(d-|alpha|))), keys of n non-negative exponents with |alpha| <= d
    and C(d+n, n) of them, so a term for each such alpha, strictly
    positive coefficients, and symmetry under label permutations: each
    coefficient equals the one at its key sorted in decreasing order.
    Raises InvariantViolation on any failure.
    """
    d = moduli_dim(g, n)
    if p.n != n:
        raise InvariantViolation(f"V_{{{g},{n}}} has {p.n} variables, expected {n}")
    if p.weight != d:
        raise InvariantViolation(f"V_{{{g},{n}}} has weight {p.weight}, expected {d}")
    if len(p) != comb(d + n, n):
        raise InvariantViolation(
            f"V_{{{g},{n}}} has {len(p)} terms, expected {comb(d + n, n)}"
        )
    # every key in range and C(d+n, n) of them, so p has every alpha: the
    # sorted-key test is then full symmetry
    for alpha, q in p.items():
        if len(alpha) != n or min(alpha, default=0) < 0 or sum(alpha) > d:
            raise InvariantViolation(
                f"V_{{{g},{n}}} has a term at {alpha}, outside |alpha| <= {d}"
            )
        if q <= 0:
            raise InvariantViolation(
                f"V_{{{g},{n}}}: coefficient of {alpha} is not positive"
            )
        if p.coefficient(_descending(alpha)) != q:
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
        if (g, n) not in self._entries:
            self._entries[(g, n)] = self._compute(g, n)
        return self._entries[(g, n)]

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
            poly = _expand(derivative.integrate_back())
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
            if key != f"{g},{n}" or n < 1 or not is_stable(g, n):
                raise ValueError(
                    f"entry {key!r} is not a stable signature g,n with n >= 1"
                )
            poly = LPoly.from_records(n, moduli_dim(g, n), records)
            validate_volume(g, n, poly)
            table._entries[(g, n)] = poly
        return table
