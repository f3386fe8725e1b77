"""Mirzakhani's recursion for Weil-Petersson volume polynomials.

The volume V_{g,n}(L_1, ..., L_n) of the moduli space of genus g
hyperbolic surfaces with n geodesic boundaries satisfies

    d/dL_1 (L_1 V_{g,n}) = A^con + A^dcon + B,

where the three terms integrate kernel moments against volumes of the
surfaces left after removing an embedded pair of pants containing the
first boundary: A^con cuts off two boundaries of one surface of genus
g-1, A^dcon splits the complement into two pieces, and B's pants
contains a second boundary L_j.  Base cases are V_{0,3} = 1 and the
*halved* torus value V_{1,1} = pi^2/12 + L^2/48, which accounts for the
elliptic involution; only :meth:`VolumeTable.true_volume` doubles it.

The coefficient of L^(2 alpha) in V_{g,n} is q pi^(2(3g-3+n-|alpha|)): an
:class:`LPoly` stores q, and its weight 3g-3+n implies the power of pi.
The terms run on [alpha] = q prod_i (2 alpha_i+1)!, the coefficient form
of the recursion (arXiv:1108.0174), in which both kernel moments reduce
to the constants r_i of :func:`wpvol.kernels.moment_constant`:

    A^con :  [m, rest]     += 1/2 r_(a+b+2-m) [a, b, rest]_{g-1,n+1}
    A^dcon:  [m, rest]     += 1/2 r_(a+b+2-m) [a, rest1]_{g1} [b, rest2]_{g2}
    B     :  [q, rest + s] += (2s+1) r_(a+1-q-s) [a, rest]_{g,n-1}

Every index of r is at most 3g-3+n, and its top degree is DVV.

V_{g,n} is symmetric in its labels, so :class:`VolumeTable` stores it
only on the keys (a_1, a_2 >= ... >= a_n), one per orbit of the labels
2..n, which the terms return and the table file holds.  Only ``volume``
and ``true_volume`` expand.  The terms sum on Python ints and return
(den, {key: x}).  Each input volume is read through its free-1 view,
rest -> [(a, [alpha] D)] over D, the LCM of its denominators; A^con takes
b out of each rest, once per distinct value, and A^dcon brings each
splitting's D1 D2 to their LCM.  ``_compute`` brings the three terms to
one LCM and builds one ``Fraction`` per stored key, x / (den prod_i
(2 alpha_i+1)!), which also integrates back.

Every entry, computed or loaded, passes :func:`validate_volume` in its
stored form: weight 3g-3+n, a positive coefficient at each orbit key
equal to the one at its fully sorted key (L_1 against the other labels),
and no term at any other key.  A violation aborts; with exact arithmetic
any mismatch is a logic bug.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from typing import Iterator, Sequence, Tuple

from .kernels import moment_constant
from .lpoly import LPoly, MultiIndex, grlex_key

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

# (den, {key: x}): the rational x / den at each key, den > 0
Numerators = Tuple[int, dict[MultiIndex, int]]


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


def _over_lcm(qs: Sequence[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    # (E, (e, ...)) with e / E each rational of qs, E their denominators' LCM
    den = lcm(*(q.denominator for q in qs))
    return den, tuple(q.numerator * (den // q.denominator) for q in qs)


@lru_cache(maxsize=None)
def _moment_row(top: int) -> Tuple[int, Tuple[int, ...]]:
    # (E, (e_0, ..., e_top)) with r_i = e_i / E
    return _over_lcm([moment_constant(i) for i in range(top + 1)])


def _odd_factorials(alpha: MultiIndex) -> int:
    # prod_i (2 alpha_i + 1)!, which normalizes the coefficient at alpha
    return prod(factorial(2 * a + 1) for a in alpha)


def _descending(rest: MultiIndex) -> MultiIndex:
    return tuple(sorted(rest, reverse=True))


def _apply_double_moment(
    sums: dict[MultiIndex, dict[int, int]], den: int, d: int
) -> Numerators:
    """[m, rest] = 1/2 sum_s r_(s+2-m) sums[rest][s] / den for m <= s + 2,
    where ``sums[rest][s] / den`` sums the inputs [a, b, rest] with a + b = s
    and s + 2 <= d = 3g-3+n."""
    e, r = _moment_row(d)
    acc: dict[MultiIndex, int] = {}
    for rest, row in sums.items():
        for s, x in row.items():
            for m in range(s + 3):
                key = (m,) + rest
                acc[key] = acc.get(key, 0) + x * r[s + 2 - m]
    return 2 * den * e, acc


def a_con_term(g: int, n: int, table: "VolumeTable") -> Numerators:
    """Connected pants-removal term, on the keys (a_1, a_2 >= ... >= a_n).

    Each term x^2a y^2b m(L_2..L_n) of V_{g-1,n+1} with non-increasing
    exponents in m contributes (1/2) coeff G_{a,b}(L_1) m; absent when
    (g-1, n+1) is unstable.  By symmetry it is the stored term at (a, b
    and m sorted): each stored rest gives one (b, m) per distinct value b.
    Normalized, [m, rest] += 1/2 r_(a+b+2-m) [a, b, rest].
    """
    if g < 1 or not is_stable(g - 1, n + 1):
        return 1, {}
    den, groups = table._free1_view(g - 1, n + 1)
    sums: dict[MultiIndex, dict[int, int]] = {}
    for stored, p in groups:
        for i, b in enumerate(stored):
            if i and stored[i - 1] == b:
                continue
            row = sums.setdefault(stored[:i] + stored[i + 1 :], {})
            for a, x in p:
                row[a + b] = row.get(a + b, 0) + x
    return _apply_double_moment(sums, den, moduli_dim(g, n))


def a_dcon_term(g: int, n: int, table: "VolumeTable") -> Numerators:
    """Disconnected pants-removal term, on the keys (a_1, a_2 >= ... >= a_n).

    Ordered stable splittings with the global 1/2 prefactor.  The product
    of terms with rests rest1 and rest2 stands for every way to deal the
    labels of the merged rest onto the pieces: prod_v C(count_v(rest),
    count_v(rest1)) of them.  A splitting's products are integers over
    D1 D2, brought to the LCM of D1 D2 over all splittings.  Normalized,
    [m, rest] += 1/2 r_(a+b+2-m) [a, rest1]_{g1} [b, rest2]_{g2}.
    """
    views = [
        (table._free1_view(g1, k1 + 1), table._free1_view(g2, k2 + 1))
        for (g1, k1), (g2, k2) in stable_splittings(g, n)
    ]
    den = lcm(*(d1 * d2 for (d1, _), (d2, _) in views))
    sums: dict[MultiIndex, dict[int, int]] = {}
    for (d1, groups1), (d2, groups2) in views:
        c = den // (d1 * d2)
        for rest1, p1 in groups1:
            for rest2, p2 in groups2:
                rest = _descending(rest1 + rest2)
                w = c * prod(comb(rest.count(v), rest1.count(v)) for v in set(rest1))
                row = sums.setdefault(rest, {})
                for a, x in p1:
                    wx = w * x
                    for b, y in p2:
                        row[a + b] = row.get(a + b, 0) + wx * y
    return _apply_double_moment(sums, den, moduli_dim(g, n))


def b_term(g: int, n: int, table: "VolumeTable") -> Numerators:
    """Second-boundary term, on the keys (a_1, a_2 >= ... >= a_n).

    For each j >= 2, terms x^2a m of V_{g,n-1} contribute coeff * shifted
    F-moment in (L_1, L_j) times m.  The term L_1^2q L_j^2s m stands for
    every j whose L_j carries s: as many as s occurs in the merged rest.
    Normalized, [q, rest + s] += (2s+1) r_(a+1-q-s) [a, rest].
    """
    if n < 2:
        return 1, {}
    den, groups = table._free1_view(g, n - 1)
    e, r = _moment_row(moduli_dim(g, n))
    acc: dict[MultiIndex, int] = {}
    for rest, p in groups:
        placed: dict[int, Tuple[MultiIndex, int]] = {}
        for a, x in p:
            for s in range(a + 2):
                if s not in placed:
                    merged = _descending(rest + (s,))
                    placed[s] = (merged, merged.count(s) * (2 * s + 1))
                merged, w = placed[s]
                wx = w * x
                for q in range(a + 2 - s):
                    key = (q,) + merged
                    acc[key] = acc.get(key, 0) + wx * r[a + 1 - q - s]
    return den * e, acc


def _sorted_keys(k: int, d: int) -> Iterator[MultiIndex]:
    """Every non-increasing k-tuple of non-negative exponents with sum at
    most d, in lexicographic order, made one at a time."""
    key = [0] * k
    while True:
        total = sum(key)
        yield tuple(key)
        # the next key raises the last exponent that stays within its
        # predecessor and the weight, and zeroes those after it
        for i in reversed(range(k)):
            if total < d and (i == 0 or key[i] < key[i - 1]):
                key[i] += 1
                key[i + 1 :] = [0] * (k - 1 - i)
                break
            total -= key[i]
        else:
            return


def _orbit_keys(n: int, d: int) -> Iterator[MultiIndex]:
    # every (a_1, a_2 >= ... >= a_n) with |alpha| <= d: the rests in
    # lexicographic order, each with a_1 = 0, 1, ...
    for rest in _sorted_keys(n - 1, d):
        for a in range(d - sum(rest) + 1):
            yield (a,) + rest


def _orderings(rest: MultiIndex, memo: dict) -> Tuple[MultiIndex, ...]:
    # every distinct ordering of the non-increasing rest: each distinct value
    # first, then each ordering of the others; ((),) for the empty rest.
    # ``memo`` holds the rests one expansion has met, and goes with it
    out = memo.get(rest)
    if out is None:
        out = memo[rest] = tuple(
            (v,) + tail
            for i, v in enumerate(rest)
            if not i or rest[i - 1] != v
            for tail in _orderings(rest[:i] + rest[i + 1 :], memo)
        ) or ((),)
    return out


def _expand(stored: LPoly) -> LPoly:
    """The polynomial symmetric in the labels 2..n whose terms at the keys
    (a_1, a_2 >= ... >= a_n) are those of ``stored``."""
    memo: dict = {}
    terms = {
        key[:1] + r: q for key, q in stored.items() for r in _orderings(key[1:], memo)
    }
    return LPoly(stored.n, stored.weight, terms)


def validate_volume(g: int, n: int, p: LPoly) -> LPoly:
    """Check a volume polynomial's structural invariants on the keys
    (a_1, a_2 >= ... >= a_n), the form the table stores, and return it.

    Weight d = 3g-3+n (which fixes every pi power) and n variables.  At
    each such key with |alpha| <= d, a positive coefficient equal to the
    one at the fully sorted key (symmetry in L_1), and no term at any
    other alpha.  Raises InvariantViolation naming a key that is missing
    or not positive, or the first other alpha in graded-lex order.
    """
    d = moduli_dim(g, n)
    if p.n != n:
        raise InvariantViolation(f"V_{{{g},{n}}} has {p.n} variables, expected {n}")
    if p.weight != d:
        raise InvariantViolation(f"V_{{{g},{n}}} has weight {p.weight}, expected {d}")
    given = dict(p.items())
    # stops at the first missing key, so the work is bounded by the terms
    orbit = set()
    for key in _orbit_keys(n, d):
        q = given.get(key)
        if q is None:
            raise InvariantViolation(f"V_{{{g},{n}}} has no term at {key}")
        # a Fraction's denominator is positive
        if q.numerator <= 0:
            raise InvariantViolation(f"V_{{{g},{n}}}: coefficient of {key} is not positive")
        top = _descending(key)
        if top != key and given.get(top) != q:
            raise InvariantViolation(f"V_{{{g},{n}}} is not label-symmetric")
        orbit.add(key)
    if len(given) != len(orbit):
        alpha = min((a for a in given if a not in orbit), key=grlex_key)
        raise InvariantViolation(
            f"V_{{{g},{n}}} has a term at {alpha}, which is not a key "
            f"(a_1, a_2 >= ... >= a_{n}) with |alpha| <= {d}"
        )
    return p


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

    Each entry is stored on its keys (a_1, a_2 >= ... >= a_n) only.
    Entries are computed on demand, dependencies first, and validated
    when computed or loaded.  Completed entries are immutable.
    """

    def __init__(self):
        self._entries: dict[Tuple[int, int], LPoly] = {}
        self._free1: dict[Tuple[int, int], Tuple[int, list]] = {}

    def __contains__(self, sig: Tuple[int, int]) -> bool:
        return sig in self._entries

    def signatures(self) -> list[Tuple[int, int]]:
        return sorted(self._entries, key=lambda s: (moduli_dim(*s), s))

    def _stored(self, g: int, n: int) -> LPoly:
        # V_{g,n} on its keys (a_1, a_2 >= ... >= a_n), computed on first read
        if (g, n) not in self._entries:
            self._entries[(g, n)] = self._compute(g, n)
        return self._entries[(g, n)]

    def volume(self, g: int, n: int) -> LPoly:
        """V_{g,n} in the internal convention (halved at (1,1)), expanded."""
        return _expand(self._stored(g, n))

    def coefficient(self, g: int, alpha: Sequence[int]) -> Fraction:
        """The rational coefficient of L^(2 alpha) in V_{g,len(alpha)}."""
        key = tuple(alpha[:1]) + _descending(alpha[1:])
        return self._stored(g, len(key)).coefficient(key)

    def _free1_view(self, g: int, n: int) -> Tuple[int, list]:
        """V_{g,n}'s stored terms x^2a m(rest) as (D, [(rest, [(a, N
        prod_i (2 alpha_i+1)!), ...]), ...]) where the coefficient at alpha
        = (a,) + rest is N / D and D the LCM of the denominators.  The terms
        read it; it is built on first read and reused."""
        view = self._free1.get((g, n))
        if view is None:
            keys, qs = zip(*self._stored(g, n).items())
            den, xs = _over_lcm(qs)
            groups: dict[MultiIndex, list[Tuple[int, int]]] = {}
            for alpha, x in zip(keys, xs):
                groups.setdefault(alpha[1:], []).append(
                    (alpha[0], x * _odd_factorials(alpha))
                )
            view = self._free1[(g, n)] = (den, list(groups.items()))
        return view

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
            return validate_volume(g, n, base_volume(g, n))
        # d/dL_1 (L_1 V) = A^con + A^dcon + B, normalized, over one LCM;
        # dividing by prod_i (2 alpha_i + 1)! also integrates back
        terms = (a_con_term(g, n, self), a_dcon_term(g, n, self), b_term(g, n, self))
        den = lcm(*(term_den for term_den, _ in terms))
        acc: dict[MultiIndex, int] = {}
        for term_den, sums in terms:
            c = den // term_den
            for key, x in sums.items():
                acc[key] = acc.get(key, 0) + x * c
        volume = {key: Fraction(x, den * _odd_factorials(key)) for key, x in acc.items()}
        return validate_volume(g, n, LPoly(n, moduli_dim(g, n), volume))

    def ensure(self, max_dim: int) -> None:
        """Compute every stable (g, n), n >= 1, with 3g-3+n <= max_dim."""
        for sig in iter_signatures(max_dim):
            self._stored(*sig)

    # ------------------------------------------------------------------
    # serialization

    def to_entries(self) -> dict[str, list[dict]]:
        """Canonically ordered map ``"g,n" -> term records`` of the
        stored form, each entry's records in graded-lex order."""
        return {f"{g},{n}": self._entries[g, n].to_records() for g, n in self.signatures()}

    @classmethod
    def from_entries(cls, entries: dict[str, list[dict]]) -> "VolumeTable":
        """Inverse of :meth:`to_entries`: rebuild a table from stored-form
        entries, validating each one before it is trusted."""
        table = cls()
        for key, records in entries.items():
            g_str, n_str = key.split(",")
            g, n = int(g_str), int(n_str)
            if key != f"{g},{n}" or n < 1 or not is_stable(g, n):
                raise ValueError(
                    f"entry {key!r} is not a stable signature g,n with n >= 1"
                )
            poly = LPoly.from_records(n, moduli_dim(g, n), records)
            # only the records' keys bound n by the input: without one,
            # validate_volume would build an n-long key to name it
            if not poly:
                raise ValueError(f"entry {key!r} holds no terms")
            table._entries[(g, n)] = validate_volume(g, n, poly)
        return table
