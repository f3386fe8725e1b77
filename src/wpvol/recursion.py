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

V_{g,n} is symmetric in its labels, so :class:`VolumeTable` holds it
only on the keys (a_1, a_2 >= ... >= a_n), one per orbit of the labels
2..n, as integers N_0, N_1, ... per rest = (a_2, ..., a_n) with [(a,) +
rest] = N_a / D reduced by gcd(D, all N).  The
terms read them and return (den, {key: x}); over one LCM, x / den is
[alpha] of V_{g,n}, as dividing by prod_i (2 alpha_i+1)! also integrates
back.  Readers take N and D in place; an LPoly is built only for output.

Convolutions are products of packed integers (Kronecker substitution,
arXiv:0712.4046): a row x_a is X = sum_a x_a 2^(8wa), w bytes a slot.  A
double moment out_m = sum_s x_s r_(s+2-m) is slot d+m-2 of X R, R = sum_j
e_j 2^(8w(d-j)), r_j = e_j / E.  A^dcon writes prod_v C(count_v(rest),
count_v(rest1)) as C(n-1, k1) mu(rest1) mu(rest2) / mu(rest), mu = |rest|!
/ prod_v count_v!, dividing each merged row by mu(rest) once.  B reads q
and s only through c_(q+s) = sum_a x_a r_(a+1-q-s), slot d+q+s-1 of X R.
Packed values are positive, so a slot is at most the total summed into it:
8w >= bound.bit_length() + 1 for bound = sum_j e_j times n sum N (A^con),
the sum over splittings of the weight times (sum mu1 N1)(sum mu2 N2)
(A^dcon), or (n-1)^2 (2d+1) max row sum (B).

Every entry enters the table one way, as (D, {key: N}): a base case as
the stored numerators :data:`BASE`, any other as the sum of its terms.
The one check, :func:`validate_volume`, runs where it is stored, on the
integer numerators N of its keys: a positive value at each orbit key with
|alpha| <= 3g-3+n equal to the one at its fully sorted key (L_1 against
the other labels), and no term at any other key.  It walks the keys once
and returns the rows it walked, which the table keeps.  As prod_i (2
alpha_i+1)! is symmetric and positive, this checks the coefficients q.
A violation aborts; with exact arithmetic any mismatch is a logic bug.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod
from typing import Iterator, Sequence, Tuple

from .kernels import moment_constant
from .lpoly import LPoly, MultiIndex, grlex_key

__all__ = [
    "is_stable",
    "moduli_dim",
    "stable_splittings",
    "a_con_term",
    "a_dcon_term",
    "b_term",
    "VolumeTable",
    "InvariantViolation",
    "validate_volume",
    "iter_signatures",
]

# (den, {key: x}): the rational x / den at each key, den > 0
Numerators = Tuple[int, dict[MultiIndex, int]]

# the base cases as stored entries, [alpha] = q prod_i (2 alpha_i+1)!:
# V_{0,3} = 1, and the halved V_{1,1} = pi^2/12 + L^2/48 has [0] = 1/12 =
# 2/24 and [1] = 3!/48 = 1/8 = 3/24
BASE = {(0, 3): (1, {(0, 0, 0): 1}), (1, 1): (24, {(0,): 2, (1,): 3})}


class InvariantViolation(RuntimeError):
    """A computed volume failed a structural invariant (logic bug)."""


def is_stable(g: int, n: int) -> bool:
    """Whether a genus-g surface with n boundaries is hyperbolic: g >= 0,
    n >= 0 and 2g-2+n > 0."""
    return g >= 0 and n >= 0 and 2 * g - 2 + n > 0


def moduli_dim(g: int, n: int) -> int:
    """Complex dimension 3g - 3 + n of the moduli space."""
    return 3 * g - 3 + n


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


def _odd_factorials(alpha: Sequence[int]) -> int:
    # prod_i (2 alpha_i + 1)!, which normalizes the coefficient at alpha
    return prod(factorial(2 * a + 1) for a in alpha)


@lru_cache(maxsize=None)
def _double_factorial(m: int) -> int:
    """(m)!! for odd m >= -1, with (-1)!! = 1."""
    return prod(range(m, 0, -2))


@lru_cache(maxsize=None)
def _orderings_count(rest: MultiIndex) -> int:
    # mu(rest) = |rest|! / prod_v count_v(rest)!, the orderings of rest
    return factorial(len(rest)) // prod(factorial(rest.count(v)) for v in set(rest))


def _pack(row: Sequence[int], w: int) -> int:
    # sum_i row[i] 2^(8 w i)
    return int.from_bytes(b"".join([x.to_bytes(w, "little") for x in row]), "little")


def _unpack(sums: dict[MultiIndex, int], w: int, start: int, d: int) -> dict:
    # {(m,) + rest: slot start + m of sums[rest]} for m <= d - |rest|
    mask = (1 << 8 * w) - 1
    return {
        (m,) + rest: x >> 8 * w * (start + m) & mask
        for rest, x in sums.items()
        for m in range(d - sum(rest) + 1)
    }


def _moment_pack(d: int, bound: int) -> Tuple[int, int, int]:
    # (E, w, sum_j e_j 2^(8w(d-j))) with r_j = e_j / E, and w the bytes per
    # slot that keep a free top bit in a slot of at most bound sum_j e_j
    e, r = _over_lcm([moment_constant(j) for j in range(d + 1)])
    w = (max(bound, 1) * sum(r)).bit_length() // 8 + 1
    return e, w, _pack(r[::-1], w)


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
    d, (den, groups) = moduli_dim(g, n), table._free1_view(g - 1, n + 1)
    e, w, reverse = _moment_pack(d, n * sum(map(sum, groups.values())))
    sums: dict[MultiIndex, int] = {}
    for stored, row in groups.items():
        x = _pack(row, w)
        for i, b in enumerate(stored):
            if not i or stored[i - 1] != b:
                rest = stored[:i] + stored[i + 1 :]
                sums[rest] = sums.get(rest, 0) + (x << (8 * w * b))
    sums = {rest: x * reverse for rest, x in sums.items()}
    return 2 * den * e, _unpack(sums, w, d - 2, d)


def a_dcon_term(g: int, n: int, table: "VolumeTable") -> Numerators:
    """Disconnected pants-removal term, on the keys (a_1, a_2 >= ... >= a_n).

    Ordered stable splittings with the global 1/2 prefactor, of which a
    splitting and its mirror image give the same products.  The product of
    terms with rests rest1 and rest2 stands for every way to deal the
    labels of the merged rest onto the pieces: prod_v C(count_v(rest),
    count_v(rest1)) of them.  A splitting's products are integers over
    D1 D2, brought to the LCM of D1 D2 over all splittings.  Normalized,
    [m, rest] += 1/2 r_(a+b+2-m) [a, rest1]_{g1} [b, rest2]_{g2}.
    """
    d, view, views = moduli_dim(g, n), table._free1_view, []
    for (g1, k1), (g2, k2) in stable_splittings(g, n):
        if (g1, k1) <= (g2, k2):
            c = comb(n - 1, k1) * (2 - ((g1, k1) == (g2, k2)))
            views.append((c, view(g1, k1 + 1), view(g2, k2 + 1)))
    den = lcm(*(d1 * d2 for _, (d1, _), (d2, _) in views))
    splits = [(c * den // (d1 * d2), p1, p2) for c, (d1, p1), (d2, p2) in views]

    def mass(groups):
        return sum(_orderings_count(rest) * sum(row) for rest, row in groups.items())

    e, w, reverse = _moment_pack(d, sum(c * mass(p1) * mass(p2) for c, p1, p2 in splits))
    sums: dict[MultiIndex, int] = {}
    for c, groups1, groups2 in splits:
        packed2 = [(r2, _orderings_count(r2) * _pack(row, w)) for r2, row in groups2.items()]
        for rest1, row in groups1.items():
            x = c * _orderings_count(rest1) * _pack(row, w)
            for rest2, y in packed2:
                rest = tuple(sorted(rest1 + rest2, reverse=True))
                sums[rest] = sums.get(rest, 0) + x * y
    sums = {rest: x // _orderings_count(rest) * reverse for rest, x in sums.items()}
    return 2 * den * e, _unpack(sums, w, d - 2, d)


def b_term(g: int, n: int, table: "VolumeTable") -> Numerators:
    """Second-boundary term, on the keys (a_1, a_2 >= ... >= a_n).

    For each j >= 2, terms x^2a m of V_{g,n-1} contribute coeff * shifted
    F-moment in (L_1, L_j) times m.  The term L_1^2q L_j^2s m stands for
    every j whose L_j carries s: as many as s occurs in the merged rest.
    Normalized, [q, rest + s] += (2s+1) r_(a+1-q-s) [a, rest].
    """
    if n < 2:
        return 1, {}
    d = moduli_dim(g, n)
    den, groups = table._free1_view(g, n - 1)
    most = max(map(sum, groups.values()))
    e, w, reverse = _moment_pack(d, (n - 1) ** 2 * (2 * d + 1) * most)
    sums: dict[MultiIndex, int] = {}
    for rest, row in groups.items():
        c = _pack(row, w) * reverse
        for s in range(len(row) + 1):
            merged = tuple(sorted(rest + (s,), reverse=True))
            x = merged.count(s) * (2 * s + 1) * (c >> (8 * w * (d - 1 + s)))
            sums[merged] = sums.get(merged, 0) + x
    return den * e, _unpack(sums, w, 0, d)


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


def validate_volume(g: int, n: int, nums: dict[MultiIndex, int]) -> dict[MultiIndex, list]:
    """Check an entry's structural invariants on the integer numerators N
    of [alpha] = N / D, at the keys (a_1, a_2 >= ... >= a_n) the table
    stores, and return its rows {rest: [N_0, N_1, ...]}, the rests in
    lexicographic order.

    At each such key with |alpha| <= d = 3g-3+n, a positive numerator
    equal to the one at the fully sorted key (symmetry in L_1), and no
    term at any other alpha.  Walks the keys once and stops at the first
    missing one, so the work is bounded by the terms.  Raises
    InvariantViolation naming a key that is missing or not positive, or
    the first other alpha in graded-lex order.
    """
    d, rows = moduli_dim(g, n), {}
    for rest in _sorted_keys(n - 1, d):
        row = rows[rest] = []
        for a in range(d - sum(rest) + 1):
            key = (a,) + rest
            x = nums.get(key)
            if x is None:
                raise InvariantViolation(f"V_{{{g},{n}}} has no term at {key}")
            if x <= 0:
                raise InvariantViolation(f"V_{{{g},{n}}}: coefficient of {key} is not positive")
            if rest and a < rest[0]:
                if nums.get(tuple(sorted(key, reverse=True))) != x:
                    raise InvariantViolation(f"V_{{{g},{n}}} is not label-symmetric")
            row.append(x)
    if len(nums) != sum(map(len, rows.values())):
        walked = {(a,) + rest for rest, row in rows.items() for a in range(len(row))}
        alpha = min(set(nums) - walked, key=grlex_key)
        raise InvariantViolation(
            f"V_{{{g},{n}}} has a term at {alpha}, which is not a key "
            f"(a_1, a_2 >= ... >= a_{n}) with |alpha| <= {d}"
        )
    return rows


def iter_signatures(max_dim: int) -> Iterator[Tuple[int, int]]:
    """All stable (g, n) with n >= 1 and 3g - 3 + n <= max_dim, by
    increasing dimension then (g, n)."""
    sigs = [
        (g, n)
        for g in range((max_dim + 2) // 3 + 1)
        for n in range(1, max_dim - 3 * g + 4)
        if is_stable(g, n)
    ]
    return iter(sorted(sigs, key=lambda s: (moduli_dim(*s), s)))


class VolumeTable:
    """Memoized map from (g, n) to the internal-convention volume.

    Each entry, computed on demand (dependencies first), is checked and
    held once on its keys (a_1, a_2 >= ... >= a_n) as (D,
    {rest: [N_0, N_1, ...]}), [(a,) + rest] = N_a / D, which only this
    module reads: :meth:`intersection_pair` serves the correlators, DVV,
    Do's right sides and ``zograf_ratio``, and memoizes its reads for good
    as entries never change; :meth:`at_two_pi_i` serves Do's left sides and
    ``compact_volume``.
    """

    def __init__(self):
        self._entries: dict[Tuple[int, int], Tuple[int, dict[MultiIndex, list]]] = {}
        self._pairs: dict[Tuple[int, MultiIndex], Tuple[int, int]] = {}

    def __contains__(self, sig: Tuple[int, int]) -> bool:
        return sig in self._entries

    def signatures(self) -> list[Tuple[int, int]]:
        return sorted(self._entries, key=lambda s: (moduli_dim(*s), s))

    def _stored(self, g: int, n: int) -> LPoly:
        # V_{g,n} on its keys (a_1, a_2 >= ... >= a_n), built from its rows
        den, rows = self._free1_view(g, n)
        terms = {
            (a,) + rest: Fraction(x, den * _odd_factorials((a,) + rest))
            for rest, row in rows.items()
            for a, x in enumerate(row)
        }
        return LPoly(n, moduli_dim(g, n), terms)

    def volume(self, g: int, n: int) -> LPoly:
        """V_{g,n} in the internal convention (halved at (1,1)), expanded:
        symmetric in the labels 2..n, with the stored terms at the keys."""
        stored, memo = self._stored(g, n), {}
        terms = {k[:1] + r: q for k, q in stored.items() for r in _orderings(k[1:], memo)}
        return LPoly(n, stored.weight, terms)

    def intersection_pair(self, g: int, alpha: Sequence[int]) -> Tuple[int, int]:
        """(N, D prod_i (2 alpha_i+1)!!) with [alpha] = N / D: as (2a+1)! =
        (2a+1)!! 2^a a!, its ratio is int psi^alpha omega^m / (m! pi^(2m)),
        m = 3g-3+n-|alpha|.  Memoized on (g, sorted alpha) for alpha >= 0
        with m >= 0, (0, 1) off them; raises as :meth:`_free1_view` does."""
        key = (g, tuple(sorted(alpha, reverse=True)))
        if key not in self._pairs:
            if min(alpha, default=0) < 0 or sum(alpha) > moduli_dim(g, len(alpha)):
                return 0, 1
            # the value at the fully sorted key, which the table stores
            den, rows = self._free1_view(g, len(alpha))
            x = rows[key[1][1:]][key[1][0]]
            self._pairs[key] = x, den * prod(_double_factorial(2 * a + 1) for a in alpha)
        return self._pairs[key]

    def at_two_pi_i(self, g: int, beta: MultiIndex, derivative: bool = False) -> Fraction:
        """The L^(2 beta) coefficient of V_{g,n+1}(2 pi i, L), or with
        ``derivative`` of Q(2 pi i, L) where dV/dL_1 = L_1 Q, at a stored
        rest beta: non-increasing, with |beta| <= 3g-2+n.

        L_1^(2a) becomes (-4)^a pi^(2a), and 2a L_1^(2a-2) in Q: one sum over
        the stored row of the rest beta, [(a,) + beta] = N_a / D, over
        (2A+1)! for its top a = A.  Raises as :meth:`_free1_view` does."""
        d, (den, rows) = int(derivative), self._free1_view(g, len(beta) + 1)
        row = rows[beta]
        top = factorial(2 * len(row) - 1)
        x = sum(
            (2 * a) ** d * (-4) ** (a - d) * top // factorial(2 * a + 1) * y
            for a, y in enumerate(row) if a >= d
        )
        return Fraction(x, den * top * _odd_factorials(beta))

    def _free1_view(self, g: int, n: int) -> Tuple[int, dict[MultiIndex, list]]:
        """V_{g,n}'s entry (D, {rest: [N_0, N_1, ...]}), computed on first
        read after the inputs its terms read, in their order, from a stack
        rather than nested calls."""
        if (g, n) not in self:
            if not is_stable(g, n):
                raise ValueError(f"({g},{n}) is not a stable signature")
            if n < 1:
                raise ValueError(
                    f"({g},{n}): closed-surface volumes come from the boundary "
                    "removal relation, not the recursion"
                )
        stack = [(g, n)]
        while stack:
            h, k = sig = stack.pop()
            if sig in self._entries:
                continue
            if sig in BASE:
                self._store(h, k, *BASE[sig])
                continue
            splits = stable_splittings(h, k)
            pieces = [(g1, k1 + 1) for split in splits for g1, k1 in split]
            inputs = [(h - 1, k + 1), *pieces, (h, k - 1)]
            missing = [s for s in inputs if s[1] and is_stable(*s) and s not in self]
            if missing:
                stack += [sig, *reversed(missing)]
            else:
                self._store(h, k, *self._compute(h, k))
        return self._entries[(g, n)]

    def _store(self, g: int, n: int, den: int, nums: dict[MultiIndex, int]) -> None:
        # the one way in, and the one check: [alpha] = nums[alpha] / den at
        # every orbit key, kept reduced by the gcd in the rows over a_1 that
        # the check returns, the rests in lexicographic order
        walked, common = validate_volume(g, n, nums), gcd(den, *nums.values())
        rows = {rest: [x // common for x in row] for rest, row in walked.items()}
        self._entries[(g, n)] = den // common, rows

    def true_volume(self, g: int, n: int) -> LPoly:
        """The geometric Weil-Petersson volume: doubles only V_{1,1}."""
        v = self.volume(g, n)
        return v.scale(2) if (g, n) == (1, 1) else v

    def _compute(self, g: int, n: int) -> Tuple[int, dict[MultiIndex, int]]:
        # d/dL_1 (L_1 V) = A^con + A^dcon + B, normalized, over one LCM, is
        # [alpha] of V: dividing by prod_i (2 alpha_i + 1)! also integrates back
        terms = (a_con_term(g, n, self), a_dcon_term(g, n, self), b_term(g, n, self))
        den = lcm(*(term_den for term_den, _ in terms))
        acc: dict[MultiIndex, int] = {}
        for term_den, sums in terms:
            c = den // term_den
            for key, x in sums.items():
                acc[key] = acc.get(key, 0) + x * c
        return den, acc

    def ensure(self, max_dim: int) -> None:
        """Compute every stable (g, n), n >= 1, with 3g-3+n <= max_dim."""
        for sig in iter_signatures(max_dim):
            self._free1_view(*sig)
