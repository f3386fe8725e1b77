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
rest] = N_a / D reduced by gcd(D, all N), computed or loaded alike.  The
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

Every entry passes one check on its stored keys: weight 3g-3+n, a
positive value at each orbit key equal to the one at its fully sorted key
(L_1 against the other labels), and no term at any other key.  It reads N
of a computed entry, or q of a base case or a loaded one, through
:func:`validate_volume`, before it is stored: the same check, as prod_i
(2 alpha_i+1)! is symmetric.  A violation aborts; with exact arithmetic
any mismatch is a logic bug.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod
from typing import Iterator, Sequence, Tuple, Union

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


def _odd_factorials(alpha: Sequence[int]) -> int:
    # prod_i (2 alpha_i + 1)!, which normalizes the coefficient at alpha
    return prod(factorial(2 * a + 1) for a in alpha)


@lru_cache(maxsize=None)
def _double_factorial(m: int) -> int:
    """(m)!! for odd m >= -1, with (-1)!! = 1."""
    return prod(range(m, 0, -2))


def _numerators(p: LPoly) -> Tuple[int, dict[MultiIndex, int]]:
    # (den, {alpha: x}) with x / den = [alpha] = q prod_i (2 alpha_i+1)!
    den, xs = _over_lcm([q for _, q in p.items()])
    return den, {a: x * _odd_factorials(a) for (a, _), x in zip(p.items(), xs)}


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


def _check(g: int, n: int, given: dict[MultiIndex, Union[int, Fraction]]) -> None:
    # the invariants, on coefficients q or numerators N of [alpha] = N / D;
    # stops at the first missing key, so the work is bounded by the terms
    d = moduli_dim(g, n)
    count = 0
    for key in _orbit_keys(n, d):
        q = given.get(key)
        if q is None:
            raise InvariantViolation(f"V_{{{g},{n}}} has no term at {key}")
        if q.numerator <= 0:
            raise InvariantViolation(f"V_{{{g},{n}}}: coefficient of {key} is not positive")
        if n > 1 and key[0] < key[1]:
            if given.get(tuple(sorted(key, reverse=True))) != q:
                raise InvariantViolation(f"V_{{{g},{n}}} is not label-symmetric")
        count += 1
    if len(given) != count:
        alpha = min(set(given) - set(_orbit_keys(n, d)), key=grlex_key)
        raise InvariantViolation(
            f"V_{{{g},{n}}} has a term at {alpha}, which is not a key "
            f"(a_1, a_2 >= ... >= a_{n}) with |alpha| <= {d}"
        )


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
    _check(g, n, dict(p.items()))
    return p


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

    Each entry, computed or loaded, is held once on its keys (a_1, a_2 >=
    ... >= a_n) as (D, {rest: [N_0, N_1, ...]}), [(a,) + rest] = N_a / D.
    Entries are computed on demand, dependencies first, and validated when
    computed or loaded.  Completed entries are immutable, so what
    :meth:`intersection_pair` reads off them is memoized for good.
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

    def normalized(self, g: int, alpha: Sequence[int]) -> Tuple[int, int]:
        """(N, D) with [alpha] = N / D, the L^(2 alpha) coefficient of
        V_{g,len(alpha)} times prod_i (2 alpha_i+1)!, read in place; (0, 1)
        where V has no term."""
        key = tuple(alpha[:1]) + tuple(sorted(alpha[1:], reverse=True))
        den, rows = self._free1_view(g, len(key))
        row = rows.get(key[1:], ())
        return (row[key[0]], den) if 0 <= key[0] < len(row) else (0, 1)

    def intersection_pair(self, g: int, alpha: Sequence[int]) -> Tuple[int, int]:
        """(N, D prod_i (2 alpha_i+1)!!) with [alpha] = N / D: as (2a+1)! =
        (2a+1)!! 2^a a!, its ratio is int psi^alpha omega^m / (m! pi^(2m)),
        m = 3g-3+n-|alpha|.  Memoized on (g, sorted alpha) for alpha >= 0
        with m >= 0, (0, 1) off them; raises as :meth:`normalized` does."""
        key = (g, tuple(sorted(alpha, reverse=True)))
        if key not in self._pairs:
            if min(alpha, default=0) < 0 or sum(alpha) > moduli_dim(g, len(alpha)):
                return 0, 1
            x, den = self.normalized(g, key[1])
            self._pairs[key] = x, den * prod(_double_factorial(2 * a + 1) for a in alpha)
        return self._pairs[key]

    def coefficient(self, g: int, alpha: Sequence[int]) -> Fraction:
        """The rational coefficient of L^(2 alpha) in V_{g,len(alpha)}."""
        x, den = self.normalized(g, alpha)
        return Fraction(x, den * _odd_factorials(alpha)) if x else Fraction(0)

    def _free1_view(self, g: int, n: int) -> Tuple[int, dict[MultiIndex, list]]:
        """V_{g,n}'s entry (D, {rest: [N_0, N_1, ...]}), computed on first
        read after the inputs its terms read, in their order, from a stack
        rather than nested calls."""
        if (g, n) not in self:
            if n < 1:
                raise ValueError(
                    f"({g},{n}): closed-surface volumes come from the boundary "
                    "removal relation, not the recursion"
                )
            if not is_stable(g, n):
                raise ValueError(f"({g},{n}) is not a stable signature")
        stack = [(g, n)]
        while stack:
            h, k = sig = stack.pop()
            if sig in self._entries:
                continue
            if sig in BASE_SIGNATURES:
                self._store(h, k, *_numerators(validate_volume(h, k, base_volume(h, k))))
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
        # the one way in: [alpha] = nums[alpha] / den at every orbit key,
        # reduced by the gcd, in rows over a_1; in sorted order the keys of
        # each rest come by a_1, and the rests first appear in lexicographic order
        common, rows = gcd(den, *nums.values()), {}
        for key in sorted(nums):
            rows.setdefault(key[1:], []).append(nums[key] // common)
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
        _check(g, n, acc)
        return den, acc

    def ensure(self, max_dim: int) -> None:
        """Compute every stable (g, n), n >= 1, with 3g-3+n <= max_dim."""
        for sig in iter_signatures(max_dim):
            self._free1_view(*sig)

    # ------------------------------------------------------------------
    # serialization

    def to_entries(self) -> dict[str, list[dict]]:
        """Canonically ordered map ``"g,n" -> term records`` of the
        stored form, each entry's records in graded-lex order."""
        return {f"{g},{n}": self._stored(g, n).to_records() for g, n in self.signatures()}

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
            table._store(g, n, *_numerators(validate_volume(g, n, poly)))
        return table
