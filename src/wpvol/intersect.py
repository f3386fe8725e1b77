"""Tautological intersection numbers from volume polynomial coefficients,
and the identity suite built on them.

The coefficient of L^(2 alpha) in the (true) volume V_{g,n} is

    C_alpha = 2^(d11) / (2^|alpha| alpha! (d - |alpha|)!)
              * int_Mbar_{g,n} psi^alpha omega^(d - |alpha|),

with d = 3g - 3 + n and d11 = 1 exactly at (g, n) = (1, 1).  Inverting
this gives intersection numbers in two normalizations: against powers of
the symplectic form omega, and against powers of kappa_1 = omega/(2 pi^2)
where the value is a plain rational.  Top-degree values |alpha| = d are
the psi correlators <tau_{a_1} ... tau_{a_n}>_g.

Verified identities:

* string:   <tau_0 tau_alpha> = sum_i <tau_{alpha - e_i}>,
* dilaton:  <tau_1 tau_alpha> = (2g - 2 + n) <tau_alpha>,
* the coefficient-level Virasoro (DVV) recursion, with genus bookkeeping
  mirroring the three recursion terms,
* Do's boundary-removal equations relating V_{g,n+1} at one length 2 pi i
  to V_{g,n}, which also produce the closed-surface volumes V_{g,0},
* Dijkgraaf's closed two-point function <tau_k tau_(3g-1-k)>_g.

Each relation is one entry of a registry: its check, its domain and its
instances up to a dimension bound.  A check called outside its domain
raises ValueError naming the (g, n) it was given, before it reads the
table.

The Do equations compare polynomials in the intersection-normalized
(internal) convention: the forgetful-map identities behind them live on
intersection numbers, so the (1,1) instance needs the halved torus
volume.  Both sides are symmetric in the remaining lengths, so 2 pi i is
substituted for L_1, the label the stored keys (a_1, a_2 >= ... >= a_n)
single out, and the sides are compared and written at every fully sorted
key beta from stored coefficients alone.  L_1^(2a) becomes (-4)^a
pi^(2a), so each side keeps its weight and stays in Q[pi^2]; the common
factor 2 pi i of the dilaton equation cancels symbolically against
dV/dL_1 = L_1 Q, keeping the scalar ring real and exact.

As V_{g,n} is stored as [alpha] = x_alpha / D, x_alpha the numerator of
``VolumeTable.intersection_pair`` and D the denominator of its pair at
alpha = 0, and (2v+1)! / (2v-1)! = (2v+1) 2v, each right side times
(2 beta+1)! = prod_i (2 beta_i+1)! is one integer over D:

    string:   sum_(distinct v >= 1 in beta) count_v(beta) (2v+1) x_(beta-e_v)
    dilaton:  (2g-2+n) x_beta

The left sides come from ``VolumeTable.at_two_pi_i``.  This module reads
the table through those two readers alone; the stored rows are known
only to :mod:`wpvol.recursion`.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from operator import mul
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple, Union

from .exact import PiPoly
from .lpoly import LPoly
from .recursion import (
    BASE,
    VolumeTable,
    _double_factorial,
    _odd_factorials,
    _sorted_keys,
    is_stable,
    iter_signatures,
    moduli_dim,
)

__all__ = [
    "IntersectionValue",
    "intersection_number",
    "psi_correlator",
    "check_string",
    "check_dilaton",
    "check_dvv",
    "check_do_string",
    "check_do_dilaton",
    "check_two_point",
    "compact_volume",
    "zograf_ratio",
    "CheckRecord",
    "relation_instances",
    "run_relation_suite",
    "RELATIONS",
]


class IntersectionValue(NamedTuple):
    """An intersection number in both normalizations.

    ``omega`` is int psi^alpha omega^m as a single pi-monomial;
    ``kappa`` is the same divided by (2 pi^2)^m, a plain rational; ``m``
    is the complementary power 3g - 3 + n - |alpha|.
    """

    omega: PiPoly
    kappa: Fraction
    m: int


def intersection_number(
    table: VolumeTable, g: int, alpha: Sequence[int]
) -> IntersectionValue:
    """<psi^alpha omega^m> over Mbar_{g,n} with m = 3g-3+n-|alpha|.

    The coefficient of L^(2 alpha) is a rational multiple of pi^(2m), so
    the kappa-normalized value (divided by (2 pi^2)^m) is a plain rational.
    A closed surface, alpha = (), has <omega^m>_g = m! V_{g,0}, g >= 2,
    and raises ValueError at g < 2, where (g, 0) is unstable.
    """
    if not alpha and g < 2:
        raise ValueError(f"({g},0) is not a stable signature")
    m = moduli_dim(g, len(alpha)) - sum(alpha)
    if m < 0:
        return IntersectionValue(PiPoly(), Fraction(0), 0)
    if alpha:
        # the halved V_{1,1} absorbs the 2^(d11) of the true volume
        x, den = table.intersection_pair(g, alpha)
        q = Fraction(x * factorial(m), den)
    else:
        [(_, v)] = compact_volume(table, g).items()
        q = factorial(m) * v
    return IntersectionValue(PiPoly.monomial(m, q), q / 2**m, m)


def psi_correlator(table: VolumeTable, g: int, alpha: Sequence[int]) -> Fraction:
    """<tau_{a_1} ... tau_{a_n}>_g, zero unless sum(alpha) = 3g - 3 + n
    with (g, n) stable.  Symmetric in alpha."""
    n = len(alpha)
    if not is_stable(g, n) or sum(alpha) != moduli_dim(g, n):
        return Fraction(0)
    # the m = 0 case of intersection_number
    return Fraction(*table.intersection_pair(g, alpha))


# ----------------------------------------------------------------------
# relation checks


def _outside(relation: str, g: int, n: int) -> ValueError:
    return ValueError(f"{relation} does not apply at (g, n) = ({g},{n})")


def _check_domain(relation: str, g: int, n: int) -> None:
    # every check calls this first, before it reads the table
    if not _REGISTRY[relation][1](g, n):  # the entry's domain
        raise _outside(relation, g, n)


def _side_str(side: Union[Fraction, LPoly]) -> str:
    if not isinstance(side, LPoly):
        return str(side)
    if not side:
        return "0"
    # a polynomial side is symmetric and held on its fully sorted keys,
    # which alone are written, in graded-lex order
    return "; ".join(
        f"L^{list(alpha)}: {side.pi_coefficient(alpha).as_str()}"
        for alpha, _ in side.sorted_items()
    )


class CheckRecord(NamedTuple):
    """Outcome of one relation instance, with its exact sides: rationals,
    or for the Do equations symmetric polynomials on their fully sorted
    keys.  The sides are rendered as text, on those keys alone, only when
    ``lhs``, ``rhs`` or :meth:`to_json` is read."""

    relation: str
    g: int
    n: int
    alpha: Optional[Tuple[int, ...]]
    passed: bool
    lhs_value: Union[Fraction, LPoly]
    rhs_value: Union[Fraction, LPoly]

    @property
    def lhs(self) -> str:
        return _side_str(self.lhs_value)

    @property
    def rhs(self) -> str:
        return _side_str(self.rhs_value)

    def to_json(self) -> dict:
        out = {
            "relation": self.relation,
            "g": self.g,
            "n": self.n,
            "pass": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }
        if self.alpha is not None:
            out["alpha"] = list(self.alpha)
        return out


def check_string(table: VolumeTable, g: int, alpha: Sequence[int]) -> CheckRecord:
    """<tau_0 tau_alpha>_g = sum_{alpha_i != 0} <tau_{alpha - e_i}>_g,
    for |alpha| = 3g - 2 + n.  Raises ValueError at (0, 2), where
    <tau_0^3>_0 = 1 has no right side."""
    alpha = tuple(alpha)
    _check_domain("string", g, len(alpha))
    lhs = psi_correlator(table, g, (0,) + alpha)
    rhs = Fraction(0)
    for i, a in enumerate(alpha):
        if a > 0:
            rhs += psi_correlator(table, g, alpha[:i] + (a - 1,) + alpha[i + 1 :])
    return CheckRecord("string", g, len(alpha), alpha, lhs == rhs, lhs, rhs)


def check_dilaton(table: VolumeTable, g: int, alpha: Sequence[int]) -> CheckRecord:
    """<tau_1 tau_alpha>_g = (2g - 2 + n) <tau_alpha>_g,
    for |alpha| = 3g - 3 + n.  Raises ValueError at (1, 0), where
    <tau_1>_1 = 1/24 has no right side."""
    alpha = tuple(alpha)
    n = len(alpha)
    _check_domain("dilaton", g, n)
    lhs = psi_correlator(table, g, (1,) + alpha)
    rhs = (2 * g - 2 + n) * psi_correlator(table, g, alpha)
    return CheckRecord("dilaton", g, n, alpha, lhs == rhs, lhs, rhs)


def check_dvv(table: VolumeTable, g: int, k: Sequence[int]) -> CheckRecord:
    """The coefficient-level Virasoro (DVV) recursion at (g, k).

    (2k_1+1)!! <tau_{k_1} ... tau_{k_n}>_g
      = 1/2 sum_{i+j=k_1-2} (2i+1)!!(2j+1)!! [
            <tau_i tau_j tau_{k_2} ...>_{g-1}
          + sum_{g_1+g_2=g} sum_{I} <tau_i tau_{k_I}>_{g_1}
                                    <tau_j tau_{k_Ic}>_{g_2} ]
      + sum_{j>=2} (2(k_1+k_j)-1)!!/(2k_j-1)!!
                   <tau_{k_1+k_j-1} tau_{k_2} .. omit j ..>_g.

    Genus bookkeeping mirrors the recursion terms: the tau_i tau_j term
    sits at genus g-1, the split term sums over g_1 + g_2 = g, and the
    index-merging term stays at genus g.  Symbols off the stability or
    degree conditions vanish.  By the degree condition
    i + |k_I| = 3g_1 - 2 + |I|, each split I has at most one non-zero g_1,
    g_1 = (i + |k_I| - |I| + 2) / 3 when that is an integer in [0, g],
    and only that one is summed.  The relation instantiates the recursion,
    so it raises ValueError at the base signatures (0,3) and (1,1), and at
    n = 0, where there is no k_1, before reading the table.
    """
    k = tuple(k)
    n = len(k)
    _check_domain("dvv", g, n)
    k1, rest = k[0], k[1:]
    if not is_stable(g, n) or sum(k) != moduli_dim(g, n):
        # both sides vanish: each symbol is off degree by as much, or unstable
        return CheckRecord("dvv", g, n, k, True, Fraction(0), Fraction(0))
    # every symbol is now on degree at genus >= 0; the right side is summed
    # as integer numerators per denominator, and divided out once
    correlator = table.intersection_pair
    lhs = _double_factorial(2 * k1 + 1) * Fraction(*correlator(g, k))

    counts = Counter(rest)
    sums: Counter = Counter()  # denominator -> sum of numerators
    for kj, count in counts.items():
        if k1 + kj == 0:
            continue  # would need tau_{-1}
        merged = list(rest)
        merged.remove(kj)
        x, den = correlator(g, (k1 + kj - 1,) + tuple(merged))
        # an integer weight: the product of the odd numbers 2 kj + 1 .. 2 (k1 + kj) - 1
        w = count * _double_factorial(2 * (k1 + kj) - 1) // _double_factorial(2 * kj - 1)
        sums[den] += w * x

    if k1 >= 2:
        # (2i+1)!! (2j+1)!! at j = k1 - 2 - i; the factor 1/2 goes to the denominators
        ws = [
            _double_factorial(2 * i + 1) * _double_factorial(2 * (k1 - i) - 3)
            for i in range(k1 - 1)
        ]
        if g >= 1:
            for i, w in enumerate(ws):
                x, den = correlator(g - 1, (i, k1 - 2 - i) + rest)
                sums[2 * den] += w * x
        # label subsets of the rest come as sub-multisets, c_v of each
        # distinct value v, standing for prod_v C(count_v, c_v) subsets; each
        # has shift = |k_I| - |I| + 2 = 3 g_1 - i; i steps by 3 over g_1 in [0, g]
        for cs in product(*(range(c + 1) for c in counts.values())):
            shift = sum(map(mul, counts, cs)) - sum(cs) + 2
            steps = range(max(-shift % 3, -shift), min(k1 - 1, 3 * g - shift + 1), 3)
            if not steps:
                continue
            left = tuple(v for v, c in zip(counts, cs) for _ in range(c))
            right = tuple(v for v, c in zip(counts, cs) for _ in range(counts[v] - c))
            ways = prod(comb(counts[v], c) for v, c in zip(counts, cs))
            for i in steps:
                g1 = (i + shift) // 3
                a, b = correlator(g1, (i,) + left)
                if a:
                    c, d = correlator(g - g1, (k1 - 2 - i,) + right)
                    sums[2 * b * d] += ws[i] * ways * a * c

    den = math.lcm(*sums)
    rhs = Fraction(sum(x * (den // d) for d, x in sums.items()), den)
    return CheckRecord("dvv", g, n, k, lhs == rhs, lhs, rhs)


def check_do_string(table: VolumeTable, g: int, n: int) -> CheckRecord:
    """Do's boundary-removal string equation
    V_{g,n+1}(2 pi i, L) = sum_k int L_k V_{g,n}(L) dL_k,
    compared in the intersection-normalized convention with integration
    constant zero.

    At a sorted key beta the right side is sum over distinct values v >= 1
    of beta of count_v(beta) V_{g,n}[beta - e_v] / (2v).  Applies at the
    stable (g, n) and at n = 0 with g >= 1, where V_{g,1}(2 pi i) = 0.
    Raises ValueError elsewhere, before reading the table, as at (0, 2),
    where V_{0,3} = 1 has no right side."""
    _check_domain("do-string", g, n)
    d = moduli_dim(g, n + 1)
    keys = list(_sorted_keys(n, d))
    lhs = LPoly(n, d, {b: table.at_two_pi_i(g, b) for b in keys})
    # at n = 0 the right side is empty, and V_{g,0} is not stored
    den, pair = (table.intersection_pair(g, (0,) * n)[1] if n else 1), table.intersection_pair
    rhs = {}
    for b in keys:
        x = sum(
            b.count(v) * (2 * v + 1) * pair(g, b[:i] + (v - 1,) + b[i + 1 :])[0]
            for i, v in enumerate(b) if v and (not i or b[i - 1] != v)
        )
        rhs[b] = Fraction(x, den * _odd_factorials(b))
    rhs = LPoly(n, d, rhs)
    return CheckRecord("do-string", g, n, None, lhs == rhs, lhs, rhs)


def check_do_dilaton(table: VolumeTable, g: int, n: int) -> CheckRecord:
    """Do's boundary-removal dilaton equation
    dV_{g,n+1}/dL_1(2 pi i, L) = 2 pi i (2g - 2 + n) V_{g,n}(L).

    Both sides are 2 pi i times an element of Q[pi^2]; the factor is
    cancelled symbolically and the Q[pi^2] parts compared exactly.  Applies
    at the stable (g, n) with n >= 1.  Raises ValueError elsewhere, before
    reading the table: at n = 0 the equation is the definition of V_{g,0}
    (``compact_volume``) and checks nothing, and an unstable V_{g,n} has no
    right side.
    """
    _check_domain("do-dilaton", g, n)
    d = moduli_dim(g, n)
    keys = list(_sorted_keys(n, d))
    lhs = LPoly(n, d, {b: table.at_two_pi_i(g, b, derivative=True) for b in keys})
    den, pair, c = table.intersection_pair(g, (0,) * n)[1], table.intersection_pair, 2 * g - 2 + n
    rhs = LPoly(n, d, {b: Fraction(c * pair(g, b)[0], den * _odd_factorials(b)) for b in keys})
    return CheckRecord("do-dilaton", g, n, None, lhs == rhs, lhs, rhs)


def _two_point_form(g: int) -> list[Fraction]:
    """[<tau_k tau_(3g-1-k)>_g for k = 0 .. 3g-1] by Dijkgraaf's closed form
    (hep-th/9201003): the degree-3g part of
    exp((x^3+y^3)/24) sum_m m!/(2m+1)! (xy(x+y)/2)^m, divided by x + y.
    Entry k of a form of degree D is its coefficient of x^k y^(D-k)."""
    part = [Fraction(0)] * (3 * g + 1)
    for a in range(g + 1):
        m = g - a  # (x^3+y^3)^a / (24^a a!) times m!/(2m+1)! (xy(x+y)/2)^m
        w = Fraction(factorial(m), 24**a * factorial(a) * factorial(2 * m + 1) * 2**m)
        for i, j in product(range(a + 1), range(m + 1)):
            part[3 * i + m + j] += w * comb(a, i) * comb(m, j)
    # each term holds (x + y)^(a+m) = (x + y)^g, so part = (x + y) q
    # exactly, with part[k] = q[k-1] + q[k]
    q = [part[0]]
    for k in range(1, 3 * g):
        q.append(part[k] - q[-1])
    return q


def check_two_point(table: VolumeTable, g: int, alpha: Sequence[int]) -> CheckRecord:
    """<tau_k tau_l>_g against Dijkgraaf's two-point function, a closed form
    that reads neither the recursion nor DVV.  Off the degree condition
    k + l = 3g - 1 both sides vanish.  Raises ValueError unless n = 2 and
    g >= 1, before reading the table."""
    alpha = tuple(alpha)
    _check_domain("two-point", g, len(alpha))
    lhs = psi_correlator(table, g, alpha)
    on_degree = min(alpha) >= 0 and sum(alpha) == moduli_dim(g, 2)
    rhs = _two_point_form(g)[alpha[0]] if on_degree else Fraction(0)
    return CheckRecord("two-point", g, 2, alpha, lhs == rhs, lhs, rhs)


def compact_volume(table: VolumeTable, g: int) -> PiPoly:
    """Volume of the moduli space of closed genus-g surfaces, g >= 2.

    The n = 0 instance of the boundary-removal dilaton equation:
    V_{g,0} = Q(-4 pi^2) / (2g - 2) where dV_{g,1}/dL_1 = L_1 Q(L_1^2).
    """
    if g < 2:
        raise ValueError("closed surfaces need genus >= 2")
    q = table.at_two_pi_i(g, (), derivative=True)
    return PiPoly.monomial(moduli_dim(g, 0), q / (2 * g - 2))


def zograf_ratio(table: VolumeTable, g: int, n: int) -> float:
    """Diagnostic ratio of V_{g,n}(0) to the conjectured large-genus
    asymptotic (4 pi^2)^(2g+n-3) (2g+n-3)! / sqrt(g pi).

    Informational only; the asymptotic regime is far beyond desk scale.
    For n >= 1, V_{g,n}(0) is the one stored coefficient at alpha = 0,
    doubled at (1, 1) as in ``true_volume``.  Raises ValueError before any
    table read at g <= 0, where the asymptotic is not defined, and at n < 0.
    """
    if g <= 0 or n < 0:
        raise _outside("zograf", g, n)
    if n == 0:
        value = compact_volume(table, g)
    else:
        q = Fraction(*table.intersection_pair(g, (0,) * n)) * (2 if (g, n) == (1, 1) else 1)
        value = PiPoly.monomial(moduli_dim(g, n), q)
    m = 2 * g + n - 3
    predicted = (4 * math.pi**2) ** m * factorial(m) / math.sqrt(g * math.pi)
    return value.to_float() / predicted


# ----------------------------------------------------------------------
# the relation registry


def _sorted_compositions(total: int, parts: int) -> list[Tuple[int, ...]]:
    """Non-increasing exponent tuples of the given length summing to
    total, in decreasing lexicographic order: one representative per orbit
    of the symmetric group."""
    return [c for c in _sorted_keys(parts, total) if sum(c) == total][::-1]


def _within(instances):
    # a relation that reads V_{g,n+1} has no instance where that lies beyond max_dim
    return lambda g, n, top: instances(g, n) if moduli_dim(g, n + 1) <= top else []


# name: (check, domain(g, n), instances(g, n, max_dim)), each instance the
# argument its check takes after (table, g).  String and dilaton run once
# per orbit of alpha (both sides are symmetric), DVV once per orbit fixing
# k_1; DVV instantiates the recursion, so its base cases are outside.
_REGISTRY = {
    "string": (check_string, lambda g, n: (g, n) != (0, 2),
               _within(lambda g, n: _sorted_compositions(moduli_dim(g, n) + 1, n))),
    "dilaton": (check_dilaton, lambda g, n: (g, n) != (1, 0),
                _within(lambda g, n: _sorted_compositions(moduli_dim(g, n), n))),
    "dvv": (check_dvv, lambda g, n: n >= 1 and (g, n) not in BASE,
            lambda g, n, top: [(k1,) + rest for k1 in range(moduli_dim(g, n) + 1)
                               for rest in _sorted_compositions(moduli_dim(g, n) - k1, n - 1)]),
    "do-string": (check_do_string, lambda g, n: is_stable(g, n) or (n == 0 and g >= 1),
                  _within(lambda g, n: [n])),
    "do-dilaton": (check_do_dilaton, lambda g, n: is_stable(g, n) and n >= 1,
                   _within(lambda g, n: [n])),
    "two-point": (check_two_point, lambda g, n: n == 2 and g >= 1,
                  lambda g, n, top: _sorted_compositions(moduli_dim(g, n), n)),
}
RELATIONS = tuple(_REGISTRY)


def relation_instances(relation: str, max_dim: int) -> Iterator[Tuple[int, object]]:
    """(g, argument) of every instance of one relation whose volumes all
    lie within 3g - 3 + n <= max_dim, by signature.  Reads no table."""
    _, domain, instances = _REGISTRY[relation]
    for g, n in iter_signatures(max_dim):
        if domain(g, n):
            for arg in instances(g, n, max_dim):
                yield g, arg


def run_relation_suite(table: VolumeTable, relation: str, max_dim: int) -> list[CheckRecord]:
    """The record of each of :func:`relation_instances`, in order."""
    if relation not in _REGISTRY:
        raise ValueError(f"unknown relation {relation!r}")
    check, _, _ = _REGISTRY[relation]
    return [check(table, g, arg) for g, arg in relation_instances(relation, max_dim)]
