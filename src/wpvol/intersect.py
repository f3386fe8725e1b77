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
  to V_{g,n}, which also produce the closed-surface volumes V_{g,0}.

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
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from operator import mul
from typing import NamedTuple, Optional, Sequence, Tuple, Union

from .exact import PiPoly
from .lpoly import LPoly
from .recursion import (
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
    "genus0_correlator",
    "check_string",
    "check_dilaton",
    "check_dvv",
    "check_do_string",
    "check_do_dilaton",
    "compact_volume",
    "zograf_ratio",
    "CheckRecord",
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
    """
    m = moduli_dim(g, len(alpha)) - sum(alpha)
    if m < 0:
        return IntersectionValue(PiPoly.zero(), Fraction(0), 0)
    # the halved V_{1,1} absorbs the 2^(d11) of the true volume
    x, den = table.intersection_pair(g, alpha)
    q = Fraction(x * factorial(m), den)
    return IntersectionValue(PiPoly.monomial(m, q), q / 2**m, m)


def psi_correlator(table: VolumeTable, g: int, alpha: Sequence[int]) -> Fraction:
    """<tau_{a_1} ... tau_{a_n}>_g, zero unless sum(alpha) = 3g - 3 + n
    with (g, n) stable.  Symmetric in alpha."""
    n = len(alpha)
    if not is_stable(g, n) or sum(alpha) != moduli_dim(g, n):
        return Fraction(0)
    # the m = 0 case of intersection_number
    return Fraction(*table.intersection_pair(g, alpha))


def genus0_correlator(alpha: Sequence[int]) -> Fraction:
    """Closed form <tau_alpha>_0 = (n-3)! / prod alpha_i!, the multinomial
    coefficient for n - 3; zero off the degree condition |alpha| = n-3."""
    alpha = tuple(alpha)
    n = len(alpha)
    if n < 3 or any(a < 0 for a in alpha) or sum(alpha) != n - 3:
        return Fraction(0)
    return Fraction(factorial(n - 3), prod(factorial(a) for a in alpha))


# ----------------------------------------------------------------------
# relation checks


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
    for |alpha| = 3g - 2 + n."""
    alpha = tuple(alpha)
    lhs = psi_correlator(table, g, (0,) + alpha)
    rhs = Fraction(0)
    for i, a in enumerate(alpha):
        if a > 0:
            rhs += psi_correlator(table, g, alpha[:i] + (a - 1,) + alpha[i + 1 :])
    return CheckRecord("string", g, len(alpha), alpha, lhs == rhs, lhs, rhs)


def check_dilaton(table: VolumeTable, g: int, alpha: Sequence[int]) -> CheckRecord:
    """<tau_1 tau_alpha>_g = (2g - 2 + n) <tau_alpha>_g,
    for |alpha| = 3g - 3 + n."""
    alpha = tuple(alpha)
    n = len(alpha)
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
    so the base signatures (0,3) and (1,1) are out of scope.
    """
    k = tuple(k)
    n = len(k)
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


def _at_two_pi_i(
    table: VolumeTable, g: int, beta: Tuple[int, ...], derivative: bool = False
) -> Fraction:
    # the L^(2 beta) coefficient of V_{g,n+1}(2 pi i, L), or with derivative of
    # Q(2 pi i, L) where dV/dL_1 = L_1 Q: L_1^(2a) becomes (-4)^a pi^(2a), and
    # 2a L_1^(2a-2) in Q.  One sum over the stored row of the sorted rest
    # beta, [(a,) + beta] = N_a / D, over (2A+1)! for its top a = A
    d, (den, rows) = int(derivative), table._free1_view(g, len(beta) + 1)
    row = rows[beta]
    top = factorial(2 * len(row) - 1)
    x = sum(
        (2 * a) ** d * (-4) ** (a - d) * top // factorial(2 * a + 1) * y
        for a, y in enumerate(row) if a >= d
    )
    return Fraction(x, den * top * _odd_factorials(beta))


def check_do_string(table: VolumeTable, g: int, n: int) -> CheckRecord:
    """Do's boundary-removal string equation
    V_{g,n+1}(2 pi i, L) = sum_k int L_k V_{g,n}(L) dL_k,
    compared in the intersection-normalized convention with integration
    constant zero.

    At a sorted key beta the right side is sum over distinct values v >= 1
    of beta of count_v(beta) V_{g,n}[beta - e_v] / (2v)."""
    d = moduli_dim(g, n + 1)
    lhs, rhs = {}, {}
    for b in _sorted_keys(n, d):
        lhs[b] = _at_two_pi_i(table, g, b)
        rhs[b] = sum(
            b.count(v) * table.coefficient(g, b[:i] + (v - 1,) + b[i + 1 :]) / (2 * v)
            for i, v in enumerate(b)
            if v and (not i or b[i - 1] != v)
        )
    lhs, rhs = LPoly(n, d, lhs), LPoly(n, d, rhs)
    return CheckRecord("do-string", g, n, None, lhs == rhs, lhs, rhs)


def check_do_dilaton(table: VolumeTable, g: int, n: int) -> CheckRecord:
    """Do's boundary-removal dilaton equation
    dV_{g,n+1}/dL_1(2 pi i, L) = 2 pi i (2g - 2 + n) V_{g,n}(L).

    Both sides are 2 pi i times an element of Q[pi^2]; the factor is
    cancelled symbolically and the Q[pi^2] parts compared exactly.
    """
    d = moduli_dim(g, n)
    keys = list(_sorted_keys(n, d))
    lhs = LPoly(n, d, {b: _at_two_pi_i(table, g, b, derivative=True) for b in keys})
    rhs = LPoly(n, d, {b: (2 * g - 2 + n) * table.coefficient(g, b) for b in keys})
    return CheckRecord("do-dilaton", g, n, None, lhs == rhs, lhs, rhs)


def compact_volume(table: VolumeTable, g: int) -> PiPoly:
    """Volume of the moduli space of closed genus-g surfaces, g >= 2.

    The n = 0 instance of the boundary-removal dilaton equation:
    V_{g,0} = Q(-4 pi^2) / (2g - 2) where dV_{g,1}/dL_1 = L_1 Q(L_1^2).
    """
    if g < 2:
        raise ValueError("closed surfaces need genus >= 2")
    q = _at_two_pi_i(table, g, (), derivative=True)
    return PiPoly.monomial(moduli_dim(g, 0), q / (2 * g - 2))


def zograf_ratio(table: VolumeTable, g: int, n: int) -> float:
    """Diagnostic ratio of V_{g,n}(0) to the conjectured large-genus
    asymptotic (4 pi^2)^(2g+n-3) (2g+n-3)! / sqrt(g pi).

    Informational only; the asymptotic regime is far beyond desk scale.
    For n >= 1, V_{g,n}(0) is the one stored coefficient at alpha = 0,
    doubled at (1, 1) as in ``true_volume``.
    """
    if n == 0:
        value = compact_volume(table, g)
    else:
        q = table.coefficient(g, (0,) * n) * (2 if (g, n) == (1, 1) else 1)
        value = PiPoly.monomial(moduli_dim(g, n), q)
    m = 2 * g + n - 3
    predicted = (4 * math.pi**2) ** m * factorial(m) / math.sqrt(g * math.pi)
    return value.to_float() / predicted


# ----------------------------------------------------------------------
# suite runners

RELATIONS = ("string", "dilaton", "dvv", "do-string", "do-dilaton")


def _sorted_compositions(total: int, parts: int) -> list[Tuple[int, ...]]:
    """Non-increasing exponent tuples of the given length summing to
    total, in decreasing lexicographic order: one representative per orbit
    of the symmetric group."""
    return [c for c in _sorted_keys(parts, total) if sum(c) == total][::-1]


def run_relation_suite(
    table: VolumeTable, relation: str, max_dim: int
) -> list[CheckRecord]:
    """Every instance of one relation whose volumes all lie within
    3g - 3 + n <= max_dim.

    String and dilaton instances are enumerated once per orbit of the
    symmetric group (both sides are symmetric in alpha); DVV instances
    once per orbit fixing the distinguished first index.  DVV applies
    where the recursion does, so the base signatures (0,3) and (1,1)
    carry no instances.
    """
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    records: list[CheckRecord] = []
    for g, n in iter_signatures(max_dim):
        d = moduli_dim(g, n)
        grows = moduli_dim(g, n + 1) <= max_dim
        if relation == "string" and grows:
            for alpha in _sorted_compositions(d + 1, n):
                records.append(check_string(table, g, alpha))
        elif relation == "dilaton" and grows:
            for alpha in _sorted_compositions(d, n):
                records.append(check_dilaton(table, g, alpha))
        elif relation == "dvv" and (g, n) not in {(0, 3), (1, 1)}:
            for k1 in range(d + 1):
                for rest in _sorted_compositions(d - k1, n - 1):
                    records.append(check_dvv(table, g, (k1,) + rest))
        elif relation == "do-string" and grows:
            records.append(check_do_string(table, g, n))
        elif relation == "do-dilaton" and grows:
            records.append(check_do_dilaton(table, g, n))
    return records
