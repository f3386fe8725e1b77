"""Independent floating-point verification of the exact kernel moments.

The kernel H and its companions D and R are evaluated here and nowhere
else, by overflow-safe scalar functions on :mod:`math` alone.  The closed
forms in :mod:`wpvol.kernels` are not taken on faith: this module
integrates the defining expressions numerically and checks the D/R/H
derivative identities by central finite differences.  Nothing here shares
a code path with the exact moment polynomials it validates, and nothing in
the recursion ever consumes a float from this module: the oracle exists
purely for the test suite and the ``verify kernels`` command.

Both quadratures use one rule: n-point Gauss-Laguerre for the weight
e^(-x/2) on the whole half-line, so nothing is truncated.  Its nodes x_a
and weights W_a are twice those of the rule for e^(-x), whose nodes come
from Halley's method on the Laguerre polynomial L_n, evaluated by its
three-term recurrence; each size is built once, on first use.  With the
bounded, smooth and overflow-free

    g(u, t) = e^(u/2) H(u, t) = 1/(e^(-u/2) + e^(t/2)) + 1/(e^(-u/2) + e^(-t/2)),

the moments are

    F_{2k+1}(t) = sum_a W_a x_a^(2k+1) g(x_a, t)
    G_{i,j}(t)  = sum_a sum_b W_a W_b x_a^(2i+1) x_b^(2j+1) g(x_a + x_b, t),

the second a tensor quadrature of the defining double integral, not the
Beta reduction it checks.  With q = e^(-u/2) and s = 2 cosh(t/2),
g = (2q + s) / (q (q + s) + 1), and q at a node pair is the product of
the two nodes' q, so the double sum needs no exp per pair.  Below
tiny = 2^-56 / max(s, 2) the float g is s bit for bit: q s and 2q are
under half an ulp of 1 and of s, so the denominator rounds to 1 and the
numerator to s.  The nodes ascend, so each matrix row is a head of true
values and a tail of s, contracted as s times a suffix sum; at n = 96
about one pair in eight is evaluated.

The moment report reads only values and runs the rule of size 96 alone.
:func:`quad_moment` and :func:`quad_double_moments` also run size 64 and
report the larger; their ``abs_err`` is the difference of the two plus
the rounding bound 8 n eps sum |terms| at n = 96, and every term is
non-negative, so sum |terms| is the value itself.  The difference alone
is no bound once the sizes agree to rounding: then the rounding is the
error, large in absolute terms for a large G_{i,j}.  The bound covers
the weights' own relative error against a 40-digit rule, under 6e-14 at
either size, once per node and twice per node pair, and the rounding of
two length-n dot products.  The smallest nodes are the exception, with
node and weight errors up to 6e-14 and 9e-14, but the power x^(2k+1)
makes their terms negligible.

Documented domains: k <= 10 and t <= 20 for F, i + j <= 5 and t <= 10
for G.
"""
from __future__ import annotations

import math
import random
import sys
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import NamedTuple

__all__ = [
    "kernel_h",
    "kernel_d",
    "kernel_r",
    "QuadResult",
    "quad_moment",
    "quad_double_moment",
    "quad_double_moments",
    "kernel_identity_report",
    "moment_validation_report",
]

_SIZES = (96, 64)  # the reported rule size, then the one it is checked against
_ROUNDING = 8.0 * _SIZES[0] * sys.float_info.epsilon
# moment_validation_report: F_{2k+1} for k <= _MAX_K and G_{i,j} for
# i + j <= _MAX_DOUBLE, at each t in _TS, to relative deviation _MOMENT_TOL
_MAX_K = 8
_MAX_DOUBLE = 5
_TS = (0.0, 1.0, 5.0)
_MOMENT_TOL = 1e-8


class QuadResult(NamedTuple):
    value: float
    abs_err: float


@lru_cache(maxsize=None)
def _gauss_laguerre(n: int) -> tuple[list[float], list[float], list[float]]:
    """The n-point Gauss-Laguerre rule for the weight e^(-x/2) on
    [0, oo), nodes ascending, and e^(-x/2) at each node.

    Halley's method on L_n, with L_n'' from Laguerre's equation
    z L'' = (z - 1) L' - n L, runs until a step falls below 1e-10 of the
    root, past which cubic convergence leaves only rounding.  The first
    three roots start from the usual asymptotic guesses, every later one
    from the extrapolation 3 z_(i-1) - 3 z_(i-2) + z_(i-3).  The L_j are
    orthonormal for e^(-x), so the weight of that rule at the final z is
    the Christoffel number 1 / sum_{j<n} L_j(z)^2, summed in one last
    pass; the textbook z / (n L_{n-1}(z))^2 turns the root's rounding into
    weight errors near 1e-11 at n = 96.
    """
    # j L_j = (2j - 1 - z) L_{j-1} - (j - 1) L_{j-2}, from L_{-1} = 0 and L_0 = 1
    recurrence = [(2.0 * j - 1.0, j - 1.0, float(j)) for j in range(1, n + 1)]
    roots, weights = [], []
    for i in range(n):
        if i == 0:
            z = 3.0 / (1.0 + 2.4 * n)
        elif i == 1:
            z = roots[0] + 15.0 / (1.0 + 2.5 * n)
        elif i == 2:
            z = roots[1] + (1.0 + 2.55) / 1.9 * (roots[1] - roots[0])
        else:
            z = 3.0 * roots[-1] - 3.0 * roots[-2] + roots[-3]
        for _ in range(100):
            p0, p1 = 0.0, 1.0
            for a, b, c in recurrence:
                p0, p1 = p1, ((a - z) * p1 - b * p0) / c
            # u = L_n / L_n', L_n' = n (L_n - L_{n-1}) / z, L_n'' / L_n' = (z - 1 - n u) / z
            u = p1 * z / (n * (p1 - p0))
            step = u / (1.0 - u * (z - 1.0 - n * u) / (2.0 * z))
            z -= step
            if abs(step) <= 1e-10 * z:
                break
        else:
            raise ArithmeticError(f"Halley's method did not converge on L_{n}")
        p0, p1, norm = 0.0, 1.0, 1.0
        for a, b, c in recurrence[:-1]:
            p0, p1 = p1, ((a - z) * p1 - b * p0) / c
            norm += p1 * p1
        roots.append(z)
        weights.append(1.0 / norm)
    return (
        [2.0 * z for z in roots],
        [2.0 * w for w in weights],
        [math.exp(-z) for z in roots],
    )


def _fermi(a: float) -> float:
    # 1/(1 + e^(a/2)), with only non-positive arguments to exp
    if a >= 0.0:
        e = math.exp(-a / 2.0)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(a / 2.0))


def _logaddexp(a: float, b: float) -> float:
    return max(a, b) + math.log1p(math.exp(-abs(a - b)))


def _log_cosh(u: float) -> float:
    u = abs(u)
    return u - math.log(2.0) + math.log1p(math.exp(-2.0 * u))


def kernel_h(x: float, y: float) -> float:
    """H(x, y) = 1/(1 + e^((x+y)/2)) + 1/(1 + e^((x-y)/2)).  Even in y,
    H(0, 0) = 1."""
    return _fermi(x + y) + _fermi(x - y)


def kernel_d(x: float, y: float, z: float) -> float:
    """D(x, y, z) = 2 log( (e^(x/2) + e^((y+z)/2)) / (e^(-x/2) + e^((y+z)/2)) ).
    dD/dx = H(y + z, x) and D(0,0,0) = 0."""
    b = (y + z) / 2.0
    return 2.0 * (_logaddexp(x / 2.0, b) - _logaddexp(-x / 2.0, b))


def kernel_r(x: float, y: float, z: float) -> float:
    """R(x, y, z) = x - log( (cosh(y/2) + cosh((x+z)/2))
                            / (cosh(y/2) + cosh((x-z)/2)) ).
    2 dR/dx = H(z, x + y) + H(z, x - y), R(0,0,0) = 0, and the gap identity
    R(x,y,z) + R(x,z,y) = x + D(x,y,z) holds."""
    lc_y = _log_cosh(y / 2.0)
    num = _logaddexp(lc_y, _log_cosh((x + z) / 2.0))
    den = _logaddexp(lc_y, _log_cosh((x - z) / 2.0))
    return x - (num - den)


def _moment_pass(k: int, t: float, n: int) -> float:
    # F_{2k+1}(t) by the n-point rule
    s = 2.0 * math.cosh(t / 2.0)
    return sum(
        w * x ** (2 * k + 1) * (2.0 * q + s) / (q * (q + s) + 1.0)
        for x, w, q in zip(*_gauss_laguerre(n))
    )


def _g_rows(t: float, n: int) -> tuple[float, list[list[float]]]:
    # s, and row a of g(x_a + x_b, t) for the n-point rule up to its first
    # pair with q_a q_b < tiny, past which g = s (see the module docstring)
    s = 2.0 * math.cosh(t / 2.0)
    tiny = 2.0**-56 / max(s, 2.0)
    qs, rows, m = _gauss_laguerre(n)[2], [], n
    for qa in qs:
        while m and qa * qs[m - 1] < tiny:
            m -= 1
        rows.append([(2.0 * q + s) / (q * (q + s) + 1.0) for q in map(qa.__mul__, qs[:m])])
    return s, rows


def _double_pass(pairs: list[tuple[int, int]], t: float, n: int) -> list[float]:
    # G_{i,j}(t) for every pair by the n-point rule, from one matrix; it is
    # symmetric, so it is contracted with the smaller power
    nodes, weights, _ = _gauss_laguerre(n)
    f = {e: [w * x ** (2 * e + 1) for x, w in zip(nodes, weights)] for e in set().union(*pairs)}
    s, rows = _g_rows(t, n)
    fg = {}
    for e in {min(p) for p in pairs}:
        suffix = [*accumulate(reversed(f[e]), initial=0.0)][::-1]  # suffix[m] = sum f[e][m:]
        fg[e] = [sum(map(mul, row, f[e])) + s * suffix[len(row)] for row in rows]
    return [sum(map(mul, f[max(p)], fg[min(p)])) for p in pairs]


def _result(fine: float, coarse: float) -> QuadResult:
    return QuadResult(fine, abs(fine - coarse) + _ROUNDING * fine)


def quad_moment(k: int, t: float) -> QuadResult:
    """Quadrature value of int_0^oo x^(2k+1) H(x, t) dx.

    Documented domain k <= 10, t <= 20; an unattainable accuracy shows up
    in ``abs_err`` rather than failing silently.
    """
    return _result(*(_moment_pass(k, t, n) for n in _SIZES))


def quad_double_moments(pairs: list[tuple[int, int]], t: float) -> list[QuadResult]:
    """Tensor quadrature of int int x^(2i+1) y^(2j+1) H(x+y, t) dx dy for
    every (i, j) in ``pairs``, sharing one matrix of g(x_a + x_b, t) per
    rule size.

    Documented domain i + j <= 5, t <= 10.
    """
    return [_result(*v) for v in zip(*(_double_pass(pairs, t, n) for n in _SIZES))]


def quad_double_moment(i: int, j: int, t: float) -> QuadResult:
    """Tensor quadrature of int int x^(2i+1) y^(2j+1) H(x+y, t) dx dy:
    the one-pair :func:`quad_double_moments`."""
    return quad_double_moments([(i, j)], t)[0]


def _record(check: str, dev: float, tol: float, where: str) -> dict:
    return {
        "check": check,
        "grid": where,
        "max_abs_dev": dev,
        "tolerance": tol,
        "pass": dev < tol,
    }


def kernel_identity_report() -> list[dict]:
    """Finite-difference and exact-identity checks for H, D and R.

    Returns one record per check: {check, grid, max_abs_dev, tolerance,
    pass}.  The derivative identities dD/dx = H(y+z, x) and
    2 dR/dx = H(z, x+y) + H(z, x-y) are checked by central differences
    (step 1e-4) on the grid {0.5, 1, 2, 5}^3; the gap identity and
    evenness of H in y at 400 seeded random points in [0, 10]^3.
    """
    grid = (0.5, 1.0, 2.0, 5.0)
    cube = [(x, y, z) for x in grid for y in grid for z in grid]
    step = 1e-4
    dev_d = max(
        abs((kernel_d(x + step, y, z) - kernel_d(x - step, y, z)) / (2.0 * step) - kernel_h(y + z, x))
        for x, y, z in cube
    )
    dev_r = max(
        abs(
            2.0 * ((kernel_r(x + step, y, z) - kernel_r(x - step, y, z)) / (2.0 * step))
            - kernel_h(z, x + y)
            - kernel_h(z, x - y)
        )
        for x, y, z in cube
    )

    rng = random.Random(20110711)
    points = [[rng.uniform(0.0, 10.0) for _ in range(3)] for _ in range(400)]
    dev_gap = max(
        abs(kernel_r(x, y, z) + kernel_r(x, z, y) - x - kernel_d(x, y, z)) for x, y, z in points
    )
    dev_even = max(abs(kernel_h(x, y) - kernel_h(x, -y)) for x, y, _ in points)

    return [
        _record("dD/dx = H(y+z,x)", dev_d, 1e-6, "central diff, {0.5,1,2,5}^3"),
        _record("2 dR/dx = H(z,x+y)+H(z,x-y)", dev_r, 1e-6, "central diff, {0.5,1,2,5}^3"),
        _record("R(x,y,z)+R(x,z,y) = x+D(x,y,z)", dev_gap, 1e-10, "400 random points in [0,10]^3"),
        _record("H(x,y) = H(x,-y)", dev_even, 1e-12, "400 random points in [0,10]^2"),
    ]


def moment_validation_report() -> list[dict]:
    """Compare the exact moment closed forms against quadrature.

    Covers F_{2k+1} for k <= 8 and G_{i,j} for i + j <= 5 at t = 0, 1
    and 5; the figure of merit is the relative deviation
    |quad - exact| / max(1, |exact|), against the tolerance 1e-8.  The
    quadrature is the ``value`` of :func:`quad_moment` and
    :func:`quad_double_moments`, without the second rule size.
    """
    from .kernels import h_double_moment, h_moment

    n = _SIZES[0]
    pairs = [(i, j) for i in range(_MAX_DOUBLE + 1) for j in range(_MAX_DOUBLE + 1 - i)]
    # one batched quadrature per t: every G_{i,j} shares its g(x_a + x_b, t) matrix
    double = {t: _double_pass(pairs, t, n) for t in _TS}
    checks = [
        (f"F_{2 * k + 1}", h_moment(k), [_moment_pass(k, t, n) for t in _TS])
        for k in range(_MAX_K + 1)
    ] + [
        (f"G_{{{i},{j}}}", h_double_moment(i, j), [double[t][p] for t in _TS])
        for p, (i, j) in enumerate(pairs)
    ]
    reports = []
    for name, exact, quads in checks:
        for t, quad in zip(_TS, quads):
            # the closed form as the float sum of its terms q pi^(2(w - m)) t^(2m),
            # all positive, so within a few eps of the exact value
            w = exact.weight
            ref = sum(float(q) * math.pi ** (2 * (w - m)) * t ** (2 * m) for (m,), q in exact.items())
            dev = abs(quad - ref) / max(1.0, abs(ref))
            reports.append(_record(f"{name}({t}) quadrature", dev, _MOMENT_TOL, f"t={t}"))
    return reports
