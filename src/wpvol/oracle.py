"""Independent floating-point verification of the exact kernel moments.

The kernel H and its companions D and R are evaluated here and nowhere
else, by overflow-safe array functions.  The closed forms in
:mod:`wpvol.kernels` are not taken on faith: this module integrates the
defining expressions numerically (composite Gauss-Legendre panels on a
truncated domain, with an explicit exponential tail bound) and checks the
D/R/H derivative identities by central finite differences.  Nothing here
shares a code path with the exact moment polynomials it validates, and
nothing in the recursion ever consumes a float from this module: the
oracle exists purely for the test suite and the ``verify kernels``
command.

Truncation: for x >= T >= t the integrand obeys
x^(2k+1) H(x, t) <= 2 x^(2k+1) e^((t-x)/2), so for T >= 4(2k+1) the
discarded tail of the single integral is at most 8 T^(2k+1) e^((t-T)/2);
an analogous product bound covers the double integral.  T is grown until
the bound drops below 1e-13.

Both quadratures use one rule: P equal panels of width h = T/P with
the same 24 Gauss-Legendre nodes, node (p, k) at (p + u_k) h.  The
24-point rule comes from Newton's method on the Legendre polynomial P_24,
evaluated by its three-term recurrence, once at import.  The double
moments G_{i,j} share their integrand H(x+y, t) for a fixed t, and on
that rule H at a node pair depends only on the panel-index sum p + q and
the in-panel nodes k, l.  :func:`quad_double_moments` therefore
evaluates H once per panel-index sum, on 2P - 1 blocks of 24 x 24
points, and contracts the block-Hankel matrix they form with every
pair's weights; the N x N grid of node pairs is never formed.  H is
built in the block array itself, with one more buffer of its size for
the second fermi term.  T is the largest truncation of the requested
pairs and so is shared per (t, pair set), while each pair's tail is
bounded at that T with its own (i, j); every bound decreases in T beyond
2(2 max(i,j)+1) <= 22, well below any truncation, so it stays under
1e-13.  A one-pair call uses the pair's own T.
"""
from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

import numpy as np

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

_NODES = 24  # Gauss-Legendre nodes per panel


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], nodes ascending: Newton's
    method on P_n from the guesses cos(pi (m - 1/4) / (n + 1/2)), with P_n
    and P_n' from the three-term recurrence.  Six steps reach the float
    fixed point for n = 24."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(6):
        p0, p1 = np.ones_like(x), x
        for m in range(2, n + 1):
            p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_X0, _W0 = _gauss_legendre(_NODES)
_U0 = (1.0 + _X0) / 2.0  # the nodes on [0, 1]
_PANEL = 8.0  # coarse panel width; the refined pass halves it
_LOG_TAIL_TARGET = math.log(1e-13)
# moment_validation_report: F_{2k+1} for k <= _MAX_K and G_{i,j} for
# i + j <= _MAX_DOUBLE, at each t in _TS, to relative deviation _MOMENT_TOL
_MAX_K = 8
_MAX_DOUBLE = 5
_TS = (0.0, 1.0, 5.0)
_MOMENT_TOL = 1e-8


class QuadResult(NamedTuple):
    value: float
    abs_err: float
    truncation: float


def _single_tail_log(T: float, k: int, t: float) -> float:
    # log of 8 T^(2k+1) e^((t-T)/2)
    return math.log(8.0) + (2 * k + 1) * math.log(T) + (t - T) / 2.0


def _double_tail_log(T: float, i: int, j: int, t: float) -> float:
    # outside [0,T]^2 either x or y exceeds T; bound each strip by the
    # product of a truncated and a full moment of e^(-u/2)
    m = max(i, j)
    return (
        math.log(16.0)
        + math.lgamma(2 * m + 2)
        + (2 * m + 2) * math.log(4.0)
        + (2 * m + 1) * math.log(T)
        + (t - T) / 2.0
    )


def _truncation(log_tail: Callable[[float], float], k: int, t: float) -> float:
    T = max(t + 60.0, 8.0 * (2 * k + 2))
    while log_tail(T) > _LOG_TAIL_TARGET:
        T += 10.0
    return T


def _panel_rule(T: float, width: float) -> tuple[int, np.ndarray, np.ndarray]:
    """P equal Gauss-Legendre panels on [0, T], P = ceil(T / width): the
    count P and the nodes (p + u_k) T/P and their weights, panel by
    panel."""
    count = max(1, math.ceil(T / width))
    edges = np.linspace(0.0, T, count + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * _X0[None, :]).ravel()
    weights = (half[:, None] * _W0[None, :]).ravel()
    return count, nodes, weights


def _fermi(a: np.ndarray) -> np.ndarray:
    # 1/(1+e^(a/2)) = exp(-logaddexp(0, a/2)), stable for any magnitude;
    # overwrites and returns a
    a *= 0.5
    np.logaddexp(0.0, a, out=a)
    np.negative(a, out=a)
    return np.exp(a, out=a)


def kernel_h(x: np.ndarray, y) -> np.ndarray:
    """H(x, y) = 1/(1 + e^((x+y)/2)) + 1/(1 + e^((x-y)/2)) elementwise;
    x + y must be an array.  Even in y, H(0, 0) = 1.  Two buffers the size
    of the result, however large the grid."""
    h = _fermi(np.add(x, y))
    h += _fermi(np.subtract(x, y))
    return h


def _h_in_place(a: np.ndarray, t: float) -> None:
    # overwrites a with H(a, t) = fermi(a + t) + fermi(a - t), using one more
    # buffer of a's size, freed on return
    below = np.subtract(a, t)
    a += t
    _fermi(a)
    a += _fermi(below)


def _log_cosh(u: np.ndarray) -> np.ndarray:
    u = np.abs(u)
    return u - math.log(2.0) + np.log1p(np.exp(-2.0 * u))


def kernel_d(x, y, z) -> np.ndarray:
    """D(x, y, z) = 2 log( (e^(x/2) + e^((y+z)/2)) / (e^(-x/2) + e^((y+z)/2)) )
    elementwise.  dD/dx = H(y + z, x) and D(0,0,0) = 0."""
    b = (y + z) / 2.0
    return 2.0 * (np.logaddexp(x / 2.0, b) - np.logaddexp(-x / 2.0, b))


def kernel_r(x, y, z) -> np.ndarray:
    """R(x, y, z) = x - log( (cosh(y/2) + cosh((x+z)/2))
                            / (cosh(y/2) + cosh((x-z)/2)) ) elementwise.
    2 dR/dx = H(z, x + y) + H(z, x - y), R(0,0,0) = 0, and the gap identity
    R(x,y,z) + R(x,z,y) = x + D(x,y,z) holds."""
    lc_y = _log_cosh(y / 2.0)
    num = np.logaddexp(lc_y, _log_cosh((x + z) / 2.0))
    den = np.logaddexp(lc_y, _log_cosh((x - z) / 2.0))
    return x - (num - den)


def quad_moment(k: int, t: float) -> QuadResult:
    """Quadrature value of int_0^oo x^(2k+1) H(x, t) dx.

    Documented domain k <= 10, t <= 20.  The reported absolute error is
    the coarse/fine difference plus the tail bound; an unattainable
    accuracy shows up there rather than failing silently.
    """
    tail_log = lambda T: _single_tail_log(T, k, t)  # noqa: E731
    T = _truncation(tail_log, k, t)
    tail = math.exp(tail_log(T))

    results = []
    for width in (_PANEL, _PANEL / 2.0):
        _, x, w = _panel_rule(T, width)
        results.append(float(np.dot(w, x ** (2 * k + 1) * kernel_h(x, t))))
    return QuadResult(results[1], abs(results[1] - results[0]) + tail, T)


def quad_double_moments(pairs: list[tuple[int, int]], t: float) -> list[QuadResult]:
    """Tensor quadrature of int int x^(2i+1) y^(2j+1) H(x+y, t) dx dy for
    every (i, j) in ``pairs``, with one H block per panel-index sum and
    panel width.

    Documented domain i + j <= 5, t <= 10.  T is the largest of the pairs'
    own truncations; each result carries its own coarse/fine difference
    plus its own tail bound at that T, and ``truncation`` is T.
    """
    T = max(
        _truncation(lambda u: _double_tail_log(u, i, j, t), max(i, j), t) for i, j in pairs
    )
    powers = sorted({e for pair in pairs for e in pair})
    row = {e: r for r, e in enumerate(powers)}

    passes = []
    for width in (_PANEL, _PANEL / 2.0):
        count, x, w = _panel_rule(T, width)
        h = T / count
        # H at node pair ((p, k), (q, l)) is blocks[p + q, k, l]
        blocks = np.arange(2 * count - 1, dtype=float)[:, None, None] + _U0[:, None] + _U0
        blocks *= h
        _h_in_place(blocks, t)
        f = np.stack([w * x ** (2 * e + 1) for e in powers])
        fg = np.empty_like(f)
        for q in range(count):
            # rows (p, k) of the grid's panel column q: a contiguous view
            fg[:, q * _NODES : (q + 1) * _NODES] = f @ blocks[q : q + count].reshape(-1, _NODES)
        passes.append([float(fg[row[i]] @ f[row[j]]) for i, j in pairs])
    return [
        QuadResult(fine, abs(fine - coarse) + math.exp(_double_tail_log(T, i, j, t)), T)
        for (i, j), coarse, fine in zip(pairs, *passes)
    ]


def quad_double_moment(i: int, j: int, t: float) -> QuadResult:
    """Tensor quadrature of int int x^(2i+1) y^(2j+1) H(x+y, t) dx dy.

    The one-pair :func:`quad_double_moments`, at the pair's own truncation.
    """
    return quad_double_moments([(i, j)], t)[0]


def _record(check: str, dev: float, tol: float, where: str) -> dict:
    dev = float(dev)  # a numpy scalar from the array checks
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
    grid = np.array([0.5, 1.0, 2.0, 5.0])
    x, y, z = np.meshgrid(grid, grid, grid, indexing="ij")
    step = 1e-4
    dd = (kernel_d(x + step, y, z) - kernel_d(x - step, y, z)) / (2.0 * step)
    dr = (kernel_r(x + step, y, z) - kernel_r(x - step, y, z)) / (2.0 * step)
    dev_d = np.max(np.abs(dd - kernel_h(y + z, x)))
    dev_r = np.max(np.abs(2.0 * dr - kernel_h(z, x + y) - kernel_h(z, x - y)))

    rng = random.Random(20110711)
    x, y, z = np.array([[rng.uniform(0.0, 10.0) for _ in range(3)] for _ in range(400)]).T
    dev_gap = np.max(np.abs(kernel_r(x, y, z) + kernel_r(x, z, y) - x - kernel_d(x, y, z)))
    dev_even = np.max(np.abs(kernel_h(x, y) - kernel_h(x, -y)))

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
    |quad - exact| / max(1, |exact|), against the tolerance 1e-8.
    """
    from fractions import Fraction

    from .kernels import h_double_moment, h_moment

    def records(name: str, exact, quad: dict[float, QuadResult]) -> list[dict]:
        out = []
        for t in _TS:
            ref = exact.eval_rational([Fraction(t)]).to_float()
            dev = abs(quad[t].value - ref) / max(1.0, abs(ref))
            out.append(_record(f"{name}({t}) quadrature", dev, _MOMENT_TOL, f"t={t}"))
        return out

    # one batched quadrature per t: every G_{i,j} shares its H(x+y, t) blocks
    pairs = [(i, j) for i in range(_MAX_DOUBLE + 1) for j in range(_MAX_DOUBLE + 1 - i)]
    double = {
        (i, j, t): result
        for t in _TS
        for (i, j), result in zip(pairs, quad_double_moments(pairs, t))
    }

    reports = []
    for k in range(_MAX_K + 1):
        quad = {t: quad_moment(k, t) for t in _TS}
        reports += records(f"F_{2 * k + 1}", h_moment(k), quad)
    for i, j in pairs:
        quad = {t: double[i, j, t] for t in _TS}
        reports += records(f"G_{{{i},{j}}}", h_double_moment(i, j), quad)
    return reports
