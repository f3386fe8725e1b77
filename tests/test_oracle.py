import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpvol.kernels import h_double_moment, h_moment
from wpvol import oracle
from wpvol.oracle import (
    kernel_d,
    kernel_h,
    kernel_identity_report,
    kernel_r,
    moment_validation_report,
    quad_double_moment,
    quad_double_moments,
    quad_moment,
)

# the G_{i,j} that moment_validation_report checks, in its order
REPORT_PAIRS = [(i, j) for i in range(6) for j in range(6 - i)]
REPORT_TS = (0.0, 1.0, 5.0)


def exact_moment_float(k, t):
    return h_moment(k).eval_rational([Fraction(t)]).to_float()


def exact_double_float(i, j, t):
    return h_double_moment(i, j).eval_rational([Fraction(t)]).to_float()


# ----------------------------------------------------------------------
# the Gauss-Laguerre rule


@pytest.mark.parametrize("n", oracle._SIZES)
def test_gauss_laguerre_rule_matches_numpy(n):
    # numpy's rule is for the weight e^(-x); the oracle's is for e^(-x/2)
    nodes, weights = np.polynomial.laguerre.laggauss(n)
    x, w, q = oracle._gauss_laguerre(n)
    assert np.max(np.abs(np.array(x) / (2.0 * nodes) - 1.0)) < 1e-12
    assert np.max(np.abs(np.array(w) / (2.0 * weights) - 1.0)) < 1e-10
    assert q == [math.exp(-a / 2.0) for a in x]


@pytest.mark.parametrize("n", oracle._SIZES)
def test_gauss_laguerre_rule_is_exact_to_degree_2n_minus_1(n):
    # int_0^oo x^p e^(-x/2) dx = p! 2^(p+1); each term W_a x_a^p / (p! 2^(p+1))
    # is built as a running product, since x_a^p alone overflows for large p
    x, w, _ = oracle._gauss_laguerre(n)
    terms = [wa / 2.0 for wa in w]
    for p in range(2 * n):
        if p:
            terms = [term * xa / (2.0 * p) for term, xa in zip(terms, x)]
        assert math.fsum(terms) == pytest.approx(1.0, rel=1e-13), p


# ----------------------------------------------------------------------
# scalar kernel evaluations


def test_h_at_origin():
    assert kernel_h(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=60)
@given(st.floats(-50, 50), st.floats(-50, 50))
def test_h_even_in_second_argument(x, y):
    assert kernel_h(x, y) == pytest.approx(kernel_h(x, -y), rel=1e-12, abs=1e-300)


def test_h_far_tail():
    assert kernel_h(50.0, 0.0) == pytest.approx(2.0 * math.exp(-25.0), rel=1e-10)


def test_h_no_overflow_for_huge_arguments():
    # math.exp raises OverflowError past about 709, so every exp in the
    # kernels must see a non-positive argument
    assert kernel_h(3000.0, 10.0) >= 0.0
    assert kernel_h(-3000.0, 10.0) == pytest.approx(2.0)
    for x in (2900.0, -2900.0):
        assert math.isfinite(kernel_d(x, 100.0, 50.0))
        assert math.isfinite(kernel_r(x, 100.0, 50.0))


def test_d_and_r_vanish_at_origin():
    assert kernel_d(0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert kernel_r(0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=80)
@given(st.floats(0, 10), st.floats(0, 10), st.floats(0, 10))
def test_gap_identity(x, y, z):
    lhs = kernel_r(x, y, z) + kernel_r(x, z, y)
    rhs = x + kernel_d(x, y, z)
    assert abs(lhs - rhs) < 1e-10


# ----------------------------------------------------------------------
# single integral


def test_quad_first_moment_at_zero():
    got = quad_moment(0, 0.0)
    assert got.value == pytest.approx(2 * math.pi**2 / 3, rel=1e-10)


def test_quad_first_moment_at_one():
    got = quad_moment(0, 1.0)
    assert got.value == pytest.approx(2 * math.pi**2 / 3 + 0.5, rel=1e-10)


def test_quad_third_moment_constant():
    got = quad_moment(1, 0.0)
    assert got.value == pytest.approx(28 * math.pi**4 / 15, rel=1e-10)


@pytest.mark.parametrize("k", range(9))
@pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
def test_closed_form_matches_quadrature(k, t):
    """The gate for the single-moment closed form."""
    ref = exact_moment_float(k, t)
    got = quad_moment(k, t)
    assert abs(got.value - ref) / max(1.0, abs(ref)) < 1e-8


@pytest.mark.parametrize("k,t", [(0, 0.0), (3, 1.0), (8, 5.0), (10, 20.0)])
def test_single_error_estimate_bounds_truth(k, t):
    ref = exact_moment_float(k, t)
    got = quad_moment(k, t)
    assert abs(got.value - ref) <= got.abs_err + 1e-14 * abs(ref)


# ----------------------------------------------------------------------
# double integral


def test_quad_double_moment_at_origin():
    got = quad_double_moment(0, 0, 0.0)
    assert got.value == pytest.approx(28 * math.pi**4 / 90, rel=1e-10)


def test_quad_double_symmetry():
    a = quad_double_moment(0, 2, 1.5)
    b = quad_double_moment(2, 0, 1.5)
    assert a.value == pytest.approx(b.value, rel=1e-10)


def test_quad_double_beta_reduction_instance():
    got = quad_double_moment(0, 1, 1.0)
    assert got.value == pytest.approx(exact_moment_float(2, 1.0) / 20, rel=1e-10)




@pytest.mark.parametrize("i,j,t", [(0, 0, 0.0), (2, 3, 5.0), (5, 0, 10.0)])
def test_double_error_estimate_bounds_truth(i, j, t):
    ref = exact_double_float(i, j, t)
    got = quad_double_moment(i, j, t)
    assert abs(got.value - ref) <= got.abs_err + 1e-14 * abs(ref)


# ----------------------------------------------------------------------
# batched double integral: one matrix per (t, rule size) for every pair


@pytest.fixture(scope="module")
def batched():
    return {
        t: dict(zip(REPORT_PAIRS, quad_double_moments(REPORT_PAIRS, t)))
        for t in REPORT_TS + (10.0,)
    }


@pytest.mark.parametrize("i,j", REPORT_PAIRS)
@pytest.mark.parametrize("t", REPORT_TS)
def test_double_closed_form_matches_quadrature(batched, i, j, t):
    """The gate for the Beta-reduction closed form."""
    ref = exact_double_float(i, j, t)
    got = batched[t][i, j]
    assert abs(got.value - ref) / max(1.0, abs(ref)) < 1e-8


@pytest.mark.parametrize("t", REPORT_TS + (10.0,))
def test_batched_error_estimate_bounds_truth(batched, t):
    for (i, j), got in batched[t].items():
        ref = exact_double_float(i, j, t)
        assert abs(got.value - ref) <= got.abs_err + 1e-14 * abs(ref), (i, j)


@pytest.mark.parametrize("i,j,t", [(0, 0, 0.0), (1, 4, 1.0), (2, 3, 5.0), (5, 0, 10.0)])
def test_batched_value_matches_one_pair_call(batched, i, j, t):
    assert batched[t][i, j].value == pytest.approx(quad_double_moment(i, j, t).value, rel=1e-12)


def dense_double_moments(pairs, t):
    """The reported rule's double sum with g evaluated at each node pair's
    sum x_a + x_b, as a reference for the matrix built from products of
    e^(-x/2) and contracted on the smaller power."""
    x, w, _ = (np.array(v) for v in oracle._gauss_laguerre(oracle._SIZES[0]))
    q = np.exp(-(x[:, None] + x[None, :]) / 2.0)
    grid = 1.0 / (q + math.exp(t / 2.0)) + 1.0 / (q + math.exp(-t / 2.0))
    return {
        (i, j): float((w * x ** (2 * i + 1)) @ grid @ (w * x ** (2 * j + 1)))
        for i, j in pairs
    }


@pytest.mark.parametrize("t", REPORT_TS + (10.0,))
def test_batched_matches_dense_grid(batched, t):
    dense = dense_double_moments(REPORT_PAIRS, t)
    for (i, j), got in batched[t].items():
        assert got.value == pytest.approx(dense[i, j], rel=1e-13), (i, j)


def test_moment_report_never_forms_the_node_pair_grid():
    # the report's largest object is one 96 x 96 matrix of g(x_a + x_b, t),
    # about 0.3 MB of float objects
    tracemalloc.start()
    try:
        moment_validation_report()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_batched_symmetric_in_the_pair():
    pairs = REPORT_PAIRS + [(j, i) for i, j in REPORT_PAIRS]
    got = dict(zip(pairs, quad_double_moments(pairs, 1.5)))
    for i, j in REPORT_PAIRS:
        assert got[i, j].value == pytest.approx(got[j, i].value, rel=1e-12), (i, j)


def test_moment_report_records_pinned():
    """The record list verify kernels prints: 27 F and 63 G checks."""
    expected = [
        (f"F_{2 * k + 1}({t}) quadrature", f"t={t}", 1e-8) for k in range(9) for t in REPORT_TS
    ] + [
        (f"G_{{{i},{j}}}({t}) quadrature", f"t={t}", 1e-8) for i, j in REPORT_PAIRS for t in REPORT_TS
    ]
    report = moment_validation_report()
    assert [(r["check"], r["grid"], r["tolerance"]) for r in report] == expected
    assert len(report) == 90
    assert report[0]["check"] == "F_1(0.0) quadrature"
    assert report[-1]["check"] == "G_{5,0}(5.0) quadrature"
    assert all(r["pass"] for r in report)


def test_moment_report_deviations_far_below_the_gate():
    # the Christoffel weights hold every record under 2e-14; the textbook
    # weight z / (n L_{n-1}(z))^2 lets the G records drift to 3e-13
    assert max(r["max_abs_dev"] for r in moment_validation_report()) < 1e-13


# ----------------------------------------------------------------------
# kernel identity suite


def test_identity_report_passes():
    report = kernel_identity_report()
    by_name = {rec["check"]: rec for rec in report}
    assert by_name["dD/dx = H(y+z,x)"]["max_abs_dev"] < 1e-6
    assert by_name["2 dR/dx = H(z,x+y)+H(z,x-y)"]["max_abs_dev"] < 1e-6
    assert by_name["R(x,y,z)+R(x,z,y) = x+D(x,y,z)"]["max_abs_dev"] < 1e-10
    assert all(rec["pass"] for rec in report)
