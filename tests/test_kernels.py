import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpvol.exact import PiPoly
from wpvol.kernels import (
    h_double_moment,
    h_moment,
    kernel_d,
    kernel_h,
    kernel_r,
    shift_symmetrize,
)
from wpvol.lpoly import LPoly


# ----------------------------------------------------------------------
# numeric kernel evaluations


def test_h_at_origin():
    assert kernel_h(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=60)
@given(st.floats(-50, 50), st.floats(-50, 50))
def test_h_even_in_second_argument(x, y):
    assert kernel_h(x, y) == pytest.approx(kernel_h(x, -y), rel=1e-12, abs=1e-300)


def test_h_far_tail():
    assert kernel_h(50.0, 0.0) == pytest.approx(2.0 * math.exp(-25.0), rel=1e-10)


def test_h_no_overflow_for_huge_arguments():
    assert kernel_h(3000.0, 10.0) >= 0.0
    assert math.isfinite(kernel_d(2900.0, 100.0, 50.0))
    assert math.isfinite(kernel_r(2900.0, 100.0, 50.0))


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
# exact moments


def F(k):
    return h_moment(k)


def test_first_moment():
    # 2/3 pi^2 + t^2/2
    want = LPoly(1, 1, {(0,): Fraction(2, 3), (1,): Fraction(1, 2)})
    assert F(0) == want


def test_first_moment_constant_term():
    assert F(0).pi_coefficient((0,)) == PiPoly.monomial(1, Fraction(2, 3))


def test_third_moment():
    # t^4/4 + 2 pi^2 t^2 + 28/15 pi^4
    want = LPoly(1, 2, {(2,): Fraction(1, 4), (1,): 2, (0,): Fraction(28, 15)})
    assert F(1) == want


@pytest.mark.parametrize("k", range(9))
def test_moment_degree_and_positivity(k):
    f = F(k)
    # weight k+1: each t^(2m) coefficient is a multiple of pi^(2(k+1-m))
    assert f.weight == k + 1
    assert max(m for (m,), _ in f.items()) == k + 1
    for (m,), q in f.items():
        assert q > 0
    assert f.pi_coefficient((0,)).as_monomial()[0] == k + 1


def test_double_moment_beta_reduction():
    assert h_double_moment(0, 0) == F(1).scale(Fraction(1, 6))
    assert h_double_moment(0, 1) == F(2).scale(Fraction(1, 20))


@pytest.mark.parametrize("i", range(5))
@pytest.mark.parametrize("j", range(5))
def test_double_moment_symmetric(i, j):
    assert h_double_moment(i, j) == h_double_moment(j, i)


@pytest.mark.parametrize("i,j", [(0, 0), (1, 2), (3, 2), (0, 5)])
def test_double_moment_degree(i, j):
    assert max(m for (m,), _ in h_double_moment(i, j).items()) == i + j + 2


# ----------------------------------------------------------------------
# shifted symmetrization


def test_shift_symmetrize_quadratic():
    t2 = LPoly.monomial(1, (1,))
    got = shift_symmetrize(t2)
    assert got == LPoly(2, 1, {(1, 0): 1, (0, 1): 1})


def test_shift_symmetrize_quartic():
    t4 = LPoly.monomial(1, (2,))
    got = shift_symmetrize(t4)
    want = LPoly(2, 2, {(2, 0): 1, (1, 1): 6, (0, 2): 1})
    assert got == want


def test_shift_symmetrize_constant():
    c = LPoly(1, 2, {(0,): Fraction(5, 7)})
    got = shift_symmetrize(c)
    assert got == LPoly(2, 2, {(0, 0): Fraction(5, 7)})


def test_shift_symmetrize_matches_float_evaluation():
    f = F(2)
    s = shift_symmetrize(f)
    for a, b in [(0, 0), (1, 2), (3, Fraction(1, 2))]:
        lhs = s.eval_rational([a, b]).to_float()
        rhs = 0.5 * (
            f.eval_rational([a + b]).to_float() + f.eval_rational([a - b]).to_float()
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)
