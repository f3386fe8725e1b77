from fractions import Fraction

import pytest

from wpvol.exact import PiPoly
from wpvol.kernels import h_double_moment, h_moment, moment_constant
from wpvol.lpoly import LPoly


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


def test_moment_constants():
    # r_i = (2^(2i+1) - 4) zeta(2i) / pi^(2i), with r_0 from zeta(0) = -1/2
    got = [moment_constant(i) for i in range(4)]
    assert got == [1, Fraction(2, 3), Fraction(14, 45), Fraction(124, 945)]
    assert all(type(r) is Fraction for r in got)


@pytest.mark.parametrize(
    "moment, args",
    [(moment_constant, (-1,)), (h_moment, (-1,)), (h_double_moment, (0, -1))],
    ids=["moment_constant", "h_moment", "h_double_moment"],
)
def test_negative_moment_index_rejected(moment, args):
    with pytest.raises(ValueError, match="non-negative"):
        moment(*args)


@pytest.mark.parametrize("k", range(9))
def test_moment_degree_and_positivity(k):
    f = F(k)
    # weight k+1: each t^(2m) coefficient is a multiple of pi^(2(k+1-m))
    assert f.weight == k + 1
    assert max(m for (m,), _ in f.items()) == k + 1
    for (m,), q in f.items():
        assert q > 0
    [(power, _)] = f.pi_coefficient((0,)).items()
    assert power == k + 1


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
