import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpvol.exact import PiPoly, zeta_even


# ----------------------------------------------------------------------
# zeta at even integers


def akiyama_tanigawa(n):
    """Independent oracle: B_0..B_n by the Akiyama-Tanigawa algorithm.

    Produces the B_1 = +1/2 convention; even indices are the usual B_2i.
    """
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


def test_zeta_against_bernoulli_closed_form():
    # zeta(2i) / pi^(2i) = (-1)^(i+1) B_2i 2^(2i-1) / (2i)!
    bernoulli = akiyama_tanigawa(30)
    for i in range(1, 16):
        scale = Fraction(2 ** (2 * i - 1), math.factorial(2 * i))
        assert zeta_even(i) == (-1) ** (i + 1) * bernoulli[2 * i] * scale


def test_zeta_zero_is_minus_half():
    assert zeta_even(0) == Fraction(-1, 2)
    with pytest.raises(ValueError, match="non-negative"):
        zeta_even(-1)


def test_zeta_two_and_four():
    assert zeta_even(1) == Fraction(1, 6)
    assert zeta_even(2) == Fraction(1, 90)


@pytest.mark.parametrize("i", range(1, 11))
def test_zeta_is_single_monomial_of_degree_2i(i):
    # zeta(2i) = q pi^(2i) with q rational, and 1 < zeta(2i) <= zeta(2)
    q = zeta_even(i)
    assert type(q) is Fraction
    assert 1 < PiPoly.monomial(i, q).to_float() < 1.645


@pytest.mark.parametrize("i", range(1, 9))
def test_zeta_float_matches_direct_sum(i):
    n = np.arange(1.0, 1_000_001.0)
    partial = float(np.sum(n ** (-2.0 * i)))
    # integral tail estimate: sum_{n>N} n^(-s) ~ N^(1-s)/(s-1)
    tail = 1_000_000.0 ** (1 - 2 * i) / (2 * i - 1)
    direct = partial + tail
    assert float(zeta_even(i)) * math.pi ** (2 * i) == pytest.approx(direct, rel=1e-8)


# ----------------------------------------------------------------------
# PiPoly arithmetic


def test_additive_inverse_gives_empty_term_set():
    z2 = PiPoly.monomial(1, zeta_even(1))
    assert not z2 + (-1) * z2
    assert (z2 + (-1) * z2).as_str() == PiPoly().as_str() == "0"


def test_monomial_product():
    z2 = PiPoly.monomial(1, zeta_even(1))
    assert z2 * z2 == PiPoly.monomial(2, Fraction(1, 36))


def test_scalar_multiple():
    p = PiPoly({1: Fraction(1, 6), 0: Fraction(1, 8)})
    assert 4 * p == PiPoly({1: Fraction(2, 3), 0: Fraction(1, 2)})


def test_zero_coefficients_are_pruned():
    p = PiPoly({0: Fraction(0), 2: Fraction(3)})
    assert list(p.items()) == [(2, Fraction(3))]


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
pipolys = st.dictionaries(st.integers(0, 4), rationals, max_size=3).map(PiPoly)


@settings(max_examples=60)
@given(pipolys, pipolys, pipolys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


# ----------------------------------------------------------------------
# float bridge


def test_to_float_zero():
    assert PiPoly().to_float() == 0.0


def test_to_float_zeta_two():
    z2 = PiPoly.monomial(1, zeta_even(1))
    assert z2.to_float() == pytest.approx(1.6449340668482264, rel=1e-12)


def test_to_float_genus_two_compact_value():
    p = PiPoly.monomial(3, Fraction(43, 2160))
    assert p.to_float() == pytest.approx(43 * math.pi**6 / 2160, rel=1e-12)


def test_to_float_overflow_signalled():
    with pytest.raises(OverflowError):
        PiPoly.monomial(0, Fraction(10**400)).to_float()
