from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpvol.exact import PiPoly
from wpvol.lpoly import LPoly


def v04():
    # (4 pi^2 + L1^2 + L2^2 + L3^2 + L4^2) / 2, weight 1
    terms = {(0, 0, 0, 0): 2}
    for i in range(4):
        alpha = [0] * 4
        alpha[i] = 1
        terms[tuple(alpha)] = Fraction(1, 2)
    return LPoly(4, 1, terms)


def v11_true():
    return LPoly(1, 1, {(0,): Fraction(1, 6), (1,): Fraction(1, 24)})


# ----------------------------------------------------------------------
# construction and basic arithmetic


def test_zero_coefficients_pruned():
    p = LPoly(2, 1, {(1, 0): 0, (0, 1): 1})
    assert len(p) == 1


def test_pi_coefficient_carries_implied_power():
    assert v04().pi_coefficient((0, 0, 0, 0)) == PiPoly.monomial(1, 2)
    assert v04().pi_coefficient((1, 0, 0, 0)) == PiPoly.monomial(0, Fraction(1, 2))
    assert not v04().pi_coefficient((5, 0, 0, 0))


# ----------------------------------------------------------------------
# calculus


def test_integrate_back_constant():
    one = LPoly(1, 0, {(0,): Fraction(1)})
    assert one.integrate_back() == one
    with pytest.raises(ValueError, match="at least one variable"):
        LPoly(0, 0).integrate_back()


def test_integrate_back_divides_by_odd_integers():
    p = LPoly(1, 1, {(0,): Fraction(1, 6), (1,): Fraction(3, 8)})
    q = p.integrate_back()
    assert q == LPoly(1, 1, {(0,): Fraction(1, 6), (1,): Fraction(1, 8)})


def test_integrate_back_recovers_torus_volume():
    derivative = LPoly(1, 1, {(0,): Fraction(1, 6), (1,): Fraction(1, 8)})
    assert derivative.integrate_back() == v11_true()


# ----------------------------------------------------------------------
# properties

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)
WEIGHT = 4


def lpolys(n, weight=WEIGHT, max_terms=4):
    """Weighted rational polynomials: keys with |alpha| <= weight."""
    keys = st.tuples(*([st.integers(0, weight)] * n)).filter(lambda a: sum(a) <= weight)
    return st.dictionaries(keys, rationals, max_size=max_terms).map(
        lambda d: LPoly(n, weight, d)
    )


@settings(max_examples=50)
@given(lpolys(2))
def test_integrate_back_round_trip(q):
    # multiply each L_1^(2k) coefficient by 2k+1 (the derivative of L_1 q),
    # then integrate back: must recover q
    p = LPoly(2, q.weight, {a: c * (2 * a[0] + 1) for a, c in q.items()})
    assert p.integrate_back() == q


@settings(max_examples=40)
@given(lpolys(2))
def test_record_round_trip_is_exact(p):
    # the records name every term exactly
    records = p.to_records()
    terms = {tuple(r["alpha"]): Fraction(r["coeff"]) for r in records}
    assert LPoly(2, p.weight, terms) == p
    # canonical order: graded lexicographic, one record per alpha, and the
    # pi power the weight implies
    keys = [(sum(r["alpha"]), tuple(r["alpha"])) for r in records]
    assert keys == sorted(set(keys))
    assert all(r["pi_power"] == 2 * (p.weight - sum(r["alpha"])) for r in records)


# ----------------------------------------------------------------------
# evaluation


def test_eval_rational():
    v = v04()
    got = v.eval_rational([1, 1, 1, 1])
    assert got == PiPoly({1: Fraction(2), 0: Fraction(2)})
    assert v.eval_rational([0, 0, 0, 0]) == PiPoly.monomial(1, 2)


def test_eval_wrong_arity():
    with pytest.raises(ValueError):
        v04().eval_rational([1, 2])
