import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from wpvol.exact import PiPoly
from wpvol.lpoly import LPoly
from wpvol.intersect import (
    check_dilaton,
    check_do_dilaton,
    check_do_string,
    check_dvv,
    check_string,
    compact_volume,
    genus0_correlator,
    intersection_number,
    psi_correlator,
    run_relation_suite,
    zograf_ratio,
)
from wpvol.recursion import VolumeTable, iter_signatures, moduli_dim


@pytest.fixture(scope="module")
def table():
    t = VolumeTable()
    t.ensure(4)
    return t


# ----------------------------------------------------------------------
# coefficient extraction


def test_torus_coefficient(table):
    got = table.true_volume(1, 1).pi_coefficient((1,))
    assert got == PiPoly.rational(Fraction(1, 24))


def test_four_boundary_constant(table):
    got = table.true_volume(0, 4).pi_coefficient((0, 0, 0, 0))
    assert got == PiPoly.monomial(1, 2)


def test_genus_two_top_coefficient(table):
    got = table.true_volume(2, 1).pi_coefficient((4,))
    assert got == PiPoly.rational(Fraction(1, 442368))


def test_out_of_range_alpha_is_zero(table):
    assert not table.true_volume(0, 4).pi_coefficient((5, 0, 0, 0))


# ----------------------------------------------------------------------
# intersection numbers


def test_tau1_genus_one(table):
    assert psi_correlator(table, 1, (1,)) == Fraction(1, 24)


def test_tau0_cubed(table):
    assert psi_correlator(table, 0, (0, 0, 0)) == 1


def test_tau4_genus_two(table):
    assert psi_correlator(table, 2, (4,)) == Fraction(1, 1152)


def test_one_point_closed_form_to_genus_seven():
    # <tau_{3g-2}>_g = 1/(24^g g!) is known in closed form, independently of
    # the recursion; V_{7,1} is far above the dimension the suites reach
    t = VolumeTable()
    for g in range(1, 8):
        got = intersection_number(t, g, (3 * g - 2,)).kappa
        assert got == Fraction(1, 24**g * math.factorial(g)), g


def test_degree_mismatch_vanishes(table):
    assert psi_correlator(table, 1, (2,)) == 0
    assert psi_correlator(table, 0, (0, 0)) == 0  # unstable


def test_kappa_normalization_is_rational(table):
    # <kappa_1>_{1,1} = 1/24: omega form pi^2/12, kappa form 1/24
    value = intersection_number(table, 1, (0,))
    assert value.m == 1
    assert value.omega == PiPoly.monomial(1, Fraction(1, 12))
    assert value.kappa == Fraction(1, 24)


def test_both_normalizations_differ_by_two_pi_squared_power(table):
    value = intersection_number(table, 2, (1,))
    scale = PiPoly.monomial(value.m, Fraction(2**value.m))
    assert value.omega == scale * Fraction(value.kappa)


def test_top_degree_symbol_formula_agrees(table):
    # at |alpha| = 3g-3+n the (alpha)_g normalization has no residual factor:
    # C_alpha 2^(-delta) alpha! 2^|alpha| equals the correlator
    from math import factorial, prod

    for g, alpha in [(1, (1,)), (0, (1, 0, 0, 0)), (2, (4,)), (1, (0, 2))]:
        n = len(alpha)
        c = table.true_volume(g, n).coefficient(alpha)
        delta = 1 if (g, n) == (1, 1) else 0
        symbol = (
            c
            * Fraction(2 ** sum(alpha), 2**delta)
            * prod(factorial(a) for a in alpha)
        )
        assert symbol == psi_correlator(table, g, alpha)


def test_genus0_closed_form():
    assert genus0_correlator((0, 0, 0)) == 1
    assert genus0_correlator((1, 0, 0, 0)) == 1
    assert genus0_correlator((2, 0, 0, 0, 0)) == 1
    assert genus0_correlator((1, 1, 0, 0, 0)) == 2
    assert genus0_correlator((1, 0, 0)) == 0  # degree mismatch


def test_sorted_compositions_one_per_orbit_in_decreasing_order():
    from wpvol.intersect import _sorted_compositions

    assert _sorted_compositions(4, 3) == [(4, 0, 0), (3, 1, 0), (2, 2, 0), (2, 1, 1)]
    assert _sorted_compositions(0, 0) == [()]
    assert _sorted_compositions(2, 0) == []


def test_genus0_cross_check(table):
    from wpvol.intersect import _sorted_compositions

    for n in range(3, 8):
        for alpha in _sorted_compositions(n - 3, n):
            assert psi_correlator(table, 0, alpha) == genus0_correlator(alpha)


# ----------------------------------------------------------------------
# string / dilaton


def test_dilaton_torus(table):
    assert check_dilaton(table, 1, (1,)).passed


def test_string_genus_zero_is_pascal(table):
    rec = check_string(table, 0, (1, 0, 0))
    assert rec.passed and rec.lhs == "1"


def test_dilaton_three_boundaries(table):
    rec = check_dilaton(table, 0, (0, 0, 0))
    assert rec.passed and rec.lhs == "1" and rec.rhs == "1"


# ----------------------------------------------------------------------
# DVV


def test_dvv_first_nontrivial_case(table):
    assert check_dvv(table, 1, (1, 0)).passed


def test_dvv_genus_zero_five_boundaries(table):
    assert check_dvv(table, 0, (2, 0, 0, 0, 0)).passed


def test_dvv_genus_two(table):
    rec = check_dvv(table, 2, (4,))
    assert rec.passed
    assert rec.lhs == "105/128"  # 9!! / 1152


def reference_dvv(table, g, k):
    """(lhs, rhs) of the DVV relation with every split summed over all
    g_1 in 0..g, through plain psi_correlator.  Subsets of the rest come as
    sub-multisets, c_v of each distinct value v, standing for
    prod_v C(count_v, c_v) subsets."""
    k1, rest = k[0], k[1:]
    lhs = double_factorial(2 * k1 + 1) * psi_correlator(table, g, k)
    counts = Counter(rest)
    splits = [
        (
            tuple(v for v, c in zip(counts, cs) for _ in range(c)),
            tuple(v for v, c in zip(counts, cs) for _ in range(counts[v] - c)),
            math.prod(math.comb(counts[v], c) for v, c in zip(counts, cs)),
        )
        for cs in product(*(range(c + 1) for c in counts.values()))
    ]
    rhs = Fraction(0)
    for pos, kj in enumerate(rest):
        if k1 + kj:
            others = rest[:pos] + rest[pos + 1 :]
            rhs += Fraction(
                double_factorial(2 * (k1 + kj) - 1), double_factorial(2 * kj - 1)
            ) * psi_correlator(table, g, (k1 + kj - 1,) + others)
    for i in range(k1 - 1):
        j = k1 - 2 - i
        w = Fraction(double_factorial(2 * i + 1) * double_factorial(2 * j + 1), 2)
        if g >= 1:
            rhs += w * psi_correlator(table, g - 1, (i, j) + rest)
        for g1 in range(g + 1):
            for left, right, ways in splits:
                rhs += (
                    w
                    * ways
                    * psi_correlator(table, g1, (i,) + left)
                    * psi_correlator(table, g - g1, (j,) + right)
                )
    return lhs, rhs


def double_factorial(m):
    return math.prod(range(m, 0, -2))


def test_dvv_records_match_the_full_genus_sum():
    # the suite sums one g_1 per split and memoizes correlators; the
    # reference sums every g_1
    t = VolumeTable()
    t.ensure(8)
    records = run_relation_suite(t, "dvv", 8)
    assert len(records) == 480
    for rec in records:
        lhs, rhs = reference_dvv(t, rec.g, rec.alpha)
        assert (rec.lhs_value, rec.rhs_value) == (lhs, rhs), (rec.g, rec.alpha)
        assert rec.passed
        assert check_dvv(t, rec.g, rec.alpha) == rec


# ----------------------------------------------------------------------
# boundary removal


def test_do_string_three_boundaries(table):
    # V_{0,4}(2 pi i, L) = (L_1^2 + L_2^2 + L_3^2) / 2, which is
    # sum_k int L_k V_{0,3} dL_k; each side is held on its sorted keys
    rec = check_do_string(table, 0, 3)
    assert rec.passed
    assert rec.lhs_value == rec.rhs_value == LPoly(3, 1, {(1, 0, 0): Fraction(1, 2)})
    assert rec.lhs == rec.rhs == "L^[0, 0, 1]: 1/2; L^[0, 1, 0]: 1/2; L^[1, 0, 0]: 1/2"


def test_do_string_kills_torus_volume(table):
    # V_{1,1}(2 pi i) = 0: the string equation with no length left
    rec = check_do_string(table, 1, 0)
    assert rec.passed and not rec.lhs_value and rec.lhs == "0"


def test_do_dilaton_three_boundaries(table):
    # dV_{0,4}/dL_1 = L_1 * 1, and 2g - 2 + n = 1
    rec = check_do_dilaton(table, 0, 3)
    assert rec.passed and rec.lhs == rec.rhs == "L^[0, 0, 0]: 1"


def test_do_equations_at_torus(table):
    # int L V_{1,1} dL with the halved V_{1,1} = pi^2/12 + L^2/48
    rec = check_do_string(table, 1, 1)
    assert rec.passed and rec.rhs == "L^[1]: 1/24*pi^2; L^[2]: 1/192"
    rec = check_do_dilaton(table, 1, 1)
    assert rec.passed and rec.rhs == "L^[0]: 1/12*pi^2; L^[1]: 1/48"


def perturbed_table(sig, orbit, eps=Fraction(1, 10**9)):
    """A dimension-3 table, loaded from its own entries after adding eps to
    the coefficient of V_{sig} at every ordering of ``orbit``: still
    label-symmetric and well-formed, but wrong."""
    t = VolumeTable()
    t.ensure(3)
    entries = t.to_entries()
    key = "{},{}".format(*sig)
    for rec in entries[key]:
        if sorted(rec["alpha"]) == sorted(orbit):
            rec["coeff"] = str(Fraction(rec["coeff"]) + eps)
    return VolumeTable.from_entries(entries)


def test_perturbed_coefficients_pass_validation_but_fail_do_equations():
    clean = perturbed_table((0, 6), (1, 1, 0, 0, 0, 0), eps=0)
    assert check_do_string(clean, 0, 5).passed
    assert check_do_dilaton(clean, 0, 5).passed
    # V_{0,6} is the volume whose boundary both Do equations remove
    wrong = perturbed_table((0, 6), (1, 1, 0, 0, 0, 0))
    assert not check_do_string(wrong, 0, 5).passed
    assert not check_do_dilaton(wrong, 0, 5).passed


def test_perturbed_lower_volume_fails_do_string():
    # V_{0,5} is integrated on the right of do-string at (0, 5)
    wrong = perturbed_table((0, 5), (1, 1, 0, 0, 0))
    rec = check_do_string(wrong, 0, 5)
    assert not rec.passed and rec.lhs != rec.rhs
    assert not all(r.passed for r in run_relation_suite(wrong, "do-string", 3))


def test_compact_genus_two(table):
    assert compact_volume(table, 2) == PiPoly.monomial(3, Fraction(43, 2160))


def test_compact_genus_three(table):
    assert compact_volume(table, 3) == PiPoly.monomial(6, Fraction(176557, 1209600))


def test_compact_genus_seven_and_eight():
    # recorded from the recursion that summed every input product as a
    # Fraction; both genera run the integer accumulation past the genus
    # the acceptance suite and the benchmark reach
    t = VolumeTable()
    assert compact_volume(t, 7).as_str() == (
        "57836500609415964441264863965730519/14128121232007335641088000000*pi^36"
    )
    assert compact_volume(t, 8).as_str() == (
        "1368123622965616841128459067826888556813/1421122782748973173309440000000*pi^42"
    )


def test_compact_genus_nine_and_ten():
    # recorded from the table that stored every expanded term
    t = VolumeTable()
    assert compact_volume(t, 9).as_str() == (
        "18023847789626070555169453784661940895203207456841/"
        "58595524689402363572010772070400000000*pi^48"
    )
    assert compact_volume(t, 10).as_str() == (
        "520811852699359762235894950288481163939560114229291813433061/"
        "4062091095426925249868785625755287552000000000*pi^54"
    )


def test_compact_needs_genus_two(table):
    with pytest.raises(ValueError):
        compact_volume(table, 1)


# ----------------------------------------------------------------------
# suites and diagnostics


def test_suites_pass_at_dimension_three():
    t = VolumeTable()
    t.ensure(3)
    for relation in ("string", "dilaton", "dvv", "do-string", "do-dilaton"):
        records = run_relation_suite(t, relation, 3)
        assert records, relation
        assert all(r.passed for r in records), relation


def test_correlators_positive_in_range(table):
    for g, n in iter_signatures(4):
        d = moduli_dim(g, n)
        from wpvol.intersect import _sorted_compositions

        for alpha in _sorted_compositions(d, n):
            assert psi_correlator(table, g, alpha) > 0


def test_zograf_ratio_reads_one_coefficient(table, monkeypatch):
    # V_{g,n}(0) read off the expanded true volume, doubled at (1, 1)
    at_zero = {
        (g, n): table.true_volume(g, n).pi_coefficient((0,) * n).to_float()
        for g, n in [(1, 1), (1, 3), (2, 2)]
    }

    def no_expansion(*args):
        raise AssertionError("zograf_ratio expanded a volume")

    monkeypatch.setattr(VolumeTable, "volume", no_expansion)
    monkeypatch.setattr(VolumeTable, "true_volume", no_expansion)
    for (g, n), value in at_zero.items():
        m = 2 * g + n - 3
        predicted = (4 * math.pi**2) ** m * math.factorial(m) / math.sqrt(g * math.pi)
        assert zograf_ratio(table, g, n) == value / predicted


def test_zograf_ratio_finite_positive(table):
    r = zograf_ratio(table, 2, 1)
    assert r > 0
    prev = None
    for g in (1, 2):
        val = zograf_ratio(table, g, 1)
        assert val > 0
        if prev is not None:
            assert val != prev
        prev = val


def test_check_record_serialization(table):
    rec = check_dvv(table, 2, (4,))
    payload = rec.to_json()
    assert payload["relation"] == "dvv"
    assert payload["pass"] is True
    assert payload["alpha"] == [4]
    assert payload["lhs"] == payload["rhs"]
