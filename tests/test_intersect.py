import math
import re
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from helpers import genus0_correlator, numerators

from wpvol import recursion
from wpvol.exact import PiPoly
from wpvol.lpoly import LPoly
from wpvol.intersect import (
    RELATIONS,
    check_dilaton,
    check_do_dilaton,
    check_do_string,
    check_dvv,
    check_string,
    check_two_point,
    compact_volume,
    intersection_number,
    psi_correlator,
    run_relation_suite,
    zograf_ratio,
)
from wpvol.recursion import (
    VolumeTable,
    _sorted_keys,
    iter_signatures,
    moduli_dim,
    validate_volume,
)


@pytest.fixture(scope="module")
def table():
    t = VolumeTable()
    t.ensure(4)
    return t


# ----------------------------------------------------------------------
# coefficient extraction


def test_torus_coefficient(table):
    got = table.true_volume(1, 1).pi_coefficient((1,))
    assert got == PiPoly.monomial(0, Fraction(1, 24))


def test_four_boundary_constant(table):
    got = table.true_volume(0, 4).pi_coefficient((0, 0, 0, 0))
    assert got == PiPoly.monomial(1, 2)


def test_genus_two_top_coefficient(table):
    got = table.true_volume(2, 1).pi_coefficient((4,))
    assert got == PiPoly.monomial(0, Fraction(1, 442368))


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


def dijkgraaf_two_point(g, c):
    """[<tau_k tau_(3g-1-k)>_g for k = 0 .. 3g-1] from Dijkgraaf's closed
    form (hep-th/9201003), with c = 1/24: the degree-3g part of
    exp(c (x^3+y^3)) sum_n n!/(2n+1)! (xy(x+y)/2)^n, divided exactly by
    x + y.  A form of degree D is its coefficients of x^k y^(D-k)."""
    part = [Fraction(0)] * (3 * g + 1)
    for a in range(g + 1):
        n = g - a
        w = c**a / math.factorial(a) * Fraction(math.factorial(n), math.factorial(2 * n + 1) * 2**n)
        # (x^3 + y^3)^a times (xy(x+y))^n
        for i, j in product(range(a + 1), range(n + 1)):
            part[3 * i + n + j] += w * math.comb(a, i) * math.comb(n, j)
    quotient = [part[0]]
    for k in range(1, 3 * g):
        quotient.append(part[k] - quotient[-1])
    assert quotient[-1] == part[3 * g]  # x + y divides x^3 + y^3 and xy(x+y)
    return quotient


@pytest.mark.parametrize("c, agree", [(Fraction(1, 24), True), (Fraction(1, 23), False)])
def test_two_point_function_closed_form_to_genus_eight(c, agree):
    # 108 correlators against a generating function that reads neither the
    # recursion nor DVV; with 1/23 in place of 1/24 every one of them differs
    t = VolumeTable()
    for g in range(1, 9):
        for k, value in enumerate(dijkgraaf_two_point(g, c)):
            assert (psi_correlator(t, g, (k, 3 * g - 1 - k)) == value) is agree, (g, k)


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
    # sum_k int L_k V_{0,3} dL_k; each side is held and written on its
    # sorted keys
    rec = check_do_string(table, 0, 3)
    assert rec.passed
    assert rec.lhs_value == rec.rhs_value == LPoly(3, 1, {(1, 0, 0): Fraction(1, 2)})
    assert rec.lhs == rec.rhs == "L^[1, 0, 0]: 1/2"


def test_do_string_kills_torus_volume(table):
    # V_{1,1}(2 pi i) = 0: the string equation with no length left
    rec = check_do_string(table, 1, 0)
    assert rec.passed and not rec.lhs_value and rec.lhs == "0"


def test_do_dilaton_three_boundaries(table):
    # dV_{0,4}/dL_1 = L_1 * 1, and 2g - 2 + n = 1
    rec = check_do_dilaton(table, 0, 3)
    assert rec.passed and rec.lhs == rec.rhs == "L^[0, 0, 0]: 1"


@pytest.mark.parametrize("g", range(4))
def test_do_dilaton_has_no_closed_instance(g):
    # at n = 0 the equation defines V_{g,0} (compact_volume): nothing to check
    t = VolumeTable()
    with pytest.raises(ValueError, match=rf"^do-dilaton does not apply at \(g, n\) = \({g},0\)$"):
        check_do_dilaton(t, g, 0)
    assert t.signatures() == []


@pytest.mark.parametrize(
    "check, g, n", [(check_do_dilaton, 0, 2), (check_do_string, 1, -1), (check_do_dilaton, 2, -1)]
)
def test_do_right_sides_raise_at_unstable_signatures(table, check, g, n):
    # the right sides read V_{g,n}'s stored denominator, which the unstable
    # signatures lack; the domain is checked first and names the call
    name = check.__name__[len("check_"):].replace("_", "-")
    with pytest.raises(ValueError, match=rf"^{name} does not apply at \(g, n\) = \({g},{n}\)$"):
        check(table, g, n)


def test_do_equations_at_torus(table):
    # int L V_{1,1} dL with the halved V_{1,1} = pi^2/12 + L^2/48
    rec = check_do_string(table, 1, 1)
    assert rec.passed and rec.rhs == "L^[1]: 1/24*pi^2; L^[2]: 1/192"
    rec = check_do_dilaton(table, 1, 1)
    assert rec.passed and rec.rhs == "L^[0]: 1/12*pi^2; L^[1]: 1/48"


def perturbed_table(sig, orbit, eps=Fraction(1, 10**9)):
    """A dimension-3 table whose entries pass the check in ``_store``, after
    adding eps to the coefficient of V_{sig} at every ordering of ``orbit``:
    still label-symmetric and positive, but wrong."""
    t = VolumeTable()
    t.ensure(3)
    wrong = VolumeTable()
    for g, n in t.signatures():
        terms = dict(t._stored(g, n).items())
        if (g, n) == sig:
            terms = {a: q + eps * (sorted(a) == sorted(orbit)) for a, q in terms.items()}
        wrong._store(g, n, *numerators(LPoly(n, moduli_dim(g, n), terms)))
    return wrong


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


def test_perturbed_two_point_correlator_fails_two_point():
    # <tau_1 tau_1>_1 is the top-degree coefficient of V_{1,2} at (1, 1)
    clean = perturbed_table((1, 2), (1, 1), eps=0)
    assert all(r.passed for r in run_relation_suite(clean, "two-point", 3))
    wrong = perturbed_table((1, 2), (1, 1))
    records = run_relation_suite(wrong, "two-point", 3)
    assert [(r.g, r.n, r.alpha, r.passed) for r in records] == [
        (1, 2, (2, 0), True),
        (1, 2, (1, 1), False),
    ]
    assert records[1].rhs_value == Fraction(1, 24) != records[1].lhs_value


def kill_mutants():
    # name -> a function that installs the mutant with a monkeypatch: each
    # r_i doubled, and each coefficient of V_{1,1} = 1/12 pi^2 + L^2/48 off by one
    moment_constant = recursion.moment_constant

    def doubled(i):
        def mutant(j):
            return moment_constant(j) * (2 if j == i else 1)

        return lambda m: m.setattr(recursion, "moment_constant", mutant)

    def torus(terms):
        return lambda m: m.setitem(recursion.BASE, (1, 1), numerators(LPoly(1, 1, terms)))

    mutants = {f"r_{i} x2": doubled(i) for i in range(9)}
    mutants["V_11 1/12 -> 1/11"] = torus({(0,): Fraction(1, 11), (1,): Fraction(1, 48)})
    mutants["V_11 1/48 -> 1/47"] = torus({(0,): Fraction(1, 12), (1,): Fraction(1, 47)})
    return mutants


def kill_row(max_dim):
    # the text of the check in _store that stops the build, or (failures,
    # instances) of every registered relation
    t = VolumeTable()
    try:
        t.ensure(max_dim)
    except recursion.InvariantViolation as e:
        return str(e)
    row = {}
    for relation in RELATIONS:
        records = run_relation_suite(t, relation, max_dim)
        row[relation] = (sum(not r.passed for r in records), len(records))
    return row


def test_do_suites_see_a_doubled_moment_constant_the_top_degree_suites_miss(monkeypatch):
    # the kill matrix at dimension 8.  With r_2 doubled every build passes
    # its check, and string, dilaton, DVV and the two-point function still
    # hold, as the top degree reads only r_0; the Do equations, which read
    # every coefficient, fail at most instances.  Doubling r_0 or r_1, or
    # moving a coefficient of V_{1,1}, breaks label symmetry at build
    matrix = {}
    for name, install in kill_mutants().items():
        with monkeypatch.context() as m:
            install(m)
            matrix[name] = kill_row(8)
    assert matrix["r_2 x2"] == {
        "string": (0, 153),
        "dilaton": (0, 112),
        "dvv": (0, 480),
        "do-string": (19, 20),
        "do-dilaton": (17, 20),
        "two-point": (0, 10),
    }

    def top_degree_blind(do_string, do_dilaton):
        return {
            "string": (0, 153),
            "dilaton": (0, 112),
            "dvv": (0, 480),
            "do-string": (do_string, 20),
            "do-dilaton": (do_dilaton, 20),
            "two-point": (0, 10),
        }

    do_failures = [(19, 17), (17, 15), (15, 13), (13, 10), (10, 7), (7, 4), (4, 0)]
    assert matrix == {
        "r_0 x2": "V_{0,5} is not label-symmetric",
        "r_1 x2": "V_{1,2} is not label-symmetric",
        **{f"r_{i} x2": top_degree_blind(*do) for i, do in enumerate(do_failures, 2)},
        "V_11 1/12 -> 1/11": "V_{1,2} is not label-symmetric",
        "V_11 1/48 -> 1/47": "V_{1,2} is not label-symmetric",
    }
    # every mutant is killed: at build, or by some relation's failure
    assert all(
        isinstance(row, str) or any(failed for failed, _ in row.values())
        for row in matrix.values()
    )


def test_perturbed_correlator_fails_dvv_but_passes_validation():
    # <tau_1^2 tau_0^3>_0 is read off V_{0,5} at the orbit of (1, 1, 0, 0, 0),
    # on the left of two DVV instances at dimension 2
    clean = perturbed_table((0, 5), (1, 1, 0, 0, 0), eps=0)
    assert all(r.passed for r in run_relation_suite(clean, "dvv", 2))
    wrong = perturbed_table((0, 5), (1, 1, 0, 0, 0))
    validate_volume(0, 5, numerators(wrong._stored(0, 5))[1])
    failed = [r for r in run_relation_suite(wrong, "dvv", 2) if not r.passed]
    assert [r.alpha for r in failed] == [(0, 1, 1, 0, 0), (1, 1, 0, 0, 0)]


def test_dvv_right_side_sums_perturbed_products_exactly():
    # with <tau_0^3>_0 = 1 + eps, the right side at (0; 2, 0, 0, 0, 0) is the
    # merging term 4 * 3!! <tau_1 tau_0^3>_0 = 12 plus the split products
    # 1/2 * C(4, 2) <tau_0^3>_0^2, each summed over its own denominator
    eps = Fraction(1, 10**9)
    rec = check_dvv(perturbed_table((0, 3), (0, 0, 0), eps), 0, (2, 0, 0, 0, 0))
    assert rec.lhs_value == 15
    assert rec.rhs_value == 12 + 3 * (1 + eps) ** 2


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


def test_closed_surface_intersection_numbers(table):
    # <kappa_1^(3g-3)>_g = (3g-3)! V_{g,0} / (2 pi^2)^(3g-3)
    assert intersection_number(table, 2, ()).kappa == Fraction(43, 2880)
    assert intersection_number(table, 3, ()).kappa == Fraction(176557, 107520)
    t = VolumeTable()
    for g in range(2, 9):
        value = intersection_number(t, g, ())
        m = moduli_dim(g, 0)
        assert value.m == m
        assert value.omega == compact_volume(t, g) * math.factorial(m)
        volume = PiPoly.monomial(m, value.kappa * 2**m / math.factorial(m))
        assert volume == compact_volume(t, g)
    for g in (-1, 0, 1):
        with pytest.raises(ValueError, match=rf"^\({g},0\) is not a stable signature$"):
            intersection_number(table, g, ())
    # an unstable signature with a point still reads zero by degree
    assert intersection_number(table, 0, (1,)).kappa == 0


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


def test_loaded_table_holds_and_checks_as_the_computed_one(tmp_path):
    # a loaded table kept its entries as LPolys in a dict of their own, so
    # its _entries stayed empty until a term read them
    t = VolumeTable()
    t.ensure(7)
    loaded = reloaded(t, tmp_path)
    assert loaded._entries == t._entries
    for relation in RELATIONS:
        records = run_relation_suite(loaded, relation, 7)
        assert records == run_relation_suite(t, relation, 7), relation
        assert records and all(r.passed for r in records), relation


def reloaded(t, tmp_path):
    # t through its table file
    from wpvol.cli import load_cache, save_cache

    path = str(tmp_path / "table.json")
    save_cache(t, path)
    return load_cache(path)


def test_memoized_pairs_cannot_show_in_any_output(tmp_path):
    # every top-degree reader and intersection_number share one memo per
    # table: neither off-range queries nor the order of the suites may show
    d = 6
    fresh = {}
    for relation in RELATIONS:
        t = VolumeTable()
        fresh[relation] = run_relation_suite(t, relation, d)
    computed = VolumeTable()
    computed.ensure(d)
    loaded = reloaded(computed, tmp_path)
    for t in (computed, loaded):
        assert psi_correlator(t, 2, (99,)) == 0  # off degree
        assert psi_correlator(t, 0, (0, 0)) == 0  # unstable
        assert psi_correlator(t, 1, (3, -1)) == 0  # negative, on degree
        assert intersection_number(t, 1, (5,)).kappa == 0  # past the dimension
        assert intersection_number(t, 1, (3, -1)).kappa == 0
        assert t._pairs == {}
        for order in (RELATIONS, RELATIONS[::-1]):
            for relation in order:
                assert run_relation_suite(t, relation, d) == fresh[relation], relation
        assert t._pairs
        # the number is the coefficient times 2^|alpha| alpha! m!, over
        # (2 pi^2)^m for kappa_1, at every key below the top degree too
        for g, n in iter_signatures(d):
            v = t.volume(g, n)
            for alpha in _sorted_keys(n, moduli_dim(g, n)):
                value = intersection_number(t, g, alpha)
                scale = 2 ** sum(alpha) * math.prod(map(math.factorial, alpha))
                q = v.coefficient(alpha) * scale * math.factorial(value.m)
                assert value.kappa == q / 2**value.m, (g, alpha)


def test_intersect_reads_the_table_through_two_readers_alone():
    # only recursion.py knows the stored rows: intersect reads a table
    # through intersection_pair and at_two_pi_i, never through _free1_view
    import ast

    import wpvol.intersect

    with open(wpvol.intersect.__file__, encoding="utf-8") as fh:
        source = fh.read()
    nodes = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute)]
    read = {n.attr for n in nodes if isinstance(n.value, ast.Name) and n.value.id == "table"}
    assert read == {"intersection_pair", "at_two_pi_i"}
    assert not [n.attr for n in nodes if n.attr.startswith("_")]
    assert "_free1_view" not in source


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


@pytest.mark.parametrize(
    "check, g, arg, message",
    [
        (check_string, 0, (0, 0), "string does not apply at (g, n) = (0,2)"),
        (check_dilaton, 1, (), "dilaton does not apply at (g, n) = (1,0)"),
        (check_dvv, 1, (), "dvv does not apply at (g, n) = (1,0)"),
        (check_dvv, 0, (0, 0, 0), "dvv does not apply at (g, n) = (0,3)"),
        (check_dvv, 1, (1,), "dvv does not apply at (g, n) = (1,1)"),
        (check_do_string, 0, 2, "do-string does not apply at (g, n) = (0,2)"),
        (check_two_point, 0, (1, 0), "two-point does not apply at (g, n) = (0,2)"),
        (zograf_ratio, 0, 4, "zograf does not apply at (g, n) = (0,4)"),
        (zograf_ratio, 2, -1, "zograf does not apply at (g, n) = (2,-1)"),
    ],
)
def test_relations_raise_outside_their_domain(check, g, arg, message):
    # each instance returned a failing record, or raised IndexError,
    # ZeroDivisionError or the table's error, though the relation does not
    # hold there; each raises before it reads the table
    t = VolumeTable()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check(t, g, arg)
    assert not t.signatures()


def test_unknown_relation_raises_before_reading_the_table():
    t = VolumeTable()
    with pytest.raises(ValueError, match="^unknown relation 'nope'$"):
        run_relation_suite(t, "nope", 4)
    assert not t.signatures()


def test_relations_keep_their_verdicts_next_to_their_domain(table):
    assert check_string(table, 0, (0, 0, 0)).passed  # both sides vanish
    assert check_string(table, 1, (1,)).passed
    assert check_dilaton(table, 1, (1,)).passed
    assert check_dilaton(table, 0, (0, 0)).passed
    assert check_dvv(table, 0, (0, 0)).passed  # unstable: both sides vanish
    assert check_dvv(table, 0, (1, 0, 0, 0)).passed
    assert check_do_string(table, 1, 0).passed
    assert check_two_point(table, 1, (3, -1)).passed  # on degree, negative: both vanish
    assert zograf_ratio(table, 1, 4) > 0


@pytest.mark.parametrize(
    "check, raises",
    [
        (check_string, 1),
        (check_dilaton, 1),
        (check_dvv, 7),
        (check_do_string, 12),
        (check_do_dilaton, 15),
        (check_two_point, 17),
    ],
)
def test_every_check_names_the_signature_it_was_called_at(check, raises):
    # a check returns a record, or raises naming the (g, n) it was given
    # before it reads the table; the Do checks take n, the others an
    # exponent tuple of length n, on degree where one exists
    raised = 0
    for g, n in product(range(-1, 4), repeat=2):
        if check in (check_do_string, check_do_dilaton):
            arg = n
        elif n >= 0:
            arg = (max(moduli_dim(g, n), 0),) + (0,) * (n - 1) if n else ()
        else:
            continue
        t = VolumeTable()
        try:
            record = check(t, g, arg)
        except ValueError as exc:
            assert f"({g},{n})" in str(exc), (g, n, str(exc))
            assert t.signatures() == [], (g, n)
            raised += 1
        else:
            assert (record.g, record.n) == (g, n)
    assert raised == raises


def test_check_record_serialization(table):
    rec = check_dvv(table, 2, (4,))
    payload = rec.to_json()
    assert payload["relation"] == "dvv"
    assert payload["pass"] is True
    assert payload["alpha"] == [4]
    assert payload["lhs"] == payload["rhs"]
