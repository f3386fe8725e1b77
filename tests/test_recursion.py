import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, prod

import pytest
from helpers import numerators

from wpvol import recursion
from wpvol.exact import PiPoly
from wpvol.intersect import compact_volume
from wpvol.kernels import h_double_moment, h_moment, moment_constant
from wpvol.lpoly import LPoly
from wpvol.recursion import (
    BASE,
    InvariantViolation,
    VolumeTable,
    _sorted_keys,
    a_con_term,
    a_dcon_term,
    b_term,
    is_stable,
    iter_signatures,
    moduli_dim,
    stable_splittings,
    validate_volume,
)


@pytest.fixture(scope="module")
def table():
    t = VolumeTable()
    t.ensure(4)
    return t


def pi_view(p):
    """The terms of p as alpha -> PiPoly, with the pi power written out."""
    return {alpha: p.pi_coefficient(alpha) for alpha, _ in p.items()}


def term_poly(term, g, n, table):
    """A recursion term's integer sums (den, {key: x}) at (g, n) as the
    LPoly of its L_1-derivative coefficients, with the weight 3g-3+n of
    V_{g,n}: x / den is normalized by (2a_1)! prod_rest (2 beta+1)!."""
    den, sums = term(g, n, table)
    terms = {}
    for key, x in sums.items():
        rest = prod(factorial(2 * b + 1) for b in key[1:])
        terms[key] = Fraction(x, den * factorial(2 * key[0]) * rest)
    return LPoly(n, moduli_dim(g, n), terms)


# ----------------------------------------------------------------------
# signatures and splittings


def test_stability():
    assert is_stable(0, 3) and is_stable(1, 1) and is_stable(2, 0)
    assert not is_stable(0, 2) and not is_stable(0, 1) and not is_stable(0, 0)
    # 2g-2+n > 0 alone would admit these
    assert not is_stable(-1, 5) and not is_stable(-2, 7) and not is_stable(3, -1)


def test_no_stable_splittings_for_genus_zero_four_boundaries():
    assert stable_splittings(0, 4) == ()


def test_symmetric_splitting_listed_once():
    assert stable_splittings(2, 1) == (((1, 0), (1, 0)),)
    got = stable_splittings(2, 3)
    assert got.count(((1, 1), (1, 1))) == 1
    assert len(got) == len(set(got))


def test_splittings_exclude_disks_and_annuli():
    # every admissible piece must satisfy 2g - 2 + (k + 1) > 0
    assert stable_splittings(1, 2) == ()
    assert stable_splittings(1, 3) == (((0, 2), (1, 0)), ((1, 0), (0, 2)))


def test_splittings_partition_labels():
    got = stable_splittings(3, 4)
    # g1 = 1, 2 take any 0..3 labels; g1 = 0 needs at least 2, g1 = 3 at most 1
    assert len(got) == 12
    for (g1, k1), (g2, k2) in got:
        assert g1 + g2 == 3
        assert k1 + k2 == 3
        assert is_stable(g1, k1 + 1) and is_stable(g2, k2 + 1)


# ----------------------------------------------------------------------
# base cases


def test_base_volume_sphere():
    assert VolumeTable().volume(0, 3) == LPoly(3, 0, {(0, 0, 0): Fraction(1)})


def test_base_volume_torus_is_halved():
    want = LPoly(1, 1, {(0,): Fraction(1, 12), (1,): Fraction(1, 48)})
    assert VolumeTable().volume(1, 1) == want


# ----------------------------------------------------------------------
# individual recursion terms


def test_a_con_absent_below_stability(table):
    assert not term_poly(a_con_term, 1, 1, table)


def test_a_con_for_genus_one_two_boundaries(table):
    # V_{0,3} = 1 feeds the double moment: (1/2) G_{0,0}(L_1) = F_3(L_1)/12
    got = term_poly(a_con_term, 1, 2, table)
    want = LPoly(2, 2, {(m, 0): q / 12 for (m,), q in h_moment(1).items()})
    assert got == want


def test_a_dcon_empty_for_genus_zero_four(table):
    assert not term_poly(a_dcon_term, 0, 4, table)


def test_b_term_empty_for_one_boundary(table):
    assert not term_poly(b_term, 2, 1, table)


def test_b_term_four_boundaries(table):
    # only the keys (a_1, a_2 >= a_3 >= a_4): L_2^2 stands for L_3^2 and L_4^2
    got = term_poly(b_term, 0, 4, table)
    want_terms = {
        (0, 0, 0, 0): 2,
        (1, 0, 0, 0): Fraction(3, 2),
        (0, 1, 0, 0): Fraction(1, 2),
    }
    assert got == LPoly(4, 1, want_terms)


# ----------------------------------------------------------------------
# assembled volumes


def test_volume_four_boundaries(table):
    want = LPoly(
        4,
        1,
        {
            (0, 0, 0, 0): 2,
            (1, 0, 0, 0): Fraction(1, 2),
            (0, 1, 0, 0): Fraction(1, 2),
            (0, 0, 1, 0): Fraction(1, 2),
            (0, 0, 0, 1): Fraction(1, 2),
        },
    )
    assert table.volume(0, 4) == want
    assert table.true_volume(0, 4) == want


def test_true_volume_doubles_only_torus(table):
    assert table.true_volume(1, 1) == table.volume(1, 1).scale(2)
    assert table.true_volume(1, 2) == table.volume(1, 2)


def test_genus_one_two_boundaries_factored_form(table):
    # (4 pi^2 + L1^2 + L2^2)(12 pi^2 + L1^2 + L2^2) / 192, with
    # s = L1^2 + L2^2 expanded: s^2 + 16 pi^2 s + 48 pi^4
    terms = {(2, 0): 1, (1, 1): 2, (0, 2): 1, (1, 0): 16, (0, 1): 16, (0, 0): 48}
    want = LPoly(2, 2, terms).scale(Fraction(1, 192))
    assert table.true_volume(1, 2) == want


def test_genus_two_one_boundary_golden(table):
    # (L^2 + 4 pi^2)(L^2 + 12 pi^2)(5 L^4 + 384 pi^2 L^2 + 6960 pi^4) / 2211840
    terms = {(4,): 5, (3,): 464, (2,): 13344, (1,): 129792, (0,): 334080}
    golden = LPoly(1, 4, terms).scale(Fraction(1, 2211840))
    assert table.true_volume(2, 1) == golden


def test_unstable_signature_rejected(table):
    with pytest.raises(ValueError):
        table.volume(0, 2)
    with pytest.raises(ValueError):
        table.volume(2, 0)


# ----------------------------------------------------------------------
# structural invariants


def test_invariants_hold_up_to_dimension_four(table):
    for g, n in iter_signatures(4):
        validate_volume(g, n, numerators(table._stored(g, n))[1])


def test_homogeneity_details(table):
    v = table.volume(1, 3)
    d = moduli_dim(1, 3)
    assert v.weight == d
    for alpha, c in pi_view(v).items():
        [(k, q)] = c.items()
        assert k == d - sum(alpha)
        assert q > 0


def test_validator_rejects_broken_symmetry(table):
    # every orbit key present and positive, but one label weighted
    # differently: L_1, caught at its orbit key, then L_3 against an
    # unchanged L_2, caught as a term off the orbit keys
    for key, words in [
        ((1, 0, 0, 0), "not label-symmetric"),
        ((0, 0, 1, 0), r"has a term at \(0, 0, 1, 0\), which is not a key"),
    ]:
        terms = dict(table._stored(0, 4).items())
        terms[key] = Fraction(1)
        with pytest.raises(InvariantViolation, match=words):
            validate_volume(0, 4, numerators(LPoly(4, 1, terms))[1])


def test_validator_rejects_missing_terms(table):
    # V_{0,4} without its 2 pi^2 term still passes the symmetry test
    terms = dict(table._stored(0, 4).items())
    del terms[(0, 0, 0, 0)]
    bad = numerators(LPoly(4, 1, terms))[1]
    with pytest.raises(InvariantViolation, match=r"has no term at \(0, 0, 0, 0\)"):
        validate_volume(0, 4, bad)
    with pytest.raises(InvariantViolation, match=r"has no term at \(0, 0, 0, 0\)"):
        validate_volume(0, 4, {})
    # and without the L_2^2 term, whose key no other key reads
    del terms[(0, 1, 0, 0)]
    terms[(0, 0, 0, 0)] = Fraction(2)
    with pytest.raises(InvariantViolation, match=r"has no term at \(0, 1, 0, 0\)"):
        validate_volume(0, 4, numerators(LPoly(4, 1, terms))[1])


def test_validator_rejects_wrong_arity():
    with pytest.raises(InvariantViolation):
        validate_volume(0, 4, {(0, 0, 0): 1})


def test_validator_rejects_negative_coefficient():
    with pytest.raises(InvariantViolation, match="not positive"):
        validate_volume(0, 3, {(0, 0, 0): -1})


def test_validator_rejects_key_beyond_the_weight(table):
    # V_{0,4} on its orbit keys, plus L_1^4 where a weight-1 volume has none
    terms = dict(table._stored(0, 4).items())
    terms[(2, 0, 0, 0)] = Fraction(1)
    with pytest.raises(InvariantViolation, match=r"\(2, 0, 0, 0\), .* with \|alpha\| <= 1"):
        validate_volume(0, 4, numerators(LPoly(4, 1, terms))[1])


@pytest.mark.parametrize(
    "key",
    [
        (2, 0, 0, 0),  # beyond the weight
        (0, 0, 0, 1),  # increasing rest: not an orbit key
        (0, 0, 0),  # wrong length
    ],
)
def test_validator_rejects_a_key_the_terms_never_produce(table, key):
    # V_{0,4} as the terms produce it, on its keys (a_1, a_2 >= a_3 >= a_4),
    # plus one key that is not among them
    terms = {
        a: q
        for a, q in table.volume(0, 4).items()
        if list(a[1:]) == sorted(a[1:], reverse=True)
    }
    assert terms == dict(table._stored(0, 4).items())
    terms[key] = Fraction(1)
    with pytest.raises(InvariantViolation, match=f"has a term at {re.escape(str(key))}, "):
        validate_volume(0, 4, numerators(LPoly(4, 1, terms))[1])


def test_validator_returns_the_stored_form(table):
    # the stored entry's numerators walk back into its rows, the rests in
    # lexicographic order
    _, rows = table._free1_view(1, 3)
    nums = {(a,) + rest: x for rest, row in rows.items() for a, x in enumerate(row)}
    walked = validate_volume(1, 3, nums)
    assert walked == rows and list(walked) == sorted(walked)
    stored = table._stored(1, 3)
    assert all(list(a[1:]) == sorted(a[1:], reverse=True) for a, _ in stored.items())
    # the expanded volume holds terms off the orbit keys, which it names
    with pytest.raises(InvariantViolation, match=r"has a term at \(0, 0, 1\), which is not"):
        validate_volume(1, 3, numerators(table.volume(1, 3))[1])


def test_sorted_keys_in_lexicographic_order():
    assert list(_sorted_keys(3, 2)) == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0)]
    assert list(_sorted_keys(0, 3)) == [()]
    for k in range(5):
        for d in range(5):
            want = [
                key
                for key in product(range(d + 1), repeat=k)
                if sum(key) <= d and list(key) == sorted(key, reverse=True)
            ]
            assert list(_sorted_keys(k, d)) == want


def test_table_stores_one_key_per_orbit():
    t = VolumeTable()
    t.ensure(6)
    stored = [t._stored(*sig) for sig in t.signatures()]
    assert sum(len(p) for p in stored) == 411
    for p in stored:
        for alpha, _ in p.items():
            assert list(alpha[1:]) == sorted(alpha[1:], reverse=True)


def test_coefficient_reads_every_alpha(table5):
    # each volume has a term at every alpha with |alpha| <= d, a set closed
    # under permutations, so this reads every alpha in every order; the
    # intersection pair is the coefficient times prod_i 2^a_i a_i!
    for g, n in iter_signatures(5):
        d = moduli_dim(g, n)
        v = table5.volume(g, n)
        assert len(v) == comb(d + n, n)
        for alpha, q in v.items():
            assert v.coefficient(sorted(alpha, reverse=True)) == q
            x, den = table5.intersection_pair(g, alpha)
            assert Fraction(x, den) == q * prod(2**a * factorial(a) for a in alpha)
        off = (d + 1,) + (0,) * (n - 1)
        assert v.coefficient(off) == 0 and table5.intersection_pair(g, off) == (0, 1)


def test_top_coefficient_matches_correlator(table):
    # leading coefficient of L_1^(2d): 2^delta <tau_d tau_0^(n-1)> / (2^d d!)
    from math import factorial

    from wpvol.intersect import psi_correlator

    for g, n in [(1, 1), (0, 4), (1, 2), (2, 1)]:
        d = moduli_dim(g, n)
        alpha = (d,) + (0,) * (n - 1)
        delta = 1 if (g, n) == (1, 1) else 0
        want = (
            psi_correlator(table, g, alpha)
            * Fraction(2**delta, 2**d * factorial(d))
        )
        got = table.true_volume(g, n).pi_coefficient(alpha)
        assert got == PiPoly.monomial(0, want)


def zograf_genus0(nmax):
    """v_n with V_{0,n}(0) = (2 pi^2)^(n-3) v_n / (n-3)!, from Zograf's
    genus-0 recursion, which reads no volume and no correlator."""
    from math import comb

    v = {3: Fraction(1)}
    for n in range(4, nmax + 1):
        v[n] = Fraction(1, 2) * sum(
            Fraction(i * (n - i - 2), n - 1) * comb(n - 4, i - 1) * comb(n, i + 1)
            * v[i + 2] * v[n - i]
            for i in range(1, n - 2)
        )
    return v


def test_genus0_constant_terms_match_zograf_recursion():
    from math import factorial

    v = zograf_genus0(12)
    assert [v[n] for n in range(4, 9)] == [1, 5, 61, 1379, 49946]
    table = VolumeTable()
    table.ensure(9)
    for n in range(4, 13):
        # at alpha = 0 the intersection pair is the coefficient itself
        at_zero = Fraction(*table.intersection_pair(0, (0,) * n))
        assert at_zero * factorial(n - 3) == v[n] * 2 ** (n - 3)


# ----------------------------------------------------------------------
# determinism and serialization


def serialized(t):
    # every entry's expanded term records, the table file's content before
    # it held only the stored keys
    return json.dumps(
        {f"{g},{n}": t.volume(g, n).to_records() for g, n in t.signatures()}, indent=2
    )


def test_depth_first_and_wave_builds_agree(table):
    on_demand = VolumeTable()
    on_demand.volume(1, 3)  # depth-first through dependencies
    on_demand.volume(0, 6)
    on_demand.volume(2, 1)
    wave = VolumeTable()
    wave.ensure(4)
    assert set(on_demand.signatures()) <= set(wave.signatures())
    for sig in on_demand.signatures():
        assert on_demand.volume(*sig) == wave.volume(*sig)


def reloaded(table, tmp_path):
    # the table through its table file
    from wpvol.cli import load_cache, save_cache

    path = str(tmp_path / "table.json")
    save_cache(table, path)
    return load_cache(path)


def test_entries_round_trip(table, tmp_path):
    from wpvol.cli import save_cache

    path = tmp_path / "again.json"
    save_cache(reloaded(table, tmp_path), str(path))
    assert path.read_bytes() == (tmp_path / "table.json").read_bytes()


@pytest.mark.parametrize("sig", [(2, 2), (1, 4)])
def test_terms_read_loaded_and_computed_tables_alike(table5, tmp_path, sig):
    # the integer views are built on first read, here in a loaded table
    loaded = reloaded(table5, tmp_path)
    fresh = VolumeTable()
    for term in (a_con_term, a_dcon_term, b_term):
        assert term(*sig, loaded) == term(*sig, fresh) == term(*sig, table5)


# ----------------------------------------------------------------------
# the one check, in _store, on every computed entry and base case


def test_store_checks_a_base_case(monkeypatch):
    negative_torus = LPoly(1, 1, {(0,): Fraction(1, 12), (1,): Fraction(-1, 48)})
    monkeypatch.setitem(recursion.BASE, (1, 1), numerators(negative_torus))
    message = r"^V_\{1,1\}: coefficient of \(1,\) is not positive$"
    with pytest.raises(InvariantViolation, match=message):
        VolumeTable().volume(1, 2)


def test_store_checks_a_computed_entry(monkeypatch):
    def perturbed_b(g, n, table):
        den, sums = b_term(g, n, table)
        if (g, n) == (0, 4):
            sums = {**sums, (0, 1, 0, 0): sums[(0, 1, 0, 0)] + 1}
        return den, sums

    monkeypatch.setattr(recursion, "b_term", perturbed_b)
    with pytest.raises(InvariantViolation, match=r"^V_\{0,4\} is not label-symmetric$"):
        VolumeTable().ensure(1)


def test_each_entry_is_checked_once(monkeypatch, tmp_path):
    check, checked = recursion.validate_volume, []

    def counted(g, n, given):
        checked.append((g, n))
        return check(g, n, given)

    monkeypatch.setattr(recursion, "validate_volume", counted)
    t = VolumeTable()
    t.ensure(5)
    assert sorted(checked) == sorted(t.signatures())
    checked.clear()
    reloaded(t, tmp_path)
    assert sorted(checked) == sorted(t.signatures())


@pytest.mark.parametrize(
    "g, alpha, message",
    [
        (0, (0,), r"^\(0,1\) is not a stable signature$"),
        (0, (0, 0), r"^\(0,2\) is not a stable signature$"),
    ],
)
def test_coefficient_raises_at_unstable_signatures(g, alpha, message):
    t = VolumeTable()
    with pytest.raises(ValueError, match=message):
        t.volume(g, len(alpha))
    # intersection_pair reads every alpha at (0, 1) and (0, 2) as off range
    for off in (alpha, (5,) + alpha[1:], (-1,) + alpha[1:]):
        assert t.intersection_pair(g, off) == (0, 1)
    assert t._pairs == {} and t.signatures() == []


# ----------------------------------------------------------------------
# differential check of the terms against a direct Q[pi^2] evaluation:
# the references multiply PiPoly coefficients, so every pi power they
# produce is computed, not implied by a weight.  They place labels one by
# one over every label set and every j, and return the full polynomial;
# the terms are compared on their keys (a_1, a_2 >= ... >= a_n)


def _add(acc, key, coeff):
    prev = acc.get(key)
    acc[key] = coeff if prev is None else prev + coeff


def reference_a_con(g, n, table):
    """A^con term by term: (1/2) c G_{a,b}(L_1), G from h_double_moment."""
    acc = {}
    if g < 1 or not is_stable(g - 1, n + 1):
        return acc
    for alpha, c in pi_view(table.volume(g - 1, n + 1)).items():
        for (kt,), cg in pi_view(h_double_moment(alpha[0], alpha[1])).items():
            _add(acc, (kt,) + alpha[2:], c * Fraction(1, 2) * cg)
    return acc


def label_splittings(g, n):
    """Ordered stable splittings ((g1, I1), (g2, I2)) with I1, I2 a
    partition of the labels {2, ..., n}, one per label mask."""
    labels = tuple(range(2, n + 1))
    out = []
    for g1 in range(g + 1):
        for mask in range(1 << len(labels)):
            i1 = tuple(lab for b, lab in enumerate(labels) if mask >> b & 1)
            i2 = tuple(lab for b, lab in enumerate(labels) if not mask >> b & 1)
            if is_stable(g1, len(i1) + 1) and is_stable(g - g1, len(i2) + 1):
                out.append(((g1, i1), (g - g1, i2)))
    return out


def reference_a_dcon(g, n, table):
    """A^dcon over every pair of terms of every ordered stable splitting."""
    acc = {}
    for (g1, i1), (g2, i2) in label_splittings(g, n):
        w1 = pi_view(table.volume(g1, len(i1) + 1))
        w2 = pi_view(table.volume(g2, len(i2) + 1))
        for alpha1, c1 in w1.items():
            for alpha2, c2 in w2.items():
                base = [0] * n
                for lab, e in zip(i1, alpha1[1:]):
                    base[lab - 1] = e
                for lab, e in zip(i2, alpha2[1:]):
                    base[lab - 1] = e
                for (kt,), cg in pi_view(h_double_moment(alpha1[0], alpha2[0])).items():
                    base[0] = kt
                    _add(acc, tuple(base), c1 * Fraction(1, 2) * c2 * cg)
    return acc


def shift_symmetrize(f):
    """The bivariate even polynomial (F(a+b) + F(a-b)) / 2.

    Expanding binomially, odd cross powers cancel and each t^(2m) term of
    F splits into sum_s C(2m, 2s) a^(2s) b^(2(m-s)); the weight is kept.
    """
    if f.n != 1:
        raise ValueError("expected a one-variable polynomial")
    terms = {
        (s, m - s): q * comb(2 * m, 2 * s)
        for (m,), q in f.items()
        for s in range(m + 1)
    }
    return LPoly(2, f.weight, terms)


def test_shift_symmetrize_quadratic():
    t2 = LPoly(1, 1, {(1,): Fraction(1)})
    got = shift_symmetrize(t2)
    assert got == LPoly(2, 1, {(1, 0): 1, (0, 1): 1})


def test_shift_symmetrize_quartic():
    t4 = LPoly(1, 2, {(2,): Fraction(1)})
    got = shift_symmetrize(t4)
    want = LPoly(2, 2, {(2, 0): 1, (1, 1): 6, (0, 2): 1})
    assert got == want


def test_shift_symmetrize_constant():
    c = LPoly(1, 2, {(0,): Fraction(5, 7)})
    got = shift_symmetrize(c)
    assert got == LPoly(2, 2, {(0, 0): Fraction(5, 7)})


def test_shift_symmetrize_matches_float_evaluation():
    f = h_moment(2)
    s = shift_symmetrize(f)
    for a, b in [(0, 0), (1, 2), (3, Fraction(1, 2))]:
        lhs = s.eval_rational([a, b]).to_float()
        rhs = 0.5 * (
            f.eval_rational([a + b]).to_float() + f.eval_rational([a - b]).to_float()
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


def reference_b(g, n, table):
    """B with the shifted moment placed in (L_1, L_j) for every j >= 2."""
    acc = {}
    if n < 2:
        return acc
    for pj in range(1, n):
        others = [p for p in range(1, n) if p != pj]
        for alpha, c in pi_view(table.volume(g, n - 1)).items():
            for (r, s), cs in pi_view(shift_symmetrize(h_moment(alpha[0]))).items():
                key = [0] * n
                for p, e in zip(others, alpha[1:]):
                    key[p] = e
                key[0], key[pj] = r, s
                _add(acc, tuple(key), c * cs)
    return acc


@pytest.fixture(scope="module")
def table5():
    t = VolumeTable()
    t.ensure(5)
    return t


@pytest.mark.parametrize(
    "sig", [s for s in iter_signatures(5) if s not in BASE]
)
@pytest.mark.parametrize(
    "term, reference",
    [
        (a_con_term, reference_a_con),
        (a_dcon_term, reference_a_dcon),
        (b_term, reference_b),
    ],
    ids=["a_con", "a_dcon", "b"],
)
def test_terms_match_direct_evaluation(table5, sig, term, reference):
    got = term_poly(term, *sig, table5)
    assert got.weight == moduli_dim(*sig)
    want = {
        alpha: c
        for alpha, c in reference(*sig, table5).items()
        if c and list(alpha[1:]) == sorted(alpha[1:], reverse=True)
    }
    assert pi_view(got) == want


# ----------------------------------------------------------------------
# the packed terms against the dict loops they replaced: the same sums,
# one product of (a, b) or (s, j) at a time, read from the same stored rows


def loop_moment_row(top):
    rs = [moment_constant(i) for i in range(top + 1)]
    den = lcm(*(q.denominator for q in rs))
    return den, [q.numerator * (den // q.denominator) for q in rs]


def loop_double_moment(sums, den, d):
    e, r = loop_moment_row(d)
    acc = {}
    for rest, row in sums.items():
        for s, x in row.items():
            for m in range(s + 3):
                key = (m,) + rest
                acc[key] = acc.get(key, 0) + x * r[s + 2 - m]
    return 2 * den * e, acc


def loop_a_con(g, n, table):
    if g < 1 or not is_stable(g - 1, n + 1):
        return 1, {}
    den, groups = table._free1_view(g - 1, n + 1)
    sums = {}
    for stored, p in groups.items():
        for i, b in enumerate(stored):
            if i and stored[i - 1] == b:
                continue
            row = sums.setdefault(stored[:i] + stored[i + 1 :], {})
            for a, x in enumerate(p):
                row[a + b] = row.get(a + b, 0) + x
    return loop_double_moment(sums, den, moduli_dim(g, n))


def loop_a_dcon(g, n, table):
    views = [
        (table._free1_view(g1, k1 + 1), table._free1_view(g2, k2 + 1))
        for (g1, k1), (g2, k2) in stable_splittings(g, n)
    ]
    den = lcm(*(d1 * d2 for (d1, _), (d2, _) in views))
    sums = {}
    for (d1, groups1), (d2, groups2) in views:
        c = den // (d1 * d2)
        for rest1, p1 in groups1.items():
            for rest2, p2 in groups2.items():
                rest = tuple(sorted(rest1 + rest2, reverse=True))
                w = c * prod(comb(rest.count(v), rest1.count(v)) for v in set(rest1))
                row = sums.setdefault(rest, {})
                for a, x in enumerate(p1):
                    for b, y in enumerate(p2):
                        row[a + b] = row.get(a + b, 0) + w * x * y
    return loop_double_moment(sums, den, moduli_dim(g, n))


def loop_b(g, n, table):
    if n < 2:
        return 1, {}
    den, groups = table._free1_view(g, n - 1)
    e, r = loop_moment_row(moduli_dim(g, n))
    acc = {}
    for rest, p in groups.items():
        for a, x in enumerate(p):
            for s in range(a + 2):
                merged = tuple(sorted(rest + (s,), reverse=True))
                w = merged.count(s) * (2 * s + 1)
                for q in range(a + 2 - s):
                    key = (q,) + merged
                    acc[key] = acc.get(key, 0) + w * x * r[a + 1 - q - s]
    return den * e, acc


@pytest.mark.parametrize(
    "term, loops",
    [(a_con_term, loop_a_con), (a_dcon_term, loop_a_dcon), (b_term, loop_b)],
    ids=["a_con", "a_dcon", "b"],
)
def test_packed_terms_match_dict_loops_to_dimension_eight(term, loops):
    def rationals(out):
        den, sums = out
        return {key: Fraction(x, den) for key, x in sums.items()}

    table = VolumeTable()
    table.ensure(8)
    for sig in iter_signatures(8):
        if sig not in BASE:
            assert rationals(term(*sig, table)) == rationals(loops(*sig, table)), sig


def test_label_splittings_count_label_sets():
    # the reference's masks regroup into the (g1, k1) splittings, each
    # listed C(n - 1, k1) times
    from math import comb

    for g, n in [(2, 1), (1, 3), (2, 3), (3, 4)]:
        sizes = [
            ((g1, len(i1)), (g2, len(i2)))
            for (g1, i1), (g2, i2) in label_splittings(g, n)
        ]
        assert sorted(set(sizes)) == sorted(stable_splittings(g, n))
        for split in stable_splittings(g, n):
            assert sizes.count(split) == comb(n - 1, split[0][1])


def test_table_to_dimension_five_golden_digest(table5):
    # sha256 of the serialized dimension-5 table, recorded from the
    # Q[pi^2] implementation of the recursion terms
    digest = hashlib.sha256(serialized(table5).encode()).hexdigest()
    assert digest == "145c7b2247a3855e883b822c604ba0db4498f5ae7a8f18da5daa50a91c9dec57"


def test_table_to_dimension_seven_golden_digest(tmp_path):
    # sha256 of the serialized dimension-7 table, recorded from the
    # recursion that computed every label placement of each term; the same
    # for the table reloaded from its own table file
    from wpvol.cli import load_cache, save_cache

    t = VolumeTable()
    t.ensure(7)
    path = str(tmp_path / "table.json")
    save_cache(t, path)
    for built in (t, load_cache(path)):
        digest = hashlib.sha256(serialized(built).encode()).hexdigest()
        assert digest == "762905318d916c179a9f311b484d7c80a9faddb9e5a9ce7a5c8e91fefa8d474f"


# ----------------------------------------------------------------------
# the build order


# the signatures compact_volume(t, 6) computes, in the order they complete:
# each after the inputs its terms read, as the nested calls once made them
COMPACT_SIX = [
    (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 1), (1, 2), (1, 3), (1, 4),
    (1, 5), (1, 6), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2),
    (3, 3), (3, 4), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (6, 1),
]


def test_compact_computes_its_inputs_only_in_dependency_order():
    t = VolumeTable()
    compact_volume(t, 6)
    assert list(t._entries) == COMPACT_SIX


def test_build_does_not_nest_python_calls_per_genus():
    # nested calls took about four frames per genus: compact 9 then needed
    # more than 60, and genus 200 died with RecursionError
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = (
        "import sys; from wpvol.intersect import compact_volume; "
        "from wpvol.recursion import VolumeTable; "
        "sys.setrecursionlimit(60); print(compact_volume(VolumeTable(), 9).as_str())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "18023847789626070555169453784661940895203207456841/"
        "58595524689402363572010772070400000000*pi^48\n"
    )
