"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  All volume and
intersection comparisons are exact; the kernel oracle checks carry the
stated floating-point tolerances.
"""
import json
import time
from fractions import Fraction

import pytest

from wpvol.exact import PiPoly
from wpvol.intersect import (
    _sorted_compositions,
    compact_volume,
    genus0_correlator,
    psi_correlator,
    run_relation_suite,
)
from wpvol.kernels import h_double_moment, h_moment
from wpvol.lpoly import LPoly
from wpvol.oracle import kernel_identity_report, quad_double_moments, quad_moment
from wpvol.recursion import (
    VolumeTable,
    iter_signatures,
    moduli_dim,
    validate_volume,
)

MAX_DIM = 7


@pytest.fixture(scope="module")
def table():
    t = VolumeTable()
    t.ensure(MAX_DIM)
    return t


def report(number, description, ok):
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def pi_mono(k, q):
    return PiPoly.monomial(k, Fraction(q))


def test_criterion_1_golden_volumes():
    start = time.time()
    t = VolumeTable()

    ok = t.true_volume(0, 3) == LPoly.one(3)

    # weight 1: pi^2/6 + L^2/24 and pi^2/12 + L^2/48
    v11_true = LPoly(1, 1, {(0,): Fraction(1, 6), (1,): Fraction(1, 24)})
    v11_internal = LPoly(1, 1, {(0,): Fraction(1, 12), (1,): Fraction(1, 48)})
    ok = ok and t.true_volume(1, 1) == v11_true
    ok = ok and t.volume(1, 1) == v11_internal

    v04 = LPoly(
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
    ok = ok and t.true_volume(0, 4) == v04

    # expanded form of (L^2+4pi^2)(L^2+12pi^2)(5L^4+384pi^2L^2+6960pi^4)/2211840
    golden_21 = LPoly(
        1, 4, {(4,): 5, (3,): 464, (2,): 13344, (1,): 129792, (0,): 334080}
    ).scale(Fraction(1, 2211840))
    ok = ok and t.true_volume(2, 1) == golden_21

    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    report(1, f"golden volumes V_03, V_11 (both conventions), V_04, V_21 exact ({elapsed:.2f}s)", ok)


def test_criterion_2_compact_volumes():
    start = time.time()
    t = VolumeTable()
    golden = {
        2: pi_mono(3, Fraction(43, 2160)),
        3: pi_mono(6, Fraction(176557, 1209600)),
        4: pi_mono(9, Fraction(1959225867017, 493807104000)),
        5: pi_mono(12, Fraction(84374265930915479, 355541114880000)),
    }
    ok = all(compact_volume(t, g) == golden[g] for g in (2, 3, 4, 5))
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    report(2, f"compact volumes V_20..V_50 exact ({elapsed:.2f}s)", ok)


def test_criterion_3_intersection_goldens(table):
    ok = psi_correlator(table, 0, (0, 0, 0)) == 1
    ok = ok and psi_correlator(table, 1, (1,)) == Fraction(1, 24)
    ok = ok and psi_correlator(table, 2, (4,)) == Fraction(1, 1152)
    for n in range(3, 8):
        for alpha in _sorted_compositions(n - 3, n):
            ok = ok and psi_correlator(table, 0, alpha) == genus0_correlator(alpha)
    report(3, "intersection goldens and genus-0 multinomial formula (n <= 7)", ok)


def test_criterion_4_relation_suites(table):
    start = time.time()
    ok = True
    counts = {}
    for relation in ("string", "dilaton", "dvv", "do-string", "do-dilaton"):
        records = run_relation_suite(table, relation, MAX_DIM)
        failures = [r for r in records if not r.passed]
        counts[relation] = len(records)
        ok = ok and records and not failures
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    report(
        4,
        f"relation suites to dim {MAX_DIM}, zero failures {counts} ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_5_structural_invariants(table):
    ok = True
    checked = 0
    for g, n in iter_signatures(MAX_DIM):
        try:
            validate_volume(g, n, table._stored(g, n))
        except Exception:
            ok = False
            break
        poly = table.volume(g, n)
        d = moduli_dim(g, n)
        # swapping L_1 with each L_j leaves every coefficient unchanged
        for j in range(1, n):
            for alpha, q in poly.items():
                swapped = list(alpha)
                swapped[0], swapped[j] = alpha[j], alpha[0]
                ok = ok and poly.coefficient(swapped) == q
        for alpha, q in poly.items():
            terms = list(poly.pi_coefficient(alpha).items())
            ok = (
                ok
                and sum(alpha) <= d
                and terms == [(d - sum(alpha), q)]
                and q > 0
            )
        checked += 1
    report(5, f"symmetry/homogeneity/positivity/degree on {checked} signatures", ok)


def test_criterion_6_kernel_oracle():
    ok = True
    for k in range(9):
        exact = h_moment(k)
        for t in (0.0, 1.0, 5.0):
            ref = exact.eval_rational([Fraction(t)]).to_float()
            got = quad_moment(k, t)
            ok = ok and abs(got.value - ref) / max(1.0, abs(ref)) < 1e-8
    pairs = [(i, j) for i in range(6) for j in range(6 - i)]
    for t in (0.0, 1.0, 5.0):
        for (i, j), got in zip(pairs, quad_double_moments(pairs, t)):
            ref = h_double_moment(i, j).eval_rational([Fraction(t)]).to_float()
            ok = ok and abs(got.value - ref) / max(1.0, abs(ref)) < 1e-8
    for rec in kernel_identity_report():
        ok = ok and rec["pass"]
    report(6, "closed-form kernels match quadrature; D/R/H identities in bound", ok)


def test_criterion_7_determinism():
    def serialized(t):
        return json.dumps(t.to_entries(), indent=2).encode()

    on_demand = VolumeTable()
    for sig in reversed(list(iter_signatures(MAX_DIM))):
        on_demand.volume(*sig)  # largest first: dependencies depth-first
    ensured = VolumeTable()
    ensured.ensure(MAX_DIM)
    reloaded = VolumeTable.from_entries(json.loads(serialized(ensured)))
    a, b, c = serialized(on_demand), serialized(ensured), serialized(reloaded)
    report(7, f"depth-first, ensured and reloaded builds serialize "
              f"byte-identically ({len(a)} bytes)", a == b == c)
