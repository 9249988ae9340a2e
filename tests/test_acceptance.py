"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Tolerances are pinned next to each assertion.  Expected values marked
in comments as hand-derived were computed with independent oracles
(sympy expansion, dense convolution, brute-force lattice walks) before
being frozen here.
"""

import random
import time
from fractions import Fraction as F

import numpy as np
import sympy

from powerpos import (BetaVerdict, Budgets, PolyMatrix, Polynomial, Pos3Mode,
                      Verdict, assoc_bihom_eval,
                      check_pos1, check_pos2, check_pos3, eval_rational, is_aperiodic,
                      is_irreducible, jf_matrix, parse, power_scan,
                      smith_invariant_factors, verify_beta)

from helpers import (dense_grid_pow_2d, eval_complex, hessian_logf_fd,
                     lattice_units_reachable, rand_complex_point, rand_homogeneous,
                     to_sympy)

CUBIC_MINUS_CORNER = parse("(x1+x2+x3)^3 - x1^3", 3)
DEGENERATE_FACET_CUBIC = parse("x1^2*(x1+x2+x3) + (x2+x3)^3", 3)
EQUALITY_QUARTIC = parse("(x1+x2)^4 - 8*x1^2*x2^2", 2)
P7 = parse("(x1+x2)^4 - 7*x1^2*x2^2", 2)


def report_line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_named_example_verdicts():
    """Each named failure mode reproduces exactly, each in under 1 s."""
    t0 = time.perf_counter()
    r1 = check_pos1(CUBIC_MINUS_CORNER)
    t1 = time.perf_counter() - t0
    ok = (r1.verdict is Verdict.FAILS and r1.witness["unit_vector"] == 1
          and r1.witness["value"] == "0" and t1 < 1.0)

    t0 = time.perf_counter()
    r2 = check_pos2(DEGENERATE_FACET_CUBIC)
    t2 = time.perf_counter() - t0
    ok = ok and (r2.verdict is Verdict.FAILS and r2.witness["facet"] == 1
                 and r2.witness["facet_derivative"] == "0" and t2 < 1.0)

    t0 = time.perf_counter()
    r3 = check_pos3(EQUALITY_QUARTIC, mode=Pos3Mode.FALSIFY)
    t3 = time.perf_counter() - t0
    witness_coords = {tuple(map(F, z)) for z in r3.witness["z"]} \
        if r3.verdict is Verdict.FAILS else set()
    # the (-1, 1) witness up to the U(1) action and coordinate order
    on_axes = witness_coords and all(
        {abs(re), abs(im)} <= {0, 1} for re, im in witness_coords)
    ok = ok and (r3.verdict is Verdict.FAILS and r3.witness["equality"] is True
                 and r3.witness["validation"] == "exact" and bool(on_axes)
                 and t3 < 1.0)
    report_line(1, ok,
                f"unit-vector/facet/modulus failures reproduced exactly "
                f"({t1:.2f}s, {t2:.2f}s, {t3:.2f}s)")


def test_criterion_2_quartic_family_full_pipeline():
    """lambda = 7 quartic: all conditions pass, finite onset, m = 2, 3 not
    all-positive with specific coefficients cross-checked by convolution."""
    t0 = time.perf_counter()
    ok = check_pos1(P7).verdict is Verdict.HOLDS
    ok = ok and check_pos2(P7).verdict is Verdict.HOLDS
    ok = ok and check_pos3(P7).verdict is Verdict.HOLDS
    pattern = power_scan(P7, Polynomial.constant(2, 1), 60)
    ok = ok and pattern.onset is not None
    ok = ok and pattern.flags[2] is False and pattern.flags[3] is False
    # hand-derived: (p7^2)[x^5 y^3] = 0, (p7^3)[x^6 y^6] = -7
    ok = ok and (P7 ** 2).coefficient((5, 3)) == 0
    ok = ok and (P7 ** 3).coefficient((6, 6)) == -7
    grid2 = dense_grid_pow_2d(P7, 2)
    grid3 = dense_grid_pow_2d(P7, 3)
    ok = ok and grid2[5, 3] == 0 and grid3[6, 6] == -7
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report_line(2, ok,
                f"conditions certified, window-onset {pattern.onset}, "
                f"m=2/3 coefficients 0 and -7 confirmed by convolution "
                f"oracle ({elapsed:.2f}s)")


def test_criterion_3_simplex_multiplier_classic():
    """x1+x2 against the telescoping quadratic: onset exactly 3."""
    t0 = time.perf_counter()
    p = parse("x1+x2", 2)
    q = parse("x1^2 - x1*x2 + x2^2", 2)
    pattern = power_scan(p, q, 10)
    m1 = p * q
    m2 = p ** 2 * q
    ok = (pattern.onset == 3
          and pattern.flags[1] is False and m1 == parse("x1^3 + x2^3", 2)
          and pattern.flags[2] is False and m2.coefficient((2, 2)) == 0
          and all(pattern.flags[3:]))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report_line(3, ok,
                f"onset 3 with m=1 sparsity and m=2 zero middle coefficient "
                f"reproduced ({elapsed:.2f}s)")


def test_criterion_4_equality_quartic_powers_stay_negative():
    """Every power m = 1..8 of the lambda = 8 quartic keeps a negative
    coefficient.  Exact arithmetic."""
    t0 = time.perf_counter()
    ok = True
    pm = Polynomial.constant(2, 1)
    for m in range(1, 9):
        pm = pm * EQUALITY_QUARTIC
        ok = ok and any(c < 0 for c in pm.terms.values())
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report_line(4, ok,
                f"negative coefficient present in all powers m=1..8 "
                f"({elapsed:.2f}s)")


def test_criterion_5_identity_suites():
    """Three property suites at 1000 random instances each."""
    rng = random.Random(2024)

    # (a) diagonal restriction of the Hermitian form, 1e-9 relative
    diag_fail = 0
    for _ in range(1000):
        n = rng.randint(1, 3)
        p = rand_homogeneous(rng, n, rng.randint(1, 4), density=0.8)
        z = rand_complex_point(rng, n)
        lhs = assoc_bihom_eval(p, z, z)
        rhs = eval_complex(p, [abs(v) ** 2 for v in z])
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
            diag_fail += 1

    # (b) exact log-Hessian vs central differences: O(h^2) decay observed
    fd_fail = 0
    checked = 0
    for _ in range(1000):
        ell = rng.randint(1, 2)
        f = rand_homogeneous(rng, ell, rng.randint(1, 3), all_positive=True) \
            + Polynomial.constant(ell, rng.randint(1, 3))
        t = [rng.uniform(-0.5, 0.5) for _ in range(ell)]
        s = [F(x) for x in np.exp(t)]
        exact = np.array([[float(v) for v in row] for row in jf_matrix(f, s)])
        errs = {h: float(np.max(np.abs(hessian_logf_fd(f, t, h=h) - exact)))
                for h in (1e-2, 1e-3)}
        if errs[1e-2] < 1e-10:
            continue  # error at rounding floor, ratio uninformative
        checked += 1
        # second-order decay: two orders of h gain ~1e2; accept >= 1e1
        if errs[1e-3] > errs[1e-2] / 10:
            fd_fail += 1

    # (c) all-positive random p pass all three checks (n <= 4, d <= 5)
    allpos_fail = 0
    budgets = Budgets(grid=6, max_samples=600)
    for _ in range(1000):
        n = rng.randint(2, 4)
        d = rng.randint(1, 5)
        p = rand_homogeneous(rng, n, d, all_positive=True)
        if check_pos1(p).verdict is not Verdict.HOLDS:
            allpos_fail += 1
        elif check_pos2(p).verdict is not Verdict.HOLDS:
            allpos_fail += 1
        elif check_pos3(p, budgets, Pos3Mode.FALSIFY).verdict is Verdict.FAILS:
            allpos_fail += 1

    ok = diag_fail == 0 and fd_fail == 0 and checked >= 500 \
        and allpos_fail == 0
    report_line(5, ok,
                f"diagonal identity {1000 - diag_fail}/1000, "
                f"finite-difference second-order {checked - fd_fail}/{checked}, "
                f"all-positive condition suite {1000 - allpos_fail}/1000")


def test_criterion_6_lattice_oracle_equivalence():
    """Smith-normal-form decision vs brute-force unit-vector reachability
    on 200 random supports, dimension <= 3, entries <= 4: 100% agreement."""
    rng = random.Random(97)
    agree = 0
    for _ in range(200):
        ell = rng.randint(1, 3)
        size = rng.randint(2, 5)
        support = {tuple(rng.randint(0, 4) for _ in range(ell))
                   for _ in range(size)}
        while len(support) < 2:
            support.add(tuple(rng.randint(0, 4) for _ in range(ell)))
        base = min(support)
        gens = [[a - b for a, b in zip(exp, base)] for exp in sorted(support)
                if exp != base]
        factors = smith_invariant_factors(gens)
        snf_full = len(factors) == ell and all(v == 1 for v in factors)
        if snf_full == lattice_units_reachable(gens, ell):
            agree += 1
    ok = agree == 200
    report_line(6, ok, f"SNF vs brute-force lattice walk: {agree}/200 agree")


def test_criterion_7_spectral_verification_and_round_trip():
    """verify_beta on the two reference matrices, plus the one-by-one
    power certificate round trip.  Under 5 s."""
    t0 = time.perf_counter()
    symm = PolyMatrix.from_rows([[parse("x1", 2), parse("x2", 2)],
                                 [parse("x2", 2), parse("x1", 2)]])
    good = verify_beta(symm, parse("x1+x2", 2), sample_count=20, tol=1e-9)
    ok = good.verdict is BetaVerdict.VERIFIED and good.exact_charpoly_zero

    cycle = PolyMatrix.from_rows([[parse("0", 2), parse("x1", 2)],
                                  [parse("x2", 2), parse("0", 2)]])
    for expr in ("x1", "x2", "x1+x2", "3*x1+2*x2"):
        bad = verify_beta(cycle, parse(expr, 2), sample_count=20, tol=1e-9)
        ok = ok and bad.verdict is BetaVerdict.REFUTED

    # round trip: conditions -> power scan -> one-by-one certificate
    p = parse("x1+x2", 2)
    ok = ok and check_pos1(p).verdict is Verdict.HOLDS
    ok = ok and check_pos2(p).verdict is Verdict.HOLDS
    ok = ok and check_pos3(p).verdict is Verdict.HOLDS
    pattern = power_scan(p, Polynomial.constant(2, 1), 60)
    ok = ok and pattern.onset is not None
    m = max(pattern.onset, 1)
    pm = p ** m
    cert = PolyMatrix.from_rows([[pm]])
    ok = ok and is_irreducible(cert) and is_aperiodic(cert)
    round_trip = verify_beta(cert, pm, sample_count=20, tol=1e-9)
    ok = ok and round_trip.verdict is BetaVerdict.VERIFIED
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report_line(7, ok,
                f"Verified/Refuted verdicts and 1x1 power certificate round "
                f"trip reproduced ({elapsed:.2f}s)")

