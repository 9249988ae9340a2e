"""Condition deciders: unit-vector, facet-derivative, and modulus checks."""

import cmath
import itertools
import math
import random
import time
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from powerpos import (Budgets, Condition, Polynomial, Pos3Mode, Verdict,
                      assoc_bihom_eval, check_pos1, check_pos2, check_pos3,
                      eval_rational, facet_derivative, parse, polya_exponent,
                      power_scan)
from powerpos import conditions, eventual
from powerpos.conditions import (_DENOMINATORS, _bernstein_g, _eval_d_grid,
                                 _grid_samples, _halves, _rational_unit,
                                 _unrank_compositions)
from powerpos.poly import eval_complex_exact, monomials_of_degree

from helpers import (eval_complex, fraction_grid_samples, from_sympy, modulus_gap,
                     partial_derivative, rand_complex_point, rand_homogeneous,
                     rational_forms, seeded_corpus, to_sympy)

P_CUBIC_MINUS_CORNER = parse("(x1+x2+x3)^3 - x1^3", 3)
P_FACET_DEGENERATE = parse("x1^2*(x1+x2+x3) + (x2+x3)^3", 3)
P_EQUALITY_QUARTIC = parse("(x1+x2)^4 - 8*x1^2*x2^2", 2)
P7 = parse("(x1+x2)^4 - 7*x1^2*x2^2", 2)

FAST = Budgets(grid=16, max_samples=4000)
FALSIFY = Pos3Mode.FALSIFY


# ---------------------------------------------------------------------
# Pos1
# ---------------------------------------------------------------------

def test_pos1_fails_at_first_unit_vector():
    rep = check_pos1(P_CUBIC_MINUS_CORNER)
    assert rep.verdict is Verdict.FAILS
    assert rep.witness["unit_vector"] == 1
    assert rep.witness["value"] == "0"


def test_pos1_holds_linear():
    rep = check_pos1(parse("x1+x2", 2))
    assert rep.verdict is Verdict.HOLDS
    assert rep.certificate["unit_values"] == ["1", "1"]


def test_pos1_holds_quartic_family():
    rep = check_pos1(P7)
    assert rep.verdict is Verdict.HOLDS
    assert rep.certificate["unit_values"] == ["1", "1"]


def test_pos1_rejects_nonhomogeneous():
    with pytest.raises(ValueError):
        check_pos1(parse("x1 + 1", 1))


def test_pos1_fails_witness_revalidates_exactly():
    rep = check_pos1(P_CUBIC_MINUS_CORNER)
    point = [F(v) for v in rep.witness["point"]]
    assert eval_rational(P_CUBIC_MINUS_CORNER, point) == F(rep.witness["value"])
    assert F(rep.witness["value"]) <= 0


@settings(max_examples=80)
@given(rational_forms())
def test_pos1_unit_values_are_p_at_the_unit_vectors(p):
    n = p.nvars
    values = [eval_rational(p, [int(i == k) for i in range(n)]) for k in range(n)]
    rep = check_pos1(p)
    first_bad = next((k for k, v in enumerate(values) if v <= 0), None)
    if first_bad is None:
        assert rep.verdict is Verdict.HOLDS
        assert rep.certificate == {"unit_values": [str(v) for v in values]}
        assert rep.budget == {"evaluations": n}
    else:
        assert rep.verdict is Verdict.FAILS
        assert rep.witness == {"point": [str(int(i == first_bad)) for i in range(n)],
                               "value": str(values[first_bad]),
                               "unit_vector": first_bad + 1}
        assert rep.budget == {"evaluations": first_bad + 1}


# ---------------------------------------------------------------------
# facet derivative and Pos2
# ---------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(rational_forms(), st.integers(0, 3))
def test_facet_derivative_is_sympys_derivative_on_the_facet(p, k):
    k %= p.nvars
    x_k = sympy.Symbol(f"x{k + 1}")
    on_facet = from_sympy(sympy.diff(to_sympy(p), x_k).subs(x_k, 0), p.nvars)
    assert facet_derivative(p, k) == Polynomial(
        p.nvars - 1, {e[:k] + e[k + 1:]: c for e, c in on_facet.terms.items()})


def test_facet_derivative_zero_for_degenerate_facet():
    assert facet_derivative(P_FACET_DEGENERATE, 0).is_zero()


def test_facet_derivative_binomial():
    g = facet_derivative(parse("(x1+x2)^2", 2), 0)
    assert g == parse("2*x1", 1)


def test_facet_derivative_quartic_family():
    g = facet_derivative(P7, 0)
    assert g == parse("4*x1^3", 1)


def test_facet_derivative_rejects_a_bad_index_and_a_nonhomogeneous_p():
    for k in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            facet_derivative(P7, k)
    with pytest.raises(ValueError, match="homogeneous"):
        facet_derivative(parse("x1^2 + x2", 2), 0)


def test_pos2_fails_on_zero_facet_derivative():
    rep = check_pos2(P_FACET_DEGENERATE)
    assert rep.verdict is Verdict.FAILS
    assert rep.witness["facet"] == 1
    assert rep.witness["facet_derivative"] == "0"


def test_pos2_all_positive_coeffs_certified_with_zero_exponents():
    rng = random.Random(3)
    for _ in range(10):
        p = rand_homogeneous(rng, rng.randint(2, 4), rng.randint(2, 4),
                             all_positive=True)
        rep = check_pos2(p)
        assert rep.verdict is Verdict.HOLDS
        assert all(n == 0 for n in rep.certificate["polya_exponents"].values())


def test_pos2_quartic_family_zero_exponents():
    rep = check_pos2(P7)
    assert rep.verdict is Verdict.HOLDS
    assert rep.certificate["polya_exponents"] == {"1": 0, "2": 0}


def test_pos2_fails_with_exact_sampled_witness():
    # d/dx1 of x1^2*x2 - small cross term is negative somewhere on the facet?
    # use p with a facet derivative that is negative at an interior point:
    # g = d/dx2 restricted to x2=0 of x2*(x1 - x3)^2 ... simpler: build p so
    # g_1 = x1^2 - 3*x1*x2 + x2^2, negative at (1,1) on the simplex grid.
    g_target = "x1^2*x2 - 3/2*x1*x2^2"  # d/dx3 of this times x3 gives g below
    p = parse(f"x3*({g_target.replace('x1', 'x1').replace('x2', 'x2')})", 3)
    rep = check_pos2(p)
    # the facet derivative for k=3 is x1^2*x2 - 3/2*x1*x2^2, negative at (1/2,1/2)
    assert rep.verdict is Verdict.FAILS
    point = [F(v) for v in rep.witness["point"]]
    assert eval_rational(partial_derivative(p, rep.witness["facet"] - 1), point) <= 0


def test_pos2_vacuous_single_variable():
    rep = check_pos2(parse("x1^2", 1))
    assert rep.verdict is Verdict.HOLDS


def test_pos2_validates_its_budgets():
    # Pos2 reads max_depth alone: at 0 no box is halved
    hard = parse("(x1+x2+x3)^3 - 11*x1*x2*x3", 3)
    assert check_pos2(P7, Budgets(max_depth=0)).verdict is Verdict.HOLDS
    assert check_pos2(hard, Budgets(max_depth=0)).verdict is Verdict.INCONCLUSIVE
    assert check_pos2(hard, Budgets(max_depth=1)).verdict is Verdict.HOLDS
    with pytest.raises(ValueError, match="max_depth must be at least 0"):
        check_pos2(P7, Budgets(max_depth=-1))


#: sum of x_i^2 x_(i+1) over the 64 variables, cyclically: each facet
#: derivative is x_(k-1)^2, of degree 2 in 63 variables, so a box holds
#: C(64, 2) = 2016 Bernstein coefficients
CYCLIC_64 = " + ".join(f"x{i}^2*x{i % 64 + 1}" for i in range(1, 65))


def test_pos2_refuses_a_stack_over_the_dense_cap():
    # the stack of max_depth + 1 boxes is checked against the cap before
    # any search: 992 * 2016 fits 2,000,000 and 993 * 2016 does not
    p = parse(CYCLIC_64, 64)
    rep = check_pos2(p, Budgets(max_depth=991))
    assert rep.verdict is Verdict.FAILS and rep.witness["value"] == "0"
    with pytest.raises(ValueError, match="Pos2 refused: 993 boxes of 2016 Bernstein "
                                         "coefficients exceed the cap 2000000"):
        check_pos2(p, Budgets(max_depth=992))


def _through(point):
    """|c|^2 |x|^2 - (c.x)^2 for c = 8 point, a sum of squares (c_j x_i -
    c_i x_j)^2 that vanishes on the simplex at `point` alone."""
    c = [int(8 * v) for v in point]
    size = len(c)
    terms = {}
    for i in range(size):
        for j in range(size):
            exp = tuple((k == i) + (k == j) for k in range(size))
            terms[exp] = terms.get(exp, 0) + (sum(v * v for v in c) if i == j else 0) - c[i] * c[j]
    return Polynomial(size, {e: F(v) for e, v in terms.items() if v})


@pytest.mark.parametrize("size", [2, 3, 4])
def test_pos2_finds_an_isolated_zero_at_every_point_of_the_grid_of_8(size):
    # every dyadic point with denominator 8 becomes a vertex of the
    # subdivision, where the corner coefficient is g = 0 exactly
    for exp in monomials_of_degree(size, 8):
        point = tuple(F(e, 8) for e in exp)
        vertex, counts = conditions._facet_search(_through(point), Budgets().max_depth)
        assert vertex == point, counts


@pytest.mark.parametrize("expr, nvars, exponents, verdict, boxes", [
    ("(x1+x2+x3)^5 - 5*x3*(x1+x2)^4 + x3*((x1-x2)^2*(x1+x2)^2 + 1/1000*x1^2*x2^2)", 3,
     [1, 1, None], Verdict.HOLDS, [3, 3, 3]),
    ("(x1+x2+x3+x4)^3 - 3*x4*(x1+x2+x3)^2 + x4*((x1-x2)^2+(x2-x3)^2+1/500*x1*x3)", 4,
     [1, 1, 1, None], Verdict.HOLDS, [11, 11, 11, 91]),
    # g_3 = (x1^2 - 2 x2^2)^2 vanishes at an irrational point alone
    ("(x1+x2+x3)^5 - 5*x3*(x1+x2)^4 + x3*(x1^2-2*x2^2)^2", 3,
     [1, 1, None], Verdict.INCONCLUSIVE, [3, 3, 36]),
], ids=["n3", "n4", "irrational"])
def test_pos2_reports_on_pos2_hard_inputs(expr, nvars, exponents, verdict, boxes):
    # Polya's exponent, up to N = 120, leaves the last facet open; the
    # subdivision decides it unless its zero is irrational, and every
    # facet needs halvings
    p = parse(expr, nvars)
    assert [polya_exponent(facet_derivative(p, k), 120) for k in range(nvars)] == exponents
    rep = check_pos2(p)
    assert rep.verdict is verdict and rep.witness is None
    found = rep.budget if verdict is Verdict.INCONCLUSIVE else rep.certificate
    assert found["polya_exponents"] == {}
    assert [c["boxes_processed"] for c in found["subdivision"].values()] == boxes
    assert rep.budget["boxes_processed"] == sum(boxes)
    if verdict is Verdict.INCONCLUSIVE:
        assert rep.budget["uncertified_facets"] == [3]
        assert found["subdivision"]["3"]["stop"]["reason"] == "depth limit"


def test_pos2_fails_fast_on_a_cubic_in_seven_variables():
    # g_1 = 3 (x2 + ... + x7)^2 - 20 x2 x7 is -2 at x2 = x7 = 1/2, which
    # the subdivision of the 5-simplex meets as a vertex after 6 boxes
    p = parse("(x1+x2+x3+x4+x5+x6+x7)^3 - 20*x1*x2*x7", 7)
    start = time.perf_counter()
    rep = check_pos2(p)
    assert time.perf_counter() - start < 0.1
    assert rep.verdict is Verdict.FAILS
    assert rep.witness == {"facet": 1, "point": ["0", "1/2", "0", "0", "0", "0", "1/2"],
                           "value": "-2"}
    assert rep.budget == {"boxes_processed": 6}


@st.composite
def facet_st(draw):
    """p in 2 to 4 variables as in `pushed_st`, of degree 2 to 4 (3 for
    n = 4), so its facets have 1 to 3 variables."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(2, 3 if n == 4 else 4))
    monomials = list(monomials_of_degree(n, d))
    terms = {exp: F(draw(st.integers(1, 9)), draw(st.integers(1, 3))) for exp in monomials}
    for exp in draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=2)):
        terms[exp] *= 1 - F(draw(st.integers(1, 40)), 16)
    return Polynomial(n, {exp: c for exp, c in terms.items() if c})


@settings(max_examples=100, deadline=None)
@given(facet_st())
def test_pos2_verdicts_agree_with_exact_values_on_a_grid(p):
    # a Fails point re-evaluates to g <= 0, and a Holds meets no grid
    # point of denominator 12 where g <= 0
    rep = check_pos2(p)
    if rep.verdict is Verdict.FAILS:
        k = rep.witness["facet"] - 1
        point = [F(v) for v in rep.witness["point"]]
        assert point[k] == 0 and min(point) >= 0 and sum(point) > 0
        value = eval_rational(facet_derivative(p, k), point[:k] + point[k + 1:])
        assert value <= 0 and str(value) == rep.witness["value"]
    elif rep.verdict is Verdict.HOLDS:
        for k in range(p.nvars):
            g = facet_derivative(p, k)
            for exp in monomials_of_degree(p.nvars - 1, 12):
                assert eval_rational(g, [F(e, 12) for e in exp]) > 0


@pytest.mark.parametrize("bits", [4, 100])
def test_halves_keep_python_ints_on_one_axis(bits):
    # 1-D input: np.stack would hold Python ints that fit int64 as int64,
    # and the 40 halvings below, each times 2^6, would overflow it
    rng = random.Random(17)
    b = np.array([rng.randint(-2 ** bits, 2 ** bits) for _ in range(7)], dtype=object)
    exact = [F(v) for v in b]
    for _ in range(40):
        side = rng.randint(0, 1)
        b = _halves(b, 0)[side]
        # de Casteljau in Fractions: the left half takes the first entry of
        # each row of midpoints, the right half the last
        row, ends = exact, []
        while row:
            ends.append(row[-side])
            row = [(x + y) / 2 for x, y in zip(row, row[1:])]
        exact = ends[::-1] if side else ends
    assert b.dtype == object
    assert [F(v, 2 ** (6 * 40)) for v in b] == exact


# ---------------------------------------------------------------------
# Pos3
# ---------------------------------------------------------------------

def test_pos3_falsify_equality_quartic():
    rep = check_pos3(P_EQUALITY_QUARTIC, FAST, FALSIFY)
    assert rep.verdict is Verdict.FAILS
    assert rep.witness["validation"] == "exact"
    # equality case: |p(z)|^2 == p(|z|)^2 at the witness
    assert rep.witness["abs_p_z_squared"] == rep.witness["p_abs_z_squared"]
    assert rep.witness["equality"] is True


def test_pos3_fails_witness_revalidates_exactly():
    rep = check_pos3(P_EQUALITY_QUARTIC, FAST, FALSIFY)
    z = [(F(re), F(im)) for re, im in rep.witness["z"]]
    vre, vim = eval_complex_exact(P_EQUALITY_QUARTIC, z)
    lhs = vre * vre + vim * vim
    radii = [F(re) ** 2 + F(im) ** 2 for re, im in rep.witness["z"]]
    # moduli are 0/1 at the normalized witness, so |z_k| is exact
    assert all(r in (0, 1) for r in radii)
    rhs = eval_rational(P_EQUALITY_QUARTIC, radii) ** 2
    assert lhs >= rhs


def test_pos3_certify_linear():
    # every coefficient positive: the strict triangle inequality, no search
    rep = check_pos3(parse("x1+x2", 2))
    assert rep.verdict is Verdict.HOLDS
    assert rep.certificate == {"method": "nonnegative_support"}
    assert rep.budget == {}


def test_pos3_certify_quartic_family():
    rep = check_pos3(P7)
    assert rep.verdict is Verdict.HOLDS
    assert rep.certificate == {"method": "fejer_kernel_bernstein"}
    # the root box halves along r1 and both halves close
    assert rep.budget == {"boxes_processed": 3, "boxes_closed": 2, "max_depth_used": 1}


def test_pos3_falsify_no_counterexample_on_linear():
    # the support decides before the sample grid is built
    rep = check_pos3(parse("x1+x2", 2), FAST, FALSIFY)
    assert rep.verdict is Verdict.HOLDS
    assert rep.certificate == {"method": "nonnegative_support"}
    assert "samples" not in rep.budget


def test_pos3_single_variable_vacuous():
    rep = check_pos3(parse("x1^3", 1))
    assert rep.verdict is Verdict.HOLDS


# an asymmetric septic whose certificate takes 23 boxes, down to depth 7
P_ASYM = parse("6*x1^7 + 5*x1^6*x2 + x1^5*x2^2 + 5*x1^4*x2^3 - 293/40*x1^3*x2^4"
               " + 2*x1^2*x2^5 + 6*x1*x2^6 + 8*x2^7", 2)


def test_pos3_certify_asymmetric_septic():
    rep = check_pos3(P_ASYM)
    assert rep.verdict is Verdict.HOLDS
    assert rep.budget == {"boxes_processed": 23, "boxes_closed": 12, "max_depth_used": 7}


def test_pos3_budget_exhaustion_is_inconclusive(monkeypatch):
    monkeypatch.setattr(conditions, "_MAX_BOXES", 10)
    rep = check_pos3(P_ASYM)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.budget["stop"] == {"reason": "box budget"}


@pytest.mark.parametrize("max_boxes", [0, 1, 10, 20, 511, 513, 1000])
def test_pos3_box_budget_is_never_exceeded(monkeypatch, max_boxes):
    monkeypatch.setattr(conditions, "_MAX_BOXES", max_boxes)
    rep = check_pos3(P_ASYM)
    if max_boxes < 23:
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert rep.budget["boxes_processed"] == max_boxes
        assert rep.budget["stop"] == {"reason": "box budget"}
    else:
        # a budget above what the search needs changes nothing
        assert rep.verdict is Verdict.HOLDS and rep.budget["boxes_processed"] == 23


def test_pos3_box_budget_that_just_suffices_still_holds(monkeypatch):
    monkeypatch.setattr(conditions, "_MAX_BOXES", 23)
    assert check_pos3(P_ASYM).verdict is Verdict.HOLDS
    monkeypatch.setattr(conditions, "_MAX_BOXES", 22)
    rep = check_pos3(P_ASYM)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.budget["boxes_processed"] == 22


def test_pos3_depth_limit_counts_the_halvings_of_a_box():
    assert check_pos3(P_ASYM, Budgets(max_depth=7)).verdict \
        is Verdict.HOLDS
    rep = check_pos3(P_ASYM, Budgets(max_depth=6))
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.budget["max_depth_used"] == 6
    stop = rep.budget["stop"]
    assert stop["reason"] == "depth limit"
    # six halvings, three along r1 and three along c, on the dyadic grid
    (r_lo, r_hi), (c_lo, c_hi) = ([F(v) for v in stop[key]] for key in ("r1", "c"))
    assert (r_hi - r_lo, c_hi - c_lo) == (F(1, 8), F(2, 8))
    assert (8 * r_lo).denominator == 1 and (4 * (c_lo + 1)).denominator == 1


def test_pos3_certify_never_closes_the_boxes_where_pos2_fails():
    # G(0, t) = c_0 c_1 = 0 here (Pos2 fails): the root box has a zero
    # corner at r1 = 0, so the search stops there, at once; the negative
    # coefficient keeps the support from deciding first
    rep = check_pos3(parse("x1^4 + x1^3*x2 - 1/100*x1^2*x2^2 + x2^4", 2))
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.budget["boxes_processed"] == 1
    stop = rep.budget["stop"]
    assert stop["reason"] == "G <= 0 at a corner"
    assert stop["corner"][0] == "0" and stop["g"] == "0"


def _dv(k, lam):
    return parse(f"(x1+x2)^{2 * k} - {lam}*x1^{k}*x2^{k}", 2)


@pytest.mark.parametrize("k, lam, onset", [(2, "7", 4), (2, "63/8", 48), (3, "30", 14),
                                           (3, "31", 32), (4, "120", 16)])
def test_pos3_certify_agrees_with_the_theorem_below_threshold(k, lam, onset):
    # Pos1, Pos2 and Pos3 hold, so large powers are all-positive
    p = _dv(k, lam)
    assert check_pos3(p).verdict is Verdict.HOLDS
    assert check_pos1(p).verdict is Verdict.HOLDS
    assert check_pos2(p).verdict is Verdict.HOLDS
    assert power_scan(p, Polynomial.constant(2, 1), 60).onset == onset


@pytest.mark.parametrize("k", [2, 3, 4])
def test_pos3_certify_fails_exactly_at_threshold(k):
    p = _dv(k, 2 ** (2 * k - 1))
    rep = check_pos3(p)
    assert rep.verdict is Verdict.FAILS
    assert rep.witness["validation"] == "exact" and rep.witness["equality"] is True
    # G(1/2, pi) = 0: the search stops at that corner of a half of the
    # root box, then the probe decides
    assert rep.budget["boxes_processed"] == 2
    stop = rep.budget["stop"]
    assert stop["reason"] == "G <= 0 at a corner"
    assert (stop["corner"], stop["g"]) == (["1/2", "-1"], "0")
    z = [(F(re), F(im)) for re, im in rep.witness["z"]]
    assert all(re == 0 or im == 0 for re, im in z)     # quarter turns: |z_k| is exact
    vre, vim = eval_complex_exact(p, z)
    assert vre * vre + vim * vim == eval_rational(p, [abs(re) + abs(im) for re, im in z]) ** 2


@pytest.mark.parametrize("k, lam", [(3, "127/4"), (3, "1023/32"), (4, "511/4")])
def test_pos3_certify_near_the_threshold_needs_one_halving(k, lam):
    # the Bernstein bound is tight enough that halving r1 at 1/2, where G
    # is least, closes both halves
    rep = check_pos3(_dv(k, lam), Budgets(max_depth=1))
    assert rep.verdict is Verdict.HOLDS
    assert rep.budget == {"boxes_processed": 3, "boxes_closed": 2, "max_depth_used": 1}


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_pos3_certify_dv_family_below_and_at_the_threshold(k):
    top = 2 ** (2 * k - 1)
    below = check_pos3(_dv(k, top - F(1, 2 ** k)))
    assert below.verdict is Verdict.HOLDS and below.budget["boxes_processed"] == 3
    at = check_pos3(_dv(k, top))
    assert at.verdict is Verdict.FAILS and at.witness["equality"] is True


@pytest.mark.parametrize("expr", ["(x1+x2)^10 - 511*x1^5*x2^5",
                                  "(x1+x2)^12 - 2047*x1^6*x2^6"])
def test_pos3_certify_decides_high_degree_members_below_the_threshold(expr):
    # below 2^(2k-1) Pos3 holds (the dv truth); the float search left these
    # Inconclusive
    assert check_pos3(parse(expr, 2)).verdict is Verdict.HOLDS


def test_pos3_certify_holds_only_where_falsify_finds_no_witness():
    # positive coefficients with one set below zero, to minus a random share
    # of their sum, so every input reaches the Bernstein search
    rng = random.Random(61)
    holds = 0
    for _ in range(60):
        d = rng.randint(4, 7)
        coefs = [F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(d + 1)]
        k = rng.randint(2, d - 2)
        coefs[k] = -F(rng.randint(1, 16), 64) * sum(coefs)
        p = Polynomial(2, {(i, d - i): c for i, c in enumerate(coefs) if c})
        rep = check_pos3(p)
        if rep.verdict is Verdict.HOLDS:
            holds += 1
            assert rep.certificate == {"method": "fejer_kernel_bernstein"}
            assert check_pos3(p, FAST, FALSIFY).verdict is not Verdict.FAILS
    assert holds >= 20


P_NEGATIVE_CORNER = parse("4*x2^7 + 3*x1*x2^6 + x1^2*x2^5 - 17/4*x1^3*x2^4 + 4/3*x1^4*x2^3"
                          " + 8/3*x1^5*x2^2 + 5*x1^6*x2 + 2*x1^7", 2)


def test_pos3_certify_reads_a_witness_off_a_negative_corner():
    # the search stops at (r1, c) = (1/2, 1/2), where G < 0; cos t = 1/2
    # is no quarter turn, and no quarter-turn point fails
    rep = check_pos3(P_NEGATIVE_CORNER)
    assert rep.verdict is Verdict.FAILS
    stop = rep.budget["stop"]
    assert stop["corner"] == ["1/2", "1/2"] and F(stop["g"]) < 0
    assert rep.budget["corner_points"] == 1 and "quarter_turn_points" not in rep.budget
    assert rep.witness["validation"] == "exact" and rep.witness["equality"] is False
    # both radii are 1/2, so the scaled z is (u, 1) for a rational unit u
    # near e^{i pi/3}
    (ur, ui), second = [(F(re), F(im)) for re, im in rep.witness["z"]]
    assert second == (1, 0) and ur * ur + ui * ui == 1 and abs(ur - F(1, 2)) < F(1, 10)
    vre, vim = eval_complex_exact(P_NEGATIVE_CORNER, [(ur, ui), second])
    assert vre * vre + vim * vim > eval_rational(P_NEGATIVE_CORNER, [1, 1]) ** 2
    assert conditions._pair_face_probe(P_NEGATIVE_CORNER, 32, (1, 2))[0] is None
    # falsify mode runs the same search first
    assert check_pos3(P_NEGATIVE_CORNER, mode=FALSIFY).to_json_dict() == rep.to_json_dict()


def test_pos3_certify_negative_corner_at_phase_pi_is_itself_the_witness():
    rep = check_pos3(_dv(2, 9))
    assert rep.budget["stop"]["corner"] == ["1/2", "-1"]
    assert rep.budget["corner_points"] == 1
    assert rep.witness["z"] == [["-1", "0"], ["1", "0"]]


@pytest.mark.parametrize("r1, c", [(F(1, 2), F(1, 2)), (F(3, 8), F(-5, 8)), (F(7, 16), F(-3, 4)),
                                   (F(1, 2), F(63, 64))])
def test_corner_probe_points_are_rational_and_approach_the_corner(monkeypatch, r1, c):
    # Pos3 holds for (x1 + x2)^2, so no point is a witness and every
    # candidate unit vector is tried
    p = parse("(x1 + x2)^2", 2)
    witness, points = conditions._corner_probe(p, r1, c)
    assert witness is None
    tried = []
    monkeypatch.setattr(conditions, "_exact_witness",
                        lambda p, radii, units: tried.append((radii, units)))
    conditions._corner_probe(p, r1, c)
    assert len(tried) == points >= 4
    for radii, (u, other) in tried:
        assert radii == (r1, 1 - r1) and other == (1, 0)
        assert u[0] ** 2 + u[1] ** 2 == 1 and u[1] > 0
    assert abs(tried[-1][1][0][0] - c) < 1e-12


@pytest.mark.parametrize("c", [F(-1), F(1, 2), F(-9, 10)])
def test_corner_probe_tries_the_points_it_always_tried(monkeypatch, c):
    # reference: -1 itself at c = -1, else ((1 - v^2) + 2vi)/(1 + v^2) for
    # the best approximations v of tan(arccos(c)/2) at denominators
    # 10, ..., 10^8, each once
    if c == -1:
        expected = [(F(-1), F(0))]
    else:
        v0 = F(math.tan(math.acos(c) / 2))
        expected = [((1 - v * v) / (1 + v * v), 2 * v / (1 + v * v))
                    for v in dict.fromkeys(v0.limit_denominator(10 ** k) for k in range(1, 9))]
    tried = []
    monkeypatch.setattr(conditions, "_exact_witness",
                        lambda p, radii, units: tried.append(units[0]))
    _, points = conditions._corner_probe(parse("(x1 + x2)^2", 2), F(1, 2), c)
    assert tried == expected and points == len(expected)


def _angle_error(u, theta):
    with mpmath.workdps(50):
        re, im = (mpmath.mpf(v.numerator) / v.denominator for v in u)
        return abs(mpmath.mpc(re, im) - mpmath.expj(mpmath.mpf(theta)))


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
                                   7 * math.pi, -0.3, math.pi - 1e-15, -math.pi + 1e-15])
def test_rational_units_have_norm_one_and_approach_the_phase(theta):
    ladder = [_rational_unit(theta, bound) for bound in _DENOMINATORS + (None,)]
    for re, im in ladder:
        assert isinstance(re, F) and isinstance(im, F) and re * re + im * im == 1
    errors = [_angle_error(u, theta) for u in ladder]
    assert all(later <= earlier for earlier, later in zip(errors, errors[1:]))
    # the float's own tan(theta/2) is a few ulps off the phase
    assert errors[-1] <= 1e-15
    if abs(theta) == math.pi:
        assert set(ladder) == {(-1, 0)}


def test_rational_units_at_quarter_turns_are_the_quarter_units():
    # tan(pi/4) of the float pi/4 is 1 - 2^-53, which every bound rounds to 1
    for theta, unit in [(0.0, (1, 0)), (math.pi / 2, (0, 1)), (-math.pi / 2, (0, -1))]:
        assert {_rational_unit(theta, bound) for bound in _DENOMINATORS} == {unit}


def _rational_modulus(re, im):
    """|re + i im| for a Gaussian rational whose modulus is rational."""
    square = re * re + im * im
    num, den = math.isqrt(square.numerator), math.isqrt(square.denominator)
    assert num * num == square.numerator and den * den == square.denominator
    return F(num, den)


def _witness_holds(p, witness):
    """|p(z)|^2 >= p(|z|)^2, exactly, at a Gaussian-rational witness."""
    z = [(F(re), F(im)) for re, im in witness["z"]]
    vre, vim = eval_complex_exact(p, z)
    return vre * vre + vim * vim >= eval_rational(p, [_rational_modulus(*v) for v in z]) ** 2


def test_pos3_falsify_fails_exactly_only_where_certify_does_not_hold():
    # positive coefficients with one set below zero, so that certify both
    # holds and fails.  The seeded search runs alone, an independent float
    # reference for the exact n = 2 stages; odd grids hold no quarter-turn
    # phase, so its every Fails comes from the Nelder-Mead refinement and
    # its exact check
    rng = random.Random(67)
    verdicts = {Verdict.HOLDS: 0, Verdict.FAILS: 0}
    for _ in range(40):
        d = rng.randint(2, 5)
        coefs = [F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(d + 1)]
        coefs[rng.randint(1, d - 1)] = -F(rng.randint(1, 4), 64) * sum(coefs)
        p = Polynomial(2, {(i, d - i): c for i, c in enumerate(coefs)})
        falsified = False
        for g in (5, 7):
            rep = conditions._seeded_search(p, Budgets(grid=g), rng.randint(0, 99), {})
            if rep.verdict is Verdict.FAILS:
                falsified = True
                assert rep.witness["validation"] == "exact" and rep.budget["refined"] >= 1
                z = [(F(re), F(im)) for re, im in rep.witness["z"]]
                radii = [_rational_modulus(re, im) for re, im in z]
                vre, vim = eval_complex_exact(p, z)
                assert vre * vre + vim * vim >= eval_rational(p, radii) ** 2
        certified = check_pos3(p).verdict
        assert not (falsified and certified is Verdict.HOLDS)
        if certified in verdicts and falsified == (certified is Verdict.FAILS):
            verdicts[certified] += 1
    assert verdicts[Verdict.HOLDS] >= 5 and verdicts[Verdict.FAILS] >= 20


@pytest.mark.parametrize("expr", ["-(x1+x2)", "-(x1+x2)^4 + 7*x1^2*x2^2", "-x1^2 + x1*x2 - x2^2"])
def test_pos3_certify_never_holds_for_negative_p(expr):
    rep = check_pos3(parse(expr, 2))
    assert rep.verdict is not Verdict.HOLDS


@pytest.mark.parametrize("expr", ["(x1+x2)^4 - 7*x1^2*x2^2", "(x1+x2)^4 - 8*x1^2*x2^2",
                                  "x1^3 + x1^2*x2 + x2^3", "2*x1^2 + 3*x1*x2 + x2^2",
                                  "x1^4 - x1^3*x2 + x1^2*x2^2 + 3*x1*x2^3 + x2^4",
                                  "(x1+x2)^6 - 63/2*x1^3*x2^3"])
def test_pos3_certify_verdict_survives_swapping_the_variables(expr):
    p = parse(expr, 2)
    swapped = Polynomial(2, {(b, a): c for (a, b), c in p.terms.items()})
    assert check_pos3(p).verdict is check_pos3(swapped).verdict


@pytest.mark.parametrize("expr, verdict", [
    ("(x1+x2+x3)^2", Verdict.HOLDS),
    ("(x1+x2+x3)^4 - 3*x1^2*x2^2", Verdict.HOLDS),
    ("x1^2 + x2^2 + x3^2 + x1*x2", Verdict.FAILS),
    # the x3 = 0 face is the dv quartic with lam = 9 > 8
    ("(x1+x2+x3)^4 - 9*x1^2*x2^2", Verdict.FAILS),
])
def test_pos3_certify_three_variables(expr, verdict):
    p = parse(expr, 3)
    rep = check_pos3(p)
    assert rep.verdict is verdict
    assert "boxes_processed" not in rep.budget
    if verdict is Verdict.FAILS:
        assert rep.witness["validation"] == "exact" and _witness_holds(p, rep.witness)


# ---------------------------------------------------------------------
# Pos3 pipeline: both modes
# ---------------------------------------------------------------------

def test_pos3_seeded_corpus_verdict_table():
    # (falsify, certify) verdict pairs per (n, d), default options: the
    # exact stages are shared, so the modes differ only where falsify's
    # seeded search finds a witness that no exact stage has
    table = {}
    for p in seeded_corpus():
        pair = "".join(check_pos3(p, mode=mode).verdict.value[0]
                       for mode in (Pos3Mode.FALSIFY, Pos3Mode.CERTIFY))
        counts = table.setdefault((p.nvars, p.degree()), {})
        counts[pair] = counts.get(pair, 0) + 1
    assert table == {(2, 4): {"FF": 107, "HH": 43}, (2, 6): {"FF": 102, "HH": 48},
                     (3, 3): {"FF": 53, "HH": 23, "FI": 1, "II": 3},
                     (3, 4): {"FF": 48, "HH": 20, "FI": 3, "II": 9}}


@st.composite
def pushed_st(draw):
    """p in 2 or 3 variables: positive coefficients on every monomial of its
    degree, then one or two of them times 1 - k/16 for k in 1..40."""
    n = draw(st.integers(2, 3))
    d = draw(st.integers(2, 4 if n == 3 else 6))
    monomials = list(monomials_of_degree(n, d))
    terms = {exp: F(draw(st.integers(1, 9)), draw(st.integers(1, 3))) for exp in monomials}
    for exp in draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=2)):
        terms[exp] *= 1 - F(draw(st.integers(1, 40)), 16)
    return Polynomial(n, {exp: c for exp, c in terms.items() if c})


#: falsify on its whole grid (at most 45 radii times 64 phases): a
#: permutation of the variables maps the samples to the samples, up to one
#: common phase, so a permuted p is searched at the same points; a drawn
#: part of a grid is not mapped to itself
WHOLE_GRID = Budgets(grid=8, max_samples=4000)


@settings(max_examples=100, deadline=None)
@given(pushed_st(), st.data())
def test_pos3_exact_holds_meets_no_sampled_fails_and_verdicts_are_invariant(p, data):
    # certify runs the exact stages alone, so its Holds is theirs
    if check_pos3(p).verdict is Verdict.HOLDS:
        assert conditions._seeded_search(p, FAST, 0, {}).verdict is not Verdict.FAILS
    perm = data.draw(st.permutations(range(p.nvars)))
    moved = Polynomial(p.nvars, {tuple(exp[k] for k in perm): c for exp, c in p.terms.items()})
    ratio = F(data.draw(st.integers(1, 50)), data.draw(st.integers(1, 50)))
    # certify is exact at any scale; falsify's float tests floor p(r)^2 at
    # an absolute 1e-30, so it is checked at moderate scales only
    power = F(10) ** data.draw(st.integers(-300, 300))
    for (budgets, mode), scaled in (((Budgets(), Pos3Mode.CERTIFY), p.scale(ratio * power)),
                                    ((WHOLE_GRID, FALSIFY), p.scale(ratio))):
        verdict = check_pos3(p, budgets, mode).verdict
        assert check_pos3(moved, budgets, mode).verdict is verdict
        assert check_pos3(scaled, budgets, mode).verdict is verdict


# ---------------------------------------------------------------------
# Pos3 from the support of a nonnegative p
# ---------------------------------------------------------------------

def test_pair_face_gcds():
    # x1x2x3^4 lies on no pair face; x3^6 alone is on the (x2, x3) face
    p = parse("x1^6 + x1^2*x2^4 + x1^3*x3^3 + x3^6 + x1*x2*x3^4", 3)
    assert conditions._pair_face_gcds(p) == {(0, 1): 4, (0, 2): 3, (1, 2): 0}


def _quarter_witness_holds(p, witness):
    """|p(z)|^2 >= p(|z|)^2, exactly, at a witness on the real axis."""
    z = [(F(re), F(im)) for re, im in witness["z"]]
    assert all(im == 0 for _, im in z)
    vre, vim = eval_complex_exact(p, z)
    return vre * vre + vim * vim >= eval_rational(p, [abs(re) for re, _ in z]) ** 2


@pytest.mark.parametrize("expr, n, face", [("x1^2 + x2^2", 2, (0, 1)),
                                           ("x1*x2*x3", 3, (0, 1)),
                                           ("x1^2 + x2^2 + x3^2 + x1*x2", 3, (0, 2))])
@pytest.mark.parametrize("mode", [Pos3Mode.FALSIFY, Pos3Mode.CERTIFY], ids=["Falsify", "Certify"])
def test_support_rule_fails_with_an_equality_witness_on_a_pair_face(expr, n, face, mode):
    # g_ij even (exponents 2 and 0) or 0 (no term on the face): z = e_i - e_j
    # gives |p(z)| = p(|z|)
    p = parse(expr, n)
    rep = check_pos3(p, mode=mode)
    assert rep.verdict is Verdict.FAILS and rep.budget == {}
    assert rep.witness["z"] == [["1" if k == face[0] else "-1" if k == face[1] else "0", "0"]
                                for k in range(n)]
    assert rep.witness["equality"] is True and rep.witness["validation"] == "exact"
    assert _quarter_witness_holds(p, rep.witness)


def test_support_rule_leaves_an_odd_face_gcd_to_the_search():
    # g_12 = 3: equality sits at phase difference 2 pi/3, where no
    # Gaussian-rational point lies, so both modes search: the Bernstein
    # search and the probe, then falsify's seeded search
    p = parse("x1^3 + x2^3", 2)
    assert conditions._nonnegative_support(p) is None
    certify = check_pos3(p)
    assert certify.verdict is Verdict.INCONCLUSIVE
    assert certify.budget == {"boxes_processed": 1, "boxes_closed": 0, "max_depth_used": 0,
                              "stop": {"reason": "G <= 0 at a corner", "r1": ["0", "1"],
                                       "c": ["-1", "1"], "corner": ["0", "-1"], "g": "0"},
                              "quarter_turn_points": 62}
    falsify = check_pos3(p, mode=FALSIFY)
    assert falsify.verdict is Verdict.INCONCLUSIVE
    assert falsify.budget == {**certify.budget, "samples": 1056, "candidates": 0,
                              "refined": 0, "note": "no counterexample found"}


@pytest.mark.parametrize("expr, n", [("(x1+x2+x3)^3 - x1^3", 3), ("x1^4 + x1^3*x2 + x2^4", 2)])
def test_support_rule_certifies_nonnegative_p_with_missing_monomials(expr, n):
    rep = check_pos3(parse(expr, n))
    assert rep.verdict is Verdict.HOLDS
    assert rep.certificate == {"method": "nonnegative_support"} and rep.budget == {}


@st.composite
def nonnegative_st(draw):
    """A nonnegative homogeneous p in 2..4 variables, from dense to sparse."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, 4))
    keep = draw(st.integers(3, 10))
    terms = {exp: F(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
             for exp in monomials_of_degree(n, d) if draw(st.integers(0, 9)) < keep}
    return Polynomial(n, terms or {(d,) + (0,) * (n - 1): F(1)})


def _search_stage_verdicts(p):
    """The verdicts of the search stages run alone: for n = 2 the Bernstein
    search, then the pair-face probe, then the seeded search."""
    verdicts = [conditions._bernstein_search(p, Budgets().max_depth).verdict] \
        if p.nvars == 2 else []
    witness, _ = conditions._pair_face_probe(p, Budgets().grid, (1, 2))
    verdicts.append(Verdict.INCONCLUSIVE if witness is None else Verdict.FAILS)
    return verdicts + [conditions._seeded_search(p, FAST, 0, {}).verdict]


@settings(max_examples=60, deadline=None)
@given(nonnegative_st(), st.data())
def test_support_rule_agrees_with_both_searches(p, data):
    rule = conditions._nonnegative_support(p)
    if rule is not None and rule.verdict is Verdict.HOLDS:
        assert Verdict.FAILS not in _search_stage_verdicts(p)
    if rule is not None and rule.verdict is Verdict.FAILS:
        assert Verdict.HOLDS not in _search_stage_verdicts(p)
        assert _quarter_witness_holds(p, rule.witness)
    # the verdict is a property of the support up to relabelling
    perm = data.draw(st.permutations(range(p.nvars)))
    scale = F(data.draw(st.integers(1, 50)), data.draw(st.integers(1, 50)))
    moved = Polynomial(p.nvars, {tuple(exp[k] for k in perm): scale * c
                                 for exp, c in p.terms.items()})
    moved_rule = conditions._nonnegative_support(moved)
    assert (rule and rule.verdict) == (moved_rule and moved_rule.verdict)


# ---------------------------------------------------------------------
# Pos3 pair-face quarter-turn probe
# ---------------------------------------------------------------------

def _pushed_negative(rng, n, d):
    """Positive coefficients on the monomials of degree d >= 2, one off the
    vertices pushed below zero by a share of at most 1/4 of their sum."""
    monomials = list(monomials_of_degree(n, d))
    terms = {exp: F(rng.randint(1, 9), rng.randint(1, 3)) for exp in monomials}
    inner = [exp for exp in monomials if max(exp) < d]
    terms[rng.choice(inner)] = -F(rng.randint(1, 16), 64) * sum(terms.values())
    return Polynomial(n, terms)


def _probe_by_fractions(p, grid, quarters):
    """`_pair_face_probe` as a plain loop of `_exact_witness` over the same
    points, in the same order."""
    n, points = p.nvars, 0
    for i, j in itertools.combinations(range(n), 2):
        for k in range(1, grid):
            for q in quarters:
                points += 1
                radii = [F(0)] * n
                radii[i], radii[j] = F(k, grid), F(grid - k, grid)
                units = [conditions._QUARTER_UNITS[q if m == j else 0] for m in range(n)]
                witness = conditions._exact_witness(p, radii, units)
                if witness is not None:
                    return witness, points
    return None, points


def test_pair_face_probe_matches_a_loop_of_exact_checks():
    rng = random.Random(12)
    hits = misses = 0
    # negative on a face, where p(|z|) < 0 makes a hit though |p(z)| < |p(|z|)|
    fixed = [parse("-(x1 + x2)^2", 2), parse("x3^2 - (x1 + x2)^2", 3)]
    for p in fixed + [_pushed_negative(rng, rng.randint(2, 4), rng.randint(2, 5))
                      for _ in range(30)]:
        for grid, quarters in ((8, (1, 2)), (6, (2,))):
            found = conditions._pair_face_probe(p, grid, quarters)
            assert found == _probe_by_fractions(p, grid, quarters)
            hits += found[0] is not None
            misses += found[0] is None
    assert hits >= 15 and misses >= 10


def test_pair_face_probe_counts_every_point_of_a_miss():
    p = parse("(x1+x2+x3+x4)^2", 4)
    assert conditions._pair_face_probe(p, 32, (1, 2)) == (None, 6 * 31 * 2)
    assert conditions._pair_face_probe(p, 6, (2,)) == (None, 6 * 5)
    assert conditions._pair_face_probe(p, 7, ()) == (None, 0)


def test_pair_face_probe_raises_when_the_exact_check_disagrees(monkeypatch):
    monkeypatch.setattr(conditions, "_exact_witness", lambda p, radii, units: None)
    with pytest.raises(RuntimeError, match="disagree"):
        conditions._pair_face_probe(P_EQUALITY_QUARTIC, 32, (1, 2))


def test_pair_face_probe_fails_only_where_certify_does_not_hold():
    rng = random.Random(13)
    hits = holds = 0
    for _ in range(60):
        p = _pushed_negative(rng, 2, rng.randint(2, 6))
        witness, _ = conditions._pair_face_probe(p, 32, (1, 2))
        certified = check_pos3(p).verdict
        assert witness is None or certified is not Verdict.HOLDS
        hits += witness is not None
        holds += certified is Verdict.HOLDS
    assert hits >= 10 and holds >= 5


def test_pair_face_probe_verdict_survives_permuting_the_variables():
    rng = random.Random(14)
    hits = misses = 0
    for _ in range(30):
        n = rng.randint(2, 4)
        p = _pushed_negative(rng, n, rng.randint(2, 4))
        perm = rng.sample(range(n), n)
        moved = Polynomial(n, {tuple(exp[k] for k in perm): c for exp, c in p.terms.items()})
        for grid, quarters in ((32, (1, 2)), (6, (2,))):
            found = conditions._pair_face_probe(p, grid, quarters)[0] is not None
            assert found == (conditions._pair_face_probe(moved, grid, quarters)[0] is not None)
            hits += found
            misses += not found
        if n >= 3:
            assert check_pos3(p).verdict is check_pos3(moved).verdict
    assert hits >= 10 and misses >= 2


def test_pos3_probes_both_quarter_turns_at_every_grid():
    # on its pair face p fails at phase difference pi/2 and not at pi; the
    # probe tests both at every grid, whether 4 | grid (4), 2 | grid (6) or
    # neither (7), in both modes, so no sample is drawn
    p = parse("7/2*x1^4 - 55/48*x1^2*x2^2 + 3/2*x1*x2^3 + 2/3*x2^4", 2)
    for grid, points in ((4, 3), (6, 3), (7, 5)):
        rep = check_pos3(p, Budgets(grid=grid), FALSIFY)
        assert rep.verdict is Verdict.FAILS and rep.witness["z"][1] == ["0", "1"]
        assert rep.budget["quarter_turn_points"] == points and "samples" not in rep.budget
        certify = check_pos3(p, Budgets(grid=grid))
        assert certify.to_json_dict() == rep.to_json_dict()


def _g_at(p, r1, t):
    """G at 50 digits, summed pair by pair from its definition."""
    with mpmath.workdps(50):
        r1, t = mpmath.mpf(r1), mpmath.mpf(t)
        d = p.degree()
        c = {exp[0]: mpmath.mpf(v.numerator) / v.denominator for exp, v in p.terms.items()}
        return mpmath.fsum(
            c[i] * c[j] * r1 ** (i + j - 1) * (1 - r1) ** (2 * d - i - j - 1)
            * (j - i + 2 * mpmath.fsum((j - i - m) * mpmath.cos(m * t) for m in range(1, j - i)))
            for i in sorted(c) for j in sorted(c) if i < j)


def _bernstein_value(b, r1, c):
    """The Bernstein form of `_bernstein_g`'s coefficients at (r1, c),
    without the scale; exact for rational arguments."""
    big_b, big_m = b.shape[0] - 1, b.shape[1] - 1
    u = (1 + c) / 2
    return sum(int(b[a, k]) * math.comb(big_b, a) * r1 ** a * (1 - r1) ** (big_b - a)
               * math.comb(big_m, k) * u ** k * (1 - u) ** (big_m - k)
               for a in range(big_b + 1) for k in range(big_m + 1))


def _fejer_sum(p, r1, c):
    """G at (r1, cos t = c), exactly, summed pair by pair from its definition."""
    d = p.degree()
    cheb = [F(1), c]        # T_m(c)
    while len(cheb) < d:
        cheb.append(2 * c * cheb[-1] - cheb[-2])
    coef = {exp[0]: v for exp, v in p.terms.items()}
    return sum((coef[i] * coef[j] * r1 ** (i + j - 1) * (1 - r1) ** (2 * d - i - j - 1)
                * (j - i + 2 * sum((j - i - m) * cheb[m] for m in range(1, j - i)))
                for i in coef for j in coef if i < j), F(0))


def test_bernstein_form_is_g_exactly():
    rng = random.Random(41)
    checked = 0
    while checked < 12:
        p = rand_homogeneous(rng, 2, rng.randint(1, 7), density=0.7)
        if len(p.terms) < 2:
            continue
        checked += 1
        b, scale = _bernstein_g(p)
        d = p.degree()
        assert b.shape == (2 * d - 1, d) and scale > 0
        # the corner coefficients are G at the corners (r1, c)
        for (x, y), (r1, c) in {(0, 0): (0, -1), (0, -1): (0, 1),
                                (-1, 0): (1, -1), (-1, -1): (1, 1)}.items():
            assert scale * b[x, y] == _fejer_sum(p, F(r1), F(c))
        size = sum(abs(float(c)) for c in p.terms.values()) ** 2 * d ** 2
        for _ in range(10):
            r1 = rng.choice([F(0), F(1), F(rng.randint(1, 29), rng.randint(30, 40))])
            v = F(rng.randint(-20, 20), rng.randint(1, 9))
            c, s = (1 - v * v) / (1 + v * v), 2 * v / (1 + v * v)     # |c + is| = 1
            g = scale * _bernstein_value(b, r1, c)
            assert g == _fejer_sum(p, r1, c)
            # D = 4 r1 r2 sin^2(t/2) G = 2 r1 r2 (1 - cos t) G
            re, im = eval_complex_exact(p, [(r1 * c, r1 * s), (1 - r1, F(0))])
            d_value = eval_rational(p, [r1, 1 - r1]) ** 2 - (re * re + im * im)
            assert d_value == 2 * r1 * (1 - r1) * (1 - c) * g
            # and at c = cos t against the 50-digit G
            t = rng.uniform(0, math.pi)
            with mpmath.workdps(50):
                rm = mpmath.mpf(r1.numerator) / r1.denominator
                value = (mpmath.mpf(scale.numerator) / scale.denominator
                         * _bernstein_value(b, rm, mpmath.cos(mpmath.mpf(t))))
                assert abs(value - _g_at(p, rm, t)) <= mpmath.mpf(10) ** -40 * (1 + size)


@pytest.mark.parametrize("p", [
    parse("x1 + x2", 2),
    parse("3/7*x1 - 2/5*x2", 2),
    Polynomial(2, {(1, 0): F(1, 10 ** 30), (0, 1): F(7, 3 ** 60)}),
    Polynomial(2, {(4, 0): F(1, 10 ** 30), (2, 2): F(-3, 7 ** 40), (1, 3): F(5, 11 ** 30),
                   (0, 4): F(2)}),
], ids=["linear", "linear-mixed-signs", "linear-coprime-1e30", "quartic-coprime-1e30"])
def test_bernstein_form_is_in_integers(p):
    # degree 1 gives B = M = 0, and the scale carries the large coprime
    # denominators, while b stays Python ints with gcd 1
    b, scale = _bernstein_g(p)
    d = p.degree()
    assert b.shape == (2 * d - 1, d) and isinstance(scale, F) and scale > 0
    assert all(type(v) is int for v in b.flat)
    assert math.gcd(*b.flat) == 1
    if d == 1:
        assert scale * b[0, 0] == math.prod(p.terms.values())     # G = c_0 c_1 F_1
    for r1 in (F(0), F(1, 3), F(1)):
        for c in (F(-1), F(1, 5), F(1)):
            assert scale * _bernstein_value(b, r1, c) == _fejer_sum(p, r1, c)


_STOP_AT_THRESHOLD = {"reason": "G <= 0 at a corner", "r1": ["0", "1/2"], "c": ["-1", "1"],
                      "corner": ["1/2", "-1"], "g": "0"}


@pytest.mark.parametrize("k, lam, budget", [
    (k, lam, {"boxes_processed": 3, "boxes_closed": 2, "max_depth_used": 1})
    for k, lam in ((2, "15/2"), (3, "63/2"), (5, "511"))] + [
    (k, str(2 ** (2 * k - 1)), {"boxes_processed": 2, "boxes_closed": 0, "max_depth_used": 1,
                                "stop": _STOP_AT_THRESHOLD, "quarter_turn_points": 32})
    for k in (2, 3, 5)])
def test_pos3_certify_dv_search_budgets(k, lam, budget):
    # the search's box counts, depth and stop on dv members just below and
    # at the threshold 2^(2k-1)
    assert check_pos3(_dv(k, lam)).budget == budget


def test_halves_are_the_restrictions_to_the_half_boxes():
    rng = random.Random(43)
    for _ in range(10):
        shape = (rng.randint(1, 6), rng.randint(1, 6))
        b = np.array([[rng.randint(-50, 50) for _ in range(shape[1])]
                      for _ in range(shape[0])], dtype=object)
        for axis in (0, 1):
            halves = _halves(b, axis)
            n = shape[axis] - 1
            for _ in range(5):
                x, y = F(rng.randint(0, 16), 16), F(rng.randint(0, 16), 16)
                for side, half in enumerate(halves):
                    # the half's (x, y) is the box's point with the cut
                    # coordinate mapped into [side/2, (side + 1)/2]
                    point = [x, y]
                    point[axis] = (side + point[axis]) / 2
                    assert _bernstein_value(half, x, 2 * y - 1) == \
                        2 ** n * _bernstein_value(b, point[0], 2 * point[1] - 1)


def test_unranked_compositions_follow_monomials_of_degree():
    for n in range(1, 5):
        for g in range(1, 9):
            listed = list(monomials_of_degree(n, g))
            got = _unrank_compositions(n, g, range(len(listed)))
            assert [tuple(row) for row in got.tolist()] == listed
    listed = list(monomials_of_degree(6, 32))
    ranks = random.Random(6).sample(range(len(listed)), 500) + [0, len(listed) - 1]
    got = _unrank_compositions(6, 32, ranks)
    assert [tuple(row) for row in got.tolist()] == [listed[k] for k in ranks]


@pytest.mark.parametrize("n, g, seed", [(4, 6, 3), (2, 7, 0)])
def test_grid_samples_equal_the_fraction_lists(n, g, seed):
    # both grids fit whole in 20,000 samples, so the seed is not read
    _, _, _, R, TH = _grid_samples(n, Budgets(grid=g), seed)
    ref_R, ref_TH = fraction_grid_samples(n, g)
    assert len(R) < Budgets().max_samples
    assert np.array_equal(R, ref_R)
    assert np.array_equal(TH, ref_TH)


@pytest.mark.parametrize("n, g, seed", [(3, 32, 0), (3, 32, 7), (3, 64, 1), (8, 32, 2)])
def test_drawn_grid_samples_are_grid_points_set_by_the_seed(n, g, seed):
    # none of these grids fits in 20,000 samples
    max_samples = Budgets().max_samples

    def draw(seed):
        return _grid_samples(n, Budgets(grid=g), seed)

    radii, row, phases, R, TH = draw(seed)
    assert len(row) == len(phases) == len(R) == len(TH) == max_samples
    # every row is a grid point: radii a composition of g, phases in
    # 0..g-1 with the first 0
    comps = radii[row]
    assert comps.shape == (max_samples, n)
    assert comps.min() >= 0 and np.all(comps.sum(axis=1) == g)
    assert phases.shape == (max_samples, n)
    assert np.all(phases[:, 0] == 0) and phases.min() >= 0 and phases.max() < g
    assert np.array_equal(R, comps / g) and np.array_equal(TH, 2 * phases / g * math.pi)
    # the distinct radii drawn, each once
    assert len({tuple(r) for r in radii.tolist()}) == len(radii) == len(np.unique(row))
    # the seed alone sets the draws
    again, other = draw(seed), draw(seed + 1)
    for a, b in zip(again, (radii, row, phases, R, TH)):
        assert np.array_equal(a, b)
    assert not (np.array_equal(other[0][other[1]], comps)
                and np.array_equal(other[2], phases))


def test_grid_d_matches_high_precision_values():
    rng = random.Random(53)
    for _ in range(8):
        n = rng.randint(2, 4)
        p = rand_homogeneous(rng, n, rng.randint(1, 5), density=0.7)
        g = rng.choice([5, 8, 16, 32])
        radii, row, phases, _, _ = _grid_samples(n, Budgets(grid=g, max_samples=300),
                                                  rng.randint(0, 99))
        D, p_r = _eval_d_grid(p, g, radii, row, phases)
        for s in rng.sample(range(len(row)), 40):
            r = [F(int(e), g) for e in radii[row[s]]]
            theta = [2 * mpmath.pi * int(j) / g for j in phases[s]]
            with mpmath.workdps(50):
                rm = [mpmath.mpf(v.numerator) / v.denominator for v in r]
                # sum of |c_I| r^I: D and p(r) are sums of terms at most
                # its square and itself
                size = mpmath.fsum(abs(mpmath.mpf(c.numerator) / c.denominator)
                                   * mpmath.fprod(v ** e for v, e in zip(rm, exp))
                                   for exp, c in p.terms.items())
                value = modulus_gap(p, rm, theta)
                exact_p_r = eval_rational(p, r)
                assert abs(D[s] - value) <= 1e-12 * size ** 2
                assert abs(p_r[s] - mpmath.mpf(exact_p_r.numerator) / exact_p_r.denominator) \
                    <= 1e-12 * size


def _random_grid_points(rng, g, n, count):
    radii, row, phases, _, _ = _grid_samples(n, Budgets(grid=g, max_samples=count),
                                              rng.randint(0, 99))
    return radii, row, phases


def test_grid_d_is_even_in_the_phases():
    # theta and -theta give |p(z)| and |p(conj z)|, the same D, exactly
    rng = random.Random(71)
    for _ in range(12):
        n = rng.randint(2, 4)
        p = rand_homogeneous(rng, n, rng.randint(1, 5), density=0.7)
        g = rng.choice([5, 7, 12, 32])
        radii, row, phases = _random_grid_points(rng, g, n, 500)
        D, p_r = _eval_d_grid(p, g, radii, row, phases)
        D_mirror, p_r_mirror = _eval_d_grid(p, g, radii, row, -phases % g)
        assert np.array_equal(D, D_mirror) and np.array_equal(p_r, p_r_mirror)


@pytest.mark.parametrize("chunk", [1, 7, 1000, 1 << 19])
def test_grid_d_does_not_depend_on_the_chunks(monkeypatch, chunk):
    p = parse("(x1 + x2 + x3)^4 - 29/2*x1^2*x2^2 + x2*x3^3", 3)
    radii, row, phases, _, _ = _grid_samples(3, Budgets(max_samples=3000), 0)
    whole = _eval_d_grid(p, 32, radii, row, phases)
    monkeypatch.setattr(conditions, "_GRID_CHUNK", chunk)
    parts = _eval_d_grid(p, 32, radii, row, phases)
    assert np.array_equal(whole[0], parts[0]) and np.array_equal(whole[1], parts[1])


@pytest.mark.parametrize("n", [2, 3])
def test_nelder_mead_objective_is_d_over_p_squared_on_the_grid(n):
    rng = random.Random(80 + n)
    g, checked = 12, 0
    for _ in range(6):
        p = rand_homogeneous(rng, n, rng.randint(1, 5), density=0.8)
        radii, row, phases = _random_grid_points(rng, g, n, 300)
        D, p_r = _eval_d_grid(p, g, radii, row, phases)
        # sum of |c_I| r^I, the scale of the terms of D / p(r)^2 times p(r)^2
        _, size = _eval_d_grid(Polynomial(n, {e: abs(c) for e, c in p.terms.items()}),
                               g, radii, row, phases)
        T = np.array(list(p.terms), dtype=float)
        coef = np.array([float(c) for c in p.terms.values()])
        for s in range(len(row)):
            if size[s] == 0 or abs(p_r[s]) < 1e-3 * size[s]:
                continue    # at or near p(r) = 0 the ratio itself is ill-conditioned
            x = np.concatenate([radii[row[s], :n - 1] / g, 2 * math.pi * phases[s, 1:] / g])
            value = conditions._nelder_mead_objective(x, T, coef)
            assert abs(value - D[s] / p_r[s] ** 2) <= 1e-12 * (size[s] / p_r[s]) ** 2
            checked += 1
    assert checked >= 500


def test_nelder_mead_objective_penalizes_points_past_the_simplex():
    p = parse("(x1 + x2 + x3)^3 - 8*x1*x2*x3", 3)
    T = np.array(list(p.terms), dtype=float)
    coef = np.array([float(c) for c in p.terms.values()])
    # r_3 = 1 - r_1 - r_2 < 0, a free radius past 1 clipped to 1 first
    for x, rn in (([0.7, 0.6, 0.1, 0.2], 1 - (0.7 + 0.6)), ([1.5, 0.2, 0.0, 3.0], 1 - 1.2)):
        assert rn < 0
        assert conditions._nelder_mead_objective(np.array(x), T, coef) == \
            pytest.approx(1e6 * (1 + rn ** 2), rel=1e-15)
    # on the face r_3 = 0 there is no penalty: D / p(r)^2 <= 1
    assert conditions._nelder_mead_objective(np.array([0.5, 0.5, 1.0, 2.0]), T, coef) <= 1
    # for n = 2 the clip keeps r_2 = 1 - r_1 >= 0
    p2 = _dv(2, 7)
    T2 = np.array(list(p2.terms), dtype=float)
    coef2 = np.array([float(c) for c in p2.terms.values()])
    assert conditions._nelder_mead_objective(np.array([1.5, 1.0]), T2, coef2) == 0


def test_misalignment_is_the_distance_to_the_mean_direction():
    rng = np.random.default_rng(5)
    R = rng.random((200, 4))
    TH = rng.uniform(-7, 7, (200, 4))
    alpha = np.angle((R * np.exp(1j * TH)).sum(axis=1))
    by_definition = (R * (1 - np.cos(TH - alpha[:, None]))).sum(axis=1)
    assert np.allclose(conditions._misalignment(R, TH), by_definition, rtol=0, atol=1e-14)
    aligned = conditions._misalignment(R, np.full_like(TH, 1.25))
    assert np.all(np.abs(aligned) <= 1e-15)


@pytest.mark.parametrize("lam, points, z, abs_p_z_squared, p_abs_z, p_abs_z_squared", [
    ("29/2", 9, [["5/27", "0"], ["0", "1"], ["0", "0"]],
     "2465844340249/4398046511104", "1568627/2097152", "2460590665129/4398046511104"),
    ("9", 26, [["13/19", "0"], ["-1", "0"], ["0", "0"]],
     "300068406225/1099511627776", "499495/1048576", "249495255025/1099511627776"),
    ("25/2", 13, [["7/25", "0"], ["0", "1"], ["0", "0"]],
     "2052556127329/4398046511104", "1331527/2097152", "1772964151729/4398046511104"),
], ids=["29/2", "9", "25/2"])
def test_pos3_falsify_lift_reports(lam, points, z, abs_p_z_squared, p_abs_z,
                                   p_abs_z_squared):
    # the x3 = 0 face is the dv quartic with the same lam > 8: the pair-face
    # probe fails it at a quarter turn, at r = (k/32, 1 - k/32), with no
    # sample drawn
    p = parse(f"(x1 + x2 + x3)^4 - {lam}*x1^2*x2^2", 3)
    rep = check_pos3(p, mode=FALSIFY)
    assert rep.verdict is Verdict.FAILS
    assert rep.budget == {"quarter_turn_points": points}
    assert rep.witness == {"z": z, "abs_p_z_squared": abs_p_z_squared,
                           "p_abs_z": p_abs_z, "p_abs_z_squared": p_abs_z_squared,
                           "equality": False, "validation": "exact"}
    assert _witness_holds(p, rep.witness)
    # at grid 32 certify runs the same probe on the same points
    assert check_pos3(p).to_json_dict() == rep.to_json_dict()


@pytest.mark.parametrize("h, z", [
    ("3*x1^4 + 9*x1^3*x2 - 5/2*x1^2*x2^2 + x1*x2^3 + 6*x2^4",
     [["3/5", "0"], ["-44/125", "-117/125"], ["0", "0"]]),
    ("7*x1^6 + 6*x1^5*x2 + 2*x1^4*x2^2 - 6*x1^3*x2^3 + 3*x1^2*x2^4 + 2*x1*x2^5 + 9/2*x2^6",
     [["1", "0"], ["5/13", "12/13"], ["0", "0"]]),
], ids=["quartic", "sextic"])
def test_only_the_seeded_search_decides_lifts_of_off_axis_failures(h, z):
    # h fails Pos3 only away from phase differences pi/2 and pi, so no
    # quarter turn on a pair face of p = h + x3 (x1 + x2 + x3)^(d - 1)
    # fails, and no exact stage decides p: certify is Inconclusive, and
    # falsify's refinement finds a witness off the axes
    d = parse(h, 2).degree()
    p = parse(f"{h} + x3*(x1 + x2 + x3)^{d - 1}", 3)
    assert check_pos1(p).verdict is check_pos2(p).verdict is Verdict.HOLDS
    certify = check_pos3(p)
    assert certify.verdict is Verdict.INCONCLUSIVE
    assert certify.budget["quarter_turn_points"] == 186
    falsify = check_pos3(p, mode=FALSIFY)
    assert falsify.verdict is Verdict.FAILS and falsify.budget["refined"] >= 1
    assert falsify.witness["z"] == z and falsify.witness["validation"] == "exact"
    assert _witness_holds(p, falsify.witness)


def test_only_the_seeded_search_decides_an_n2_input_with_a_zero_at_phase_2pi_over_3():
    # G = 0 at the corner (r1, c) = (1/2, -1/2): phase 2 pi/3, where no
    # Gaussian-rational point lies, so the corner probe cannot close it;
    # falsify's refinement finds a witness next to it
    p = parse("3*x1^6 + 2/3*x1^5*x2 - 2/3*x1^4*x2^2 - 1/3*x1^3*x2^3 - 2/3*x1^2*x2^4"
              " + 2/3*x1*x2^5 + 3*x2^6", 2)
    certify = check_pos3(p)
    assert certify.verdict is Verdict.INCONCLUSIVE
    assert certify.budget["boxes_processed"] == 6
    assert certify.budget["stop"] == {"reason": "G <= 0 at a corner", "r1": ["1/4", "1/2"],
                                      "c": ["-1", "-1/2"], "corner": ["1/2", "-1/2"], "g": "0"}
    falsify = check_pos3(p, mode=FALSIFY)
    assert falsify.verdict is Verdict.FAILS
    assert falsify.witness["z"] == [["1", "0"], ["8/17", "15/17"]]
    assert _witness_holds(p, falsify.witness)


def test_pos3_falsify_quarter_turn_witness_off_the_real_axis():
    # p(1, i) = 3 against p(1, 1) = 1: phase pi/2 fails at every r, and the
    # probe tries it first, at r = (1/32, 31/32), after the Bernstein search
    # stops at its first box
    rep = check_pos3(parse("x1^4 + x2^4 - x1^2*x2^2", 2), mode=FALSIFY)
    assert rep.budget == {"boxes_processed": 1, "boxes_closed": 0, "max_depth_used": 0,
                          "stop": {"reason": "G <= 0 at a corner", "r1": ["0", "1"],
                                   "c": ["-1", "1"], "corner": ["0", "-1"], "g": "0"},
                          "quarter_turn_points": 1}
    assert rep.witness == {"z": [["1/31", "0"], ["0", "1"]],
                           "abs_p_z_squared": "854668817289/1099511627776",
                           "p_abs_z": "922561/1048576",
                           "p_abs_z_squared": "851118798721/1099511627776",
                           "equality": False, "validation": "exact"}


def test_pos3_certify_sign_rule_fails_where_p_is_not_positive():
    # both modes apply the rule before their searches, for any n
    for mode in Pos3Mode:
        # p(1/2, 1/2) = -1: at z = (1/2, -1/2), |p(z)| = 0 >= p(|z|), though
        # |p(z)|^2 < p(|z|)^2, so the witness rests on the sign of p(|z|)
        rep = check_pos3(parse("-(x1 + x2)^2", 2), mode=mode)
        assert rep.verdict is Verdict.FAILS and rep.budget == {"note": "p(1/2, 1/2) <= 0"}
        assert rep.witness == {"z": [["1", "0"], ["-1", "0"]], "abs_p_z_squared": "0",
                               "p_abs_z": "-1", "p_abs_z_squared": "1",
                               "equality": False, "validation": "exact"}
        # p(1/2, 1/2) = 0 is a Fails too
        rep = check_pos3(parse("(x1 - x2)^2*(x1 + x2)", 2), mode=mode)
        assert rep.verdict is Verdict.FAILS and rep.budget == {"note": "p(1/2, 1/2) <= 0"}
        assert rep.witness["p_abs_z"] == "0"
        # at z = (1/3, 1/3, -1/3), |p(z)| = 1/9 >= 0 >= p(|z|) = -1
        rep = check_pos3(parse("-(x1 + x2 + x3)^2", 3), mode=mode)
        assert rep.verdict is Verdict.FAILS
        assert rep.budget == {"note": "p(1/3, 1/3, 1/3) <= 0"}
        assert rep.witness == {"z": [["1", "0"], ["1", "0"], ["-1", "0"]],
                               "abs_p_z_squared": "1/81", "p_abs_z": "-1",
                               "p_abs_z_squared": "1", "equality": False,
                               "validation": "exact"}


def test_sign_rule_fails_exactly_wherever_the_coefficient_sum_is_not_positive():
    rng = random.Random(81)
    fails = 0
    for _ in range(80):
        n, d = rng.randint(2, 4), rng.randint(1, 4)
        p = rand_homogeneous(rng, n, d, density=0.6)
        total = sum(p.terms.values())
        # p at (1, ..., 1, -1), straight from the terms
        flipped = sum(c * (-1) ** exp[-1] for exp, c in p.terms.items())
        for mode in Pos3Mode:
            rep = check_pos3(p, Budgets(grid=6, max_samples=200), mode)
            if total > 0:
                assert "note" not in rep.budget or "<= 0" not in rep.budget["note"]
                continue
            fails += 1
            assert rep.verdict is Verdict.FAILS
            assert rep.witness["z"] == [["1", "0"]] * (n - 1) + [["-1", "0"]]
            assert F(rep.witness["p_abs_z"]) == total / n ** d
            assert F(rep.witness["abs_p_z_squared"]) == (flipped / n ** d) ** 2
    assert fails >= 40


def test_falsify_float_layer_is_scale_free():
    # 2^600 and 10^-200 times p: the float layer sees each normalized by a
    # power of two, so the search runs as on p, and the witness search as well
    p = parse("(x1 + x2 + x3)^3 - 8*x1*x2*x3", 3)
    rep = check_pos3(p, mode=FALSIFY)
    for scale in (F(2 ** 600), F(1, 10 ** 200)):
        scaled_rep = check_pos3(p.scale(scale), mode=FALSIFY)
        assert scaled_rep.verdict is rep.verdict
        assert scaled_rep.budget == rep.budget


def test_falsify_finds_the_corpus_witnesses_at_a_tiny_scale():
    # the four corpus inputs that only the seeded search decides: at 10^-200
    # times p, D would underflow and p(r)^2 fall below the 1e-30 floors,
    # were p not normalized first
    corpus = seeded_corpus()
    for i in (319, 427, 439, 450):
        p = corpus[i]
        rep = check_pos3(p, mode=FALSIFY)
        tiny_rep = check_pos3(p.scale(F(1, 10 ** 200)), mode=FALSIFY)
        assert rep.verdict is tiny_rep.verdict is Verdict.FAILS
        assert check_pos3(p).verdict is Verdict.INCONCLUSIVE
        assert tiny_rep.budget == rep.budget
        assert tiny_rep.witness["z"] == rep.witness["z"]


def test_pos3_falsify_single_term_has_equality_witness():
    # |z1 z2| = |z1| |z2|: a monomial has no pairs, D = 0, and Pos3 fails
    rep = check_pos3(parse("x1*x2", 2), mode=FALSIFY)
    assert rep.verdict is Verdict.FAILS
    assert rep.witness["equality"] is True
    assert rep.witness["validation"] == "exact"


def test_pos3_falsify_never_lists_the_radius_grid(monkeypatch):
    # 8 variables at grid 32 have 15,380,937 radii.  The negative
    # coefficient lies on no pair face and every face is (x_i + x_j)^3, so
    # the pair-face probe misses and the sampler runs.
    def listed(*args):
        raise AssertionError("the radius grid was listed")
    monkeypatch.setattr(conditions, "monomials_of_degree", listed)
    p = parse("(x1+x2+x3+x4+x5+x6+x7+x8)^3 - 7*x1*x2*x3", 8)
    start = time.perf_counter()
    rep = check_pos3(p, Budgets(max_samples=2000), FALSIFY)
    assert time.perf_counter() - start < 10
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.budget["quarter_turn_points"] == 28 * 62
    assert rep.budget["samples"] == 2000


def test_budgets_validate():
    # an out-of-range budget is refused before any search runs
    for name, least, most in (("grid", 1, 4096), ("max_depth", 0, 1000),
                              ("max_samples", 1, 10 ** 6)):
        Budgets(**{name: least})
        with pytest.raises(ValueError, match=f"{name} must be at least {least}"):
            Budgets(**{name: least - 1})
        Budgets(**{name: most})
        with pytest.raises(ValueError, match=f"{name} must be at most {most}"):
            Budgets(**{name: most + 1})
    for removed in ("delta", "polya_budget", "sample_grid"):
        with pytest.raises(TypeError):
            Budgets(**{removed: 1})
    # the mode and the seed are check_pos3's own
    with pytest.raises(ValueError, match="seed must be at least 0"):
        check_pos3(P7, seed=-1)
    assert Pos3Mode("certify") is Pos3Mode.CERTIFY and Pos3Mode("falsify") is FALSIFY


def test_pos3_witness_transfers_to_odd_powers():
    # any exact equality/violation witness for p stays one for p^m:
    # |p^m(z)| = |p(z)|^m >= p(|z|)^m = p^m(|z|)
    rep = check_pos3(P_EQUALITY_QUARTIC, FAST, FALSIFY)
    z = [(F(re), F(im)) for re, im in rep.witness["z"]]
    radii = [abs(F(re)) + abs(F(im)) for re, im in rep.witness["z"]]
    for m in (3, 5):
        pm = P_EQUALITY_QUARTIC ** m
        vre, vim = eval_complex_exact(pm, z)
        assert vre * vre + vim * vim >= eval_rational(pm, radii) ** 2


def test_pos3_certified_implies_weak_modulus_bound():
    # consequence of a certified verdict: |p(z)| <= p(|z|) + tol everywhere
    rng = random.Random(11)
    for _ in range(200):
        z = rand_complex_point(rng, 2)
        lhs = abs(eval_complex(P7, z))
        rhs = eval_complex(P7, [abs(v) for v in z]).real
        assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------
# Hermitian bihomogeneous form
# ---------------------------------------------------------------------

def test_assoc_bihom_diagonal_identity():
    rng = random.Random(5)
    for _ in range(50):
        p = rand_homogeneous(rng, 3, rng.randint(1, 4), density=0.8)
        z = rand_complex_point(rng, 3)
        lhs = assoc_bihom_eval(p, z, z)
        rhs = eval_complex(p, [abs(v) ** 2 for v in z])
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_assoc_bihom_single_monomial():
    assert assoc_bihom_eval(parse("x1", 2), [1j, 0], [1, 0]) == pytest.approx(1j)


def test_assoc_bihom_hermitian_symmetry():
    rng = random.Random(6)
    for _ in range(50):
        p = rand_homogeneous(rng, 2, rng.randint(1, 4))
        z = rand_complex_point(rng, 2)
        w = rand_complex_point(rng, 2)
        lhs = assoc_bihom_eval(p, z, w).conjugate()
        rhs = assoc_bihom_eval(p, w, z)
        scale = max(1.0, abs(rhs))
        assert abs(lhs - rhs) <= 1e-9 * scale


def test_condition_report_json_shape():
    rep = check_pos3(P_EQUALITY_QUARTIC, FAST, FALSIFY)
    d = rep.to_json_dict()
    assert d["condition"] == "Pos3"
    assert d["verdict"] == "Fails"
    assert set(d) == {"condition", "verdict", "certificate", "witness", "budget"}
