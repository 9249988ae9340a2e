"""Condition deciders: unit-vector, facet-derivative, and modulus checks."""

import cmath
import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from powerpos import (Condition, Pos3Mode, Pos3Options, SgcsResult, Verdict,
                      assoc_bihom_eval, check_pos1, check_pos2, check_pos3,
                      check_sgcs, eval_complex, eval_rational, facet_derivative,
                      max_squared_norm_diag, parse)
from powerpos import conditions
from powerpos.conditions import _eval_d_batch, _pair_data, _pair_intervals
from powerpos.poly import eval_complex_exact

from helpers import rand_complex_point, rand_homogeneous

P_CUBIC_MINUS_CORNER = parse("(x1+x2+x3)^3 - x1^3", 3)
P_FACET_DEGENERATE = parse("x1^2*(x1+x2+x3) + (x2+x3)^3", 3)
P_EQUALITY_QUARTIC = parse("(x1+x2)^4 - 8*x1^2*x2^2", 2)
P7 = parse("(x1+x2)^4 - 7*x1^2*x2^2", 2)

FAST_FALSIFY = Pos3Options(mode=Pos3Mode.FALSIFY, grid=16, max_samples=4000)


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


# ---------------------------------------------------------------------
# facet derivative and Pos2
# ---------------------------------------------------------------------

def test_facet_derivative_zero_for_degenerate_facet():
    assert facet_derivative(P_FACET_DEGENERATE, 0).is_zero()


def test_facet_derivative_binomial():
    g = facet_derivative(parse("(x1+x2)^2", 2), 0)
    assert g == parse("2*x1", 1)


def test_facet_derivative_quartic_family():
    g = facet_derivative(P7, 0)
    assert g == parse("4*x1^3", 1)


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
    assert eval_rational(p.partial_derivative(rep.witness["facet"] - 1), point) <= 0


def test_pos2_vacuous_single_variable():
    rep = check_pos2(parse("x1^2", 1))
    assert rep.verdict is Verdict.HOLDS


# ---------------------------------------------------------------------
# Pos3
# ---------------------------------------------------------------------

def test_pos3_falsify_equality_quartic():
    rep = check_pos3(P_EQUALITY_QUARTIC, FAST_FALSIFY)
    assert rep.verdict is Verdict.FAILS
    assert rep.witness["validation"] == "exact"
    # equality case: |p(z)|^2 == p(|z|)^2 at the witness
    assert rep.witness["abs_p_z_squared"] == rep.witness["p_abs_z_squared"]
    assert rep.witness["equality"] is True


def test_pos3_fails_witness_revalidates_exactly():
    rep = check_pos3(P_EQUALITY_QUARTIC, FAST_FALSIFY)
    z = [(F(re), F(im)) for re, im in rep.witness["z"]]
    vre, vim = eval_complex_exact(P_EQUALITY_QUARTIC, z)
    lhs = vre * vre + vim * vim
    radii = [F(re) ** 2 + F(im) ** 2 for re, im in rep.witness["z"]]
    # moduli are 0/1 at the normalized witness, so |z_k| is exact
    assert all(r in (0, 1) for r in radii)
    rhs = eval_rational(P_EQUALITY_QUARTIC, radii) ** 2
    assert lhs >= rhs


def test_pos3_certify_linear():
    rep = check_pos3(parse("x1+x2", 2),
                     Pos3Options(mode=Pos3Mode.CERTIFY))
    assert rep.verdict is Verdict.HOLDS
    assert rep.certificate["delta"] == pytest.approx(1e-3)
    assert rep.certificate["jf_probe"]["all_positive_definite"]
    # the box tree does not depend on how many boxes are evaluated at once
    assert rep.budget == {"boxes_processed": 30613, "boxes_closed": 10190,
                          "boxes_deferred": 5117, "boxes_infeasible": 0,
                          "max_depth_used": 24}


def test_pos3_certify_quartic_family():
    rep = check_pos3(P7, Pos3Options(mode=Pos3Mode.CERTIFY))
    assert rep.verdict is Verdict.HOLDS
    assert rep.certificate["resolution_limited"] is True
    assert rep.budget == {"boxes_processed": 31489, "boxes_closed": 10628,
                          "boxes_deferred": 5117, "boxes_infeasible": 0,
                          "max_depth_used": 24}


def test_pos3_falsify_no_counterexample_on_linear():
    rep = check_pos3(parse("x1+x2", 2), FAST_FALSIFY)
    assert rep.verdict is Verdict.INCONCLUSIVE


def test_pos3_single_variable_vacuous():
    rep = check_pos3(parse("x1^3", 1))
    assert rep.verdict is Verdict.HOLDS


def test_pos3_budget_exhaustion_is_inconclusive():
    opts = Pos3Options(mode=Pos3Mode.CERTIFY, max_boxes=10)
    rep = check_pos3(P7, opts)
    assert rep.verdict is Verdict.INCONCLUSIVE


@pytest.mark.parametrize("max_boxes", [1, 10, 511, 513, 1000])
def test_pos3_box_budget_is_never_exceeded(max_boxes):
    rep = check_pos3(P7, Pos3Options(mode=Pos3Mode.CERTIFY, max_boxes=max_boxes))
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.budget["boxes_processed"] == max_boxes


def test_pos3_box_budget_that_just_suffices_still_holds():
    p = parse("x1+x2", 2)
    enough = Pos3Options(mode=Pos3Mode.CERTIFY, max_boxes=30613)
    assert check_pos3(p, enough).verdict is Verdict.HOLDS
    short = Pos3Options(mode=Pos3Mode.CERTIFY, max_boxes=30612)
    rep = check_pos3(p, short)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.budget["boxes_processed"] == 30612


@pytest.mark.parametrize("expr, nvars, counts", [
    ("(x1+x2)^4 - 55/7*x1^2*x2^2", 2, (2942, 974, 438, 0)),
    ("(x1+x2+x3)^2", 3, (213, 35, 0, 13)),
])
def test_pos3_unresolved_stop_does_not_depend_on_the_batch_size(expr, nvars, counts,
                                                                monkeypatch):
    p = parse(expr, nvars)
    batched = check_pos3(p, Pos3Options(mode=Pos3Mode.CERTIFY))
    monkeypatch.setattr(conditions, "_CHUNK", 1)
    one_by_one = check_pos3(p, Pos3Options(mode=Pos3Mode.CERTIFY))
    assert batched.to_json_dict() == one_by_one.to_json_dict()
    assert batched.verdict is Verdict.INCONCLUSIVE
    budget = batched.budget
    assert (budget["boxes_processed"], budget["boxes_closed"], budget["boxes_deferred"],
            budget["boxes_infeasible"]) == counts
    assert budget["unresolved_boxes"] == 51 and len(budget["unresolved_sample"]) == 5


def _d_at(p, radii, phases):
    """D = p(r)^2 - |p(r e^{i theta})|^2 at 50 digits, and a bound on its error."""
    with mpmath.workdps(50):
        z = [mpmath.mpf(r) * mpmath.expj(mpmath.mpf(t)) for r, t in zip(radii, phases)]
        p_r = mpmath.mpf(0)
        p_z = mpmath.mpc(0)
        for exp, coef in p.terms.items():
            c = mpmath.mpf(coef.numerator) / coef.denominator
            p_r += c * mpmath.fprod(mpmath.mpf(r) ** e for r, e in zip(radii, exp))
            p_z += c * mpmath.fprod(v ** e for v, e in zip(z, exp))
        return p_r ** 2 - abs(p_z) ** 2, mpmath.mpf(10) ** -40 * (1 + p_r ** 2)


@pytest.mark.parametrize("nvars", [2, 3])
def test_d_batch_encloses_high_precision_values(nvars):
    rng = random.Random(20 + nvars)
    for _ in range(6):
        p = rand_homogeneous(rng, nvars, rng.randint(1, 4), density=0.7)
        boxes = []
        for _ in range(20):
            width = rng.choice([0.0, 1e-9, 0.01, 0.3])
            r_box = [(a, min(1.0, a + width * rng.random())) for a in
                     (rng.uniform(0, 1) for _ in range(nvars))]
            t_box = [(a, a + rng.choice([0.0, 1e-9, 0.1, 1.0, 7.0])) for a in
                     (rng.uniform(-7, 7) for _ in range(nvars))]
            boxes.append((r_box, t_box))
        r = tuple(np.array([[iv[i] for iv in rb] for rb, _ in boxes]) for i in (0, 1))
        t = tuple(np.array([[iv[i] for iv in tb] for _, tb in boxes]) for i in (0, 1))
        pair_ivs = _pair_intervals(_pair_data(p))
        d_lo, d_hi = _eval_d_batch(pair_ivs, r, t)
        for b, (r_box, t_box) in enumerate(boxes):
            # one box alone encloses the same values as in the batch
            one = _eval_d_batch(pair_ivs, (r[0][b:b + 1], r[1][b:b + 1]),
                                (t[0][b:b + 1], t[1][b:b + 1]))
            assert (one[0][0], one[1][0]) == (d_lo[b], d_hi[b])
            for _ in range(4):
                pick = [rng.choice([0.0, 1.0, rng.random()]) for _ in range(2 * nvars)]
                radii = [lo + s * (hi - lo) for (lo, hi), s in zip(r_box, pick)]
                phases = [lo + s * (hi - lo) for (lo, hi), s in zip(t_box, pick[nvars:])]
                radii = [min(max(v, lo), hi) for v, (lo, hi) in zip(radii, r_box)]
                phases = [min(max(v, lo), hi) for v, (lo, hi) in zip(phases, t_box)]
                value, err = _d_at(p, radii, phases)
                assert d_lo[b] - err <= value <= d_hi[b] + err


def test_pos3_options_validate():
    with pytest.raises(ValueError):
        Pos3Options(delta=0.0)


def test_pos3_witness_transfers_to_odd_powers():
    # any exact equality/violation witness for p stays one for p^m:
    # |p^m(z)| = |p(z)|^m >= p(|z|)^m = p^m(|z|)
    rep = check_pos3(P_EQUALITY_QUARTIC, FAST_FALSIFY)
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
# Hermitian form probes
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


def test_sgcs_dependent_pair():
    z = [1 + 1j, 2 - 0.5j]
    w = [2 * v for v in z]
    assert check_sgcs(P7, z, w) is SgcsResult.EQUALITY_ON_DEPENDENT


def test_sgcs_strict_for_condition_passing_p():
    rng = random.Random(9)
    hits = 0
    for _ in range(50):
        z = rand_complex_point(rng, 2)
        w = rand_complex_point(rng, 2)
        res = check_sgcs(P7, z, w)
        if res is SgcsResult.STRICT_HOLDS:
            hits += 1
        else:
            assert res is SgcsResult.EQUALITY_ON_DEPENDENT
    assert hits >= 45  # random pairs are almost surely independent


def test_sgcs_violated_at_modulus_equality_point():
    res = check_sgcs(P_EQUALITY_QUARTIC, [1, 1], [-1, 1])
    assert res is SgcsResult.VIOLATED


def test_max_squared_norm_diag_examples():
    assert max_squared_norm_diag(parse("(x1+x2)^2", 2)) is True
    assert max_squared_norm_diag(parse("x1^2 + x2^2", 2)) is False
    telescoping = parse("x1^2 - x1*x2 + x2^2", 2)
    assert max_squared_norm_diag(parse("(x1+x2)^2", 2) * telescoping) is False
    assert max_squared_norm_diag(parse("(x1+x2)^3", 2) * telescoping) is True


def test_condition_report_json_shape():
    rep = check_pos3(P_EQUALITY_QUARTIC, FAST_FALSIFY)
    d = rep.to_json_dict()
    assert d["condition"] == "Pos3"
    assert d["verdict"] == "Fails"
    assert set(d) == {"condition", "verdict", "certificate", "witness", "budget"}
