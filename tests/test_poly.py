"""Polynomial core: grammar, arithmetic, evaluation; the test charts."""

import importlib
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerpos import (MINUS_INFINITY, Interval, ParseError, Polynomial,
                      eval_complex_exact, eval_interval, eval_rational,
                      infer_nvars, integer_terms, monomials_of_degree, parse,
                      serialize)
from powerpos.cli import main
from powerpos.corpus import load_corpus
from powerpos.poly import MAX_NESTING, MAX_NVARS, MAX_POWER_BITS, MAX_POWER_TERMS

from helpers import (dehomogenize, eval_complex, rand_homogeneous, rational_forms,
                     sympy_coeff_dict, to_sympy)


# ---------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------

def test_parse_quartic_with_negative_cross_term():
    p = parse("(x1+x2)^4 - 8*x1^2*x2^2", 2)
    assert p.terms == {(4, 0): 1, (3, 1): 4, (2, 2): -2, (1, 3): 4, (0, 4): 1}


def test_parse_zero():
    assert parse("0", 3).terms == {}


def test_parse_binomial_square():
    assert parse("(x1+x2)^2", 2).terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_parse_rational_literal():
    p = parse("1/2*x1 + 3/4", 1)
    assert p.terms == {(1,): F(1, 2), (0,): F(3, 4)}


def test_parse_s_variables_alias():
    assert parse("s1 + s2 + 1", 2) == parse("x1 + x2 + 1", 2)


def test_parse_syntax_error_reports_offset():
    with pytest.raises(ParseError) as exc:
        parse("x1 + @", 2)
    assert exc.value.offset == 5


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        parse("x3", 2)


def test_parse_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse("x1^-2", 1)


def test_parse_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("x1 x2", 2)


def test_parse_matches_sympy_on_nested_expression():
    text = "(x1 + 2*x2 - 3*x3)^3 - (x1 - x2)^2 * (x3 + 1/2)"
    assert parse(text, 3).terms == sympy_coeff_dict(text, 3)


# ---------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------

def test_mul_telescoping_cubic():
    a = parse("x1 + x2", 2)
    b = parse("x1^2 - x1*x2 + x2^2", 2)
    assert a * b == parse("x1^3 + x2^3", 2)


def test_pow_zero_is_one():
    p = parse("x1 + x2", 2)
    assert p ** 0 == Polynomial.constant(2, 1)


def test_pow_square():
    assert parse("x1+x2", 2) ** 2 == parse("x1^2 + 2*x1*x2 + x2^2", 2)


def test_nvars_mismatch_rejected():
    with pytest.raises(ValueError):
        parse("x1", 1) + parse("x1", 2)


def test_zero_coefficients_pruned():
    p = parse("x1 - x1 + x2", 2)
    assert p.terms == {(0, 1): 1}


# ---------------------------------------------------------------------
# integer form
# ---------------------------------------------------------------------

@settings(max_examples=80)
@given(rational_forms())
def test_integer_terms_are_the_least_integer_multiple(p):
    import sympy
    terms, scale = integer_terms(p)
    assert list(terms) == list(p.terms)
    assert all(type(c) is int for c in terms.values())
    assert terms == {e: c * scale for e, c in p.terms.items()}
    # L is least: L/q leaves a fraction for every prime q dividing L
    for q in sympy.primefactors(scale):
        assert any((c * (scale // q)).denominator != 1 for c in p.terms.values())


def test_integer_terms_of_zero_and_of_integers():
    assert integer_terms(Polynomial.zero(3)) == ({}, 1)
    assert integer_terms(parse("2*x1 - 3*x2", 2)) == ({(1, 0): 2, (0, 1): -3}, 1)
    assert integer_terms(parse("1/6*x1 + 3/4*x2", 2)) == ({(1, 0): 2, (0, 1): 9}, 12)


# ---------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------

def test_eval_rational_quartic_at_ones():
    p = parse("(x1+x2)^4 - 8*x1^2*x2^2", 2)
    assert eval_rational(p, [1, 1]) == 8


def test_eval_at_origin_is_constant_term():
    p = parse("(x1+x2)^3", 2)
    assert eval_rational(p, [0, 0]) == 0


def test_eval_interval_contains_range_endpoints():
    p = parse("x1^2", 1)
    iv = eval_interval(p, [Interval(-1.0, 2.0)])
    assert iv.lo <= 0 and iv.hi >= 4


def test_eval_complex_single_monomial():
    p = parse("x1*x2", 2)
    assert eval_complex(p, [1j, 2]) == pytest.approx(2j)


def test_eval_complex_exact_matches_multiplying_term_by_term():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 4)
        p = rand_homogeneous(rng, n, rng.randint(0, 6), density=0.6)
        point = [(F(rng.randint(-9, 9), rng.randint(1, 5)), F(rng.randint(-9, 9), rng.randint(1, 5)))
                 for _ in range(n)]
        want_re, want_im = F(0), F(0)
        for exp, coef in p.terms.items():
            re, im = coef, F(0)
            for (zr, zi), e in zip(point, exp):
                for _ in range(e):
                    re, im = re * zr - im * zi, re * zi + im * zr
            want_re, want_im = want_re + re, want_im + im
        assert eval_complex_exact(p, point) == (want_re, want_im)
        # and it agrees with the float evaluation
        got = complex(*(float(v) for v in eval_complex_exact(p, point)))
        assert got == pytest.approx(eval_complex(p, [complex(float(a), float(b)) for a, b in point]),
                                    rel=1e-9, abs=1e-9)
    assert eval_complex_exact(Polynomial(2, {}), [(F(1), F(2)), (F(3), F(0))]) == (0, 0)


# ---------------------------------------------------------------------
# dehomogenize: the coordinate charts of the lattice tests (helpers.py)
# ---------------------------------------------------------------------

def test_dehomogenize_linear():
    p = parse("x1+x2+x3", 3)
    assert dehomogenize(p, 2) == parse("s1 + s2 + 1", 2)


def test_dehomogenize_quartic_family():
    p = parse("(x1+x2)^4 - 7*x1^2*x2^2", 2)
    assert dehomogenize(p, 1) == parse("(s1+1)^4 - 7*s1^2", 1)


def test_dehomogenize_with_swap():
    # slots are (s1, s2, 1); swapping positions 0 and 2 sends coordinate
    # x1 the value 1, so x1^3 restricts to the constant 1
    p = parse("x1^3", 3)
    assert dehomogenize(p, 2, sigma=[2, 1, 0]) == Polynomial.constant(2, 1)


def test_dehomogenize_requires_homogeneous():
    with pytest.raises(ValueError):
        dehomogenize(parse("x1 + 1", 2), 1)


def test_dehomogenize_ell_out_of_range():
    with pytest.raises(ValueError):
        dehomogenize(parse("x1+x2", 2), 2)


# ---------------------------------------------------------------------
# structure and round-trips
# ---------------------------------------------------------------------

def test_degree_and_homogeneity():
    p = parse("(x1+x2+x3)^3 - x1^3", 3)
    assert p.degree() == 3
    assert p.is_homogeneous()
    assert not parse("s1+s2+1", 2).is_homogeneous()


def test_zero_degree_sentinel():
    assert Polynomial.zero(2).degree() is MINUS_INFINITY


def test_serialize_parse_fixed_point_on_corpus():
    for entry in load_corpus().values():
        for poly in (entry.p, entry.q):
            text = serialize(poly)
            assert parse(text, poly.nvars) == poly
            assert serialize(parse(text, poly.nvars)) == text


def test_oversized_power_fails_fast():
    t0 = time.perf_counter()
    with pytest.raises(ParseError, match=f"200001 terms.*limit of {MAX_POWER_TERMS}"):
        parse("(x1+x2)^200000", 2)
    assert main(["check", "(x1+x2)^200000"]) == 1
    assert time.perf_counter() - t0 < 1.0


def test_power_guard_counts_terms_not_the_basis(monkeypatch):
    monkeypatch.setattr("powerpos.poly.MAX_POWER_TERMS", 10)
    # one term stays one term, whatever the degree-m basis holds
    assert parse("x1^100000", 4) == Polynomial.variable(4, 0) ** 100000
    # (x1+x2)^m has m + 1 terms, in any number of variables
    assert len(parse("(x1+x2)^9", 3).terms) == 10
    with pytest.raises(ParseError, match="11 terms"):
        parse("(x1+x2)^10", 3)
    # (x1^2 + x1*x2 + x2^2)^m has at most the 2m + 1 degree-2m monomials
    assert len(parse("(x1^2 + x1*x2 + x2^2)^4", 2).terms) == 9
    with pytest.raises(ParseError, match="11 terms"):
        parse("(x1^2 + x1*x2 + x2^2)^5", 2)
    # a non-homogeneous base fills degrees 0..deg*m, not one degree
    assert len(parse("(x1 + 1)^9", 1).terms) == 10
    with pytest.raises(ParseError, match="11 terms"):
        parse("(x1 + 1)^10", 1)


@pytest.mark.parametrize("text, nvars, message", [
    ("(x1+x2)^999*(x1+x2)^999", 2, f"product may expand to 1999 terms.*limit of {MAX_POWER_TERMS}"),
    ("3^1000000000", 1, f"2000000000 bits.*limit of {MAX_POWER_BITS}"),
    ("(3*x1)^1000000000", 1, f"2000000000 bits.*limit of {MAX_POWER_BITS}"),
])
def test_oversized_product_or_coefficient_fails_fast(capsys, text, nvars, message):
    t0 = time.perf_counter()
    with pytest.raises(ParseError, match=message):
        parse(text, nvars)
    capsys.readouterr()
    assert main(["check", text]) == 1
    assert time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "error:" in err


def test_parse_refuses_more_than_max_nvars():
    assert parse("x1", MAX_NVARS).nvars == MAX_NVARS
    with pytest.raises(ParseError, match=f"{MAX_NVARS + 1} variables, over the limit of "
                                         f"{MAX_NVARS}"):
        parse("x1", MAX_NVARS + 1)


def test_parse_refuses_parentheses_nested_past_max_nesting():
    assert parse("(" * MAX_NESTING + "x1+x2" + ")" * MAX_NESTING, 2) == parse("x1+x2", 2)
    # the offset is that of the first parenthesis past the limit, also
    # after a closed group and inside a product
    text = "(x1)*" + "(" * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1)
    with pytest.raises(ParseError, match=f"nested over the limit of {MAX_NESTING}") as info:
        parse(text, 1)
    assert info.value.offset == len("(x1)*") + MAX_NESTING
    # far past the interpreter's recursion limit, still one ParseError
    with pytest.raises(ParseError):
        parse("(" * 100_000 + "x1" + ")" * 100_000, 1)


def test_product_guard_bounds_terms_by_factors_and_monomials(monkeypatch):
    monkeypatch.setattr("powerpos.poly.MAX_POWER_TERMS", 10)
    # 5 * 6 term pairs, but only the 10 monomials of degree 9
    assert len(parse("(x1+x2)^4*(x1+x2)^5", 2).terms) == 10
    with pytest.raises(ParseError, match="product may expand to 11 terms"):
        parse("(x1+x2)^5*(x1+x2)^5", 2)
    # 3 * 4 term pairs, fewer than the 28 monomials of degree 2
    with pytest.raises(ParseError, match="product may expand to 12 terms"):
        parse("(x1+x2+x3)*(x4+x5+x6+x7)", 7)
    # a non-homogeneous product fills degrees 0..9
    assert len(parse("(x1+1)^4*(x1+1)^5", 1).terms) == 10
    with pytest.raises(ParseError, match="product may expand to 11 terms"):
        parse("(x1+1)^5*(x1+1)^5", 1)
    # a zero factor makes the product zero; a power to 0 is one term
    assert parse("0*(x1+x2)^9*(x1+x2)^9", 2).is_zero()
    assert parse("(x1+x2+x3)^0*(x1+x2)^9", 3) == parse("(x1+x2)^9", 3)


def test_coefficient_guard_counts_bits_not_the_exponent():
    assert parse("x1^200000", 1) == Polynomial.variable(1, 0) ** 200000
    assert parse("(1/2)^100000*x1", 1) == parse("x1", 1).scale(F(1, 2 ** 100000))
    with pytest.raises(ParseError, match="100001 bits"):
        parse("2^100001", 1)
    # |-3/2| takes ceil(log2(3 * 2)) = 3 bits per power
    assert len(parse("(-3/2*x1)^33333", 1).terms) == 1
    with pytest.raises(ParseError, match="100002 bits"):
        parse("(-3/2*x1)^33334", 1)


def test_bench_expressions_pass_the_power_guard(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        for seed in range(1, 11):
            for case in workloads.generate(name, seed):
                for text in (case["expr"], case.get("q", "1")):
                    parse(text, case["nvars"])


def test_infer_nvars():
    assert infer_nvars("x1 + x4*x2") == 4
    assert infer_nvars("17") == 1


def test_monomials_of_degree_count():
    monos = list(monomials_of_degree(3, 4))
    assert len(monos) == len(set(monos)) == 15
    assert all(sum(e) == 4 for e in monos)


# ---------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------

@st.composite
def poly_st(draw, nvars=None, max_degree=3, max_terms=5):
    if nvars is None:
        nvars = draw(st.integers(1, 3))
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(0, max_degree)) for _ in range(nvars))
        terms[exp] = F(draw(st.integers(-9, 9)), draw(st.integers(1, 6)))
    return Polynomial(nvars, terms)


@st.composite
def poly_triple_st(draw):
    nvars = draw(st.integers(1, 3))
    return tuple(draw(poly_st(nvars=nvars)) for _ in range(3))


@given(poly_triple_st())
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(poly_st(max_degree=2, max_terms=3), st.integers(0, 6), st.integers(0, 6))
def test_pow_additivity(p, a, b):
    if a + b > 6:
        a, b = a % 3, b % 3
    assert p ** (a + b) == (p ** a) * (p ** b)


@given(poly_st(max_degree=2, max_terms=3), st.integers(1, 4),
       st.lists(st.fractions(min_value=-3, max_value=3), min_size=3, max_size=3))
def test_eval_of_powers(p, m, point):
    x = point[:p.nvars]
    assert eval_rational(p ** m, x) == eval_rational(p, x) ** m


@settings(max_examples=1000, deadline=None)
@given(poly_st(), st.data())
def test_eval_interval_soundness(p, data):
    box = []
    point = []
    for _ in range(p.nvars):
        a = data.draw(st.floats(-4, 4, allow_nan=False))
        b = data.draw(st.floats(-4, 4, allow_nan=False))
        lo, hi = min(a, b), max(a, b)
        box.append(Interval(lo, hi))
        t = data.draw(st.floats(0, 1))
        # lo + t*(hi - lo) can round just outside [lo, hi]
        point.append(F(min(max(lo + t * (hi - lo), lo), hi)))
    value = eval_rational(p, point)
    iv = eval_interval(p, box)
    assert iv.lo <= value <= iv.hi


@given(st.data())
def test_homogeneity_scaling(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    nvars = rng.randint(1, 3)
    d = rng.randint(1, 4)
    p = rand_homogeneous(rng, nvars, d, density=0.7)
    t = F(rng.randint(1, 9), rng.randint(1, 5))
    x = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(nvars)]
    assert eval_rational(p, [t * v for v in x]) == t ** d * eval_rational(p, x)


@given(poly_st())
def test_mul_matches_sympy(p):
    q = Polynomial(p.nvars, {(0,) * p.nvars: F(1, 2),
                             (1,) + (0,) * (p.nvars - 1): F(3)})
    import sympy
    assert to_sympy(p * q) == sympy.expand(to_sympy(p) * to_sympy(q))
