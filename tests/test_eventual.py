"""Power scans, all-positive checks, and simplex-multiplier exponents."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from powerpos import (PROFILES, Polynomial, all_coeffs_positive, corpus, eventual,
                      integer_terms, parse, polya_exponent, power_scan, scan_rows,
                      serialize)
from powerpos.cli import run_check
from powerpos.eventual import (DEFAULT_DENSE_CAP, OnsetProof, _falling_factorial_form,
                               _lex_exponents, _lex_rank)
from powerpos.poly import dense_monomial_count

from helpers import dense_grid_pow_2d, rand_homogeneous, sum_of_variables

P7 = parse("(x1+x2)^4 - 7*x1^2*x2^2", 2)
P8 = parse("(x1+x2)^4 - 8*x1^2*x2^2", 2)


# ---------------------------------------------------------------------
# all_coeffs_positive
# ---------------------------------------------------------------------

def test_missing_monomial_fails():
    assert all_coeffs_positive(parse("x1^3 + x2^3", 2)) is False


def test_full_binomial_cube_passes():
    assert all_coeffs_positive(parse("(x1+x2)^3", 2)) is True


def test_p7_cube_has_negative_middle_coefficient():
    cube = P7 ** 3
    assert cube.coefficient((6, 6)) == -7
    assert all_coeffs_positive(cube) is False
    # independent dense-convolution oracle agrees on the whole expansion
    grid = dense_grid_pow_2d(P7, 3)
    assert grid[6, 6] == -7
    for (a, b), c in cube.terms.items():
        assert grid[a, b] == c


def test_zero_polynomial_rejected_or_false():
    assert all_coeffs_positive(Polynomial.zero(2)) is False


def test_nonhomogeneous_rejected():
    with pytest.raises(ValueError):
        all_coeffs_positive(parse("x1 + 1", 1))


def test_kernel_array_needs_every_slot_positive():
    # one slot per basis monomial: a 0 slot is a missing monomial
    assert all_coeffs_positive(np.array([3, 10**30, 1], dtype=object)) is True
    assert all_coeffs_positive(np.array([3, 0, 1], dtype=object)) is False
    assert all_coeffs_positive(np.array([3, -1, 1], dtype=object)) is False


# ---------------------------------------------------------------------
# power_scan
# ---------------------------------------------------------------------

def test_scan_telescoping_onset_three():
    p = parse("x1 + x2", 2)
    q = parse("x1^2 - x1*x2 + x2^2", 2)
    pattern = power_scan(p, q, 10)
    assert pattern.flags[1] is False  # x1^3 + x2^3
    assert pattern.flags[2] is False  # degree-4 product misses x1^2*x2^2
    assert pattern.flags[3:] == [True] * 8
    assert pattern.onset == 3
    assert pattern.first_true == 3


def test_scan_all_positive_base_onset_zero():
    p = parse("(x1+x2)^2", 2)
    pattern = power_scan(p, Polynomial.constant(2, 1), 6)
    assert pattern.flags == [True] * 7
    assert pattern.onset == 0
    assert pattern.first_true == 0


def test_scan_equality_quartic_never_nonnegative():
    pattern = power_scan(P8, Polynomial.constant(2, 1), 8)
    assert pattern.onset is None
    for m in range(1, 9):
        pm = P8 ** m
        assert any(c < 0 for c in pm.terms.values())


def test_scan_guardrail_refuses_huge_window():
    with pytest.raises(ValueError, match="cap"):
        power_scan(parse("(x1+x2+x3+x4)^4", 4), Polynomial.constant(4, 1), 2000)


def test_scan_rejects_constant_p():
    with pytest.raises(ValueError):
        power_scan(Polynomial.constant(2, 2), Polynomial.constant(2, 1), 3)


def test_scan_flags_match_direct_power_check():
    pattern = power_scan(P7, Polynomial.constant(2, 1), 6)
    for m in (0, 2, 3, 5):
        assert pattern.flags[m] == all_coeffs_positive(P7 ** m)


def test_monotone_absorption_for_all_positive_base():
    rng = random.Random(17)
    for _ in range(20):
        p = rand_homogeneous(rng, rng.randint(2, 3), rng.randint(1, 3),
                             all_positive=True)
        q = rand_homogeneous(rng, p.nvars, rng.randint(1, 3))
        pattern = power_scan(p, q, 8)
        for m in range(8):
            if pattern.flags[m]:
                assert pattern.flags[m + 1]


def test_product_of_all_positive_is_all_positive():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 3)
        a = rand_homogeneous(rng, n, rng.randint(1, 3), all_positive=True)
        b = rand_homogeneous(rng, n, rng.randint(1, 3), all_positive=True)
        assert all_coeffs_positive(a * b)


def test_pattern_json_uses_window_onset_label():
    pattern = power_scan(parse("x1+x2", 2), Polynomial.constant(2, 1), 3)
    d = pattern.to_json_dict()
    assert "window_onset" in d
    assert d["window_onset"] == pattern.onset


def _count_products(monkeypatch):
    """A list whose length counts the kernel products formed from now on."""
    calls = []
    times = eventual._times

    def counted(*args):
        calls.append(None)
        return times(*args)

    monkeypatch.setattr(eventual, "_times", counted)
    return calls


@pytest.mark.parametrize("lam, onset", [("25/4", 2), ("27/4", 2), ("29/4", 6), ("31/4", 20)])
def test_scan_stops_where_the_run_closes(monkeypatch, lam, onset):
    p = parse(f"(x1+x2)^4 - {lam}*x1^2*x2^2", 2)
    one = Polynomial.constant(2, 1)
    full = [r.all_positive for r in scan_rows(p, one, 150)]
    calls = _count_products(monkeypatch)
    pattern = power_scan(p, one, 150)
    # q = 1: p's flags are the scan's, so the scan forms q and p^1..p^(2a-1)
    assert len(calls) == 2 * onset
    assert pattern.proof.p_run == pattern.proof.q_run == (onset, 2 * onset - 1)
    assert pattern.flags == full
    assert pattern.onset == onset and not full[onset - 1]
    assert pattern.to_json_dict()["proof"] == {"p_run": [onset, 2 * onset - 1],
                                               "q_run": [onset, 2 * onset - 1]}


def test_scan_polya_classic_proof_and_products(monkeypatch):
    entry = corpus.load_corpus()["polya_classic"]
    calls = _count_products(monkeypatch)
    pattern = power_scan(entry.p, entry.q, entry.scan_m_max)
    # q, then p^m * q for m = 1..3 and p^1 alone; the full window would form 11
    assert len(calls) == 5
    assert pattern.proof == OnsetProof(p_run=(1, 1), q_run=(3, 3))
    assert pattern.onset_proved and pattern.onset == 3
    assert pattern.flags == [False] * 3 + [True] * 8


def test_scan_that_never_turns_true_forms_no_extra_product(monkeypatch):
    # nonconstant q whose flags stay false: p alone is never stepped, so
    # the scan forms q and the 100 products of the full window, no more
    p = parse("(x1+x2)^4 - 9*x1^2*x2^2", 2)
    calls = _count_products(monkeypatch)
    pattern = power_scan(p, parse("x1", 2), 100)
    assert len(calls) == 101
    assert pattern.proof is None and pattern.onset is None
    assert pattern.flags == [False] * 101


def test_scan_with_a_positive_constant_q_proves_from_m_zero():
    pattern = power_scan(parse("x1 + 2*x2", 2), Polynomial.constant(2, 3), 9)
    assert pattern.proof == OnsetProof(p_run=(1, 1), q_run=(0, 0))
    assert pattern.flags == [True] * 10 and pattern.onset == 0


def test_scan_rows_refuse_at_once():
    with pytest.raises(ValueError, match="cap"):
        scan_rows(parse("(x1+x2+x3+x4)^4", 4), Polynomial.constant(4, 1), 2000)


def _scan_q(rng, n):
    kind = rng.randrange(7)
    if kind < 3:
        return Polynomial.constant(n, (1, 3, -2)[kind])
    if kind == 3:
        return Polynomial.variable(n, 0)
    if kind == 6:
        # a negative mixed term, which a positive p absorbs after a few powers
        cross = Polynomial.variable(n, 0) * Polynomial.variable(n, n - 1)
        return sum_of_variables(n) ** 2 - cross.scale(3 if n > 1 else 0)
    return rand_homogeneous(rng, n, rng.randint(1, 2), all_positive=kind == 4,
                            density=0.8)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3))
def test_proof_stopped_scan_equals_the_full_rows_scan(seed, n):
    rng = random.Random(seed)
    if n > 1 and rng.random() < 0.4:
        # a quartic whose onset grows as lam nears 8
        lam = Fraction(rng.randint(24, 31), 4)
        p = sum_of_variables(n) ** 4 - Polynomial(n, {(2, 2) + (0,) * (n - 2): lam})
    else:
        p = _rand_scan_base(rng, n)
    q = _scan_q(rng, n)
    m_max = rng.randint(1, 12 if n < 3 else 6)
    flags = [r.all_positive for r in scan_rows(p, q, m_max)]
    pattern = power_scan(p, q, m_max)
    assert pattern.flags == flags
    assert pattern.first_true == next((m for m, f in enumerate(flags) if f), None)
    assert pattern.onset == min((m for m in range(m_max + 1) if all(flags[m:])), default=None)
    if pattern.proof is not None:
        (a, b), (m0, m1) = pattern.proof.p_run, pattern.proof.q_run
        assert b == 2 * a - 1 <= m_max and m1 - m0 + 1 == a
        assert all(all_coeffs_positive(p ** k) for k in range(a, b + 1))
        assert a == 1 or not all_coeffs_positive(p ** (a - 1))
        assert all(flags[m0:m1 + 1]) and (m0 == 0 or not flags[m0 - 1])
        assert pattern.onset == m0


@pytest.mark.parametrize("mode", ["falsify", "certify"])
def test_proved_onset_never_meets_a_failing_condition(mode):
    # by the paper's theorem, all-positive large powers need all three
    # conditions, so a proved onset rules out every Fails
    rng = random.Random(53)
    proved = 0
    for _ in range(25):
        n = rng.randint(2, 3)
        p = _rand_scan_base(rng, n)
        pattern = power_scan(p, Polynomial.constant(n, 1), 8)
        if not pattern.onset_proved:
            continue
        proved += 1
        _, result = run_check(p, PROFILES["fast"], mode, 0)
        assert all(r["verdict"] != "Fails" for r in result["reports"]), serialize(p)
    assert proved >= 5


# ---------------------------------------------------------------------
# polya_exponent
# ---------------------------------------------------------------------

def test_polya_exponent_telescoping_is_three():
    assert polya_exponent(parse("x1^2 - x1*x2 + x2^2", 2), 10) == 3


def test_polya_exponent_zero_for_all_positive():
    assert polya_exponent(parse("x1^2 + 3*x1*x2 + x2^2", 2), 10) == 0


def test_polya_exponent_absent_for_negative():
    assert polya_exponent(parse("-x1", 2), 20) is None


def test_polya_soundness_on_positive_orthant():
    from powerpos import eval_rational
    rng = random.Random(31)
    g = parse("x1^2 - x1*x2 + x2^2", 2)
    assert polya_exponent(g, 10) is not None
    from fractions import Fraction as F
    for _ in range(100):
        x = [F(rng.randint(1, 50), rng.randint(1, 10)) for _ in range(2)]
        assert eval_rational(g, x) > 0


# ---------------------------------------------------------------------
# the exact integer kernel against the Fraction path
# ---------------------------------------------------------------------

def _fraction_scan(p, q, m_max):
    """(all-positive, term count, least coefficient) of p^m * q by Polynomial ** and *."""
    rows = []
    for m in range(m_max + 1):
        f = p ** m * q
        coefs = list(f.terms.values())
        rows.append((all_coeffs_positive(f), len(coefs), min(coefs)))
    return rows


def _rand_scan_base(rng, n):
    """Rational p with some negative coefficients, often eventually positive."""
    if rng.random() < 0.5:
        return rand_homogeneous(rng, n, rng.randint(1, 3), density=0.8)
    d = rng.randint(1, 3)
    base = sum_of_variables(n) ** d
    noise = rand_homogeneous(rng, n, d, density=0.5)
    return base + noise.scale(Fraction(1, rng.randint(10, 40)))


def test_scan_matches_fraction_path_on_random_rationals():
    rng = random.Random(41)
    onsets = set()
    for _ in range(60):
        n = rng.randint(1, 4)
        p = _rand_scan_base(rng, n)
        q = rand_homogeneous(rng, n, rng.randint(0, 2), density=0.8)
        m_max = rng.randint(1, 5 if n < 4 else 3)
        pattern = power_scan(p, q, m_max)
        rows = _fraction_scan(p, q, m_max)
        flags = [r[0] for r in rows]
        assert pattern.flags == flags
        scanned = list(scan_rows(p, q, m_max))
        assert [r.m for r in scanned] == list(range(m_max + 1))
        assert [r.all_positive for r in scanned] == flags
        assert [r.num_terms for r in scanned] == [r[1] for r in rows]
        assert [r.min_coef for r in scanned] == [r[2] for r in rows]
        assert pattern.first_true == next((m for m, f in enumerate(flags) if f), None)
        onset = min((m for m in range(m_max + 1) if all(flags[m:])), default=None)
        assert pattern.onset == onset
        onsets.add(onset)
    # the draw reaches no onset, onset 0 and a later onset
    assert None in onsets and 0 in onsets and onsets - {None, 0}


def test_scan_stats_of_single_variable():
    p, q = parse("-2*x1^3", 1), parse("3/4*x1", 1)
    pattern = power_scan(p, q, 3)
    assert pattern.flags == [True, False, True, False]
    rows = list(scan_rows(p, q, 3))
    assert [r.all_positive for r in rows] == pattern.flags
    assert [r.num_terms for r in rows] == [1] * 4
    assert [r.min_coef for r in rows] == [Fraction(3, 4) * (-2) ** m for m in range(4)]


def _polya_works(g, n):
    return all_coeffs_positive(sum_of_variables(g.nvars) ** n * g)


def test_polya_exponent_is_least_on_random_rationals():
    rng = random.Random(43)
    found = []
    for _ in range(40):
        n = rng.randint(1, 3)
        g = rand_homogeneous(rng, n, rng.randint(0, 3), all_positive=True)
        cross = rand_homogeneous(rng, n, g.degree(), density=0.4)
        g = g + cross.scale(Fraction(1, rng.randint(2, 6)))
        if g.is_zero():
            continue
        exponent = polya_exponent(g, 12)
        if exponent is None:
            assert not any(_polya_works(g, k) for k in range(13))
            continue
        found.append(exponent)
        assert _polya_works(g, exponent)
        assert exponent == 0 or not _polya_works(g, exponent - 1)
    assert max(found) > 1


def _polya_flags(g, n_top):
    """Whether (x1+...+xn)^N * g is all-positive, N = 0..n_top, by exact products."""
    s = sum_of_variables(g.nvars)
    f, flags = g, []
    for _ in range(n_top + 1):
        flags.append(all_coeffs_positive(f))
        f = s * f
    return flags


def _rand_polya_input(rng, n):
    """A homogeneous g of degree 0..3; a flipped non-vertex coefficient often
    gives a Polya exponent > 0, and sometimes none."""
    d = rng.randint(0, 3)
    g = rand_homogeneous(rng, n, d, all_positive=True)
    inner = [e for e in g.terms if max(e) < d]
    if inner and rng.random() < 0.8:
        e = rng.choice(inner)
        g = g - Polynomial(n, {e: g.terms[e] * rng.randint(2, 5)})
    return g


def test_polya_exponent_matches_the_product_oracle_at_every_budget():
    rng = random.Random(47)
    n_top = 10
    seen = {n: set() for n in range(1, 5)}
    for _ in range(80):
        n = rng.randint(1, 4)
        g = _rand_polya_input(rng, n)
        flags = _polya_flags(g, n_top)
        least = next((k for k, ok in enumerate(flags) if ok), None)
        seen[n].add(least)
        assert polya_exponent(g, n_top) == least
        assert polya_exponent(g, 0) == (0 if least == 0 else None)
        if least is not None:
            assert polya_exponent(g, least) == least
            if least > 0:
                assert polya_exponent(g, least - 1) is None
    # every n reaches exponent 0; n = 2..4 also a later exponent and none
    assert all(0 in found for found in seen.values())
    for n in (2, 3, 4):
        assert None in seen[n] and seen[n] - {None, 0}


def test_polya_exponent_of_constants():
    for n in (1, 3):
        assert polya_exponent(Polynomial.constant(n, Fraction(2, 3)), 0) == 0
        assert polya_exponent(Polynomial.constant(n, -1), 7) is None


def test_polya_exponent_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="n_max"):
        polya_exponent(parse("x1 + x2", 2), -1)


def test_polya_cap_applies_only_to_the_exponents_the_search_reaches():
    # a degree-(50 + 2) basis in 8 variables is far past the dense cap, but
    # the search certifies at N = 0 and never forms it
    g = parse("(x1+x2+x3+x4+x5+x6+x7+x8)^2", 8)
    assert dense_monomial_count(8, 52) > DEFAULT_DENSE_CAP
    assert polya_exponent(g, 50) == 0


def test_polya_positivity_is_monotone_in_n():
    # The bisection's premise: once (x1+...+xn)^N * g is all-positive, so is
    # every higher N, since each coefficient of (x1+...+xn) * f sums at least
    # one coefficient of f.
    rng = random.Random(53)
    for _ in range(60):
        g = _rand_polya_input(rng, rng.randint(1, 4))
        flags = _polya_flags(g, 8)
        first = next((k for k, ok in enumerate(flags) if ok), len(flags))
        assert flags == [False] * first + [True] * (len(flags) - first)


def test_falling_factorial_form_is_the_scaled_product():
    # G_N(a) = a!/N! * [x^a] (x1+...+xn)^N * g, slot by slot in the lex layout
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randint(1, 4)
        g = rand_homogeneous(rng, n, rng.randint(0, 3), density=0.7)
        terms, scale = integer_terms(g)
        big_n = rng.randint(0, 4)
        total = big_n + g.degree()
        product = sum_of_variables(n) ** big_n * g.scale(scale)
        head = _lex_exponents(n - 1, total)
        expected = []
        for col in head.T:
            a = tuple(int(v) for v in col) + (total - int(col.sum()),)
            weight = Fraction(math.prod(math.factorial(v) for v in a), math.factorial(big_n))
            expected.append(product.coefficient(a) * weight)
        assert list(_falling_factorial_form(terms, g.degree(), total)) == expected


def test_polya_exponent_beyond_int64():
    # Integer coefficients near 10^13 at degree 7: G_N leaves int64 far behind.
    g = parse("(x1^2 - 19/10*x1*x2 + x2^2)^3 * (x1 + 12345678901*x2)", 2)
    exponent = polya_exponent(g, 400)
    flags = _polya_flags(g, exponent)
    assert exponent > 1 and flags[-1] and not flags[-2]
    form = _falling_factorial_form(integer_terms(g)[0], 7, exponent + 7)
    assert max(abs(v) for v in form) > 2 ** 63


def test_polya_exponent_against_dense_convolution():
    # 10*(x1^2 - 19/10 x1 x2 + x2^2): the integer form of a near-degenerate g
    g = parse("x1^2 - 19/10*x1*x2 + x2^2", 2)
    exponent = polya_exponent(g, 200)
    assert exponent > 1
    g_int = {e: int(10 * c) for e, c in g.terms.items()}

    def coeffs_of_product(n):
        s_n = dense_grid_pow_2d(parse("x1 + x2", 2), n)
        out = np.zeros((n + 3, n + 3), dtype=object)
        for (a, b), c in g_int.items():
            out[a:a + n + 1, b:b + n + 1] += c * s_n
        return [out[i, n + 2 - i] for i in range(n + 3)]

    assert all(v > 0 for v in coeffs_of_product(exponent))
    assert not all(v > 0 for v in coeffs_of_product(exponent - 1))


def test_kernel_layout_is_the_degree_simplex():
    # The dense layout has one slot per basis monomial: for n = 5 and
    # degree 6 that is 210 slots, where a (D+1)^{n-1} box would hold 2401.
    for k, deg in ((0, 3), (1, 5), (2, 4), (4, 6)):
        exps = _lex_exponents(k, deg)
        lex = [e for e in itertools.product(range(deg + 1), repeat=k) if sum(e) <= deg]
        assert exps.shape == (k, dense_monomial_count(k + 1, deg))
        assert [tuple(col) for col in exps.T] == lex
        assert list(_lex_rank(exps, deg)) == list(range(len(lex)))
        wider = [tuple(col) for col in _lex_exponents(k, deg + 2).T]
        assert list(_lex_rank(exps, deg + 2)) == [wider.index(e) for e in lex]
