"""Support lattices, the log-Hessian matrix, and convexity probes."""

import random
from fractions import Fraction as F

import numpy as np
import pytest
import sympy

from powerpos import (check_pos1, check_pos2, difference_lattice_is_full,
                      is_positive_definite, jf_matrix, newton_affine_dim,
                      parse, smith_invariant_factors, Polynomial, Verdict)
from powerpos.geometry import difference_lattice_generators

from helpers import (dehomogenize, hessian_logf_fd, lattice_units_reachable,
                     rand_homogeneous)

P7 = parse("(x1+x2)^4 - 7*x1^2*x2^2", 2)


# ---------------------------------------------------------------------
# support and lattices
# ---------------------------------------------------------------------

def test_difference_lattice_generators_reject_zero():
    with pytest.raises(ValueError):
        difference_lattice_generators(Polynomial.zero(2))


def test_newton_affine_dim_examples():
    assert newton_affine_dim(parse("s1+s2+1", 2)) == 2
    assert newton_affine_dim(parse("x1^3*x2", 2)) == 0
    assert newton_affine_dim(parse("s1+1", 2)) == 1


def test_newton_affine_dim_is_the_rank_of_the_support_differences():
    # sympy's rank over Q, on random supports that often span less than
    # their ambient space: points base + sum k_i u_i for 1-3 random u_i
    rng = random.Random(59)
    ranks = set()
    for _ in range(150):
        n = rng.randint(1, 5)
        base = [rng.randint(0, 6) for _ in range(n)]
        spans = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        support = set()
        for _ in range(rng.randint(1, 8)):
            steps = [rng.randint(0, 2) for _ in spans]
            point = [b + sum(k * v[i] for k, v in zip(steps, spans)) for i, b in enumerate(base)]
            support.add(tuple(max(0, e) for e in point))
        f = Polynomial(n, {exp: 1 for exp in support})
        exps = sorted(support)
        rows = [[a - b for a, b in zip(exp, exps[0])] for exp in exps[1:]]
        rank = sympy.Matrix(rows).rank() if rows else 0
        assert newton_affine_dim(f) == rank
        ranks.add((n, rank))
    assert len(ranks) >= 12


def test_smith_invariant_factors_known():
    assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariant_factors([[2, 0], [0, 2]]) == [2, 2]
    assert smith_invariant_factors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert smith_invariant_factors([[0, 0], [0, 0]]) == []


def test_difference_lattice_full_examples():
    assert difference_lattice_is_full(parse("s1+s2+1", 2)) is True
    even = Polynomial(2, {(0, 0): 1, (2, 0): 1, (0, 2): 1})
    assert difference_lattice_is_full(even) is False


def test_difference_lattice_full_for_condition_passing_dehoms():
    from itertools import permutations
    for p in (P7, parse("x1+x2", 2), parse("(x1+x2+x3)^2", 3)):
        assert check_pos1(p).verdict is Verdict.HOLDS
        assert check_pos2(p).verdict is Verdict.HOLDS
        n = p.nvars
        for ell in range(1, n):
            for sigma in permutations(range(n)):
                f = dehomogenize(p, ell, sigma)
                assert newton_affine_dim(f) == ell
                assert difference_lattice_is_full(f) is True


def test_snf_agrees_with_bruteforce_lattice_walk():
    rng = random.Random(41)
    for _ in range(60):
        ell = rng.randint(1, 3)
        n_gens = rng.randint(1, 4)
        gens = [[rng.randint(-4, 4) for _ in range(ell)] for _ in range(n_gens)]
        factors = smith_invariant_factors(gens)
        full = len(factors) == ell and all(v == 1 for v in factors)
        assert full == lattice_units_reachable(gens, ell)


def test_random_condition_passing_charts_are_full():
    # all-positive random polynomials pass both finite checks; all their
    # charts must have full-dimensional Newton polytopes and full lattices
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(2, 4)
        p = rand_homogeneous(rng, n, rng.randint(1, 4), all_positive=True)
        assert check_pos1(p).verdict is Verdict.HOLDS
        assert check_pos2(p).verdict is Verdict.HOLDS
        ell = rng.randint(1, n - 1)
        sigma = list(range(n))
        rng.shuffle(sigma)
        f = dehomogenize(p, ell, sigma)
        assert newton_affine_dim(f) == ell
        assert difference_lattice_is_full(f) is True


# ---------------------------------------------------------------------
# J_f and the finite-difference cross-check
# ---------------------------------------------------------------------

def test_jf_affine_linear_single_variable():
    assert jf_matrix(parse("s1+1", 1), [F(1)]) == [[F(1, 4)]]


def test_jf_monomial_is_zero_matrix():
    mat = jf_matrix(parse("s1*s2", 2), [F(3), F(1, 2)])
    assert mat == [[F(0), F(0)], [F(0), F(0)]]


def test_jf_dehomogenized_quartic_positive():
    f = dehomogenize(P7, 1)
    mat = jf_matrix(f, [F(1)])
    assert mat[0][0] > 0
    assert is_positive_definite(mat)


def test_jf_requires_positive_point_and_value():
    with pytest.raises(ValueError):
        jf_matrix(parse("s1+1", 1), [F(0)])
    with pytest.raises(ValueError):
        jf_matrix(parse("s1 - 10", 1), [F(1)])


def test_fd_hessian_constant_is_zero():
    hess = hessian_logf_fd(Polynomial.constant(2, 5), [0.3, -0.2])
    assert np.max(np.abs(hess)) < 1e-7


def test_fd_hessian_affine_linear():
    hess = hessian_logf_fd(parse("s1+1", 1), [0.0])
    assert hess[0, 0] == pytest.approx(0.25, abs=1e-6)


def test_fd_matches_exact_jf_second_order():
    rng = random.Random(47)
    for _ in range(20):
        ell = rng.randint(1, 2)
        f = rand_homogeneous(rng, ell, rng.randint(1, 3), all_positive=True) \
            + Polynomial.constant(ell, rng.randint(1, 3))
        t = [rng.uniform(-0.5, 0.5) for _ in range(ell)]
        s = [F(x) for x in np.exp(t)]
        exact = np.array([[float(v) for v in row] for row in jf_matrix(f, s)])
        err = {}
        for h in (1e-2, 1e-3):
            fd = hessian_logf_fd(f, t, h=h)
            err[h] = float(np.max(np.abs(fd - exact)))
        assert err[1e-3] <= 1e-5 + err[1e-2] / 10  # ~second-order decay


# ---------------------------------------------------------------------
# positive definiteness
# ---------------------------------------------------------------------

def test_pd_identity_and_indefinite():
    assert is_positive_definite([[F(1), F(0)], [F(0), F(1)]]) is True
    assert is_positive_definite([[F(1), F(0)], [F(0), F(-1)]]) is False


def test_pd_float_path():
    assert is_positive_definite(np.array([[2.0, 1.0], [1.0, 2.0]])) is True
    assert is_positive_definite(np.array([[1.0, 3.0], [3.0, 1.0]])) is False


def test_pd_rejects_asymmetric():
    with pytest.raises(ValueError):
        is_positive_definite([[F(1), F(2)], [F(0), F(1)]])
    with pytest.raises(ValueError):
        is_positive_definite(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_pd_agrees_with_numpy_on_random_symmetric():
    rng = np.random.default_rng(53)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        raw = rng.integers(-4, 5, size=(dim, dim))
        sym = raw + raw.T
        want = bool(np.min(np.linalg.eigvalsh(sym.astype(float))) > 1e-12)
        mat = [[F(int(v)) for v in row] for row in sym]
        assert is_positive_definite(mat) == want
