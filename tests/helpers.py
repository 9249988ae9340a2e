"""Shared test utilities: independent oracles and random instance builders.

The oracles here deliberately avoid the library's own code paths:
sympy expansion for polynomial arithmetic, sympy's diff for derivatives,
dense array convolution for powers, breadth-first lattice walking for
lattice fullness, float evaluation at complex points, and the second
partials of f (exactly) or central differences (in floats) for the
log-Hessian.  `dehomogenize` builds the coordinate charts of the lattice
tests, and `sum_of_variables` the simplex multiplier of the Polya tests.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from itertools import product
from typing import Sequence

import mpmath
import numpy as np
import sympy
from hypothesis import strategies as st

from powerpos import Polynomial, eval_rational, monomials_of_degree


def sympy_coeff_dict(expr_text: str, nvars: int) -> dict[tuple, Fraction]:
    """Expand an expression with sympy and return {exponent: coefficient}."""
    syms = sympy.symbols(f"x1:{nvars + 1}")
    expr = sympy.expand(sympy.sympify(expr_text.replace("^", "**"),
                                      dict(zip(map(str, syms), syms))))
    poly = sympy.Poly(expr, *syms)
    out = {}
    for exp, coef in poly.terms():
        out[tuple(int(e) for e in exp)] = Fraction(int(coef.p), int(coef.q))
    return out


def to_sympy(p: Polynomial):
    syms = sympy.symbols(f"x1:{p.nvars + 1}")
    total = sympy.Integer(0)
    for exp, coef in p.terms.items():
        term = sympy.Rational(coef.numerator, coef.denominator)
        for s, e in zip(syms, exp):
            term *= s ** e
        total += term
    return sympy.expand(total)


def from_sympy(expr, nvars: int) -> Polynomial:
    syms = sympy.symbols(f"x1:{nvars + 1}")
    poly = sympy.Poly(sympy.expand(expr), *syms)
    terms = {tuple(int(e) for e in exp): Fraction(int(c.p), int(c.q))
             for exp, c in poly.terms()}
    return Polynomial(nvars, terms)


def partial_derivative(p: Polynomial, i: int) -> Polynomial:
    """dp/dx_(i+1) (0-based i), by sympy's diff."""
    return from_sympy(sympy.diff(to_sympy(p), sympy.Symbol(f"x{i + 1}")), p.nvars)


def sum_of_variables(nvars: int) -> Polynomial:
    """x1 + ... + x_nvars."""
    return Polynomial(nvars, {tuple(int(i == k) for i in range(nvars)): 1
                              for k in range(nvars)})


def eval_complex(p: Polynomial, point: Sequence[complex]) -> complex:
    """Floating-point evaluation at a complex point."""
    total = 0j
    for exp, coef in p.terms.items():
        v = complex(coef)
        for z, e in zip(point, exp):
            v *= z ** e
        total += v
    return total


def dense_grid_pow_2d(p: Polynomial, m: int) -> np.ndarray:
    """Independent power oracle for bivariate polynomials.

    Represents coefficients on a dense (deg_x1, deg_x2) integer grid and
    convolves with plain Python-int accumulation (object dtype).
    """
    assert p.nvars == 2
    d = p.degree()
    grid = np.zeros((d + 1, d + 1), dtype=object)
    for (a, b), c in p.terms.items():
        assert c.denominator == 1
        grid[a, b] = int(c)
    result = np.zeros((1, 1), dtype=object)
    result[0, 0] = 1
    for _ in range(m):
        ra, rb = result.shape
        out = np.zeros((ra + d, rb + d), dtype=object)
        for i in range(ra):
            for j in range(rb):
                v = result[i, j]
                if v:
                    out[i:i + d + 1, j:j + d + 1] += v * grid
        result = out
    return result


def lattice_units_reachable(gens: list[list[int]], ell: int, box: int = 12) -> bool:
    """Brute-force lattice membership of all unit vectors.

    BFS from the origin adding/subtracting generators, confined to
    [-box, box]^ell.  Independent of the Smith-normal-form route.
    """
    start = (0,) * ell
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for g in gens:
            for s in (1, -1):
                w = tuple(a + s * b for a, b in zip(v, g))
                if all(abs(x) <= box for x in w) and w not in seen:
                    seen.add(w)
                    queue.append(w)
    units = (tuple(1 if i == j else 0 for i in range(ell)) for j in range(ell))
    return all(u in seen for u in units)


def dehomogenize(p: Polynomial, ell: int, sigma: Sequence[int] | None = None) -> Polynomial:
    """Restrict a homogeneous p to ell variables through a coordinate chart.

    Returns q(s_1..s_ell) = p at the point whose sigma[i]-th coordinate
    (0-based) is the i-th entry of (s_1, ..., s_ell, 0, ..., 0, 1).
    sigma acts on coordinate positions; identity by default.
    """
    n = p.nvars
    if not p.is_homogeneous():
        raise ValueError("dehomogenize requires a homogeneous polynomial")
    if not 1 <= ell <= n - 1:
        raise ValueError(f"ell={ell} out of range for nvars={n}")
    sigma = tuple(range(n)) if sigma is None else tuple(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError("sigma must be a permutation of 0..nvars-1")
    # coordinate sigma[i] receives slot i's value: s_(i+1), 0 or 1
    slot = {j: i for i, j in enumerate(sigma)}
    out: dict[tuple, Fraction] = {}
    for exp, coef in p.terms.items():
        if any(e and ell <= slot[j] < n - 1 for j, e in enumerate(exp)):
            continue  # a coordinate set to 0 kills the term
        new = [0] * ell
        for j, e in enumerate(exp):
            if slot[j] < ell:
                new[slot[j]] = e
        out[tuple(new)] = out.get(tuple(new), Fraction(0)) + coef
    return Polynomial(ell, out)


def hessian_logf_fd(f: Polynomial, t: Sequence[float], h: float = 1e-3) -> np.ndarray:
    """Central-difference Hessian of log f(e^{t_1}, ..., e^{t_l}) at t."""
    ell = f.nvars
    t = np.asarray(t, dtype=float)
    if t.shape != (ell,):
        raise ValueError(f"point has shape {t.shape}, expected ({ell},)")

    def logf(tt: np.ndarray) -> float:
        val = float(eval_rational(f, [Fraction(x) for x in np.exp(tt)]))
        if val <= 0:
            raise ValueError("f(e^t) must be positive throughout the stencil")
        return math.log(val)

    out = np.empty((ell, ell))
    for i in range(ell):
        ei = np.zeros(ell)
        ei[i] = h
        out[i, i] = (logf(t + ei) - 2 * logf(t) + logf(t - ei)) / h ** 2
        for j in range(i + 1, ell):
            ej = np.zeros(ell)
            ej[j] = h
            out[i, j] = out[j, i] = (
                logf(t + ei + ej) - logf(t + ei - ej)
                - logf(t - ei + ej) + logf(t - ei - ej)) / (4 * h ** 2)
    return out


def jf_by_second_partials(f: Polynomial, s: Sequence[Fraction]) -> list[list[Fraction]]:
    """J_f(s)_ij = s_i s_j (f f_ij - f_i f_j)/f^2 + delta_ij s_i f_i/f, with
    the partials of f from sympy's diff, evaluated exactly."""
    point = [Fraction(v) for v in s]
    fval = eval_rational(f, point)
    firsts = [partial_derivative(f, i) for i in range(f.nvars)]
    f1 = [eval_rational(g, point) for g in firsts]
    return [[point[i] * point[j]
             * (fval * eval_rational(partial_derivative(firsts[i], j), point) - f1[i] * f1[j])
             / fval ** 2 + (point[i] * f1[i] / fval if i == j else 0)
             for j in range(f.nvars)] for i in range(f.nvars)]


def rand_homogeneous(rng: random.Random, nvars: int, degree: int,
                     all_positive: bool = False,
                     density: float = 1.0) -> Polynomial:
    """Random homogeneous polynomial with small rational coefficients."""
    terms = {}
    for exp in monomials_of_degree(nvars, degree):
        if not all_positive and rng.random() > density:
            continue
        num = rng.randint(1, 9) if all_positive else rng.randint(-9, 9)
        if num == 0 and not all_positive:
            continue
        terms[exp] = Fraction(num, rng.randint(1, 4))
    if not terms:
        terms[next(iter(monomials_of_degree(nvars, degree)))] = Fraction(1)
    return Polynomial(nvars, terms)


@st.composite
def rational_forms(draw, max_nvars: int = 4, max_degree: int = 4) -> Polynomial:
    """A nonzero form of degree 1..max_degree in 1..max_nvars variables, each
    coefficient 0 or a rational with denominator at most 30."""
    n = draw(st.integers(1, max_nvars))
    exps = list(monomials_of_degree(n, draw(st.integers(1, max_degree))))
    coef = st.one_of(st.just(Fraction(0)),
                     st.fractions(min_value=-20, max_value=20, max_denominator=30))
    p = Polynomial(n, dict(zip(exps, draw(st.lists(coef, min_size=len(exps),
                                                   max_size=len(exps))))))
    return p if p else Polynomial(n, {exps[-1]: draw(st.integers(1, 9))})


def rand_complex_point(rng: random.Random, n: int, scale: float = 2.0) -> list[complex]:
    return [complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
            for _ in range(n)]


def fraction_grid_samples(n: int, g: int):
    """Falsify's whole sample grid built the direct way, as float (R, TH)
    arrays: every radius (Fractions e/g in `monomials_of_degree` order)
    with every phase tuple (Fractions 2j/g, in units of pi, the first 0)
    in lexicographic order."""
    r_points = [tuple(Fraction(e, g) for e in exp) for exp in monomials_of_degree(n, g)]
    theta_fracs = [Fraction(2 * j, g) for j in range(g)]
    samples = [(r, (Fraction(0),) + th)
               for r in r_points for th in product(theta_fracs, repeat=n - 1)]
    R = np.array([[float(v) for v in r] for r, _ in samples])
    TH = np.array([[float(t) * math.pi for t in th] for _, th in samples])
    return R, TH


def modulus_gap(p: Polynomial, radii, phases):
    """D = p(r)^2 - |p(r e^{i theta})|^2 at 50 digits."""
    with mpmath.workdps(50):
        z = [mpmath.mpf(r) * mpmath.expj(mpmath.mpf(t)) for r, t in zip(radii, phases)]
        p_r = mpmath.mpf(0)
        p_z = mpmath.mpc(0)
        for exp, coef in p.terms.items():
            c = mpmath.mpf(coef.numerator) / coef.denominator
            p_r += c * mpmath.fprod(mpmath.mpf(r) ** e for r, e in zip(radii, exp))
            p_z += c * mpmath.fprod(v ** e for v, e in zip(z, exp))
        return p_r ** 2 - abs(p_z) ** 2


#: (nvars, degree, count) of the seeded corpus, in the order drawn
CORPUS_SIZES = ((2, 4, 150), (2, 6, 150), (3, 3, 80), (3, 4, 80))


def seeded_corpus() -> list[Polynomial]:
    """The 460 seeded Pos3 inputs: each starts from (x1+...+xn)^d, then
    1-3 times (`randint(1, 3)`) a term drawn by `choice` from the sorted
    terms has its coefficient multiplied by 1 - k/16, k = `randint(1, 40)`,
    all from one `random.Random(5)`, the sizes in `CORPUS_SIZES` order."""
    rng = random.Random(5)
    corpus = []
    for n, d, count in CORPUS_SIZES:
        base = {exp: Fraction(math.factorial(d), math.prod(map(math.factorial, exp)))
                for exp in monomials_of_degree(n, d)}
        for _ in range(count):
            terms = dict(base)
            for _ in range(rng.randint(1, 3)):
                exp = rng.choice(sorted(terms))
                terms[exp] *= 1 - Fraction(rng.randint(1, 40), 16)
            corpus.append(Polynomial(n, {e: c for e, c in terms.items() if c}))
    return corpus
