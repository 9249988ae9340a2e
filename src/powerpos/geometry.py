"""Support lattices and the log-Hessian matrix.

Covers: the affine dimension of the convex hull of the exponent support,
fullness of the difference lattice via Smith normal form, and the matrix
J_f(s) = s_j d/ds_j (s_i d/ds_i log f), the Hessian of log f(e^t) at
t = log s, exactly, as the covariance of the exponents of f's terms.
Positive definiteness is decided by exact LDL elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .poly import Polynomial


# ---------------------------------------------------------------------
# Support and lattices
# ---------------------------------------------------------------------

def smith_invariant_factors(rows: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of an integer matrix (Smith normal form).

    Standard row/column reduction over arbitrary-precision integers; the
    matrices here are tiny, so no modular shortcuts.
    """
    mat = [list(map(int, row)) for row in rows]
    if not mat or not mat[0]:
        return []
    m, n = len(mat), len(mat[0])
    factors: list[int] = []
    t = 0
    while t < min(m, n):
        # find a nonzero pivot in the remaining block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if mat[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        while True:
            # move the smallest-magnitude nonzero entry to (t, t)
            bi, bj = pivot
            best = abs(mat[bi][bj])
            for i in range(t, m):
                for j in range(t, n):
                    v = abs(mat[i][j])
                    if v and v < best:
                        best, bi, bj = v, i, j
            mat[t], mat[bi] = mat[bi], mat[t]
            for row in mat:
                row[t], row[bj] = row[bj], row[t]
            piv = mat[t][t]
            done = True
            for i in range(t + 1, m):
                if mat[i][t] % piv:
                    done = False
                q = mat[i][t] // piv
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[t])]
            for j in range(t + 1, n):
                if mat[t][j] % piv:
                    done = False
                q = mat[t][j] // piv
                if q:
                    for row in mat:
                        row[j] -= q * row[t]
            if done and all(mat[i][t] == 0 for i in range(t + 1, m)) \
                    and all(mat[t][j] == 0 for j in range(t + 1, n)):
                # pivot must divide the rest of the block
                offender = None
                for i in range(t + 1, m):
                    for j in range(t + 1, n):
                        if mat[i][j] % piv:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                mat[t] = [a + b for a, b in zip(mat[t], mat[offender])]
            pivot = (t, t)
        factors.append(abs(mat[t][t]))
        t += 1
    return factors


def difference_lattice_generators(f: Polynomial) -> list[list[int]]:
    """Generators {I - I0} of the lattice spanned by support differences."""
    if f.is_zero():
        raise ValueError("zero polynomial has empty support")
    support = sorted(f.terms)
    base = support[0]
    return [[a - b for a, b in zip(exp, base)] for exp in support[1:]]


def newton_affine_dim(f: Polynomial) -> int:
    """Affine dimension of the Newton polytope of f: the rank of the
    support differences, which is the number of nonzero invariant factors
    of their Smith normal form."""
    return len(smith_invariant_factors(difference_lattice_generators(f)))


def difference_lattice_is_full(f: Polynomial) -> bool:
    """True iff the support-difference lattice equals Z^nvars.

    Decided by Smith normal form: full exactly when there are nvars
    invariant factors, all equal to 1.
    """
    return smith_invariant_factors(difference_lattice_generators(f)) == [1] * f.nvars


# ---------------------------------------------------------------------
# J_f and positive definiteness
# ---------------------------------------------------------------------

def jf_matrix(f: Polynomial, s: Sequence[Fraction | int]) -> list[list[Fraction]]:
    """Exact J_f(s)_ij = s_i s_j d2(log f)/ds_i ds_j + delta_ij s_j d(log f)/ds_i.

    It is sum w_I I I^T - mu mu^T, mu = sum w_I I: the covariance of the
    exponents I of f's terms c_I x^I under the weights w_I = c_I s^I / f(s).
    Requires f(s) > 0 at a strictly positive point.
    """
    ell = f.nvars
    point = [Fraction(v) for v in s]
    if len(point) != ell:
        raise ValueError(f"point has length {len(point)}, expected {ell}")
    if any(v <= 0 for v in point):
        raise ValueError("jf_matrix requires a strictly positive point")
    values = {exp: coef * math.prod(x ** e for x, e in zip(point, exp) if e)
              for exp, coef in f.terms.items()}
    fval = sum(values.values(), Fraction(0))
    if fval <= 0:
        raise ValueError(f"f must be positive at the point (got {fval})")
    mean = [sum(v * exp[i] for exp, v in values.items()) / fval for i in range(ell)]
    out = [[Fraction(0)] * ell for _ in range(ell)]
    for i in range(ell):
        for j in range(i, ell):
            second = sum(v * exp[i] * exp[j] for exp, v in values.items()) / fval
            out[i][j] = out[j][i] = second - mean[i] * mean[j]
    return out


def is_positive_definite(mat) -> bool:
    """Positive definiteness by exact LDL elimination: all pivots > 0.

    Entries may be ints, Fractions or floats (a float's Fraction is its
    exact binary value), in nested lists or an array; an asymmetric
    matrix is a ValueError.
    """
    rows = [[Fraction(v) for v in row] for row in mat]
    dim = len(rows)
    if any(len(r) != dim for r in rows):
        raise ValueError("matrix must be square")
    for i in range(dim):
        for j in range(i + 1, dim):
            if rows[i][j] != rows[j][i]:
                raise ValueError("matrix must be symmetric")
    # LDL without pivoting: a PD matrix never produces a pivot <= 0
    for k in range(dim):
        piv = rows[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, dim):
            factor = rows[i][k] / piv
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return True
