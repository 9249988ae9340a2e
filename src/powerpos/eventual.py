"""Power scans and Pólya exponents for eventual coefficient positivity.

The scanner walks p^m * q for m = 0..M_max with exact arithmetic and
records, for each m, whether every monomial of the full degree basis
carries a strictly positive coefficient.  The least m from which the
flags stay true through the end of the window is the "window-onset":
a finite proxy for the true onset, never an inference beyond the window.

The Pólya search never forms (x1+...+xn)^N * g.  For g of degree d with
integer coefficients c_b, the coefficient of x^a (|a| = N + d) in the
product is sum_b c_b N!/(a-b)!, so times the positive factor a!/N! it is

    G_N(a) = sum_b c_b prod_i a_i (a_i - 1) ... (a_i - b_i + 1),

a falling-factorial form that vanishes by itself when some b_i > a_i
(Powers-Reznick, J. Pure Appl. Algebra 164, 2001).  The product is
all-positive iff G_N > 0 on every a.  All-positivity is monotone in N:
each coefficient of (x1+...+xn) * f is a sum of at least one coefficient
of f, so a search can double N and then bisect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .poly import Polynomial, dense_monomial_count, serialize

DEFAULT_DENSE_CAP = 2_000_000


def all_coeffs_positive(f: Polynomial | np.ndarray) -> bool:
    """True iff every monomial of f's full degree basis has coefficient > 0.

    f is a Polynomial, or a coefficient array of the integer kernel below,
    which holds one slot per basis monomial.  A missing monomial (an
    absent term, or a 0 slot) fails the property.  A Polynomial must be
    homogeneous; the zero polynomial is rejected (its degree is not a
    nonnegative int).
    """
    if isinstance(f, np.ndarray):
        return bool((f > 0).all())
    if not f.is_homogeneous():
        raise ValueError("all_coeffs_positive requires a homogeneous polynomial")
    if f.is_zero():
        return False
    d = f.degree()
    if len(f.terms) != dense_monomial_count(f.nvars, d):
        return False
    return all(c > 0 for c in f.terms.values())


@dataclass
class PositivityPattern:
    """Per-power positivity flags for p^m * q, m = 0..m_max.

    num_terms[m] and min_coefs[m] are the number of nonzero coefficients
    of p^m * q and the least of them, exactly.
    """

    p_id: str
    q_id: str
    m_max: int
    flags: list[bool] = field(default_factory=list)
    num_terms: list[int] = field(default_factory=list)
    min_coefs: list[Fraction] = field(default_factory=list)
    first_true: Optional[int] = None
    onset: Optional[int] = None  # window-onset: flags true from here to m_max

    def to_json_dict(self) -> dict:
        return {
            "p": self.p_id,
            "q": self.q_id,
            "m_max": self.m_max,
            "flags": self.flags,
            "first_true": self.first_true,
            "window_onset": self.onset,
        }


def power_scan(p: Polynomial, q: Polynomial, m_max: int,
               dense_cap: int = DEFAULT_DENSE_CAP) -> PositivityPattern:
    """Scan p^m * q for all-positive coefficients, m = 0..m_max.

    Incremental: keeps the running product and multiplies by p at each
    step, since every intermediate power is inspected anyway.  Refuses
    scans whose final dense coefficient count exceeds dense_cap.
    """
    if p.nvars != q.nvars:
        raise ValueError("p and q must share nvars")
    if not p.is_homogeneous() or p.is_zero() or p.degree() == 0:
        raise ValueError("p must be nonconstant homogeneous")
    if not q.is_homogeneous() or q.is_zero():
        raise ValueError("q must be nonzero homogeneous")
    if m_max < 1:
        raise ValueError("m_max must be positive")
    final_count = dense_monomial_count(p.nvars, m_max * p.degree() + q.degree())
    if final_count > dense_cap:
        raise ValueError(
            f"scan refused: dense coefficient count {final_count} exceeds cap {dense_cap}")

    pattern = PositivityPattern(p_id=serialize(p), q_id=serialize(q), m_max=m_max)
    p_terms, p_scale = _integer_terms(p)
    q_terms, q_scale = _integer_terms(q)
    d, deg = p.degree(), q.degree()
    current = _times(_ONE, 0, q_terms, deg)
    for m in range(m_max + 1):
        if m > 0:
            current = _times(current, deg, p_terms, d)
            deg += d
        nonzero = current[current != 0]
        pattern.flags.append(all_coeffs_positive(current))
        pattern.num_terms.append(len(nonzero))
        pattern.min_coefs.append(Fraction(nonzero.min(), p_scale ** m * q_scale))

    for m, flag in enumerate(pattern.flags):
        if flag:
            pattern.first_true = m
            break
    # window-onset: the start of the trailing all-true run, if any
    if pattern.flags[-1]:
        onset = m_max
        while onset > 0 and pattern.flags[onset - 1]:
            onset -= 1
        pattern.onset = onset
    return pattern


def polya_exponent(g: Polynomial, n_max: int) -> Optional[int]:
    """Least N <= n_max with (x1+...+xn)^N * g all-positive, else None.

    Each candidate N is one evaluation of the falling-factorial form G_N
    of the module docstring on the degree-(N + d) basis, checked by
    all_coeffs_positive; the product itself is never built.  Since the
    property is monotone in N, the search tests N = 0, then doubles N
    up to n_max, then bisects between the last failing and the first
    passing N: about 2*log2(N) evaluations, and ceil(log2(n_max)) + 2
    when no N <= n_max works.
    """
    if n_max < 0:
        raise ValueError("n_max must be at least 0")
    if not g.is_homogeneous():
        raise ValueError("polya_exponent requires a homogeneous polynomial")
    if g.is_zero() or g.nvars < 1:
        return None
    g_terms, _ = _integer_terms(g)
    d = g.degree()

    def works(n: int) -> bool:
        return all_coeffs_positive(_falling_factorial_form(g_terms, d, n + d))

    if works(0):
        return 0
    # works(lo) is False; hi is the next candidate
    lo, hi = 0, 1
    while hi < n_max and not works(hi):
        lo, hi = hi, 2 * hi
    if hi >= n_max:
        hi = n_max
        if hi == lo or not works(hi):
            return None
    # works(hi) is True: the least N lies in (lo, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if works(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _falling_factorial_form(terms: IntTerms, deg: int, total: int) -> np.ndarray:
    """G at every degree-total monomial a, one slot each, as Python ints.

    terms are those of a degree-deg g in the integer kernel's form.  The
    monomials are the columns of the kernel's layout of a_1..a_{n-1},
    with a_n = total - (a_1 + ... + a_{n-1}).
    """
    head = _lex_exponents(len(terms[0][0]), total)
    a = np.vstack([head, total - head.sum(axis=0)])
    # falling[k, v] = v (v-1) ... (v-k+1), which is 0 for v < k
    v = np.arange(total + 1, dtype=object)
    falling = np.ones((deg + 1, total + 1), dtype=object)
    for k in range(1, deg + 1):
        falling[k] = falling[k - 1] * (v - (k - 1))
    out = np.zeros(a.shape[1], dtype=object)
    for e, c in terms:
        b = np.append(e, deg - e.sum())
        term = c
        for i in np.flatnonzero(b):
            term = term * falling[b[i], a[i]]
        out += term
    return out


# ---------------------------------------------------------------------
# Exact integer kernel
# ---------------------------------------------------------------------
#
# Positivity of coefficients is invariant under scaling by a positive
# rational, so denominators are cleared once and all work is on Python
# ints.  A homogeneous polynomial of degree D in n variables is held
# dehomogenised at x_n: a flat object array indexed by the exponents
# (e_1..e_{n-1}) with e_1 + ... + e_{n-1} <= D, in lexicographic order.
# Its length is exactly dense_monomial_count(n, D), so every slot is a
# basis coefficient and a scan admitted by its dense cap allocates no
# more than the cap allows; a (D+1)^{n-1} box would hold up to (n-1)!
# times as many slots.

#: The constant 1 at degree 0, for any number of variables.
_ONE = np.ones(1, dtype=object)

#: (exponents of x1..x_{n-1}, integer coefficient) per term
IntTerms = list[tuple[np.ndarray, int]]


def _integer_terms(f: Polynomial) -> tuple[IntTerms, int]:
    """The terms of L*f, and L, the lcm of f's coefficient denominators."""
    scale = math.lcm(*(c.denominator for c in f.terms.values()))
    return [(np.array(e[:-1], dtype=np.int64), int(c * scale))
            for e, c in f.terms.items()], scale


def _times(current: np.ndarray, deg: int, factor: IntTerms,
           factor_deg: int) -> np.ndarray:
    """Product of a degree-deg dense array and a homogeneous factor.

    One shifted add per factor term: the coefficient of s^e moves to
    s^(e+a), at its lexicographic rank in the degree deg+factor_deg
    layout.  Shifts by distinct e are distinct, so no index repeats
    within one add.
    """
    free = len(factor[0][0])
    out_deg = deg + factor_deg
    layout = _lex_exponents(free, deg)
    shifts = np.array([a for a, _ in factor], dtype=np.int64)
    # one rank pass for every term: row t of ranks places layout + a_t
    moved = layout[:, None, :] + shifts.T[:, :, None]
    ranks = _lex_rank(moved.reshape(free, len(factor) * layout.shape[1]), out_deg)
    out = np.zeros(dense_monomial_count(free + 1, out_deg), dtype=object)
    for (_, c), idx in zip(factor, ranks.reshape(len(factor), -1)):
        out[idx] += current if c == 1 else c * current
    return out


def _lex_exponents(k: int, deg: int) -> np.ndarray:
    """All (e_1..e_k) with sum <= deg, as the columns of a (k, count) array.

    Columns are in lexicographic order, built one coordinate at a time:
    a prefix with remaining budget R branches into e_i = 0..R.
    """
    cols: list[np.ndarray] = []
    budget = np.array([deg])
    for _ in range(k):
        widths = budget + 1
        starts = np.repeat(np.cumsum(widths) - widths, widths)
        e = np.arange(starts.size) - starts
        cols = [np.repeat(c, widths) for c in cols] + [e]
        budget = np.repeat(budget, widths) - e
    if not cols:
        return np.zeros((0, 1), dtype=np.int64)
    return np.array(cols, dtype=np.int64)


def _lex_rank(exps: np.ndarray, deg: int) -> np.ndarray:
    """Positions of the columns of exps in the lexicographic degree-deg layout.

    Before a column, coordinate i (with r = k-1-i coordinates after it
    and remaining budget R) skips the blocks e_i' = 0..e_i-1, holding
    sum_j C(R-j+r, r) = C(R+r+1, r+1) - C(R-e_i+r+1, r+1) columns.
    """
    k = exps.shape[0]
    # comb[j, x] = C(x, j), by C(x, j) = sum_{t<x} C(t, j-1)
    comb = np.zeros((k + 1, deg + k + 2), dtype=np.int64)
    comb[0] = 1
    for j in range(1, k + 1):
        comb[j, 1:] = np.cumsum(comb[j - 1, :-1])
    rank = np.zeros(exps.shape[1], dtype=np.int64)
    budget = np.full(exps.shape[1], deg)
    for i in range(k):
        r = k - 1 - i
        rank += comb[r + 1, budget + r + 1] - comb[r + 1, budget - exps[i] + r + 1]
        budget -= exps[i]
    return rank
