"""Power scans and Pólya exponents for eventual coefficient positivity.

The scanner walks p^m * q for m = 0, 1, ... with exact arithmetic and
records, for each m, whether every monomial of the full degree basis
carries a strictly positive coefficient.  It stops as soon as the flags
so far prove every later one.  The set S = {m >= 1 : p^m all-positive}
is closed under addition: a monomial of p^(a+b) splits into monomials of
p^a and p^b, so every term of its coefficient in p^a * p^b is positive.
Hence if p^m is all-positive on a run [a, 2a-1], it is for every
m >= a, since each such m is a sum of members of the run.  Once that is
proved, a run of a true flags of p^m * q on [m0, m0+a-1] proves every
m >= m0: p^m * q = p^j * p^(m-j) * q with m - j in the run and j >= a.
The flags past the stop are then true by proof, and the start of the
trailing true run, the "window-onset", is the exact onset.  Without a
proof the window-onset is only the start of the true run that reaches
m_max.

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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .poly import (DEFAULT_DENSE_CAP, MultiIndex, Polynomial, dense_monomial_count,
                   integer_terms, serialize)


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


@dataclass(frozen=True)
class OnsetProof:
    """The two runs that prove every flag of a scan past them.

    p_run = [a, 2a-1]: p^m is all-positive there, hence for every m >= a.
    q_run = [m0, m0+a-1]: p^m * q is all-positive there, hence for every
    m >= m0.  With flag m0-1 false (or m0 = 0), m0 is the exact onset.
    """

    p_run: tuple[int, int]
    q_run: tuple[int, int]

    def to_json_dict(self) -> dict:
        return {"p_run": list(self.p_run), "q_run": list(self.q_run)}


@dataclass
class PositivityPattern:
    """Per-power positivity flags for p^m * q, m = 0..m_max.

    When `proof` is set, the flags past the point where it closed are true
    by proof, not computed, and `onset` is the exact onset.
    """

    p_id: str
    q_id: str
    m_max: int
    flags: list[bool] = field(default_factory=list)
    first_true: Optional[int] = None
    onset: Optional[int] = None  # window-onset: flags true from here to m_max
    proof: Optional[OnsetProof] = None

    @property
    def onset_proved(self) -> bool:
        return self.proof is not None

    def to_json_dict(self) -> dict:
        return {
            "p": self.p_id,
            "q": self.q_id,
            "m_max": self.m_max,
            "flags": self.flags,
            "first_true": self.first_true,
            "window_onset": self.onset,
            "proof": None if self.proof is None else self.proof.to_json_dict(),
        }


@dataclass(frozen=True)
class ScanRow:
    """p^m * q's flag, its number of nonzero coefficients and the least
    of them, exactly."""

    m: int
    all_positive: bool
    num_terms: int
    min_coef: Fraction


def power_scan(p: Polynomial, q: Polynomial, m_max: int) -> PositivityPattern:
    """Scan p^m * q for all-positive coefficients, m = 0..m_max, and stop
    once the flags so far prove the rest (the module docstring's runs).

    The running product is multiplied by p once per step.  p's own flags
    are stepped beside it only as far as the true run of L flags that
    ends at the current m needs, index min(2L - 1, m_max): p's run closes
    at 2a - 1, and q's needs L >= a.  So a scan whose flags never turn
    true forms no power of p alone.  When q is a positive constant, p's
    flags are the scan's own and nothing is formed twice.  Once both runs
    close, the remaining flags are set true and `proof` records the runs;
    first_true, the window-onset and every flag are those of the full
    scan.  Refuses windows whose final dense coefficient count exceeds
    DEFAULT_DENSE_CAP, whether or not the scan would stop early.
    """
    _check_window(p, q, m_max)
    pattern = PositivityPattern(p_id=serialize(p), q_id=serialize(q), m_max=m_max)
    flags = pattern.flags
    scan = _kernel_powers(p, q)
    # own[k]: p^k is all-positive; own[0] is p^0 = 1
    if q.degree() == 0 and q.coefficient((0,) * q.nvars) > 0:
        own, own_scan = flags, None
    else:
        own, own_scan = [], _kernel_powers(p)
    start = 1       # where p's current true run began
    checked = 0     # own[1..checked] have been read into that run
    a = None        # p's proved onset, once its run closes
    run = 0         # length of the true run of flags that ends at m
    for m in range(m_max + 1):
        flags.append(all_coeffs_positive(next(scan)))
        run = run + 1 if flags[m] else 0
        reach = min(2 * run - 1, m if own_scan is None else m_max)
        while a is None and checked < reach:
            checked += 1
            while len(own) <= checked:
                own.append(all_coeffs_positive(next(own_scan)))
            if not own[checked]:
                start = checked + 1
            elif checked >= 2 * start - 1:
                a = start
        if a is not None and run >= a:
            m0 = m - run + 1
            pattern.proof = OnsetProof((a, 2 * a - 1), (m0, m0 + a - 1))
            flags += [True] * (m_max - m)
            break

    for m, flag in enumerate(flags):
        if flag:
            pattern.first_true = m
            break
    # window-onset: the start of the trailing all-true run, if any
    if flags[-1]:
        onset = m_max
        while onset > 0 and flags[onset - 1]:
            onset -= 1
        pattern.onset = onset
    return pattern


def scan_rows(p: Polynomial, q: Polynomial, m_max: int) -> Iterator[ScanRow]:
    """Every row of the window, m = 0..m_max, computed, with no early stop.

    Reads the same powers as power_scan, one product per row, as the
    rows are iterated.  Refuses the window as power_scan does, at once.
    """
    _check_window(p, q, m_max)
    p_scale, q_scale = integer_terms(p)[1], integer_terms(q)[1]
    # range first: zip stops before it asks for a power past m_max
    powers = zip(range(m_max + 1), _kernel_powers(p, q))
    return (_row(m, f, p_scale ** m * q_scale) for m, f in powers)


def _row(m: int, f: np.ndarray, scale: int) -> ScanRow:
    """The row of a kernel array f that holds `scale` times p^m * q."""
    nonzero = f[f != 0]
    return ScanRow(m, all_coeffs_positive(f), len(nonzero), Fraction(nonzero.min(), scale))


def _check_window(p: Polynomial, q: Polynomial, m_max: int) -> None:
    if p.nvars != q.nvars:
        raise ValueError("p and q must share nvars")
    if not p.is_homogeneous() or p.is_zero() or p.degree() == 0:
        raise ValueError("p must be nonconstant homogeneous")
    if not q.is_homogeneous() or q.is_zero():
        raise ValueError("q must be nonzero homogeneous")
    if m_max < 1:
        raise ValueError("m_max must be positive")
    final_count = dense_monomial_count(p.nvars, m_max * p.degree() + q.degree())
    if final_count > DEFAULT_DENSE_CAP:
        raise ValueError(f"scan refused: dense coefficient count {final_count} "
                         f"exceeds cap {DEFAULT_DENSE_CAP}")


def polya_exponent(g: Polynomial, n_max: int) -> Optional[int]:
    """Least N <= n_max with (x1+...+xn)^N * g all-positive, else None.

    Each candidate N is one evaluation of the falling-factorial form G_N
    of the module docstring on the degree-(N + d) basis, checked by
    all_coeffs_positive; the product itself is never built.  Since the
    property is monotone in N, the search tests N = 0, then doubles N
    up to n_max, then bisects between the last failing and the first
    passing N: about 2*log2(N) evaluations, and ceil(log2(n_max)) + 2
    when no N <= n_max works.  Raises ValueError at the first N it
    reaches whose degree-(N + d) basis exceeds DEFAULT_DENSE_CAP
    coefficients, the scans' rule, so memory stays bounded for any n_max.
    """
    if n_max < 0:
        raise ValueError("n_max must be at least 0")
    if not g.is_homogeneous():
        raise ValueError("polya_exponent requires a homogeneous polynomial")
    if g.is_zero() or g.nvars < 1:
        return None
    g_terms, _ = integer_terms(g)
    d = g.degree()

    def works(n: int) -> bool:
        count = dense_monomial_count(g.nvars, n + d)
        if count > DEFAULT_DENSE_CAP:
            raise ValueError(f"polya search refused at N = {n}: dense coefficient "
                             f"count {count} exceeds cap {DEFAULT_DENSE_CAP}")
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


def _falling_factorial_form(terms: dict[MultiIndex, int], deg: int, total: int) -> np.ndarray:
    """G at every degree-total monomial a, one slot each, as Python ints.

    terms are the `integer_terms` of a nonzero degree-deg g.  The
    monomials are the columns of the kernel's layout of a_1..a_{n-1},
    with a_n = total - (a_1 + ... + a_{n-1}).
    """
    head = _lex_exponents(len(next(iter(terms))) - 1, total)
    a = np.vstack([head, total - head.sum(axis=0)])
    # falling[k, v] = v (v-1) ... (v-k+1), which is 0 for v < k
    v = np.arange(total + 1, dtype=object)
    falling = np.ones((deg + 1, total + 1), dtype=object)
    for k in range(1, deg + 1):
        falling[k] = falling[k - 1] * (v - (k - 1))
    out = np.zeros(a.shape[1], dtype=object)
    for b, c in terms.items():
        term = c
        for i, k in enumerate(b):
            if k:
                term = term * falling[k, a[i]]
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


def _kernel_powers(p: Polynomial, q: Optional[Polynomial] = None) -> Iterator[np.ndarray]:
    """p^m * q for m = 0, 1, 2, ..., each times a positive constant; q = None
    stands for 1.  Each product is formed only when it is asked for."""
    p_terms, _ = integer_terms(p)
    if q is None:
        current, deg = _ONE, 0
    else:
        deg = q.degree()
        current = _times(_ONE, 0, integer_terms(q)[0], deg)
    while True:
        yield current
        current = _times(current, deg, p_terms, p.degree())
        deg += p.degree()


def _times(current: np.ndarray, deg: int, factor: dict[MultiIndex, int],
           factor_deg: int) -> np.ndarray:
    """Product of a degree-deg dense array and a homogeneous factor's
    `integer_terms`.

    One shifted add per factor term: the coefficient of s^e moves to
    s^(e+a), at its lexicographic rank in the degree deg+factor_deg
    layout.  Shifts by distinct e are distinct, so no index repeats
    within one add.
    """
    shifts = np.array([a[:-1] for a in factor], dtype=np.int64)
    free = shifts.shape[1]
    out_deg = deg + factor_deg
    layout = _lex_exponents(free, deg)
    # one rank pass for every term: row t of ranks places layout + a_t
    moved = layout[:, None, :] + shifts.T[:, :, None]
    ranks = _lex_rank(moved.reshape(free, len(factor) * layout.shape[1]), out_deg)
    out = np.zeros(dense_monomial_count(free + 1, out_deg), dtype=object)
    for c, idx in zip(factor.values(), ranks.reshape(len(factor), -1)):
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
