"""Deciders and certifiers for the three positivity conditions.

Pos1: strict positivity at the coordinate unit vectors (exact).
Pos2: strict positivity of each facet derivative on its facet minus the
      origin, decided by exact Bernstein subdivision of each facet
      simplex: Holds when every box closes, Fails at a rational vertex
      where the derivative is <= 0, Inconclusive at the depth limit.
Pos3: strict modulus inequality |p(z)| < p(|z_1|, ..., |z_n|) off the
      set of points whose nonzero coordinates share one argument (the
      "aligned" set).  `check_pos3` runs one pipeline in both modes, and
      the first stage that decides returns.  First a p with no negative
      coefficient is decided from its support, any n
      (`_nonnegative_support`): Holds when every pair face x_i, x_j
      carries exponents whose differences have gcd 1, Fails with an exact
      equality witness at e_i - e_j when some gcd is even (0 for a face
      with one term or none); an odd gcd >= 3 goes on.  Next, a
      coefficient sum <= 0 is an exact Fails at z = (1, ..., 1, -1)/n
      (`_sign_rule`).  For n = 2, `_bernstein_search` proves
      G = D / (4 r1 r2 sin^2(t/2)) > 0, where
      D = p(r)^2 - |p(r e^{it})|^2 and G is a sum of Fejer kernels.
      G is a polynomial in (r1, cos t), so its Bernstein coefficients on
      [0, 1] x [-1, 1], built as Python ints by integer matrix products
      (`_bernstein_g`) and split by de Casteljau, decide its sign with no
      rounding at all.  Dividing out the removable zeros of D on the
      aligned set leaves nothing to fence off.  When the search stops at
      a corner where G < 0 inside the segment, rational points next to it
      are checked exactly for a Fails witness.  Then `_pair_face_probe`
      tests the points at phase difference pi/2 and pi on every pair face
      in integers, and a point where |p(z)| >= p(|z|) is an exact Fails.
      That ends certify mode: anything left is Inconclusive.  Falsify
      mode alone goes on to `_seeded_search`: it samples the normalized
      domain from a seeded numpy Generator, where D, computed in floats
      from the terms of p, picks the candidates.  It re-validates
      candidates exactly when their phases are multiples of pi/2, and
      else refines the best ones by Nelder-Mead on the same formula and
      checks rational points next to each refined point exactly.  Every
      Fails carries an exact Gaussian-rational witness.

Also here: the associated Hermitian bihomogeneous form
P(z, conj(w)) = p(z_1 conj(w_1), ..., z_n conj(w_n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .poly import (DEFAULT_DENSE_CAP, Polynomial, dense_monomial_count,
                   eval_complex_exact, eval_rational, integer_terms,
                   monomials_of_degree)


class Condition(str, Enum):
    POS1 = "Pos1"
    POS2 = "Pos2"
    POS3 = "Pos3"


class Verdict(str, Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class ConditionReport:
    condition: Condition
    verdict: Verdict
    certificate: Optional[dict] = None
    witness: Optional[dict] = None
    budget: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition.value,
            "verdict": self.verdict.value,
            "certificate": self.certificate,
            "witness": self.witness,
            "budget": self.budget,
        }


@dataclass(frozen=True)
class Budgets:
    """The search budgets, each set by a profile, an INI [budgets] key or
    a flag.  `max_depth` bounds the halvings of one Bernstein box, for
    Pos2 on every facet and for Pos3 when n = 2; Pos3 also reads `grid`
    and `max_samples` (falsify only)."""
    grid: int = 32
    max_depth: int = 24
    max_samples: int = 20000

    def __post_init__(self):
        # Past 4096, grid's exact pair-face probes and falsify's tables, and
        # past 10^6 falsify's sample arrays, would run for hours or exhaust
        # memory.  A dive to depth k costs about k^2, as the integers grow
        # at each halving: 0.08 s at 1,000, 3.7 s at 12,000.
        for name, least, most in (("grid", 1, 4096), ("max_depth", 0, 1000),
                                  ("max_samples", 1, 10 ** 6)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")
            if getattr(self, name) > most:
                raise ValueError(f"{name} must be at most {most}")


PROFILES = {
    "fast": Budgets(grid=16, max_depth=18, max_samples=4000),
    "default": Budgets(),
    "thorough": Budgets(grid=64, max_depth=30, max_samples=100000),
}


def _require_nonconstant_homogeneous(p: Polynomial) -> int:
    if not p.is_homogeneous():
        raise ValueError("input must be homogeneous")
    if p.is_zero() or p.degree() == 0:
        raise ValueError("input must be nonconstant")
    return p.degree()


# ---------------------------------------------------------------------
# Pos1
# ---------------------------------------------------------------------

def check_pos1(p: Polynomial) -> ConditionReport:
    """p must be strictly positive at every coordinate unit vector e_k;
    p(e_k) is the coefficient of x_k^d, d the degree of p."""
    d = _require_nonconstant_homogeneous(p)
    values = []
    for k in range(p.nvars):
        val = p.coefficient([d if i == k else 0 for i in range(p.nvars)])
        if val <= 0:
            return ConditionReport(
                Condition.POS1, Verdict.FAILS,
                witness={"point": [str(int(i == k)) for i in range(p.nvars)],
                         "value": str(val), "unit_vector": k + 1},
                budget={"evaluations": k + 1})
        values.append(str(val))
    return ConditionReport(Condition.POS1, Verdict.HOLDS,
                           certificate={"unit_values": values},
                           budget={"evaluations": p.nvars})


# ---------------------------------------------------------------------
# Pos2
# ---------------------------------------------------------------------

def facet_derivative(p: Polynomial, k: int) -> Polynomial:
    """dp/dx_k restricted to the facet x_k = 0, in the remaining variables.

    k is 0-based.  It is the terms of p linear in x_k, with x_k dropped.
    For homogeneous p of degree d the result is homogeneous of degree
    d - 1 in nvars - 1 variables (or zero).
    """
    if not p.is_homogeneous():
        raise ValueError("facet_derivative requires a homogeneous polynomial")
    if not 0 <= k < p.nvars:
        raise ValueError(f"index {k} out of range for nvars={p.nvars}")
    return Polynomial(p.nvars - 1, {e[:k] + e[k + 1:]: c for e, c in p.terms.items() if e[k] == 1})


#: A Bernstein search (Pos2, and Pos3 for n = 2) stops after this many boxes.
_MAX_BOXES = 2_000_000


def _facet_search(g: Polynomial, max_depth: int) -> tuple:
    """Depth-first Bernstein subdivision of the facet simplex, stopped at
    the first box that cannot close: (a vertex where g <= 0 or None, the
    box counts with the stop if the depth or the box budget ended it).

    g = sum c_a x^a of degree D has the Bernstein coefficients c_a a!/D!,
    held as the integers c_a L a! (L*g the `integer_terms` of g), so the
    root box closes iff every c_a > 0: Polya's N = 0 test.  A split halves
    the longest edge (i, j), the lowest pair on a tie, by `_halves` on
    each line parallel to it, scaled by 2^(D - s) on a line of degree s,
    so a vertex coefficient stays g there times a positive scale.
    """
    size, degree = g.nvars, g.degree()
    terms, _ = integer_terms(g)
    b = {e: terms.get(e, 0) * math.prod(map(math.factorial, e))
         for e in monomials_of_degree(size, degree)}
    vertices = [tuple(int(k == v) for k in range(size)) for v in range(size)]
    corners = [tuple(degree * x for x in e) for e in vertices]
    stack = [(b, vertices, 0)]
    counts = dict.fromkeys(("boxes_processed", "boxes_closed", "max_depth_used"), 0)
    while stack:
        if counts["boxes_processed"] == _MAX_BOXES:
            return None, {**counts, "stop": {"reason": "box budget"}}
        b, vertices, depth = stack.pop()
        counts["boxes_processed"] += 1
        counts["max_depth_used"] = max(counts["max_depth_used"], depth)
        if min(b.values()) > 0:
            counts["boxes_closed"] += 1
            continue
        low = min(range(size), key=lambda v: b[corners[v]])
        if b[corners[low]] <= 0:
            return vertices[low], counts
        if depth >= max_depth:
            return None, {**counts, "stop": {"reason": "depth limit", "vertices": [
                [str(x) for x in v] for v in vertices]}}
        i, j = max(combinations(range(size), 2), key=lambda ij: sum(
            (x - y) ** 2 for x, y in zip(vertices[ij[0]], vertices[ij[1]])))
        # a line runs from a_j = 0 to a_j = s; its left half keeps vertex i
        left, right = {}, {}
        for e in b:
            if e[j] == 0:
                line = [e[:i] + (e[i] - t,) + e[i + 1:j] + (t,) + e[j + 1:]
                        for t in range(e[i] + 1)]
                halves = _halves(np.array([b[f] for f in line], dtype=object), 0)
                for f, x, y in zip(line, *halves):
                    left[f], right[f] = x << (degree - e[i]), y << (degree - e[i])
        mid = tuple(Fraction(x + y, 2) for x, y in zip(vertices[i], vertices[j]))
        stack += [(right, vertices[:i] + [mid] + vertices[i + 1:], depth + 1),
                  (left, vertices[:j] + [mid] + vertices[j + 1:], depth + 1)]
    return None, counts


def check_pos2(p: Polynomial, budgets: Budgets = Budgets()) -> ConditionReport:
    """Decide exactly whether each facet derivative g_k is > 0 on its facet.

    Fails when some g_k is 0, or at a vertex of `_facet_search` where
    g_k <= 0.  Holds when every facet's search closes: a facet closed at
    its root box reports the Polya exponent 0, any other its box counts
    under `subdivision`.  Else Inconclusive.  A stack of max_depth + 1
    boxes past DEFAULT_DENSE_CAP coefficients is refused before any search.
    """
    d = _require_nonconstant_homogeneous(p)
    n = p.nvars
    if n == 1:
        # the only facet minus the origin is empty
        return ConditionReport(Condition.POS2, Verdict.HOLDS,
                               certificate={"polya_exponents": {}, "note": "vacuous for one variable"},
                               budget={})
    derivatives = [facet_derivative(p, k) for k in range(n)]
    for k, g in enumerate(derivatives):
        if g.is_zero():
            # any nonzero facet point witnesses dp/dx_k = 0
            j = 0 if k != 0 else 1
            point = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
            return ConditionReport(
                Condition.POS2, Verdict.FAILS,
                witness={"facet": k + 1, "point": [str(v) for v in point],
                         "value": "0", "facet_derivative": "0"},
                budget={"facets_checked": k + 1})
    count = dense_monomial_count(n - 1, d - 1)
    if (budgets.max_depth + 1) * count > DEFAULT_DENSE_CAP:
        raise ValueError(f"Pos2 refused: {budgets.max_depth + 1} boxes of {count} Bernstein "
                         f"coefficients exceed the cap {DEFAULT_DENSE_CAP}")
    exponents, subdivided, boxes = {}, {}, 0
    for k, g in enumerate(derivatives):
        point, counts = _facet_search(g, budgets.max_depth)
        boxes += counts["boxes_processed"]
        if point is not None:
            return ConditionReport(
                Condition.POS2, Verdict.FAILS,
                witness={"facet": k + 1, "point": [str(v) for v in point[:k] + (0,) + point[k:]],
                         "value": str(eval_rational(g, point))},
                budget={"boxes_processed": boxes})
        if counts["boxes_processed"] == counts["boxes_closed"] == 1:
            exponents[str(k + 1)] = 0
        else:
            subdivided[str(k + 1)] = counts
    certificate = {"polya_exponents": exponents, **({"subdivision": subdivided} if subdivided else {})}
    uncertified = [int(k) for k, c in subdivided.items() if "stop" in c]
    if uncertified:
        return ConditionReport(Condition.POS2, Verdict.INCONCLUSIVE,
                               budget={"boxes_processed": boxes, **certificate,
                                       "uncertified_facets": uncertified})
    return ConditionReport(Condition.POS2, Verdict.HOLDS, certificate=certificate,
                           budget={"boxes_processed": boxes})


# ---------------------------------------------------------------------
# Pos3
# ---------------------------------------------------------------------

class Pos3Mode(str, Enum):
    FALSIFY = "falsify"
    CERTIFY = "certify"


#: Falsify refines at most this many of its best candidates by Nelder-Mead.
_REFINE_CANDIDATES = 12

#: i^q for q = 0, 1, 2, 3, as (real, imaginary) pairs
_QUARTER_UNITS = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                  (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)))


def _exact_witness(p: Polynomial, radii: Sequence[Fraction],
                   units: Sequence[tuple]) -> Optional[dict]:
    """Exact check of |p(z)| >= p(r) at z_k = r_k u_k: p(r) <= 0 outright,
    else |p(z)|^2 >= p(r)^2.

    Each u_k is a rational unit vector, a (real, imaginary) pair of
    Fractions, so |z_k| = r_k exactly.  Returns the Fails witness, scaled
    so the largest modulus is 1, or None when the point is aligned or
    satisfies the strict inequality.
    """
    if len({u for u, r in zip(units, radii) if r > 0}) <= 1:
        return None     # aligned
    re, im = eval_complex_exact(p, [(r * u, r * v) for r, (u, v) in zip(radii, units)])
    lhs = re * re + im * im
    p_r = eval_rational(p, list(radii))
    rhs = p_r ** 2
    if p_r > 0 and lhs < rhs:
        return None
    top = max(radii)
    return {"z": [[str(u * r / top), str(v * r / top)] for r, (u, v) in zip(radii, units)],
            "abs_p_z_squared": str(lhs),
            "p_abs_z": str(p_r),
            "p_abs_z_squared": str(rhs),
            "equality": lhs == rhs,
            "validation": "exact"}


def _pair_face_probe(p: Polynomial, grid: int, quarters: Sequence[int]) -> tuple:
    """The first quarter-turn point on a pair face where |p(z)| >= p(|z|),
    as an exact Fails witness or None, and the number of points tested.

    For each pair i < j in turn, k = 1, ..., grid - 1 and q in `quarters`,
    the point is z_i = k/grid, z_j = i^q (grid - k)/grid and z_m = 0
    otherwise.  There p(z) and p(|z|) are the face terms c x_i^a x_j^b
    alone; times grid^d and p's `integer_terms` scale they are the
    Gaussian integer Z = sum c k^a (grid - k)^b i^(q b) and the integer
    P = sum c k^a (grid - k)^b, so P <= 0 or |Z|^2 >= P^2 is tested on
    Python ints.  `_exact_witness` builds the witness at the first such
    point and must agree.
    """
    n, d = p.nvars, p.degree()
    terms, _ = integer_terms(p)
    points = 0
    for i, j in combinations(range(n), 2):
        face = [(c, e[i], e[j]) for e, c in terms.items() if e[i] + e[j] == d]
        # the power of the imaginary unit each term picks up at each quarter
        turns = {q: [q * b % 4 for _, _, b in face] for q in quarters}
        for k in range(1, grid):
            values = [c * k ** a * (grid - k) ** b for c, a, b in face]
            total = sum(values)
            for q in quarters:
                points += 1
                parts = [0, 0, 0, 0]
                for v, t in zip(values, turns[q]):
                    parts[t] += v
                re, im = parts[0] - parts[2], parts[1] - parts[3]
                if total <= 0 or re * re + im * im >= total * total:
                    radii = [Fraction(0)] * n
                    radii[i], radii[j] = Fraction(k, grid), Fraction(grid - k, grid)
                    units = [_QUARTER_UNITS[q if m == j else 0] for m in range(n)]
                    witness = _exact_witness(p, radii, units)
                    if witness is None:
                        raise RuntimeError(f"the integer and the exact quarter-turn tests "
                                           f"disagree at {radii}, quarter {q}")
                    return witness, points
    return None, points


#: Denominator bounds of the rational points next to a float point at
#: which a Fails witness is checked exactly, coarsest first.
_DENOMINATORS = tuple(10 ** k for k in range(1, 9))


def _rational_near(x: float, bound: Optional[int]) -> Fraction:
    """The best rational approximation of x with denominator at most
    `bound`, or x's exact value when bound is None."""
    return Fraction(x) if bound is None else Fraction(x).limit_denominator(bound)


def _rational_unit(theta: float, bound: Optional[int]) -> tuple:
    """A rational unit vector next to e^{i theta}, as a (real, imaginary)
    pair: ((1 - v^2) + 2vi)/(1 + v^2) = e^{2i arctan v} for v =
    `_rational_near(tan(theta/2), bound)`, and exactly -1 when theta
    reduces to +-pi modulo 2 pi."""
    t = math.remainder(theta, 2 * math.pi)
    if abs(t) == math.pi:
        return Fraction(-1), Fraction(0)
    v = _rational_near(math.tan(t / 2), bound)
    return (1 - v * v) / (1 + v * v), 2 * v / (1 + v * v)


#: Falsify drops candidates whose `_misalignment` is at most this: near
#: the aligned set D vanishes, and float noise there is no counterexample.
_MISALIGNMENT_FLOOR = 1e-3

#: Falsify's candidates are the samples where D <= this times p(r)^2.
_CANDIDATE_TOLERANCE = 1e-12

#: Falsify evaluates D on the grid about this many (sample, term) entries
#: at a time: each chunk of samples holds its terms c_I r^I and their
#: phase indices <I, phases> mod g, which bounds the memory.
_GRID_CHUNK = 1 << 16


def _unrank_compositions(n: int, g: int, ranks) -> np.ndarray:
    """The exponent tuples at the given positions of
    `monomials_of_degree(n, g)`, one row each.

    That order lists e_0 = g, g - 1, ..., 0 in blocks; the block of
    e_0 = g - t holds the C(t + n - 2, n - 2) tuples of the other
    coordinates, so blocks 0..t hold C(t + n - 1, n - 1) tuples.  Within
    its block a rank is the same problem one variable smaller.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    out = np.empty((len(ranks), n), dtype=np.int64)
    rest = np.full(len(ranks), g, dtype=np.int64)
    for j in range(n - 1):
        through = np.array([math.comb(t + n - 1 - j, n - 1 - j) for t in range(g + 1)])
        t = np.searchsorted(through, ranks, side="right")
        ranks = ranks - np.where(t > 0, through[t - 1], 0)
        out[:, j] = rest - t
        rest = t
    out[:, n - 1] = rest
    return out


def _misalignment(R: np.ndarray, TH: np.ndarray) -> np.ndarray:
    """Distance-to-aligned-set proxy: sum_j r_j (1 - cos(theta_j - alpha)).

    alpha is the phase of the radius-weighted mean direction
    sum_j r_j e^{i theta_j}, so the sum is sum_j r_j minus the modulus of
    that mean, which is how it is computed.
    """
    return R.sum(axis=1) - np.abs((R * np.exp(1j * TH)).sum(axis=1))


def _float_scaled(p: Polynomial) -> Polynomial:
    """p times the power of two that puts its largest |coefficient| in
    [1, 2).  Every float test of the falsify layer is invariant under
    positive scaling, and a power of two scales its floats exactly, barring
    overflow and underflow, which the normalization keeps away."""
    top = max(abs(c) for c in p.terms.values())
    shift = top.numerator.bit_length() - top.denominator.bit_length()
    if top < Fraction(2) ** shift:
        shift -= 1
    return p.scale(Fraction(2) ** -shift) if shift else p


def _eval_d_grid(p: Polynomial, g: int, radii: np.ndarray, row: np.ndarray,
                 phases: np.ndarray) -> tuple:
    """D = p(r)^2 - |p(r e^{i theta})|^2 and p(r) at the grid points
    r = radii[row] / g, theta = 2 pi phases / g.

    With w_I = c_I r^I, p(r) = sum w_I and p(z) = sum w_I e^{i <I, theta>}.
    On the grid r^I comes from a table of (e/g)^k, and e^{i <I, theta>}
    from a table of e^{2 pi i m/g} at m = <I, phases> mod g.  That table
    is made exactly conjugate-symmetric in m <-> g - m, with sin 0 at
    m = g/2, so mirror phases give the same D bit for bit.  The samples
    go in chunks of about `_GRID_CHUNK` (sample, term) entries, and the
    w of each distinct radius of a chunk are built once.  Each value is a
    sum over its own sample's terms alone, so it does not depend on the
    chunks.  Returns (D, p(r)) with one entry per point.
    """
    T = np.array(list(p.terms), dtype=np.int64)
    coef = np.array([float(c) for c in p.terms.values()])
    powers = (np.arange(g + 1) / g)[:, None] ** np.arange(p.degree() + 1, dtype=float)
    m = np.arange(g)
    angle = (2 * np.minimum(m, g - m)) / g * math.pi
    cos = np.cos(angle)
    sin = np.sign(g - 2 * m) * np.sin(angle)

    D = np.empty(len(row))
    p_r = np.empty(len(row))
    step = max(1, _GRID_CHUNK // len(T))
    for start in range(0, len(row), step):
        part = slice(start, start + step)
        rows, at_row = np.unique(row[part], return_inverse=True)
        w = np.broadcast_to(coef, (len(rows), len(T))).copy()
        for j in range(T.shape[1]):
            w *= powers[radii[rows, j]][:, T[:, j]]
        w = w[at_row.reshape(-1)]
        at = (phases[part] @ T.T) % g
        total = w.sum(axis=1)
        re, im = (w * cos[at]).sum(axis=1), (w * sin[at]).sum(axis=1)
        D[part] = total * total - (re * re + im * im)
        p_r[part] = total
    return D, p_r


def _grid_samples(n: int, budgets: Budgets, seed: int) -> tuple:
    """The falsify sample points, held as integers.

    Radii are e/g for the compositions e of g, phases 2 pi j/g with the
    first phase 0.  When the whole grid fits in `max_samples` it is taken
    in order, radius outer and phases lexicographic; else
    `np.random.default_rng(seed)` draws `max_samples` radius ranks in
    `monomials_of_degree(n, g)` order, then the n - 1 free phases of each
    sample, so the listed grid is never built.  Returns (radii, row,
    phases, R, TH): the distinct compositions drawn, the composition row
    of each sample, the (samples, n) phase numerators j, and the float
    radii and phases.
    """
    g = budgets.grid
    n_radii = math.comb(g + n - 1, n - 1)
    if n_radii > np.iinfo(np.int64).max:
        raise ValueError(f"falsify grid too large: {n_radii} radii")
    if n_radii * g ** (n - 1) <= budgets.max_samples:
        ranks = np.arange(n_radii)
        row = np.repeat(ranks, g ** (n - 1))
        free = np.tile(np.indices((g,) * (n - 1)).reshape(n - 1, -1).T, (n_radii, 1))
    else:
        rng = np.random.default_rng(seed)
        ranks, row = np.unique(rng.integers(n_radii, size=budgets.max_samples),
                               return_inverse=True)
        row = row.reshape(-1)
        free = rng.integers(g, size=(budgets.max_samples, n - 1))
    radii = _unrank_compositions(n, g, ranks)
    phases = np.hstack([np.zeros((len(row), 1), dtype=np.int64), free])
    return radii, row, phases, (radii / g)[row], (2 * phases) / g * math.pi


def _nelder_mead_objective(x: np.ndarray, T: np.ndarray, coef: np.ndarray) -> float:
    """D / p(r)^2 at z_k = r_k e^{i theta_k}, for p = sum of coef_I x^I over
    the rows I of T, in floats.

    x = (r_1, ..., r_(n-1), theta_2, ..., theta_n): the free radii, each
    clipped to [0, 1], then r_n = 1 - their sum, and theta_1 = 0.  Past
    the simplex, r_n < 0, it is the penalty 1e6 (1 + r_n^2).  D comes from
    the terms w = coef_I r^I as on the grid (`_eval_d_grid`).
    """
    n = T.shape[1]
    rfree = np.clip(x[:n - 1], 0.0, 1.0)
    rn = 1.0 - rfree.sum()
    if rn < 0:
        return 1e6 * (1 + rn ** 2)
    r = np.concatenate([rfree, [rn]])
    theta = np.concatenate([[0.0], x[n - 1:]])
    w = coef * np.prod(r ** T, axis=1)
    total, pz = w.sum(), w @ np.exp(1j * (T @ theta))
    return (total * total - (pz.real ** 2 + pz.imag ** 2)) / max(total * total, 1e-30)


def _seeded_search(p: Polynomial, budgets: Budgets, seed: int,
                   budget: dict) -> ConditionReport:
    """Fails with an exact witness that the sampled grid and its
    refinement lead to, else Inconclusive; `budget` is that of the stages
    before, and the report extends it."""
    n, g = p.nvars, budgets.grid
    # the float layer sees p normalized by a power of two, so the float
    # tests below, their 1e-30 floors included, do not depend on p's
    # scale; the exact checks use p itself
    pf = _float_scaled(p)
    radii, row, phases, R, TH = _grid_samples(n, budgets, seed)
    D, p_r = _eval_d_grid(pf, g, radii, row, phases)
    low = np.flatnonzero(D <= _CANDIDATE_TOLERANCE * np.maximum(p_r ** 2, 1e-30))
    candidate_idx = low[_misalignment(R[low], TH[low]) > _MISALIGNMENT_FLOOR]
    candidate_idx = candidate_idx[np.argsort(D[candidate_idx], kind="stable")]
    budget = {**budget, "samples": len(row), "candidates": int(len(candidate_idx))}

    # pass 1: exact re-validation for quarter-turn phases
    for idx in candidate_idx[:200]:
        if np.any(4 * phases[idx] % g):
            continue
        witness = _exact_witness(p, [Fraction(int(e), g) for e in radii[row[idx]]],
                                 [_QUARTER_UNITS[q] for q in (4 * phases[idx] // g).tolist()])
        if witness is not None:
            return ConditionReport(Condition.POS3, Verdict.FAILS, witness=witness,
                                   budget=budget)

    # pass 2: local refinement of the best floating candidates
    if len(candidate_idx):
        # scipy takes most of a second to import, so only a candidate pays
        from scipy.optimize import minimize

    T = np.array(list(pf.terms), dtype=float)
    coef = np.array([float(c) for c in pf.terms.values()])
    refined = 0
    for idx in candidate_idx[:_REFINE_CANDIDATES]:
        x0 = np.concatenate([R[idx, :n - 1], TH[idx, 1:]])
        res = minimize(_nelder_mead_objective, x0, args=(T, coef), method="Nelder-Mead",
                       options={"maxiter": 400, "xatol": 1e-12, "fatol": 1e-14})
        refined += 1
        if res.fun < -1e-9:
            rfree = np.clip(res.x[:n - 1], 0.0, 1.0)
            rn = max(0.0, 1.0 - rfree.sum())
            rr = np.concatenate([rfree, [rn]])
            tt = np.concatenate([[0.0], res.x[n - 1:]])
            if _misalignment(rr[None, :], tt[None, :])[0] <= _MISALIGNMENT_FLOOR:
                continue
            # exact checks at rational points next to the refined point, the
            # coarsest (shortest witness) first, and last at the point's own
            # exact binary value
            points = dict.fromkeys(
                (tuple(_rational_near(v, bound) for v in rr.tolist()),
                 tuple(_rational_unit(t, bound) for t in tt.tolist()))
                for bound in _DENOMINATORS + (None,))
            for radii, units in points:
                witness = _exact_witness(p, radii, units)
                if witness is not None:
                    return ConditionReport(Condition.POS3, Verdict.FAILS, witness=witness,
                                           budget={**budget, "refined": refined})
    return ConditionReport(Condition.POS3, Verdict.INCONCLUSIVE,
                           budget={**budget, "refined": refined,
                                   "note": "no counterexample found"})


def _bernstein_g(p: Polynomial) -> tuple:
    """G's Bernstein coefficients in (r1, c = cos t) on [0, 1] x [-1, 1],
    built in integers.

    With c_i the coefficient of x1^i x2^(d - i), z = (r1 e^{it}, r2) and
    D = p(r)^2 - |p(z)|^2,

        D = 4 r1 r2 sin^2(t/2) G,
        G = sum over i < j of c_i c_j r1^(i+j-1) r2^(2d-i-j-1) F_(j-i)(t),

    because 1 - cos(kt) = 2 sin^2(t/2) F_k(t) for the Fejer kernel
    F_k = k + 2 sum_{0<m<k} (k - m) cos(mt).  Both exponents are >= 0
    because i < j <= d.  G has degree B = 2d - 2 in r1 and M = d - 1 in
    c, because cos(mt) = T_m(c), the Chebyshev polynomial.  Returns
    (b, scale): a (B + 1) x (M + 1) object array of Python ints and a
    Fraction > 0 with

        G = scale sum b[a, k] C(B, a) r1^a r2^(B-a) C(M, k) u^k (1 - u)^(M-k)

    for u = (1 + c)/2.  No Fraction is used: with p's denominators
    cleared by their lcm L, three integer matrices give S = H Cheb Tb.
    H[a, m] is L^2 times the cos(mt) coefficient of r1^a r2^(B-a), from
    the pairs with i + j - 1 = a; Cheb[m, j] is the u^j coefficient of
    T_m(2u - 1); and Tb[j, k] = C(M - j, k - j) takes u^j to the basis
    C(M, k) u^k (1 - u)^(M-k), because u^j = sum_k C(k, j)/C(M, j) times
    that basis and C(k, j)/C(M, j) = C(M - j, k - j)/C(M, k).  So b[a, k]
    is S[a, k]/(C(B, a) C(M, k)) times the lcm of those products, over
    the gcd of all of b.
    """
    d = p.degree()
    big_b, big_m = 2 * d - 2, d - 1
    terms, lcm_p = integer_terms(p)
    coefs = {exp[0]: c for exp, c in terms.items()}
    # row k holds F_k's cosine coefficients
    fejer = np.array([[k] + [2 * (k - m) if m < k else 0 for m in range(1, d)]
                      for k in range(d + 1)], dtype=object)
    h = np.zeros((big_b + 1, big_m + 1), dtype=object)
    for i, j in combinations(sorted(coefs), 2):
        h[i + j - 1] += coefs[i] * coefs[j] * fejer[j - i]
    # T_m(2u - 1) in powers of u, by T_(m+1) = 2 (2u - 1) T_m - T_(m-1)
    cheb = [[1] + [0] * big_m, [-1, 2] + [0] * (big_m - 1)]
    while len(cheb) <= big_m:
        t1, t0 = cheb[-1], cheb[-2]
        cheb.append([4 * (t1[j - 1] if j else 0) - 2 * t1[j] - t0[j]
                     for j in range(big_m + 1)])
    to_bernstein = np.array([[math.comb(big_m - j, k - j) if k >= j else 0
                              for k in range(big_m + 1)] for j in range(big_m + 1)],
                            dtype=object)
    s = h.dot(np.array(cheb[:big_m + 1], dtype=object)).dot(to_bernstein)
    binomials = np.array([[math.comb(big_b, a) * math.comb(big_m, k) for k in range(big_m + 1)]
                          for a in range(big_b + 1)], dtype=object)
    delta = math.lcm(*binomials.flat)
    b = s * (delta // binomials)
    common = math.gcd(*b.flat) or 1
    return b // common, Fraction(common, delta * lcm_p ** 2)


def _halves(b: np.ndarray, axis: int) -> tuple:
    """The Bernstein coefficients of the two halves of a box cut at the
    midpoint of `axis`, by de Casteljau.  Both come times 2^degree, which
    keeps them integers and leaves their signs alone."""
    row = np.moveaxis(b, axis, 0)
    n = len(row) - 1
    left, right = [None] * (n + 1), [None] * (n + 1)
    for k in range(n + 1):
        left[k] = row[0] * 2 ** (n - k)
        right[n - k] = row[-1] * 2 ** (n - k)
        row = row[:-1] + row[1:]
    # object dtype: np.stack would put 1-D input's Python ints in int64
    return tuple(np.moveaxis(np.array(half, dtype=object), 0, axis) for half in (left, right))


def _corner_probe(p: Polynomial, r1: Fraction, c: Fraction) -> tuple:
    """An exact Fails witness near a point where G(r1, c) < 0, or None,
    and the number of points checked.

    With 0 < r1 < 1 and c < 1, D = 2 r1 r2 (1 - c) G < 0 at z = (r1 u, r2)
    for the unit vector u with real part c, and so near it.  The points tried
    are u = `_rational_unit(arccos c, bound)` for the bounds in
    `_DENOMINATORS`, each point once.
    """
    units = list(dict.fromkeys(_rational_unit(math.acos(c), bound) for bound in _DENOMINATORS))
    for points, u in enumerate(units, 1):
        witness = _exact_witness(p, (r1, 1 - r1), (u, _QUARTER_UNITS[0]))
        if witness is not None:
            return witness, points
    return None, len(units)


def _bernstein_search(p: Polynomial, max_depth: int) -> ConditionReport:
    """For n = 2: Holds when G > 0 is proved on [0, 1] x [-1, 1]; Fails with
    an exact witness from `_corner_probe` when the search stops at a corner
    where G < 0; else Inconclusive.  The budget holds the box counts and,
    unless the search closed, its stop.

    G > 0 makes p nonzero on the open segment r1 + r2 = 1, so p keeps the
    sign of p(1/2, 1/2) > 0 there (`_sign_rule`), and |p(z)| < p(|z|) off
    the aligned set.
    """
    root, scale = _bernstein_g(p)
    degrees = (root.shape[0] - 1, root.shape[1] - 1)
    # A box at depth k has been halved k times, along r1 at even depths
    # and along c at odd ones; (i, j) is its position along r1 and along
    # u = (1 + c)/2 among the boxes of its size.  A corner coefficient is
    # G at that corner, times a positive scale, so a corner <= 0 shows that
    # G > 0 fails; the search stops at the first box it cannot close.
    stack = [(root, 0, 0, 0)]
    processed = closed = max_depth_used = 0
    stop = corner = None
    while stack and stop is None:
        if processed == _MAX_BOXES:
            stop = {"reason": "box budget"}
            break
        b, depth, i, j = stack.pop()
        processed += 1
        max_depth_used = max(max_depth_used, depth)
        if b.min() > 0:
            closed += 1
            continue
        cuts = ((depth + 1) // 2, depth // 2)
        r1 = [Fraction(i + x, 2 ** cuts[0]) for x in (0, 1)]
        c = [Fraction(2 * (j + y), 2 ** cuts[1]) - 1 for y in (0, 1)]
        box = {"r1": [str(v) for v in r1], "c": [str(v) for v in c]}
        x, y = min(((x, y) for x in (0, 1) for y in (0, 1)), key=lambda xy: b[-xy[0], -xy[1]])
        if b[-x, -y] <= 0:
            g = scale * b[-x, -y] / 2 ** (degrees[0] * cuts[0] + degrees[1] * cuts[1])
            stop = {"reason": "G <= 0 at a corner", **box,
                    "corner": [str(r1[x]), str(c[y])], "g": str(g)}
            if g < 0 and 0 < r1[x] < 1 and c[y] < 1:
                corner = (r1[x], c[y])
        elif depth >= max_depth:
            stop = {"reason": "depth limit", **box}
        else:
            axis = depth % 2
            left, right = _halves(b, axis)
            if axis == 0:
                stack += [(right, depth + 1, 2 * i + 1, j), (left, depth + 1, 2 * i, j)]
            else:
                stack += [(right, depth + 1, i, 2 * j + 1), (left, depth + 1, i, 2 * j)]

    budget = {"boxes_processed": processed, "boxes_closed": closed,
              "max_depth_used": max_depth_used}
    if stop is not None:
        budget["stop"] = stop
        if corner is not None:
            witness, budget["corner_points"] = _corner_probe(p, *corner)
            if witness is not None:
                return ConditionReport(Condition.POS3, Verdict.FAILS, witness=witness,
                                       budget=budget)
        return ConditionReport(Condition.POS3, Verdict.INCONCLUSIVE, budget=budget)
    return ConditionReport(Condition.POS3, Verdict.HOLDS,
                           certificate={"method": "fejer_kernel_bernstein"},
                           budget=budget)


def _pair_face_gcds(p: Polynomial) -> dict:
    """g_ij for each pair i < j: the gcd of the differences of the
    x_i-exponents on the support of p_ij, which is p with every variable
    but x_i and x_j set to 0; 0 when p_ij has one term or none."""
    n, d = p.nvars, p.degree()
    exponents = {pair: set() for pair in combinations(range(n), 2)}
    for exp in p.terms:
        support = [k for k, e in enumerate(exp) if e]
        if len(support) == 2:
            exponents[tuple(support)].add(exp[support[0]])
        elif len(support) == 1:
            # x_k^d lies on every face that holds x_k
            k = support[0]
            for i in range(k):
                exponents[i, k].add(0)
            for j in range(k + 1, n):
                exponents[k, j].add(d)
    return {pair: math.gcd(*(a - min(e) for a in e)) for pair, e in exponents.items()}


def _nonnegative_support(p: Polynomial) -> Optional[ConditionReport]:
    """Pos3 decided from the support of p when no coefficient is negative,
    else None.

    Then |p(z)| <= p(|z|) by the triangle inequality, with equality
    exactly when the terms nonzero at z share one argument.  Take a
    non-aligned z, so arg z_i != arg z_j for some nonzero z_i, z_j.  The
    terms of p_ij are nonzero at z, and x_i^a x_j^(d-a) has argument
    d arg z_j + a (arg z_i - arg z_j), so equality needs
    (a - a') (arg z_i - arg z_j) in 2 pi Z for all exponents a, a' of
    p_ij; when g_ij = 1, Bezout makes arg z_i = arg z_j.  So every
    g_ij = 1 gives Holds.  When g_ij is even, all the a have one parity,
    and z = e_i - e_j gives |p_ij(1, -1)| = p_ij(1, 1): an exact equality
    witness; g_ij = 0 (p_ij with one term or none) counts as even.  An odd
    g_ij >= 3 puts equality at phase difference 2 pi/g_ij, where no
    Gaussian-rational point lies, so the rule leaves p to the search.
    """
    if any(c < 0 for c in p.terms.values()):
        return None
    gcds = _pair_face_gcds(p)
    for (i, j), g in gcds.items():
        if g % 2 == 0:
            radii = [Fraction(int(k in (i, j))) for k in range(p.nvars)]
            units = [_QUARTER_UNITS[2 if k == j else 0] for k in range(p.nvars)]
            return ConditionReport(Condition.POS3, Verdict.FAILS,
                                   witness=_exact_witness(p, radii, units))
    if all(g == 1 for g in gcds.values()):
        return ConditionReport(Condition.POS3, Verdict.HOLDS,
                               certificate={"method": "nonnegative_support"})
    return None


def _sign_rule(p: Polynomial) -> Optional[ConditionReport]:
    """Fails when p(1/n, ..., 1/n) <= 0, else None.

    p is homogeneous, so p(1/n, ..., 1/n) has the sign of p(1, ..., 1),
    the sum of the coefficients.  When it is <= 0, z = (1/n, ..., 1/n,
    -1/n) is not aligned and |p(z)| >= 0 >= p(|z|): an exact Fails.
    """
    if sum(p.terms.values()) > 0:
        return None
    n = p.nvars
    units = [_QUARTER_UNITS[0]] * (n - 1) + [_QUARTER_UNITS[2]]
    return ConditionReport(Condition.POS3, Verdict.FAILS,
                           witness=_exact_witness(p, [Fraction(1, n)] * n, units),
                           budget={"note": f"p({', '.join([f'1/{n}'] * n)}) <= 0"})


def check_pos3(p: Polynomial, budgets: Budgets = Budgets(),
               mode: Pos3Mode = Pos3Mode.CERTIFY, seed: int = 0) -> ConditionReport:
    """Decide the strict modulus inequality at the configured resolution.

    One pipeline for both modes; the first stage that decides returns:
    `_nonnegative_support`, `_sign_rule`, for n = 2 `_bernstein_search`
    with its corner probe, then `_pair_face_probe`.  The mode decides only
    whether `_seeded_search`, which draws from `seed`, runs after them.
    Budget exhaustion is always reported as Inconclusive, never as a
    verdict.
    """
    mode = Pos3Mode(mode)
    if seed < 0:
        raise ValueError("seed must be at least 0")
    _require_nonconstant_homogeneous(p)
    if p.nvars == 1:
        # every nonzero complex point is a rotated positive-orthant point
        return ConditionReport(Condition.POS3, Verdict.HOLDS,
                               certificate={"note": "vacuous for one variable"})
    decided = _nonnegative_support(p) or _sign_rule(p)
    if decided is not None:
        return decided
    budget = {}
    if p.nvars == 2:
        # a Holds never pays for the probes that follow
        searched = _bernstein_search(p, budgets.max_depth)
        if searched.verdict is not Verdict.INCONCLUSIVE:
            return searched
        budget = searched.budget
    witness, budget["quarter_turn_points"] = _pair_face_probe(p, budgets.grid, (1, 2))
    if witness is not None:
        return ConditionReport(Condition.POS3, Verdict.FAILS, witness=witness, budget=budget)
    if mode is Pos3Mode.FALSIFY:
        return _seeded_search(p, budgets, seed, budget)
    if p.nvars > 2:
        budget["note"] = ("certify decides n >= 3 only from the support, when no "
                          "coefficient is negative, the coefficient sum and the "
                          "pair-face quarter turns")
    return ConditionReport(Condition.POS3, Verdict.INCONCLUSIVE, budget=budget)


# ---------------------------------------------------------------------
# Hermitian bihomogeneous form
# ---------------------------------------------------------------------

def assoc_bihom_eval(p: Polynomial, z: Sequence[complex],
                     w: Sequence[complex]) -> complex:
    """P(z, conj(w)) = sum_I c_I z^I conj(w)^I, numerically."""
    if len(z) != p.nvars or len(w) != p.nvars:
        raise ValueError("dimension mismatch")
    total = 0j
    for exp, coef in p.terms.items():
        v = complex(coef)
        for zz, ww, e in zip(z, w, exp):
            if e:
                v *= (zz * ww.conjugate()) ** e
        total += v
    return total
