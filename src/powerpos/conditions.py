"""Deciders and certifiers for the three positivity conditions.

Pos1: strict positivity at the coordinate unit vectors (exact).
Pos2: strict positivity of each facet derivative on its facet minus the
      origin, certified by a simplex-multiplier exponent per facet and
      falsified by exact grid sampling; Inconclusive is a first-class
      outcome.
Pos3: strict modulus inequality |p(z)| < p(|z_1|, ..., |z_n|) off the
      set of points whose nonzero coordinates share one argument (the
      "aligned" set).  Falsify mode samples the normalized domain and
      re-validates candidates exactly when their phases are multiples
      of pi/2; certify mode runs an interval branch-and-bound outside a
      delta-neighborhood of the aligned set and backs the neighborhood
      with a positive-definiteness probe of the log-Hessian matrix.

Also here: the associated Hermitian bihomogeneous form
P(z, conj(w)) = p(z_1 conj(w_1), ..., z_n conj(w_n)), its strict
Cauchy-Schwarz probe, and the diagonal maximal-squared-norm test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .eventual import polya_exponent
from .intervals import (add_down, add_up, array_add, array_mul_int,
                        array_mul_nonneg, array_powers, array_scale,
                        array_versin, from_fraction)
from .poly import (Polynomial, dehomogenize, eval_complex_exact,
                   eval_rational, monomials_of_degree, serialize)

TWO_PI = 2 * math.pi


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
    """p must be strictly positive at every coordinate unit vector."""
    _require_nonconstant_homogeneous(p)
    values = []
    for k in range(p.nvars):
        point = [Fraction(1) if i == k else Fraction(0) for i in range(p.nvars)]
        val = eval_rational(p, point)
        if val <= 0:
            return ConditionReport(
                Condition.POS1, Verdict.FAILS,
                witness={"point": [str(v) for v in point], "value": str(val),
                         "unit_vector": k + 1},
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

    k is 0-based.  For homogeneous p of degree d the result is
    homogeneous of degree d - 1 in nvars - 1 variables (or zero).
    """
    if not p.is_homogeneous():
        raise ValueError("facet_derivative requires a homogeneous polynomial")
    if not 0 <= k < p.nvars:
        raise ValueError(f"index {k} out of range for nvars={p.nvars}")
    g = p.partial_derivative(k)
    out: dict[tuple, Fraction] = {}
    for exp, coef in g.terms.items():
        if exp[k] != 0:
            continue
        out[exp[:k] + exp[k + 1:]] = coef
    return Polynomial(p.nvars - 1, out)


def _facet_simplex_points(ell: int, grid: int) -> list[tuple[Fraction, ...]]:
    """Nonzero rational points of the grid simplex in ell variables."""
    points = []
    for exp in monomials_of_degree(ell, grid):
        points.append(tuple(Fraction(e, grid) for e in exp))
    return points


def check_pos2(p: Polynomial, polya_budget: int = 50,
               sample_grid: int = 8) -> ConditionReport:
    """Certify each facet derivative positive via a simplex multiplier.

    Holds with a per-facet exponent N_k when (sum of remaining
    variables)^{N_k} times the facet derivative has all positive
    coefficients, all exactly.  Fails when a facet derivative vanishes
    identically or an exact grid point on the facet gives a value <= 0.
    """
    _require_nonconstant_homogeneous(p)
    n = p.nvars
    if n == 1:
        # the only facet minus the origin is empty
        return ConditionReport(Condition.POS2, Verdict.HOLDS,
                               certificate={"polya_exponents": {}, "note": "vacuous for one variable"},
                               budget={})
    exponents: dict[str, int] = {}
    uncertified: list[int] = []
    for k in range(n):
        g = facet_derivative(p, k)
        if g.is_zero():
            # any nonzero facet point witnesses dp/dx_k = 0
            j = 0 if k != 0 else 1
            point = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
            return ConditionReport(
                Condition.POS2, Verdict.FAILS,
                witness={"facet": k + 1, "point": [str(v) for v in point],
                         "value": "0", "facet_derivative": "0"},
                budget={"facets_checked": k + 1})
        nk = polya_exponent(g, polya_budget)
        if nk is None:
            uncertified.append(k)
        else:
            exponents[str(k + 1)] = nk
    if not uncertified:
        return ConditionReport(Condition.POS2, Verdict.HOLDS,
                               certificate={"polya_exponents": exponents},
                               budget={"polya_budget": polya_budget})
    # certification failed on some facet: hunt for an exact counterexample
    samples = 0
    for k in uncertified:
        g = facet_derivative(p, k)
        for pt in _facet_simplex_points(n - 1, sample_grid):
            samples += 1
            val = eval_rational(g, list(pt))
            if val <= 0:
                full = list(pt[:k]) + [Fraction(0)] + list(pt[k:])
                return ConditionReport(
                    Condition.POS2, Verdict.FAILS,
                    witness={"facet": k + 1, "point": [str(v) for v in full],
                             "value": str(val)},
                    budget={"polya_budget": polya_budget, "samples": samples})
    return ConditionReport(
        Condition.POS2, Verdict.INCONCLUSIVE,
        certificate=None,
        witness=None,
        budget={"polya_budget": polya_budget, "samples": samples,
                "uncertified_facets": [k + 1 for k in uncertified]})


# ---------------------------------------------------------------------
# Pos3
# ---------------------------------------------------------------------

class Pos3Mode(str, Enum):
    FALSIFY = "Falsify"
    CERTIFY = "Certify"


@dataclass
class Pos3Options:
    mode: Pos3Mode = Pos3Mode.FALSIFY
    grid: int = 32
    max_depth: int = 24
    delta: float = 1e-3      # exclusion radius around the aligned set
    tolerance: float = 1e-12
    max_samples: int = 20000
    max_boxes: int = 2_000_000
    probe_points: int = 5
    refine_candidates: int = 12
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.mode, str):
            self.mode = Pos3Mode(self.mode.capitalize())
        if self.delta <= 0 or self.tolerance <= 0:
            raise ValueError("delta and tolerance must be positive")


def _pair_data(p: Polynomial):
    """Cross terms of D(r, theta) = p(r)^2 - |p(r e^{i theta})|^2.

    D = sum over unordered pairs I != J of
        2 c_I c_J r^{I+J} (1 - cos(<I - J, theta>));
    the diagonal cancels.
    """
    terms = p.sorted_terms()
    pairs = []
    for (ei, ci), (ej, cj) in combinations(terms, 2):
        pairs.append((2 * ci * cj,
                      tuple(a + b for a, b in zip(ei, ej)),
                      tuple(a - b for a, b in zip(ei, ej))))
    return pairs


def _aligned_quarter_phases(quarters: Sequence[int], radii: Sequence[Fraction]) -> bool:
    """Exact alignment test for phases that are multiples of pi/2."""
    active = {q % 4 for q, r in zip(quarters, radii) if r > 0}
    return len(active) <= 1


_QUARTER_UNITS = {
    0: (Fraction(1), Fraction(0)),
    1: (Fraction(0), Fraction(1)),
    2: (Fraction(-1), Fraction(0)),
    3: (Fraction(0), Fraction(-1)),
}


def _exact_pos3_violation(p: Polynomial, radii: Sequence[Fraction],
                          quarters: Sequence[int]):
    """Exact check of |p(z)|^2 >= p(r)^2 at z_k = r_k i^{q_k}.

    Returns (lhs, rhs) Fractions, or None when the point is aligned.
    """
    if _aligned_quarter_phases(quarters, radii):
        return None
    z = [(r * _QUARTER_UNITS[q % 4][0], r * _QUARTER_UNITS[q % 4][1])
         for r, q in zip(radii, quarters)]
    re, im = eval_complex_exact(p, z)
    lhs = re * re + im * im
    rhs = eval_rational(p, list(radii)) ** 2
    return lhs, rhs


def _normalize_witness(radii: Sequence[Fraction], quarters: Sequence[int]):
    """Scale so the largest modulus is 1; JSON-friendly exact coordinates."""
    top = max(radii)
    coords = []
    for r, q in zip(radii, quarters):
        re, im = _QUARTER_UNITS[q % 4]
        coords.append([str(re * r / top), str(im * r / top)])
    return coords


def _simplex_grid(n: int, grid: int) -> list[tuple[Fraction, ...]]:
    return [tuple(Fraction(e, grid) for e in exp)
            for exp in monomials_of_degree(n, grid)]


def _misalignment(R: np.ndarray, TH: np.ndarray) -> np.ndarray:
    """Distance-to-aligned-set proxy: sum_j r_j (1 - cos(theta_j - alpha)).

    alpha is the phase of the radius-weighted mean direction.
    """
    w = R * np.exp(1j * TH)
    mean = w.sum(axis=1)
    alpha = np.angle(mean)
    return (R * (1 - np.cos(TH - alpha[:, None]))).sum(axis=1)


def _eval_d_numpy(pairs, R: np.ndarray, TH: np.ndarray) -> np.ndarray:
    C = np.array([float(c) for c, _, _ in pairs])
    E = np.array([e for _, e, _ in pairs], dtype=float)
    K = np.array([k for _, _, k in pairs], dtype=float)
    out = np.empty(len(R))
    # chunk so the S x P x n intermediate stays small
    chunk = max(1, int(4e6 / max(1, E.size)))
    for start in range(0, len(R), chunk):
        Rb = R[start:start + chunk]
        THb = TH[start:start + chunk]
        mono = np.prod(Rb[:, None, :] ** E[None, :, :], axis=2)
        phase = 1.0 - np.cos(THb @ K.T)
        out[start:start + chunk] = (mono * phase * C).sum(axis=1)
    return out


def _falsify(p: Polynomial, opts: Pos3Options) -> ConditionReport:
    n = p.nvars
    pairs = _pair_data(p)
    rng = random.Random(opts.seed)
    g = opts.grid

    # exact sample coordinates: radii on the simplex grid, phases as
    # rational multiples of pi (2j/g in units of pi), first phase fixed 0
    r_points = _simplex_grid(n, g)
    theta_fracs = [Fraction(2 * j, g) for j in range(g)]  # units of pi
    total = len(r_points) * g ** (n - 1)
    samples: list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]] = []
    if total <= opts.max_samples:
        def theta_product(depth, acc):
            if depth == n - 1:
                yield tuple(acc)
                return
            for t in theta_fracs:
                yield from theta_product(depth + 1, acc + [t])
        for r in r_points:
            for th in theta_product(0, []):
                samples.append((r, (Fraction(0),) + th))
    else:
        for _ in range(opts.max_samples):
            r = rng.choice(r_points)
            th = (Fraction(0),) + tuple(rng.choice(theta_fracs) for _ in range(n - 1))
            samples.append((r, th))

    R = np.array([[float(v) for v in r] for r, _ in samples])
    TH = np.array([[float(t) * math.pi for t in th] for _, th in samples])
    D = _eval_d_numpy(pairs, R, TH)
    T = np.array([e for e in p.terms], dtype=float)
    tc = np.array([float(c) for c in p.terms.values()])
    pr = np.prod(R[:, None, :] ** T[None, :, :], axis=2) @ tc
    scale = np.maximum(pr ** 2, 1e-30)
    mis = _misalignment(R, TH)

    candidate_idx = np.where((D <= opts.tolerance * scale) & (mis > opts.delta))[0]
    candidate_idx = candidate_idx[np.argsort(D[candidate_idx])]
    budget = {"samples": len(samples), "candidates": int(len(candidate_idx))}

    # pass 1: exact re-validation for quarter-turn phases
    for idx in candidate_idx[:200]:
        r, th = samples[idx]
        if any((2 * t) % 1 != 0 for t in th):
            continue
        quarters = [int(2 * t) % 4 for t in th]
        res = _exact_pos3_violation(p, r, quarters)
        if res is None:
            continue
        lhs, rhs = res
        if lhs >= rhs:
            return ConditionReport(
                Condition.POS3, Verdict.FAILS,
                witness={"z": _normalize_witness(r, quarters),
                         "abs_p_z_squared": str(lhs),
                         "p_abs_z_squared": str(rhs),
                         "equality": lhs == rhs,
                         "validation": "exact"},
                budget=budget)

    # pass 2: local refinement of the best floating candidates
    from scipy.optimize import minimize

    def objective(x):
        rfree = np.clip(x[:n - 1], 0.0, 1.0)
        rn = 1.0 - rfree.sum()
        if rn < 0:
            return 1e6 * (1 + rn ** 2)
        rr = np.concatenate([rfree, [rn]])[None, :]
        tt = np.concatenate([[0.0], x[n - 1:]])[None, :]
        dd = _eval_d_numpy(pairs, rr, tt)[0]
        s = float(eval_complex_from_floats(p, rr[0])) ** 2
        return dd / max(abs(s), 1e-30)

    def eval_complex_from_floats(poly, rvec):
        total = 0.0
        for exp, coef in poly.terms.items():
            v = float(coef)
            for x, e in zip(rvec, exp):
                if e:
                    v *= x ** e
            total += v
        return total

    refined = 0
    pair_ivs = None
    for idx in candidate_idx[:opts.refine_candidates]:
        r, th = samples[idx]
        x0 = np.array([float(v) for v in r[:n - 1]] +
                      [float(t) * math.pi for t in th[1:]])
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxiter": 400, "xatol": 1e-12, "fatol": 1e-14})
        refined += 1
        if res.fun < -1e-9:
            rfree = np.clip(res.x[:n - 1], 0.0, 1.0)
            rn = max(0.0, 1.0 - rfree.sum())
            rr = np.concatenate([rfree, [rn]])
            tt = np.concatenate([[0.0], res.x[n - 1:]])
            if _misalignment(rr[None, :], tt[None, :])[0] <= opts.delta:
                continue
            # validate with outward-rounded intervals on a tiny box
            eps = 1e-12
            if pair_ivs is None:
                pair_ivs = _pair_intervals(pairs)
            r_box = (np.maximum(0.0, rr - eps)[None, :], (rr + eps)[None, :])
            t_box = ((tt - eps)[None, :], (tt + eps)[None, :])
            dv = [float(v[0]) for v in _eval_d_batch(pair_ivs, r_box, t_box)]
            if dv[1] < 0:
                return ConditionReport(
                    Condition.POS3, Verdict.FAILS,
                    witness={"r": [repr(float(v)) for v in rr],
                             "theta": [repr(float(v)) for v in tt],
                             "d_enclosure": dv,
                             "validation": "interval"},
                    budget={**budget, "refined": refined})
    return ConditionReport(Condition.POS3, Verdict.INCONCLUSIVE,
                           budget={**budget, "refined": refined,
                                   "note": "no counterexample found"})


def _pair_intervals(pairs):
    """The pairs in the form `_eval_d_batch` takes.

    Each pair becomes (coefficient as an Interval, [(dimension, exponent)
    for its nonzero exponents of r], k): one conversion per pair.
    """
    return [(from_fraction(coef2), [(j, e) for j, e in enumerate(rexp) if e], k)
            for coef2, rexp, k in pairs]


def _eval_d_batch(pair_ivs, r: tuple, t: tuple) -> tuple:
    """Outward-rounded enclosures of D over a batch of boxes.

    r and t are (lo, hi) pairs of (boxes, n) arrays holding the radius
    and phase intervals of every coordinate.  Each power of each radius
    and each phase factor 1 - cos(<k, theta>) is computed once for the
    batch and shared by the pairs that use it.  Returns (lo, hi) arrays.
    """
    n = r[0].shape[1]
    e_max = [0] * n
    for _, rexp, _ in pair_ivs:
        for j, e in rexp:
            e_max[j] = max(e_max[j], e)
    powers = [array_powers((r[0][:, j], r[1][:, j]), e_max[j]) for j in range(n)]
    phases: dict[tuple, tuple] = {}
    total = (np.zeros(len(r[0])), np.zeros(len(r[0])))
    for coef, rexp, k in pair_ivs:
        factor = phases.get(k)
        if factor is None:
            dot = None      # k = I - J is nonzero, so dot gets a term
            for j, kk in enumerate(k):
                if kk:
                    piece = array_mul_int(kk, (t[0][:, j], t[1][:, j]))
                    dot = piece if dot is None else array_add(dot, piece)
            factor = phases[k] = array_versin(dot)
        for j, e in rexp:
            factor = array_mul_nonneg(factor, powers[j][e])
        total = array_add(total, array_scale(coef, factor))
    return total


def _circ_maxdist(a_lo, a_hi, b_lo, b_hi) -> np.ndarray:
    """Max circular distance between points of two narrow arcs, per box."""
    best = np.zeros(len(a_lo))
    for x in (a_lo, a_hi):
        for y in (b_lo, b_hi):
            d = np.abs(x - y) % TWO_PI
            best = np.maximum(best, np.minimum(d, TWO_PI - d))
    return best


def _boxes_in_delta_region(r_hi, t_lo, t_hi, delta: float) -> np.ndarray:
    """Which boxes lie wholly within the delta-neighborhood of the aligned set.

    Conservative: every pair of phases on coordinates whose radius can
    exceed delta must stay within 2*delta of each other, circularly.
    """
    active = r_hi > delta
    outside = (active & (t_hi - t_lo > math.pi / 2)).any(axis=1)
    for a, b in combinations(range(r_hi.shape[1]), 2):
        far = _circ_maxdist(t_lo[:, a], t_hi[:, a], t_lo[:, b], t_hi[:, b]) > 2 * delta
        outside |= active[:, a] & active[:, b] & far
    return (active.sum(axis=1) <= 1) | ~outside


def _split(lo, hi, depth, delta: float):
    """The two children of every box, interleaved (left, right).

    Peel a radius sliver at delta when one straddles it, otherwise halve
    the relatively widest dimension.
    """
    nr = lo.shape[1] // 2
    rows = np.arange(len(depth))
    straddle = (lo[:, :nr] < delta) & (delta < hi[:, :nr])
    peel = straddle.any(axis=1)
    widths = hi - lo
    widths[:, nr:] /= TWO_PI
    dim = np.where(peel, straddle.argmax(axis=1), widths.argmax(axis=1))
    at = np.where(peel, delta, 0.5 * (lo[rows, dim] + hi[rows, dim]))
    child_lo = np.repeat(lo, 2, axis=0)
    child_hi = np.repeat(hi, 2, axis=0)
    child_hi[2 * rows, dim] = at
    child_lo[2 * rows + 1, dim] = at
    return child_lo, child_hi, np.repeat(depth + 1, 2)


#: Boxes the certify frontier evaluates together, as one batch.
_CHUNK = 512

# What an evaluated box came to.  A box that splits records the id of its
# left child instead (ids are positive); the right child's id follows it.
_INFEASIBLE, _CLOSED, _DEFERRED, _AT_DEPTH = -1, -2, -3, -4


class _Frontier:
    """Stack of unevaluated boxes, one row of (lo, hi, depth, id) each;
    pops take the top rows."""

    def __init__(self, width: int):
        self.lo = np.empty((_CHUNK, width))
        self.hi = np.empty((_CHUNK, width))
        self.depth = np.empty(_CHUNK, dtype=np.int64)
        self.ids = np.empty(_CHUNK, dtype=np.int64)
        self.size = 0

    def push(self, lo, hi, depth, ids) -> None:
        end = self.size + len(depth)
        if end > len(self.depth):
            cap = max(end, 2 * len(self.depth))
            for name in ("lo", "hi", "depth", "ids"):
                old = getattr(self, name)
                new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
                new[:self.size] = old[:self.size]
                setattr(self, name, new)
        self.lo[self.size:end] = lo
        self.hi[self.size:end] = hi
        self.depth[self.size:end] = depth
        self.ids[self.size:end] = ids
        self.size = end

    def pop(self, count: int) -> tuple:
        start = max(0, self.size - count)
        out = tuple(a[start:self.size].copy() for a in (self.lo, self.hi, self.depth, self.ids))
        self.size = start
        return out


def _evaluate(frontier: _Frontier, count: int, next_id: int, pair_ivs,
              opts: Pos3Options) -> tuple:
    """Evaluate the top `count` boxes of the frontier as one batch.

    Applies every rule to the batch as array operations: infeasibility,
    the last radius, the D enclosure, the `dv.lo > 0` close, the delta
    region, the depth limit and the split.  The children of the boxes
    that split are pushed back with ids from `next_id` on.  Returns
    ({id: outcome}, {id: box} of the boxes at the depth limit, the next
    free id).
    """
    lo, hi, depth, ids = frontier.pop(count)
    nr = lo.shape[1] // 2
    # the free radii must admit a sum <= 1: drop a box only when even a
    # lower bound of their smallest sum exceeds 1
    lo_sum, hi_sum = lo[:, 0], hi[:, 0]
    for j in range(1, nr):
        lo_sum, hi_sum = add_down(lo_sum, lo[:, j]), add_up(hi_sum, hi[:, j])
    code = np.full(len(ids), _INFEASIBLE, dtype=np.int64)
    rows = np.flatnonzero(~(lo_sum > 1.0))
    lo, hi, depth = lo[rows], hi[rows], depth[rows]
    lo_sum, hi_sum = lo_sum[rows], hi_sum[rows]
    # the last radius is 1 minus the others, rounded outward
    r_lo = np.column_stack([lo[:, :nr], np.maximum(0.0, add_down(1.0, -hi_sum))])
    r_hi = np.column_stack([hi[:, :nr],
                            np.maximum(0.0, np.minimum(1.0, add_up(1.0, -lo_sum)))])
    zero = np.zeros((len(rows), 1))
    t_lo = np.hstack([zero, lo[:, nr:]])
    t_hi = np.hstack([zero, hi[:, nr:]])

    dv_lo, _ = _eval_d_batch(pair_ivs, (r_lo, r_hi), (t_lo, t_hi))
    closed = dv_lo > 0
    deferred = ~closed & _boxes_in_delta_region(r_hi, t_lo, t_hi, opts.delta)
    at_depth = ~closed & ~deferred & (depth >= opts.max_depth)
    split = np.flatnonzero(~closed & ~deferred & ~at_depth)
    outcome = np.where(closed, _CLOSED, np.where(deferred, _DEFERRED, _AT_DEPTH))
    outcome[split] = next_id + 2 * np.arange(len(split))
    code[rows] = outcome
    if len(split):
        frontier.push(*_split(lo[split], hi[split], depth[split], opts.delta),
                      np.arange(next_id, next_id + 2 * len(split)))
    boxes = dict(zip(ids[rows[at_depth]].tolist(),
                     np.stack([lo[at_depth], hi[at_depth]], axis=2).tolist()))
    return dict(zip(ids.tolist(), code.tolist())), boxes, next_id + 2 * len(split)


def _certify(p: Polynomial, opts: Pos3Options) -> ConditionReport:
    n = p.nvars
    pair_ivs = _pair_intervals(_pair_data(p))

    # sanity sweep: the certificate presumes p > 0 on the orthant
    for pt in _simplex_grid(n, 4):
        if eval_rational(p, list(pt)) <= 0 and any(v > 0 for v in pt):
            return ConditionReport(
                Condition.POS3, Verdict.INCONCLUSIVE,
                budget={"note": "p is not positive at a sampled orthant point; "
                                "run Pos1/Pos2 first",
                        "point": [str(v) for v in pt]})

    # a box is n - 1 free radii in [0, 1] then n - 1 phases in [0, 2 pi];
    # the last radius is 1 minus the others and the first phase is 0
    frontier = _Frontier(2 * (n - 1))
    frontier.push(np.array([[0.0] * (n - 1) + [0.0] * (n - 1)]),
                  np.array([[1.0] * (n - 1) + [TWO_PI] * (n - 1)]),
                  np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
    next_id = 1
    outcome: dict[int, int] = {}         # evaluated boxes the walk has not reached
    at_depth: dict[int, list] = {}
    evaluated = closed = deferred = infeasible = processed = 0
    unresolved: list[list[list[float]]] = []
    max_depth_used = 0

    # Boxes are evaluated in batches but counted in the order of a
    # depth-first walk that visits the right child first, so the counts
    # and the stop after 50 unresolved boxes do not depend on the batch
    # size.  The frontier holds the unevaluated boxes in that same order,
    # next one on top, so the box the walk waits for is always the top
    # of the next batch.
    walk = [(0, 0)]                      # (box id, depth)
    while walk:
        node, depth = walk[-1]
        code = outcome.pop(node, None)
        if processed == opts.max_boxes or (code is None and evaluated == opts.max_boxes):
            return ConditionReport(
                Condition.POS3, Verdict.INCONCLUSIVE,
                budget={"boxes_processed": evaluated, "note": "box budget exhausted"})
        if code is None:
            if not frontier.size or frontier.ids[frontier.size - 1] != node:
                raise RuntimeError("certify frontier is out of walk order")
            count = min(_CHUNK, opts.max_boxes - evaluated)
            found, boxes, next_id = _evaluate(frontier, count, next_id, pair_ivs, opts)
            evaluated += len(found)
            outcome.update(found)
            at_depth.update(boxes)
            continue
        walk.pop()
        processed += 1
        if depth > max_depth_used:
            max_depth_used = depth
        if code > 0:
            walk.append((code, depth + 1))
            walk.append((code + 1, depth + 1))
        elif code == _CLOSED:
            closed += 1
        elif code == _DEFERRED:
            deferred += 1
        elif code == _INFEASIBLE:
            infeasible += 1
        else:
            unresolved.append(at_depth.pop(node))
            if len(unresolved) > 50:
                break

    budget = {"boxes_processed": processed, "boxes_closed": closed,
              "boxes_deferred": deferred, "boxes_infeasible": infeasible,
              "max_depth_used": max_depth_used}
    if unresolved:
        return ConditionReport(
            Condition.POS3, Verdict.INCONCLUSIVE,
            budget={**budget, "unresolved_boxes": len(unresolved),
                    "unresolved_sample": unresolved[:5]})

    # delta-region boxes are backed by the log-Hessian probe
    probe = _jf_probe(p, opts)
    if not probe["all_positive_definite"]:
        return ConditionReport(Condition.POS3, Verdict.INCONCLUSIVE,
                               budget={**budget, "jf_probe": probe})
    return ConditionReport(
        Condition.POS3, Verdict.HOLDS,
        certificate={"delta": opts.delta, "max_depth": opts.max_depth,
                     "resolution_limited": True, "jf_probe": probe,
                     **budget},
        budget=budget)


def _jf_probe(p: Polynomial, opts: Pos3Options) -> dict:
    """Sampled positive-definiteness of J_f for f = p(s_1..s_{n-1}, 1)."""
    from .geometry import is_positive_definite, jf_matrix
    n = p.nvars
    f = dehomogenize(p, n - 1) if n >= 2 else None
    if f is None or f.is_zero():
        return {"all_positive_definite": False, "points": 0}
    rng = random.Random(opts.seed + 1)
    points = [[Fraction(1)] * (n - 1)]
    while len(points) < opts.probe_points:
        points.append([Fraction(rng.randint(1, 12), rng.randint(1, 4))
                       for _ in range(n - 1)])
    checked = 0
    for s in points:
        if eval_rational(f, s) <= 0:
            return {"all_positive_definite": False, "points": checked,
                    "failure": [str(v) for v in s], "reason": "f <= 0"}
        if not is_positive_definite(jf_matrix(f, s)):
            return {"all_positive_definite": False, "points": checked,
                    "failure": [str(v) for v in s], "reason": "not positive definite"}
        checked += 1
    return {"all_positive_definite": True, "points": checked}


def check_pos3(p: Polynomial, opts: Pos3Options | None = None) -> ConditionReport:
    """Decide the strict modulus inequality at the configured resolution.

    Budget exhaustion is always reported as Inconclusive, never as a
    verdict.
    """
    _require_nonconstant_homogeneous(p)
    if opts is None:
        opts = Pos3Options()
    if p.nvars == 1:
        # every nonzero complex point is a rotated positive-orthant point
        return ConditionReport(Condition.POS3, Verdict.HOLDS,
                               certificate={"note": "vacuous for one variable"})
    if opts.mode is Pos3Mode.FALSIFY:
        return _falsify(p, opts)
    return _certify(p, opts)


# ---------------------------------------------------------------------
# Hermitian bihomogeneous form probes
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


class SgcsResult(str, Enum):
    STRICT_HOLDS = "StrictHolds"
    EQUALITY_ON_DEPENDENT = "EqualityOnDependent"
    VIOLATED = "Violated"


def _linearly_dependent(z: Sequence[complex], w: Sequence[complex],
                        tol: float) -> bool:
    scale = max(max(abs(v) for v in z), max(abs(v) for v in w), 1e-300) ** 2
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            if abs(z[i] * w[j] - z[j] * w[i]) > tol * scale:
                return False
    return True


def check_sgcs(p: Polynomial, z: Sequence[complex], w: Sequence[complex],
               tol: float = 1e-9) -> SgcsResult:
    """Classify the strict Cauchy-Schwarz inequality at (z, w)."""
    pzw = assoc_bihom_eval(p, z, w)
    pzz = assoc_bihom_eval(p, z, z).real
    pww = assoc_bihom_eval(p, w, w).real
    lhs = abs(pzw) ** 2
    rhs = pzz * pww
    scale = max(1.0, abs(rhs))
    if _linearly_dependent(z, w, tol):
        return SgcsResult.EQUALITY_ON_DEPENDENT
    if lhs < rhs - tol * scale:
        return SgcsResult.STRICT_HOLDS
    return SgcsResult.VIOLATED


def max_squared_norm_diag(p: Polynomial) -> bool:
    """Diagonal positive-definiteness of the Hermitian form of p.

    With respect to the monomial basis the form's matrix is
    diag(c_I over the full degree-d basis), so it is positive definite
    exactly when every basis monomial appears with coefficient > 0.
    """
    if not p.is_homogeneous():
        raise ValueError("max_squared_norm_diag requires a homogeneous polynomial")
    if p.is_zero():
        return False
    d = p.degree()
    return all(p.coefficient(exp) > 0 for exp in monomials_of_degree(p.nvars, d))
