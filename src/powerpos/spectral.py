"""Matrices over nonnegative-integer-coefficient polynomials.

Irreducibility and aperiodicity are graph-theoretic on the support
digraph: an entry with nonnegative integer coefficients is positive at
an interior point of the orthant exactly when it is a nonzero
polynomial.  Both are read off the powers of the 0/1 support matrix up
to dim, since no cycle is longer.  The spectral radius function is
evaluated by power iteration with Collatz-Wielandt bracketing, and a
claimed identity p = beta_A is verified through an exact characteristic
residual det(p I - A) plus numeric dominance sampling.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .poly import Polynomial, eval_rational, parse, serialize

MAX_DETERMINANT_DIM = 8

#: verify_beta refuses more samples than this (2,000 take 0.3 s at dim 2).
MAX_BETA_SAMPLES = 10_000

#: perron_bounds gives up after this many power iterations.
MAX_PERRON_ITER = 100_000


class PolyMatrixError(ValueError):
    pass


@dataclass(frozen=True)
class PolyMatrix:
    """Square matrix whose entries are polynomials with coefficients in Z_+."""

    dim: int
    nvars: int
    entries: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise PolyMatrixError("dim must be positive")
        if len(self.entries) != self.dim or any(len(r) != self.dim for r in self.entries):
            raise PolyMatrixError("entries must form a dim x dim grid")
        for row in self.entries:
            for q in row:
                if q.nvars != self.nvars:
                    raise PolyMatrixError("entry nvars mismatch")
                for coef in q.terms.values():
                    if coef.denominator != 1 or coef < 0:
                        raise PolyMatrixError(
                            f"entry coefficient {coef} is not a nonnegative integer")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Polynomial]]) -> "PolyMatrix":
        dim = len(rows)
        nvars = rows[0][0].nvars
        return PolyMatrix(dim, nvars, tuple(tuple(r) for r in rows))

    @staticmethod
    def from_json_dict(data) -> "PolyMatrix":
        """The matrix of {"dim": int, "nvars": int, "entries": rows of
        polynomial texts}; any other shape is a PolyMatrixError."""
        if not (isinstance(data, dict) and {"dim", "nvars", "entries"} <= data.keys()
                and type(data["dim"]) is type(data["nvars"]) is int
                and isinstance(data["entries"], list)
                and all(isinstance(row, list) and all(isinstance(e, str) for e in row)
                        for row in data["entries"])):
            raise PolyMatrixError('matrix JSON must be {"dim": int, "nvars": int, '
                                  '"entries": rows of polynomial texts}')
        nvars = data["nvars"]
        return PolyMatrix(data["dim"], nvars, tuple(tuple(parse(e, nvars) for e in row)
                                                    for row in data["entries"]))

    @staticmethod
    def from_json(text: str) -> "PolyMatrix":
        return PolyMatrix.from_json_dict(json.loads(text))

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "nvars": self.nvars,
                "entries": [[serialize(q) for q in row] for row in self.entries]}

    def at(self, x: Sequence[Fraction | int]) -> list[list[Fraction]]:
        """Exact numeric matrix A(x)."""
        xs = [Fraction(v) for v in x]
        return [[eval_rational(q, xs) for q in row] for row in self.entries]


# ---------------------------------------------------------------------
# Support digraph structure
# ---------------------------------------------------------------------

def _walks(a: PolyMatrix) -> np.ndarray:
    """Stacked W_1..W_dim: W_k[u, v] iff a walk of length k leads from u
    to v in the support digraph.  W_k = (W_(k-1) @ S) > 0 for the 0/1
    support matrix S, in float64, exact since an entry counts <= dim walks.
    """
    s = np.array([[not q.is_zero() for q in row] for row in a.entries], dtype=float)
    walks = np.empty((a.dim, a.dim, a.dim), dtype=bool)
    walks[0] = s > 0
    for k in range(1, a.dim):
        walks[k] = walks[k - 1] @ s > 0
    return walks


def is_irreducible(a: PolyMatrix) -> bool:
    """True iff the support digraph is strongly connected: every node
    reaches every node, itself included, so a single node needs a
    self-loop."""
    return bool(_walks(a).any(axis=0).all())


def is_aperiodic(a: PolyMatrix) -> bool:
    """True iff every node's closed-walk lengths have gcd 1.  That is the
    gcd, over its strongly connected component, of each member's
    closed-walk lengths up to dim (no cycle is longer; 0 on no cycle)."""
    walks = _walks(a)
    reach = walks.any(axis=0)
    component = (reach & reach.T) | np.eye(a.dim, dtype=bool)
    lengths = np.arange(1, a.dim + 1)
    closed = [math.gcd(*lengths[walks[:, u, u]].tolist()) for u in range(a.dim)]
    return all(math.gcd(*(closed[u] for u in np.flatnonzero(row))) == 1
               for row in component)


# ---------------------------------------------------------------------
# Spectral radius function
# ---------------------------------------------------------------------

class ConvergenceError(RuntimeError):
    pass


def perron_bounds(b: Sequence[Sequence[float]],
                  tol: float = 1e-9) -> tuple[float, float, np.ndarray]:
    """Collatz-Wielandt enclosure of the spectral radius of nonnegative b.

    Power iteration on b + I (the shift keeps the iteration primitive);
    returns (lo, hi, v) with lo <= beta(b) <= hi and v the iterate.
    Raises ConvergenceError when the bracket fails to tighten in budget.
    """
    m = np.asarray(b, dtype=float) + np.eye(len(b))
    v = np.ones(len(b))
    lo, hi = -math.inf, math.inf
    for _ in range(MAX_PERRON_ITER):
        w = m @ v
        ratios = w / v
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= tol:
            return lo - 1.0, hi - 1.0, v
        nv = w / np.linalg.norm(w)
        if not np.all(nv > 0):
            raise ConvergenceError("iterate left the positive cone; matrix not irreducible?")
        v = nv
    raise ConvergenceError(
        f"Collatz-Wielandt bracket [{lo - 1.0}, {hi - 1.0}] did not reach tol={tol}")


def beta_at(a: PolyMatrix, x: Sequence[Fraction | int], tol: float = 1e-9) -> float:
    """Spectral radius of A(x) at a strictly positive point, to tol."""
    xs = [Fraction(v) for v in x]
    if len(xs) != a.nvars:
        raise ValueError("point dimension mismatch")
    if any(v <= 0 for v in xs):
        raise ValueError("beta_at requires a strictly positive point")
    b = [[float(v) for v in row] for row in a.at(xs)]
    lo, hi, _ = perron_bounds(b, tol=tol)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------
# Characteristic residual and beta verification
# ---------------------------------------------------------------------

def _refuse_large(a: PolyMatrix) -> None:
    if a.dim > MAX_DETERMINANT_DIM:
        raise PolyMatrixError(
            f"exact determinant refused for dim {a.dim} > {MAX_DETERMINANT_DIM}")


def charpoly_residual(a: PolyMatrix, p: Polynomial) -> Polynomial:
    """Exact det(p I - A), which vanishes identically when p is an
    eigenvalue function of A.

    Laplace expansion with memoization over column subsets; refused
    beyond dim 8 (the blow-up is factorial in spirit).
    """
    if p.nvars != a.nvars:
        raise ValueError("nvars mismatch between p and A")
    _refuse_large(a)
    n = a.dim
    zero = Polynomial.zero(p.nvars)
    mat = [[(p if i == j else zero) - a.entries[i][j] for j in range(n)]
           for i in range(n)]

    @lru_cache(maxsize=None)
    def minor(row: int, cols: tuple[int, ...]) -> Polynomial:
        if not cols:
            return Polynomial.constant(p.nvars, 1)
        total = Polynomial.zero(p.nvars)
        for pos, col in enumerate(cols):
            entry = mat[row][col]
            if entry.is_zero():
                continue
            sub = minor(row + 1, cols[:pos] + cols[pos + 1:])
            term = entry * sub
            total = total + term if pos % 2 == 0 else total - term
        return total

    result = minor(0, tuple(range(n)))
    minor.cache_clear()
    return result


class BetaVerdict(str, Enum):
    VERIFIED = "Verified"
    REFUTED = "Refuted"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class BetaReport:
    verdict: BetaVerdict
    exact_charpoly_zero: bool
    samples: list[dict] = field(default_factory=list)
    irreducible: bool = False
    aperiodic: bool = False
    p_integer_coeffs: bool = True  # Z[x] membership matters for realizability
    note: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict.value,
                "exact_charpoly_zero": self.exact_charpoly_zero,
                "irreducible": self.irreducible,
                "aperiodic": self.aperiodic,
                "p_integer_coeffs": self.p_integer_coeffs,
                "samples": self.samples,
                "note": self.note}


def _second_modulus_gap(b: list[list[Fraction]], top: float) -> float:
    eig = np.linalg.eigvals(np.array([[float(v) for v in row] for row in b]))
    mods = sorted((abs(v) for v in eig), reverse=True)
    return top - (mods[1] if len(mods) > 1 else 0.0)


def verify_beta(a: PolyMatrix, p: Polynomial, sample_count: int = 20,
                tol: float = 1e-9, seed: int = 0) -> BetaReport:
    """Verify or refute p = beta_A.

    Verified requires det(p I - A) == 0 identically AND agreement of
    p(x) with the Perron root of A(x) at sample_count random positive
    rational points, to relative tolerance tol.  Any exact or numeric
    contradiction refutes; missing structural hypotheses give
    Inconclusive.  No sample or more than MAX_BETA_SAMPLES, a tol that is
    not finite and positive, or dim > MAX_DETERMINANT_DIM is a ValueError
    before any work.
    """
    if sample_count < 1:
        raise ValueError(f"sample count must be at least 1, got {sample_count}")
    if sample_count > MAX_BETA_SAMPLES:
        raise ValueError(f"sample count must be at most {MAX_BETA_SAMPLES}, "
                         f"got {sample_count}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    _refuse_large(a)
    irr = is_irreducible(a)
    aper = is_aperiodic(a)
    int_coeffs = all(c.denominator == 1 for c in p.terms.values())
    report = BetaReport(BetaVerdict.INCONCLUSIVE, exact_charpoly_zero=False,
                        irreducible=irr, aperiodic=aper,
                        p_integer_coeffs=int_coeffs)
    if not (irr or aper):
        report.note = "matrix is neither irreducible nor aperiodic"
        return report
    residual = charpoly_residual(a, p)
    report.exact_charpoly_zero = residual.is_zero()
    if not report.exact_charpoly_zero:
        report.verdict = BetaVerdict.REFUTED
        report.note = f"characteristic residual nonzero: {serialize(residual)}"
        return report
    rng = random.Random(seed)
    for _ in range(sample_count):
        x = [Fraction(rng.randint(1, 24), rng.randint(1, 8)) for _ in range(a.nvars)]
        pv = float(eval_rational(p, x))
        try:
            bv = beta_at(a, x, tol=min(tol, 1e-10))
        except ConvergenceError as exc:
            report.note = str(exc)
            return report
        gap = _second_modulus_gap(a.at(x), bv)
        report.samples.append({"point": [str(v) for v in x], "p_value": pv,
                               "perron_value": bv, "gap_to_second_modulus": gap})
        if abs(pv - bv) > tol * (1.0 + abs(pv)):
            report.verdict = BetaVerdict.REFUTED
            report.note = f"dominance mismatch at {[str(v) for v in x]}"
            return report
    report.verdict = BetaVerdict.VERIFIED
    return report
