"""Independent oracles for the powerpos benchmark.

Nothing here imports powerpos.  Polynomials are plain dicts mapping
exponent tuples to Fractions, built by a parser of their own, and every
check uses exact arithmetic:

- Pos1 and Pos2 answers are re-derived from the polynomial: unit-vector
  values, facet derivatives, and a dense check of every Polya exponent a
  certificate claims;
- Pos3 answers are compared with a known truth (the dv threshold, or
  all-positive coefficients), and every Fails witness is re-evaluated:
  exactly in Gaussian rationals, or at 60 digits when the witness only
  carries float polar coordinates;
- power scans are recomputed by a dense Python-int convolution, which
  gives the flags, the onsets and the per-power CSV columns;
- Polya exponents N are checked densely: N works and N - 1 does not.

An Inconclusive answer is never wrong.  Each check returns a list of
problems; an empty list means the answer agrees with the oracle.
"""

from __future__ import annotations

import csv
import io
import math
import re
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------
# Sparse polynomials as {exponent tuple: Fraction}
# ---------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|x(\d+)|(.))")


def parse(text: str, nvars: int) -> dict:
    """Parse the benchmark's expression grammar: x<i>, integers, + - * ^ ( ).

    A rational literal is written as an integer division a/b.
    """
    tokens = []
    for num, var, op in _TOKEN.findall(text):
        if num:
            tokens.append(("num", int(num)))
        elif var:
            tokens.append(("var", int(var) - 1))
        elif op.strip():
            tokens.append(("op", op))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None)

    def take(op=None):
        nonlocal pos
        tok = peek()
        if op is not None and tok != ("op", op):
            raise ValueError(f"expected {op!r} at token {pos} of {text!r}")
        pos += 1
        return tok

    def expr():
        sign = -1 if peek() == ("op", "-") else 1
        if peek() in (("op", "-"), ("op", "+")):
            take()
        out = scale(term(), sign)
        while peek() in (("op", "+"), ("op", "-")):
            _, op = take()
            out = add(out, scale(term(), 1 if op == "+" else -1))
        return out

    def term():
        out = power_factor()
        while peek() in (("op", "*"), ("op", "/")):
            _, op = take()
            rhs = power_factor()
            if op == "*":
                out = mul(out, rhs)
            else:
                if set(rhs) != {(0,) * nvars}:
                    raise ValueError("division by a non-constant")
                out = scale(out, 1 / rhs[(0,) * nvars])
        return out

    def power_factor():
        base = atom()
        if peek() == ("op", "^"):
            take()
            kind, exp = take()
            if kind != "num":
                raise ValueError("exponent must be an integer literal")
            return power(base, exp)
        return base

    def atom():
        kind, val = take()
        if kind == "num":
            return {(0,) * nvars: Fraction(val)}
        if kind == "var":
            if not 0 <= val < nvars:
                raise ValueError(f"variable x{val + 1} out of range")
            return {tuple(int(i == val) for i in range(nvars)): Fraction(1)}
        if (kind, val) == ("op", "("):
            out = expr()
            take(")")
            return out
        raise ValueError(f"unexpected token {val!r} in {text!r}")

    out = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return out


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def scale(a: dict, c) -> dict:
    return {e: v * c for e, v in a.items() if v * c}


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def power(a: dict, m: int) -> dict:
    nvars = len(next(iter(a)))
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(m):
        out = mul(out, a)
    return out


def degree(p: dict) -> int:
    return max(sum(e) for e in p)


def evaluate(p: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        v = Fraction(c)
        for x, k in zip(point, e):
            v *= Fraction(x) ** k
        total += v
    return total


def evaluate_gaussian(p: dict, z) -> tuple[Fraction, Fraction]:
    """p at a point whose coordinates are (re, im) pairs of Fractions."""
    tre = tim = Fraction(0)
    for e, c in p.items():
        re_, im_ = Fraction(c), Fraction(0)
        for (zr, zi), k in zip(z, e):
            for _ in range(k):
                re_, im_ = re_ * zr - im_ * zi, re_ * zi + im_ * zr
        tre += re_
        tim += im_
    return tre, tim


def facet_derivative(p: dict, k: int) -> dict:
    """dp/dx_k on the facet x_k = 0, in the remaining variables."""
    out: dict = {}
    for e, c in p.items():
        if e[k] == 1:
            rest = e[:k] + e[k + 1:]
            out[rest] = out.get(rest, 0) + c
    return {e: c for e, c in out.items() if c}


def integer_scaled(p: dict) -> tuple[dict, int]:
    """(L * p with integer coefficients, L) for the least positive L."""
    den = 1
    for c in p.values():
        den = den * Fraction(c).denominator // math.gcd(den, Fraction(c).denominator)
    return {e: int(c * den) for e, c in p.items()}, den


# ---------------------------------------------------------------------
# Dense Python-int kernels (dehomogenised: the last variable is dropped,
# so they need at least two variables)
# ---------------------------------------------------------------------

def _dense(p_int: dict) -> np.ndarray:
    n = len(next(iter(p_int)))
    d = degree(p_int)
    arr = np.zeros((d + 1,) * (n - 1), dtype=object)
    for e, c in p_int.items():
        arr[e[:-1]] += c
    return arr


def _mul_dense(cur: np.ndarray, p_terms: list, d: int) -> np.ndarray:
    """cur * p, where p is given as [(exponent without last var, int coef)]."""
    shape = tuple(s + d for s in cur.shape)
    out = np.zeros(shape, dtype=object)
    for e, c in p_terms:
        idx = tuple(slice(a, a + s) for a, s in zip(e, cur.shape))
        out[idx] += c * cur
    return out


def _basis_values(arr: np.ndarray, deg: int) -> list:
    """Coefficients of the full degree-deg basis, read from a dense array."""
    flat = []
    for idx in np.ndindex(*arr.shape):
        if sum(idx) <= deg:
            flat.append(arr[idx])
    return flat


def scan_table(p_text: str, q_text: str, nvars: int, m_max: int) -> list[dict]:
    """Per-power rows {all_positive, num_terms, min_coef} for p^m * q."""
    p_int, lp = integer_scaled(parse(p_text, nvars))
    q_int, lq = integer_scaled(parse(q_text, nvars))
    d, dq = degree(p_int), degree(q_int)
    p_terms = [(e[:-1], c) for e, c in p_int.items()]
    cur = _dense(q_int)
    rows = []
    for m in range(m_max + 1):
        if m > 0:
            cur = _mul_dense(cur, p_terms, d)
        vals = _basis_values(cur, m * d + dq)
        nonzero = [v for v in vals if v != 0]
        rows.append({"all_positive": all(v > 0 for v in vals),
                     "num_terms": len(nonzero),
                     "min_coef": Fraction(min(nonzero), lp ** m * lq)})
    return rows


def scan_summary(flags: list[bool]) -> dict:
    first = next((m for m, f in enumerate(flags) if f), None)
    onset = None
    if flags[-1]:
        onset = len(flags) - 1
        while onset > 0 and flags[onset - 1]:
            onset -= 1
    return {"first_true": first, "window_onset": onset}


def polya_works(g: dict, n: int) -> bool:
    """(x1 + ... + xl)^n * g has every degree-(n + deg g) coefficient > 0."""
    g_int, _ = integer_scaled(g)
    nvars = len(next(iter(g_int)))
    simplex = [(tuple(int(i == j) for i in range(nvars - 1)), 1) for j in range(nvars - 1)]
    simplex.append(((0,) * (nvars - 1), 1))
    cur = _dense(g_int)
    for _ in range(n):
        cur = _mul_dense(cur, simplex, 1)
    return all(v > 0 for v in _basis_values(cur, n + degree(g_int)))


# ---------------------------------------------------------------------
# Known truths
# ---------------------------------------------------------------------

def dv_pos3_truth(k: int, lam: Fraction) -> str:
    """(x1+x2)^{2k} - lam x1^k x2^k: |p(-1,1)| = lam, p(1,1) = 4^k - lam."""
    return "Holds" if lam < 2 ** (2 * k - 1) else "Fails"


def all_coeffs_positive(p: dict) -> bool:
    nvars, d = len(next(iter(p))), degree(p)
    return (len(p) == math.comb(d + nvars - 1, nvars - 1)
            and all(c > 0 for c in p.values()))


# ---------------------------------------------------------------------
# Checks of the program's answers
# ---------------------------------------------------------------------

def _check_pos1(p: dict, nvars: int, rep: dict) -> list[str]:
    units = [evaluate(p, [int(i == k) for i in range(nvars)]) for k in range(nvars)]
    truth = "Holds" if all(v > 0 for v in units) else "Fails"
    if rep["verdict"] in ("Holds", "Fails") and rep["verdict"] != truth:
        return [f"Pos1 {rep['verdict']}, oracle {truth}"]
    return []


def _check_pos2(p: dict, nvars: int, rep: dict) -> list[str]:
    verdict = rep["verdict"]
    if verdict == "Holds" and nvars > 1:
        exps = (rep.get("certificate") or {}).get("polya_exponents", {})
        problems = []
        for k in range(nvars):
            n = exps.get(str(k + 1))
            g = facet_derivative(p, k)
            if n is None or not g or not polya_works(g, int(n)):
                problems.append(f"Pos2 Holds with an invalid exponent for facet {k + 1}: {n}")
        return problems
    if verdict == "Fails":
        w = rep.get("witness") or {}
        try:
            k = int(w["facet"]) - 1
            point = [Fraction(v) for v in w["point"]]
        except (KeyError, TypeError, ValueError):
            return ["Pos2 Fails without a readable witness"]
        rest = point[:k] + point[k + 1:]
        if (point[k] != 0 or any(v < 0 for v in point) or not any(rest)
                or evaluate(facet_derivative(p, k), rest) > 0):
            return [f"Pos2 Fails with an invalid witness {w}"]
    return []


def _quarter(re_: Fraction, im_: Fraction):
    """(modulus, quarter turn) of an axis-aligned Gaussian rational, else None."""
    if im_ == 0:
        return abs(re_), 0 if re_ >= 0 else 2
    if re_ == 0:
        return abs(im_), 1 if im_ > 0 else 3
    return None


def _float(text) -> float:
    """A float written by repr(), with or without numpy's `np.float64(...)`."""
    match = re.fullmatch(r"np\.float64\((.*)\)", str(text))
    return float(match.group(1) if match else text)


def _check_polar_witness(p: dict, witness: dict) -> list[str]:
    """A float (r, theta) witness: p(r)^2 - |p(r e^{i theta})|^2 < 0 at 60 digits."""
    import mpmath
    with mpmath.workdps(60):
        r = [mpmath.mpf(_float(v)) for v in witness["r"]]
        if any(v < 0 for v in r):
            return [f"Pos3 Fails witness has a negative modulus: {witness}"]
        z = [ri * mpmath.expjpi(mpmath.mpf(_float(t)) / mpmath.pi)
             for ri, t in zip(r, witness["theta"])]
        at_r = at_z = 0
        for e, c in p.items():
            c = mpmath.mpf(c.numerator) / c.denominator
            at_r += c * mpmath.fprod(x ** k for x, k in zip(r, e))
            at_z += c * mpmath.fprod(x ** k for x, k in zip(z, e))
        d = at_r ** 2 - abs(at_z) ** 2
        if not d < -mpmath.mpf(10) ** -40:
            return [f"Pos3 Fails interval witness does not violate: D = {d}"]
    return []


def check_pos3_witness(p: dict, witness: dict) -> list[str]:
    """Exact re-evaluation of a Fails witness: |p(z)|^2 >= p(|z|)^2, z not aligned.

    A witness that carries float polar coordinates instead of an exact
    point is re-evaluated at 60 significant digits.
    """
    if "z" not in witness and {"r", "theta"} <= set(witness):
        return _check_polar_witness(p, witness)
    try:
        z = [(Fraction(a), Fraction(b)) for a, b in witness["z"]]
    except (KeyError, TypeError, ValueError):
        return [f"Pos3 Fails witness has no exact point: {witness}"]
    polar = [_quarter(a, b) for a, b in z]
    if any(v is None for v in polar):
        return [f"Pos3 Fails witness is not on the quarter-turn axes: {witness}"]
    if len({q for r, q in polar if r > 0}) <= 1:
        return [f"Pos3 Fails witness is aligned: {witness}"]
    re_, im_ = evaluate_gaussian(p, z)
    lhs = re_ * re_ + im_ * im_
    rhs = evaluate(p, [r for r, _ in polar]) ** 2
    if lhs < rhs:
        return [f"Pos3 Fails witness does not violate: {lhs} < {rhs}"]
    return []


def _check_pos3(p: dict, truth: str | None, rep: dict) -> list[str]:
    verdict = rep["verdict"]
    problems = []
    if verdict in ("Holds", "Fails"):
        if truth is None:
            problems.append(f"Pos3 {verdict} on an input with no known truth")
        elif verdict != truth:
            problems.append(f"Pos3 {verdict}, oracle {truth}")
    if verdict == "Fails":
        problems += check_pos3_witness(p, rep.get("witness") or {})
    return problems


def check_check(case: dict, code: int, report: dict) -> list[str]:
    """Check a `check` invocation's exit code and all three reports."""
    nvars = case["nvars"]
    p = parse(case["expr"], nvars)
    reports = {r["condition"]: r for r in report.get("reports", [])}
    if set(reports) != {"Pos1", "Pos2", "Pos3"}:
        return [f"missing condition reports: {sorted(reports)}"]
    problems = (_check_pos1(p, nvars, reports["Pos1"])
                + _check_pos2(p, nvars, reports["Pos2"])
                + _check_pos3(p, case["truth"].get("pos3"), reports["Pos3"]))
    verdicts = [r["verdict"] for r in reports.values()]
    want = 2 if "Fails" in verdicts else 3 if "Inconclusive" in verdicts else 0
    if code != want:
        problems.append(f"exit {code} for verdicts {verdicts}")
    return problems


def check_scan(case: dict, code: int, report: dict, table: list[dict],
               csv_text: str | None) -> list[str]:
    """Check a power scan; `csv_text` is the CSV it wrote, if it was asked to."""
    flags = [row["all_positive"] for row in table]
    problems = []
    if code != 0:
        problems.append(f"power-scan exit {code}")
    if report.get("flags") != flags:
        problems.append("scan flags differ from the convolution oracle")
    want = scan_summary(flags)
    for key, val in want.items():
        if report.get(key) != val:
            problems.append(f"{key} {report.get(key)}, oracle {val}")
    if case.get("csv"):
        rows = list(csv.reader(io.StringIO(csv_text or "")))
        expected = [["m", "all_positive", "num_terms", "min_coef"]] + [
            [str(m), str(r["all_positive"]), str(r["num_terms"]), str(r["min_coef"])]
            for m, r in enumerate(table)]
        if rows != expected:
            problems.append("scan CSV differs from the convolution oracle")
    return problems


def check_polya(case: dict, code: int, report: dict) -> list[str]:
    n = report.get("exponent")
    if n is None:
        return [] if code == 3 else [f"polya exit {code} without an exponent"]
    if code != 0:
        return [f"polya exit {code} with exponent {n}"]
    g = parse(case["expr"], case["nvars"])
    if not polya_works(g, n):
        return [f"Polya exponent {n} does not work"]
    if n > 0 and polya_works(g, n - 1):
        return [f"Polya exponent {n} is not the least"]
    return []
