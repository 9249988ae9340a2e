"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples (one nonnegative int per
variable) to nonzero Fraction coefficients.  All arithmetic is exact;
there is no floating-point polynomial type.  The canonical term order
is graded-lexicographic: higher total degree first, then lexicographic
on the exponent tuple, descending.

Variables are written x1..xn in the text grammar (s1..sn is accepted
as an alias for dehomogenized polynomials); in code they are indexed
0-based, so x1 is variable 0.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Iterator, Mapping, Sequence

MultiIndex = tuple[int, ...]

#: Degree of the zero polynomial.  A sentinel, deliberately not an int,
#: so arithmetic on it fails loudly instead of producing nonsense.
MINUS_INFINITY = object()

#: The parser refuses a power base^m, or a product, that may expand to
#: more terms than this.  Expansion costs about the square of the term
#: count: the largest admitted binary power, (x1+x2)^999, takes about 3 s
#: on a 2-vCPU VM.
MAX_POWER_TERMS = 1_000

#: The parser refuses a power base^m whose coefficients may take more
#: bits than this, numerator and denominator together: 3^1000000000 would
#: take minutes and 200 MB to form.
MAX_POWER_BITS = 100_000

#: The parser refuses more variables than this: checking x1+...+xn costs
#: about n^2 to n^3 (0.4 s at n = 64, 1.6 s at n = 128, on a 2-vCPU VM).
MAX_NVARS = 64

#: The most coefficients of dense bases that one search may hold.
DEFAULT_DENSE_CAP = 2_000_000


def grlex_key(exp: MultiIndex) -> tuple:
    return (sum(exp), exp)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[MultiIndex, Fraction | int]):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        clean: dict[MultiIndex, Fraction] = {}
        for exp, coef in terms.items():
            exp = tuple(exp)
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has length {len(exp)}, expected {nvars}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            coef = Fraction(coef)
            if coef != 0:
                clean[exp] = coef
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars, {})

    @staticmethod
    def constant(nvars: int, value: Fraction | int) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def variable(nvars: int, i: int) -> "Polynomial":
        """The polynomial x_{i+1} (0-based index i)."""
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[i] = 1
        return Polynomial(nvars, {tuple(exp): Fraction(1)})

    @staticmethod
    def sum_of_variables(nvars: int) -> "Polynomial":
        return Polynomial(nvars, {exp: Fraction(1) for exp in
                                  ((0,) * i + (1,) + (0,) * (nvars - 1 - i)
                                   for i in range(nvars))})

    # -- basic protocol ------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {serialize(self)!r})"

    def sorted_terms(self) -> list[tuple[MultiIndex, Fraction]]:
        """Terms in canonical (descending graded-lex) order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} != {other.nvars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + coef
        return Polynomial(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out: dict[MultiIndex, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(a + b for a, b in zip(ea, eb))
                out[exp] = out.get(exp, Fraction(0)) + ca * cb
        return Polynomial(self.nvars, out)

    def scale(self, c: Fraction | int) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self.nvars, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, m: int) -> "Polynomial":
        if m < 0:
            raise ValueError("exponent must be nonnegative")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        n = m
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure -----------------------------------------------------

    def degree(self):
        """Total degree; MINUS_INFINITY for the zero polynomial."""
        if not self.terms:
            return MINUS_INFINITY
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def partial_derivative(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to variable i (0-based)."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range for nvars={self.nvars}")
        out: dict[MultiIndex, Fraction] = {}
        for exp, coef in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            out[tuple(new)] = coef * exp[i]
        return Polynomial(self.nvars, out)


# ---------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------

def eval_rational(p: Polynomial, point: Sequence[Fraction | int]) -> Fraction:
    """Exact evaluation at a rational point."""
    if len(point) != p.nvars:
        raise ValueError(f"point has length {len(point)}, expected {p.nvars}")
    xs = [Fraction(v) for v in point]
    total = Fraction(0)
    for exp, coef in p.terms.items():
        v = coef
        for x, e in zip(xs, exp):
            if e:
                v *= x ** e
        total += v
    return total


def eval_complex(p: Polynomial, point: Sequence[complex]) -> complex:
    """Floating-point evaluation at a complex point."""
    if len(point) != p.nvars:
        raise ValueError(f"point has length {len(point)}, expected {p.nvars}")
    total = 0j
    for exp, coef in p.terms.items():
        v = complex(coef)
        for z, e in zip(point, exp):
            if e:
                v *= z ** e
        total += v
    return total


GaussianRational = tuple[Fraction, Fraction]


def eval_complex_exact(p: Polynomial, point: Sequence[GaussianRational]) -> GaussianRational:
    """Exact evaluation at a point with Gaussian-rational coordinates.

    Each coordinate is a (real, imaginary) pair of Fractions.  Used to
    re-validate Pos3 witnesses.  The powers of each coordinate are
    computed once, so a term costs one multiplication per variable in it.
    """
    if len(point) != p.nvars:
        raise ValueError(f"point has length {len(point)}, expected {p.nvars}")
    powers = []
    for j, (zr, zi) in enumerate(point):
        row = [(Fraction(1), Fraction(0))]
        for _ in range(max(exp[j] for exp in p.terms) if p.terms else 0):
            re, im = row[-1]
            row.append((re * zr - im * zi, re * zi + im * zr))
        powers.append(row)
    tre, tim = Fraction(0), Fraction(0)
    for exp, coef in p.terms.items():
        re, im = coef, Fraction(0)
        for row, e in zip(powers, exp):
            if e:
                zr, zi = row[e]
                re, im = re * zr - im * zi, re * zi + im * zr
        tre += re
        tim += im
    return tre, tim


def eval_interval(p: Polynomial, box) -> "Interval":
    """Outward-rounded interval enclosure of p over an axis-aligned box."""
    from .intervals import Interval, from_fraction
    if len(box) != p.nvars:
        raise ValueError(f"box has length {len(box)}, expected {p.nvars}")
    total = Interval(0.0, 0.0)
    for exp, coef in p.terms.items():
        v = from_fraction(coef)
        for iv, e in zip(box, exp):
            if e:
                v = v * iv.pow_int(e)
        total = total + v
    return total


# ---------------------------------------------------------------------
# Monomial enumeration
# ---------------------------------------------------------------------

def monomials_of_degree(nvars: int, d: int) -> Iterator[MultiIndex]:
    """All exponent tuples of total degree d in nvars variables."""
    if nvars == 0:
        if d == 0:
            yield ()
        return
    for bars in combinations_with_replacement(range(nvars), d):
        exp = [0] * nvars
        for b in bars:
            exp[b] += 1
        yield tuple(exp)


def dense_monomial_count(nvars: int, d: int) -> int:
    """C(d + nvars - 1, nvars - 1): size of the degree-d monomial basis."""
    return comb(d + nvars - 1, nvars - 1)


# ---------------------------------------------------------------------
# Text grammar
# ---------------------------------------------------------------------

class ParseError(ValueError):
    """Syntax error with the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([xs]\d+)|([()+\-*^/]))")


class _Parser:
    def __init__(self, text: str, nvars: int):
        self.text = text
        self.nvars = nvars
        self.pos = 0
        self.tok: str | None = None
        self.tok_pos = 0
        self._advance()

    def _advance(self) -> None:
        if self.pos >= len(self.text):
            self.tok = None
            self.tok_pos = len(self.text)
            return
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None or m.end() == self.pos:
            # skip whitespace manually to report a clean offset
            i = self.pos
            while i < len(self.text) and self.text[i].isspace():
                i += 1
            if i >= len(self.text):
                self.tok = None
                self.tok_pos = len(self.text)
                return
            raise ParseError(f"unexpected character {self.text[i]!r}", i)
        self.tok = m.group(1) or m.group(2) or m.group(3)
        self.tok_pos = m.start(1) if m.group(1) else m.start(2) if m.group(2) else m.start(3)
        self.pos = m.end()

    def expect(self, tok: str) -> None:
        if self.tok != tok:
            raise ParseError(f"expected {tok!r}, found {self.tok!r}", self.tok_pos)
        self._advance()

    def parse_expr(self) -> Polynomial:
        # Leading sign is accepted (the canonical form never emits one,
        # but "-x1" style input is too common to reject).
        sign = 1
        if self.tok in ("+", "-"):
            if self.tok == "-":
                sign = -1
            self._advance()
        result = self.parse_term()
        if sign < 0:
            result = -result
        while self.tok in ("+", "-"):
            op = self.tok
            self._advance()
            term = self.parse_term()
            result = result + term if op == "+" else result - term
        return result

    def parse_term(self) -> Polynomial:
        # every factor is bounded before any power is expanded, so an
        # oversized product fails before the work starts
        factors = [self.parse_factor()]
        terms = factors[0][2]
        while self.tok == "*":
            star = self.tok_pos
            self._advance()
            factors.append(self.parse_factor())
            terms *= factors[-1][2]
            if terms:
                # no factor is zero, so the product has the summed degree
                powers = [(base, m) for base, m, _ in factors if m]
                terms = min(terms, self._monomials(sum(base.degree() * m for base, m in powers),
                                                   all(base.is_homogeneous() for base, _ in powers)))
                self._refuse_over("product", terms, star)
        powers = [base if m == 1 else base ** m for base, m, _ in factors]
        result = powers[0]
        for power in powers[1:]:
            result = result * power
        return result

    def _monomials(self, degree: int, homogeneous: bool) -> int:
        """The monomials of this degree, or of every degree up to it when
        the polynomial is not homogeneous."""
        return dense_monomial_count(self.nvars + (not homogeneous), degree)

    def _refuse_over(self, what: str, terms: int, offset: int) -> None:
        if terms > MAX_POWER_TERMS:
            raise ParseError(f"{what} may expand to {terms} terms, over the limit of "
                             f"{MAX_POWER_TERMS}", offset)

    def parse_factor(self) -> tuple:
        """A factor base^m, not yet expanded, as (base, m, terms): base^m
        has at most `terms` terms."""
        base = self.parse_base()
        if self.tok != "^":
            return base, 1, len(base.terms)
        caret_pos = self.tok_pos
        self._advance()
        if self.tok is None or not self.tok.isdigit():
            if self.tok == "-":
                raise ParseError("exponent must be a nonnegative integer", self.tok_pos)
            raise ParseError("expected nonnegative integer exponent", caret_pos)
        m = int(self.tok)
        self._advance()
        if m == 0 or base.is_zero():
            return base, m, int(m == 0)
        # base^m has at most one term per multiset of m of base's T terms,
        # and no more than the monomials of degree deg*m
        terms = min(comb(len(base.terms) + m - 1, m),
                    self._monomials(base.degree() * m, base.is_homogeneous()))
        self._refuse_over("power", terms, caret_pos)
        # |a/b|^m takes about m log2(|a| b) bits
        bits = m * max((abs(c.numerator) * c.denominator - 1).bit_length()
                       for c in base.terms.values())
        if bits > MAX_POWER_BITS:
            raise ParseError(f"power may have coefficients of {bits} bits, over the limit "
                             f"of {MAX_POWER_BITS}", caret_pos)
        return base, m, terms

    def parse_base(self) -> Polynomial:
        tok = self.tok
        if tok is None:
            raise ParseError("unexpected end of input", self.tok_pos)
        if tok == "(":
            self._advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.isdigit():
            num = int(tok)
            self._advance()
            if self.tok == "/":
                self._advance()
                if self.tok is None or not self.tok.isdigit():
                    raise ParseError("expected positive integer denominator", self.tok_pos)
                den = int(self.tok)
                if den == 0:
                    raise ParseError("zero denominator", self.tok_pos)
                self._advance()
                return Polynomial.constant(self.nvars, Fraction(num, den))
            return Polynomial.constant(self.nvars, num)
        if tok[0] in "xs":
            idx = int(tok[1:])
            if not 1 <= idx <= self.nvars:
                raise ParseError(f"unknown variable {tok!r} (nvars={self.nvars})", self.tok_pos)
            self._advance()
            return Polynomial.variable(self.nvars, idx - 1)
        raise ParseError(f"unexpected token {tok!r}", self.tok_pos)


def parse(text: str, nvars: int) -> Polynomial:
    """Parse the polynomial grammar into expanded canonical form.

    Grammar: expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := base ('^' nonneg-int)?; base := rational | var | '(' expr ')'.
    Variables are x1..x<nvars> (s1.. accepted as alias), and nvars is at
    most MAX_NVARS.
    """
    if nvars > MAX_NVARS:
        raise ParseError(f"{nvars} variables, over the limit of {MAX_NVARS}", 0)
    parser = _Parser(text, nvars)
    result = parser.parse_expr()
    if parser.tok is not None:
        raise ParseError(f"trailing input {parser.tok!r}", parser.tok_pos)
    return result


def infer_nvars(text: str) -> int:
    """Largest variable index mentioned in an expression (at least 1)."""
    indices = [int(m.group(0)[1:]) for m in re.finditer(r"[xs]\d+", text)]
    return max(indices, default=1)


def serialize(p: Polynomial, var: str = "x") -> str:
    """Canonical graded-lex text form; parse(serialize(p)) == p."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for exp, coef in p.sorted_terms():
        factors = [f"{var}{i+1}" + (f"^{e}" if e > 1 else "")
                   for i, e in enumerate(exp) if e > 0]
        mag = abs(coef)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        mono = "*".join(factors)
        if not parts:
            parts.append(mono if coef > 0 else f"-{mono}")
        else:
            parts.append(f"+ {mono}" if coef > 0 else f"- {mono}")
    return " ".join(parts)
