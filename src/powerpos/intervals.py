"""Outward-rounded interval arithmetic on doubles.

Every arithmetic operation pads its result by one ulp in each
direction, so true values are always enclosed.  Desk-scale
validation only: no arbitrary-precision intervals.  The deciders in
`conditions` are exact and do not use it; `poly.eval_interval` encloses
a polynomial over a box with it.
"""

from __future__ import annotations

import math
from fractions import Fraction

_INF = math.inf


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


class Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if not (lo <= hi):
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    # -- arithmetic (outward rounded) ---------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def __mul__(self, other: "Interval") -> "Interval":
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Interval(_down(min(products)), _up(max(products)))

    def pow_int(self, n: int) -> "Interval":
        """x^n for integer n >= 0, tight on monotone/even cases."""
        if n < 0:
            raise ValueError("negative exponent")
        if n == 0:
            return Interval(1.0, 1.0)
        lo_n, hi_n = self.lo ** n, self.hi ** n
        if n % 2 == 1 or self.lo >= 0:
            return Interval(_down(lo_n), _up(hi_n))
        if self.hi <= 0:
            return Interval(_down(hi_n), _up(lo_n))
        return Interval(0.0, _up(max(lo_n, hi_n)))


def from_fraction(c: Fraction | int) -> Interval:
    c = Fraction(c)
    f = float(c)
    if Fraction(f) == c:
        return Interval(f, f)
    return Interval(_down(f), _up(f))
