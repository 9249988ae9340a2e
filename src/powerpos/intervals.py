"""Outward-rounded interval arithmetic on doubles.

Every arithmetic operation pads its result by one ulp in each
direction, so true values are always enclosed.  Desk-scale
validation only: no arbitrary-precision intervals.  Pos3 falsify uses
it to validate a Nelder-Mead witness on a tiny box; Pos3 certify is
exact and does not use it.

`Interval` holds one scalar interval.  The array functions below hold a
batch of intervals as a pair of equal-shape float64 arrays (lo, hi) and
apply the same rounding rules elementwise, one `np.nextafter` per
rounded operation.  `array_cos` takes its endpoint values from numpy's
`np.cos`, whose float64 loop depends on the CPU and the numpy version
and has no documented error bound; it widens them by the fixed absolute
margin `COS_MARGIN` instead of a count of ulps (see there).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_INF = math.inf
_TWO_PI = 2 * math.pi

#: Absolute widening of every `np.cos` endpoint value in `array_cos`.
#: It is 2^-40, about 8,000 ulps of 1.0.  A float64 cos that is accurate
#: to a few ulps is off by at most about 2^-50 on [-1, 1], and the
#: arguments that falsify's witness validation passes (phase sums
#: <k, theta> with each |k_j| at most the degree, at a Nelder-Mead point
#: started from phases in [0, 2 pi)) stay far below the sizes where
#: argument reduction loses accuracy.  The margin covers the
#: implementation that runs, not one named implementation:
#: tests/test_intervals.py measures the error of the `np.cos` in use
#: against 50-digit values and requires it to stay below COS_MARGIN / 256.
COS_MARGIN = 2.0 ** -40


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



# -- batches of intervals ---------------------------------------------
# A batch is a pair (lo, hi) of equal-shape float64 arrays.

def _down_array(x: np.ndarray) -> np.ndarray:
    return np.nextafter(x, -_INF)


def _up_array(x: np.ndarray) -> np.ndarray:
    return np.nextafter(x, _INF)


def array_add(a: tuple, b: tuple) -> tuple:
    return _down_array(a[0] + b[0]), _up_array(a[1] + b[1])


def array_mul_int(k: int, a: tuple) -> tuple:
    """k * a for an integer k; a may have either sign."""
    lo, hi = k * a[0], k * a[1]
    if k < 0:
        lo, hi = hi, lo
    return _down_array(lo), _up_array(hi)


def array_mul_nonneg(a: tuple, b: tuple) -> tuple:
    """a * b for batches of nonnegative quantities.

    Lower bounds are clamped at 0, which keeps the batch nonnegative
    when rounding down reaches below it.
    """
    return np.maximum(_down_array(a[0] * b[0]), 0.0), _up_array(a[1] * b[1])


def array_mul(a: tuple, b: tuple) -> tuple:
    """a * b for batches of either sign; a scalar interval broadcasts."""
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (_down_array(np.minimum(np.minimum(products[0], products[1]),
                                   np.minimum(products[2], products[3]))),
            _up_array(np.maximum(np.maximum(products[0], products[1]),
                                 np.maximum(products[2], products[3]))))


def array_powers(a: tuple, e_max: int) -> list[tuple]:
    """[a^0, a^1, ..., a^e_max] for a batch a of nonnegative quantities.

    Each power is an outward-rounded product with the one before it:
    numpy's `power` is not libm's `pow`, and neither is guaranteed
    correctly rounded.
    """
    out = [(np.ones_like(a[0]), np.ones_like(a[1])), a]
    for _ in range(2, e_max + 1):
        out.append(array_mul_nonneg(out[-1], a))
    return out[:e_max + 1]


def array_cos(a: tuple) -> tuple:
    """Enclosure of cos over each interval of a batch.

    Endpoint values from `np.cos`, widened to -1 or 1 wherever the
    interval holds an odd or even multiple of pi, then by `COS_MARGIN`.
    """
    lo, hi = a
    end_lo, end_hi = np.cos(lo), np.cos(hi)
    vmin, vmax = np.minimum(end_lo, end_hi), np.maximum(end_lo, end_hi)
    # extrema at integer multiples of pi inside the interval
    k_min = np.ceil(lo / math.pi - 1e-12)
    k_max = np.floor(hi / math.pi + 1e-12)
    several = k_max > k_min
    one = k_max == k_min
    even = np.mod(k_min, 2) == 0
    vmax = np.where(several | (one & even), 1.0, vmax)
    vmin = np.where(several | (one & ~even), -1.0, vmin)
    vmin = np.maximum(-1.0, _down_array(vmin - COS_MARGIN))
    vmax = np.minimum(1.0, _up_array(vmax + COS_MARGIN))
    full = hi - lo >= _TWO_PI
    return np.where(full, -1.0, vmin), np.where(full, 1.0, vmax)


def array_versin(a: tuple) -> tuple:
    """Enclosure of 1 - cos over each interval of a batch; it is >= 0."""
    c_lo, c_hi = array_cos(a)
    return np.maximum(_down_array(1.0 - c_hi), 0.0), _up_array(1.0 - c_lo)
