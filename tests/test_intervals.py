"""Batched outward-rounded interval operations against 50-digit mpmath."""

import math
import random

import mpmath
import numpy as np

from powerpos.intervals import (COS_MARGIN, Interval, array_add, array_cos,
                                array_mul, array_mul_int, array_mul_nonneg,
                                array_powers, array_versin)

mpmath.mp.dps = 50


def _ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


def _cos_range(a: float, b: float):
    """Exact range of cos over [a, b] at 50 digits."""
    lo_v, hi_v = mpmath.cos(a), mpmath.cos(b)
    vmin, vmax = min(lo_v, hi_v), max(lo_v, hi_v)
    for k in range(math.floor(a / math.pi) - 1, math.ceil(b / math.pi) + 2):
        if mpmath.mpf(a) <= k * mpmath.pi <= mpmath.mpf(b):
            if k % 2 == 0:
                vmax = mpmath.mpf(1)
            else:
                vmin = mpmath.mpf(-1)
    return vmin, vmax


def _check_cos(intervals):
    lo = np.array([a for a, _ in intervals])
    hi = np.array([b for _, b in intervals])
    c_lo, c_hi = array_cos((lo, hi))
    for (a, b), clo, chi in zip(intervals, c_lo, c_hi):
        vmin, vmax = _cos_range(a, b)
        assert -1.0 <= clo <= vmin and vmax <= chi <= 1.0, (a, b, clo, chi)


def test_array_cos_encloses_range_near_multiples_of_pi():
    # endpoints within a few ulps of k*pi, on either side of the true
    # multiple (float(k*pi) itself is below or above it)
    intervals = []
    for k in range(-8, 9):
        centre = k * math.pi
        for i in range(-3, 4):
            for j in range(i, 4):
                intervals.append((_ulps(centre, i), _ulps(centre, j)))
        intervals.append((_ulps(centre, -2), centre + 0.5))
        intervals.append((centre - 0.5, _ulps(centre, 2)))
    _check_cos(intervals)


def test_array_cos_encloses_range_on_random_intervals():
    rng = random.Random(3)
    intervals = []
    for _ in range(500):
        a = rng.uniform(-30, 30)
        intervals.append((a, a + rng.choice([0.0, 1e-9, 1e-3, 0.5, 3.0, 7.0])))
    _check_cos(intervals)


def test_np_cos_error_is_far_below_the_margin():
    # arguments of the size the witness validation passes, many next to
    # zeros and extrema of cos, where an inexact argument reduction shows first
    rng = random.Random(5)
    xs = [rng.uniform(-200.0, 200.0) for _ in range(2000)]
    xs += [_ulps(k * math.pi / 2, i) for k in range(-128, 129) for i in (-2, 0, 2)]
    values = np.cos(np.array(xs))
    worst = max(abs(mpmath.cos(x) - v) for x, v in zip(xs, values))
    assert worst <= COS_MARGIN / 256


def test_array_cos_full_turn_is_unit_interval():
    lo = np.array([0.0, -1.0])
    c_lo, c_hi = array_cos((lo, lo + 2 * math.pi))
    assert c_lo.tolist() == [-1.0, -1.0] and c_hi.tolist() == [1.0, 1.0]


def test_array_arithmetic_encloses_exact_values():
    rng = random.Random(4)
    size = 200
    x_lo = np.array([rng.uniform(0, 1) for _ in range(size)])
    x_hi = x_lo + np.array([rng.choice([0.0, 1e-12, 0.1]) for _ in range(size)])
    t_lo = np.array([rng.uniform(-7, 7) for _ in range(size)])
    t_hi = t_lo + 0.25
    x, t = (x_lo, x_hi), (t_lo, t_hi)
    c = Interval(-1.0 / 3.0 - 1e-16, -1.0 / 3.0 + 1e-16)
    powers = array_powers(x, 7)
    versin = array_versin(t)
    shifted = array_mul_int(-3, t)
    scaled = array_mul((c.lo, c.hi), array_mul_nonneg(powers[7], versin))
    total = array_add(scaled, powers[2])
    for i in range(size):
        for s in (0.0, 0.5, 1.0):
            xv = mpmath.mpf(x_lo[i]) + s * (mpmath.mpf(x_hi[i]) - mpmath.mpf(x_lo[i]))
            tv = mpmath.mpf(t_lo[i]) + s * (mpmath.mpf(t_hi[i]) - mpmath.mpf(t_lo[i]))
            for e in range(8):
                assert 0.0 <= powers[e][0][i] <= xv ** e <= powers[e][1][i]
            vs = 1 - mpmath.cos(tv)
            assert 0.0 <= versin[0][i] <= vs <= versin[1][i]
            assert shifted[0][i] <= -3 * tv <= shifted[1][i]
            for cv in (mpmath.mpf(c.lo), mpmath.mpf(c.hi)):
                value = cv * xv ** 7 * vs + xv ** 2
                assert total[0][i] <= value <= total[1][i]
