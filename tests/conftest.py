"""Oracles shared by more than one test module."""

import math

import pytest


def _bispherical_cap(a: float, b: float, d: float) -> float:
    """Absolute capacity of two disjoint balls (radii a and b, centers d
    apart) held at potential 1, by Smythe's bispherical sums (Static and
    Dynamic Electricity, 5.08): C = 4 pi (C11 + 2 C12 + C22), with
    cosh(beta) = (d^2 - a^2 - b^2) / (2ab).  Each term is one image
    charge in closed form, so no recurrence carries rounding forward.
    """
    t = (d - a - b) * (d + a + b) / (2.0 * a * b)  # cosh(beta) - 1, without cancellation
    beta = math.log1p(t + math.sqrt(t * (t + 2.0)))
    c11, c22, c12 = [], [], []
    n = 1
    while (n - 1) * beta < 45.0:  # exp(-45) is far below the unit roundoff
        s_n, s_prev = math.sinh(n * beta), math.sinh((n - 1) * beta)
        c11.append(1.0 / (a * s_n + b * s_prev))
        c22.append(1.0 / (b * s_n + a * s_prev))
        c12.append(1.0 / s_n)
        n += 1
    w = a * b * math.sinh(beta)
    return 4.0 * math.pi * w * (math.fsum(c11) + math.fsum(c22) - 2.0 * math.fsum(c12) / d)


@pytest.fixture
def bispherical_cap():
    return _bispherical_cap
