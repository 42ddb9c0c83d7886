"""The searches the norms and the ``xlog`` complement used before their exact
minimisers and root solves, kept as the tests' oracle for them.

``scan_amemiya`` is the Amemiya form inf_k (1 + modular(k f)) / k by a
91-point geometric scan anchored at 1/max|f| plus golden section on the
bracketing cells, and ``bisected_xlog_conjugate`` bisects the maximiser of
x y - x log(1 + x) to the last bit.
"""

from __future__ import annotations

import math

from torlicz.numeric import golden_section_min
from torlicz.orlicz import _normalized_magnitudes, _sum_in_loop_order


def grid_then_golden_min(f, grid):
    """Scan a sorted grid for the minimum of a unimodal f, then refine with
    golden section on the bracketing cell pair.  Returns (x_best, f_best)."""
    vals = [f(x) for x in grid]
    j = min(range(len(grid)), key=lambda i: vals[i])
    lo = grid[max(0, j - 1)]
    hi = grid[min(len(grid) - 1, j + 1)]
    x, v = golden_section_min(f, lo, hi)
    if vals[j] < v:
        return grid[j], vals[j]
    return x, v


def scan_amemiya(f, phi) -> tuple:
    """(k, value) of the Amemiya form of f under phi, by the scan; k is the
    minimiser in the units of f.  A linear Phi pushes the infimum to the
    grid's right end, where the residual 1/k is below 1e-15 relative."""
    mags, top, unit = _normalized_magnitudes(f)

    def objective(k: float) -> float:
        return _sum_in_loop_order(phi.many(k * mags), 1.0) / k

    grid = [2.0**j / top for j in range(-40, 51)]
    k, best = grid_then_golden_min(objective, grid)
    return k / unit, best * unit


def bisected_xlog_conjugate(y: float) -> float:
    """x* y - x* log(1 + x*), where x* solves log1p(x) + x/(1+x) = y.  The
    left side increases from 0 and exceeds y at expm1(y), so bisection on
    [0, expm1(y)] finds x* to the last bit; +inf once expm1(y) overflows."""
    if y <= 0.0:
        return 0.0
    try:
        hi = math.expm1(y)
    except OverflowError:
        return math.inf
    lo = 0.0
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        if math.log1p(mid) + mid / (1.0 + mid) < y:
            lo = mid
        else:
            hi = mid
    return hi * (y - math.log1p(hi))
