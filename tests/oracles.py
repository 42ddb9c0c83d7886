"""The searches and loops the library used before its exact minimisers,
root solves, length-indexed sums and cocycle tables, kept as the tests'
oracle for them.

``scan_amemiya`` is the Amemiya form inf_k (1 + modular(k f)) / k by a
91-point geometric scan anchored at 1/max|f| plus golden section on the
bracketing cells, ``bisected_xlog_conjugate`` bisects the maximiser of
x y - x log(1 + x) to the last bit, ``psi_series_layer_loop`` forms the
psi-series partial sums one element of the BFS layers at a time, and
``_value_table_loop`` fills a cocycle's value table one scalar call at a
time.
"""

from __future__ import annotations

import math

import numpy as np

from torlicz.groups import ball_table
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


def psi_series_layer_loop(w, pair, big_n: float, n_max: int, exact_layers: bool = False) -> tuple:
    """The partial sums of Psi(big_n / w(s)) over the balls of radius
    0..n_max: each BFS layer's terms added left to right from 0.0 (or, with
    ``exact_layers``, by ``math.fsum``, correctly rounded), then the layer
    sums added in order."""
    partial = []
    total = 0.0
    for layer in ball_table(w.group, n_max).layers:
        terms = [pair.psi(big_n / w(g)) for g in layer]
        if exact_layers:
            s_layer = math.fsum(terms)
        else:
            s_layer = 0.0
            for x in terms:
                s_layer += x
        total += s_layer
        partial.append(total)
    return tuple(partial)


def _value_table_loop(omega, A: list, B: list) -> np.ndarray:
    """omega(s, t) for s in A, t in B by the scalar double loop, the form
    ``cocycles.value_table`` is tested against."""
    w = np.empty((len(A), len(B)), dtype=complex)
    for i, s in enumerate(A):
        for j, t in enumerate(B):
            w[i, j] = omega(s, t)
    return w
