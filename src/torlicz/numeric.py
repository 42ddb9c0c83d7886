"""One-dimensional search and stable primitives for the Young functions.

The searches work on unimodal objectives and tolerate +inf values, which
show up whenever a Young function jumps to infinity.  The golden section
routine reports the best point it actually evaluated, so callers never
extrapolate below a true infimum.  ``grid_then_golden_min`` minimises the
Amemiya objective of the Orlicz norm; ``golden_section_max`` serves only
``young.conjugate``, the tests' reference for the exact complements.
"""

from __future__ import annotations

import math

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, a: float, b: float, rel_tol: float = 1e-12, max_iter: int = 200):
    """Minimize a unimodal f on [a, b].

    Returns ``(x_best, f_best)`` where f_best is the smallest value seen at
    an evaluated point (endpoints included).
    """
    fa, fb = f(a), f(b)
    best_x, best_v = (a, fa) if fa <= fb else (b, fb)
    x1 = b - INV_PHI * (b - a)
    x2 = a + INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for x, v in ((x1, f1), (x2, f2)):
        if v < best_v:
            best_x, best_v = x, v
    it = 0
    while (b - a) > rel_tol * (abs(a) + abs(b) + 1e-300) and it < max_iter:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - INV_PHI * (b - a)
            f1 = f(x1)
            if f1 < best_v:
                best_x, best_v = x1, f1
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + INV_PHI * (b - a)
            f2 = f(x2)
            if f2 < best_v:
                best_x, best_v = x2, f2
        it += 1
    return best_x, best_v


def golden_section_max(f, a: float, b: float, rel_tol: float = 1e-12, max_iter: int = 200):
    x, v = golden_section_min(lambda t: -f(t), a, b, rel_tol=rel_tol, max_iter=max_iter)
    return x, -v


def grid_then_golden_min(f, grid, rel_tol: float = 1e-12):
    """Scan a sorted grid for the minimum of a unimodal f, then refine with
    golden section on the bracketing cell pair.  Returns (x_best, f_best)."""
    vals = [f(x) for x in grid]
    j = min(range(len(grid)), key=lambda i: vals[i])
    lo = grid[max(0, j - 1)]
    hi = grid[min(len(grid) - 1, j + 1)]
    x, v = golden_section_min(f, lo, hi, rel_tol=rel_tol)
    if vals[j] < v:
        return grid[j], vals[j]
    return x, v


# Numerically stable primitives for the built-in Young functions.


def coshm1(x: float) -> float:
    """cosh(x) - 1 without cancellation near 0; +inf on float overflow."""
    try:
        s = math.sinh(0.5 * x)
        return 2.0 * s * s
    except OverflowError:
        return math.inf


def expm1mx(x: float) -> float:
    """exp(x) - x - 1, stable near 0; +inf on overflow."""
    try:
        return math.expm1(x) - x
    except OverflowError:
        return math.inf


def xlog1p(x: float) -> float:
    """x * log(1 + x)."""
    return x * math.log1p(x)


def entropy_fn(x: float) -> float:
    """(1 + x) log(1 + x) - x, stable near 0."""
    return (1.0 + x) * math.log1p(x) - x
