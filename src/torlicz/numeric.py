"""One-dimensional searches and stable primitives for the Young functions.

``secant_bisect_log`` shrinks the bracket of a sign change of a
nondecreasing function of k > 0: secant steps on log k with the Illinois
halving of a stale end value, and a bisection of log k wherever an end value
is +inf or NaN.  Both Orlicz-space norms use it, the Luxemburg norm on its
modular test and the Amemiya form of the Orlicz norm on Young's equality;
it returns evaluated ends, so callers report values at points they
evaluated.  The golden section routines work on unimodal objectives and
report the best point they evaluated; they serve only ``young.conjugate``,
the tests' reference for the exact complements.
"""

from __future__ import annotations

import math

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
REL_TOL = 1e-12
MAX_ITER = 200


def golden_section_min(f, a: float, b: float):
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
    while (b - a) > REL_TOL * (abs(a) + abs(b) + 1e-300) and it < MAX_ITER:
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


def golden_section_max(f, a: float, b: float):
    x, v = golden_section_min(lambda t: -f(t), a, b)
    return x, -v


def expand_bracket_log(fn, k: float, k_cap: float):
    """A bracket (lo, f_lo, hi, f_hi) of the sign change of a nondecreasing
    fn, with f_lo < 0 <= f_hi (NaN counts as >= 0): from k, upward while
    fn < 0 or downward while fn >= 0, by factors 2, 4, 16, 256, ..., each
    the square of the last.  None if fn is still below 0 at k_cap."""
    v = fn(k)
    up = v < 0.0
    step = 2.0 if up else 0.5
    while True:
        if up and k >= k_cap:
            return None
        prev, v_prev = k, v
        k = min(k * step, k_cap) if up else k * step
        if k == 0.0:
            raise ArithmeticError("bracket expansion reached k = 0")
        v = fn(k)
        if (v < 0.0) != up:
            return (prev, v_prev, k, v) if up else (k, v, prev, v_prev)
        step *= step


def secant_bisect_log(fn, lo: float, f_lo: float, hi: float, f_hi: float, rel_tol: float):
    """Shrink 0 < lo < hi, with f_lo = fn(lo) < 0 <= f_hi = fn(hi) for a
    nondecreasing fn (NaN counts as >= 0), until hi - lo <= rel_tol * hi.

    Each point is a quarter of the tolerance inside the bracket, so a secant
    estimate that lands on the root still closes the bracket from both
    sides.  Returns the final (lo, f_lo, hi, f_hi), both ends evaluated.
    """
    pad = 0.25 * rel_tol
    w_lo, w_hi = f_lo, f_hi  # end values as the secant sees them
    side = 0
    for _ in range(MAX_ITER):
        if hi - lo <= rel_tol * hi:
            break
        u_lo, u_hi = math.log(lo), math.log(hi)
        if math.isfinite(w_lo) and math.isfinite(w_hi):
            u = u_hi - w_hi * (u_hi - u_lo) / (w_hi - w_lo)
        else:
            u = 0.5 * (u_lo + u_hi)
        k = math.exp(min(max(u, u_lo + pad), u_hi - pad))
        if not lo < k < hi:  # no float left between the ends
            break
        v = fn(k)
        if v < 0.0:
            lo, f_lo, w_lo = k, v, v
            if side < 0:
                w_hi *= 0.5
            side = -1
        else:
            hi, f_hi, w_hi = k, v, v
            if side > 0:
                w_lo *= 0.5
            side = 1
    return lo, f_lo, hi, f_hi


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
