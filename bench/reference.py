"""The benchmark's own arithmetic for checking torlicz outputs.

Nothing here imports torlicz: group products, word lengths, cocycle values
and Young functions are written out from their definitions so that a wrong
answer from the program cannot also be the reference.
"""

from __future__ import annotations

import cmath
import math


# ---------------------------------------------------------------------------
# Groups: Z^d with the {-1,0,1}^d generators, and the Heisenberg group H3


def z_op(a, b):
    return tuple(x + y for x, y in zip(a, b))


def z_inv(a):
    return tuple(-x for x in a)


def z_length(a) -> int:
    return max((abs(x) for x in a), default=0)


def h3_op(u, v):
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2] + u[0] * v[1])


def h3_inv(u):
    return (-u[0], -u[1], -u[2] + u[0] * u[1])


H3_GENERATORS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))


def h3_lengths(radius: int) -> dict:
    """Word length of every H3 element of length <= radius, by BFS."""
    ident = (0, 0, 0)
    lengths = {ident: 0}
    frontier = [ident]
    for n in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for u in H3_GENERATORS:
                h = h3_op(g, u)
                if h not in lengths:
                    lengths[h] = n
                    nxt.append(h)
        frontier = nxt
    return lengths


def h3_ball_sizes(n_max: int) -> list:
    """lambda(U^1), ..., lambda(U^n_max) for H3."""
    lengths = h3_lengths(n_max)
    counts = [0] * (n_max + 1)
    for n in lengths.values():
        counts[n] += 1
    sizes, total = [], 0
    for c in counts:
        total += c
        sizes.append(total)
    return sizes[1:]


# ---------------------------------------------------------------------------
# Cocycles in closed form


def bichar(theta: float):
    return lambda s, t: cmath.exp(1j * theta * s[-1] * t[0])


def cobound_poly(beta: float, op, length):
    def w(x):
        return (1.0 + length(x)) ** beta

    return lambda s, t: w(op(s, t)) / (w(s) * w(t))


def prod(c1, c2):
    return lambda s, t: c1(s, t) * c2(s, t)


def twisted_value(f: dict, g: dict, omega, op, inv, t) -> tuple:
    """(f *_Omega g)(t) and the sum of the moduli of its terms."""
    total = 0j
    scale = 0.0
    for s, fs in f.items():
        u = op(inv(s), t)
        gu = g.get(u)
        if gu is not None:
            term = fs * gu * omega(s, u)
            total += term
            scale += abs(term)
    return total, scale


# ---------------------------------------------------------------------------
# Young functions and the quantities the norm checks need


def _coshm1(x: float) -> float:
    try:
        s = math.sinh(0.5 * x)
    except OverflowError:
        return math.inf
    return 2.0 * s * s


def _expm(x: float) -> float:
    try:
        return math.expm1(x) - x
    except OverflowError:
        return math.inf


def _entropy(x: float) -> float:
    return (1.0 + x) * math.log1p(x) - x


def piecewise(points):
    """Linear interpolation of a convex breakpoint table, extended with the
    last slope."""
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    last_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])

    def fn(x: float) -> float:
        if x >= xs[-1]:
            return ys[-1] + last_slope * (x - xs[-1])
        for k in range(1, len(xs)):
            if x <= xs[k]:
                lam = (x - xs[k - 1]) / (xs[k] - xs[k - 1])
                return ys[k - 1] + lam * (ys[k] - ys[k - 1])
        raise AssertionError("unreachable")

    return fn


def piecewise_conjugate(points):
    """The exact complement of ``piecewise(points)``: the objective
    x y - Phi(x) is concave and piecewise linear, so its supremum is reached
    at a breakpoint, and it is +inf beyond the last slope."""
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    last_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])

    def fn(y: float) -> float:
        if y > last_slope:
            return math.inf
        return max(x * y - v for x, v in zip(xs, ys))

    return fn


def _cosh_conjugate(y: float) -> float:
    """y asinh(y) - sqrt(1 + y^2) + 1, written without cancellation at 0."""
    return y * math.asinh(y) - y * y / (1.0 + math.sqrt(1.0 + y * y))


def _xlog_conjugate(y: float) -> float:
    """sup over x >= 0 of x y - x log(1 + x).  The maximiser solves
    log(1 + x) + x / (1 + x) = y, whose left side increases from 0 and
    exceeds y at x = e^y - 1; bisection finds it."""
    if y <= 0.0:
        return 0.0
    if y > 700.0:
        return math.inf
    lo, hi = 0.0, math.expm1(y)
    for _ in range(200):
        if hi - lo <= 1e-15 * hi:
            break
        mid = 0.5 * (lo + hi)
        if math.log1p(mid) + mid / (1.0 + mid) < y:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    return x * y - x * math.log1p(x)


# phi and psi for every built-in pair spec the workloads use
PHI = {
    "Lp:3": lambda x: x**3 / 3.0,
    "xlog": lambda x: x * math.log1p(x),
    "cosh": _coshm1,
    "expm": _expm,
    "entropy": _entropy,
}
PSI = {
    "Lp:3": lambda y: y**1.5 / 1.5,
    "xlog": _xlog_conjugate,
    "cosh": _cosh_conjugate,
    "expm": _entropy,
    "entropy": _expm,
}


def modular(mags, phi) -> float:
    total = 0.0
    for m in mags:
        total += phi(m)
    return total


def luxemburg_bracket_ok(mags, phi, n: float, rel: float = 1e-6) -> bool:
    """N is the Luxemburg norm up to ``rel``: modular(f/N) <= 1 and
    modular(f/(N(1-rel))) > 1."""
    if n <= 0.0:
        return False
    inside = modular([m / n for m in mags], phi) <= 1.0 + 1e-9
    below = n * (1.0 - rel)
    outside = modular([m / below for m in mags], phi) > 1.0
    return inside and outside


def amemiya(mags, phi) -> float:
    """The Orlicz norm inf over k > 0 of (1 + modular(k f)) / k.

    With t = 1/k the objective t + t modular(f / t) is the perspective of a
    convex function, so it is convex in t: a geometric scan brackets the
    minimum and a ternary search narrows the bracket to 1e-14 of t.  The
    result is the smallest value evaluated, never below the infimum.
    """
    top = max(mags)

    def h(t: float) -> float:
        return t * (1.0 + modular([m / t for m in mags], phi))

    ts = [top * 2.0**j for j in range(-50, 51)]
    vals = [h(t) for t in ts]
    j = min(range(len(ts)), key=vals.__getitem__)
    lo, hi = ts[max(j - 1, 0)], ts[min(j + 1, len(ts) - 1)]
    best = vals[j]
    while hi - lo > 1e-14 * hi:
        t1, t2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        h1, h2 = h(t1), h(t2)
        best = min(best, h1, h2)
        if h1 <= h2 and h1 < math.inf:
            hi = t2
        else:
            lo = t1
    return best


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
