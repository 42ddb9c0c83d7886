"""Young functions and their exact complements.

A Young function is a convex Phi: [0, inf) -> [0, inf] with Phi(0) = 0 and
Phi(x) -> inf.  The value +inf is an honest member of the arithmetic here:
the complementary function of Phi(x) = x is 0 on [0, 1] and +inf beyond,
and norms downstream treat an infinite modular as "greater than one".

Every built-in pair and every ``pw:`` table carries its complementary
function

    Psi(y) = sup { x y - Phi(x) : x >= 0 }

in exact form.  Where no closed form is used, Psi(y) is the objective
x* y - Phi(x*) at the exact maximiser x* (Rockafellar, Convex Analysis,
sections 12 and 26), so the value is an evaluated point of the objective
and never exceeds the supremum by more than the rounding of that one
expression.  ``conjugate`` is the generic numeric conjugate, kept as the
tests' reference for these formulas; no pair uses it.

Every Young function also has an array form, ``many``, which the norms use
on large supports.  The built-ins evaluate their scalar formula with numpy
ufuncs, whose results may differ from ``math``'s by an ulp; overflow gives
+inf, as the scalar evals return ``math.inf``.  ``pw:`` tables and ``L1``
use the same IEEE operations as their scalar evals and agree bit for bit.
A function without an array form (a user eval, ``xlog``'s complement)
maps its scalar eval.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .numeric import (
    coshm1,
    entropy_fn,
    expm1mx,
    golden_section_max,
    xlog1p,
)

CONJUGATE_BRACKET_CAP = 1.0e6


class YoungFunctionError(ValueError):
    """A candidate eval failed the Young-function sanity checks."""


@dataclass(frozen=True, eq=False)
class YoungFunction:
    """A Young function given by a scalar eval and an optional array form.
    Evals may return math.inf (a complement can jump to +inf), never NaN.

    ``power`` is r when the function is x^r / r (set only by ``lp_pair``);
    the norms then use their closed forms instead of a numeric search."""

    name: str
    fn: object
    array_fn: object = None
    power: float | None = None

    def __call__(self, x: float) -> float:
        return self.fn(x)

    def many(self, x: np.ndarray) -> np.ndarray:
        """The eval at each entry of a float array."""
        if self.array_fn is None:
            return np.fromiter(map(self.fn, x.tolist()), dtype=float, count=len(x))
        return self.array_fn(x)


def _validate_young(fn, name: str) -> None:
    v0 = fn(0.0)
    if v0 != 0.0:
        raise YoungFunctionError(f"{name}: eval(0) = {v0!r}, expected 0")
    rng = np.random.default_rng(0xA11CE)
    xs = np.sort(np.exp(rng.uniform(math.log(1e-4), math.log(1e3), size=24)))
    vals = [fn(float(x)) for x in xs]
    for v in vals:
        if isinstance(v, float) and math.isnan(v):
            raise YoungFunctionError(f"{name}: eval returned NaN")
    for a, b in zip(vals, vals[1:]):
        if b < a:
            raise YoungFunctionError(f"{name}: eval is not nondecreasing")
    # midpoint convexity on finite triples
    for x, z in zip(xs, xs[2:]):
        mid = 0.5 * (x + z)
        fm, fx, fz = fn(float(mid)), fn(float(x)), fn(float(z))
        if math.isinf(fx) or math.isinf(fz):
            continue
        if fm > 0.5 * (fx + fz) + 1e-9 * (1.0 + abs(fx) + abs(fz)):
            raise YoungFunctionError(f"{name}: midpoint convexity fails near x = {mid:g}")


def young_function(name: str, fn, many=None) -> YoungFunction:
    _validate_young(fn, name)
    return YoungFunction(name=name, fn=fn, array_fn=many)


def _overflow_to_inf(fn):
    """An array form whose float overflow gives +inf without a warning."""

    def many(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return fn(x)

    return many


# ---------------------------------------------------------------------------
# Numerical conjugation (the tests' reference for the exact complements)


def conjugate(phi: YoungFunction, y: float) -> float:
    """sup over x >= 0 of x*y - Phi(x); +inf when the objective keeps
    growing past the bracket cap.

    The objective is concave (Phi convex), so a geometric scan localizes the
    maximizer and golden section refines it.  The returned value never
    exceeds the true supremum.
    """
    if math.isnan(y):
        raise ValueError("conjugate: y is NaN")
    if y < 0:
        raise ValueError("conjugate: y must be >= 0")
    if y == 0.0:
        return 0.0

    def objective(x: float) -> float:
        v = phi(x)
        if math.isinf(v):
            return -math.inf
        return x * y - v

    grid = [0.0] + [2.0**j for j in range(-40, 22)]
    vals = [objective(x) for x in grid]
    j = max(range(len(grid)), key=lambda i: vals[i])
    if grid[j] >= CONJUGATE_BRACKET_CAP and vals[-1] > vals[-2] > vals[-3]:
        return math.inf
    lo = grid[max(0, j - 1)]
    hi = grid[min(len(grid) - 1, j + 1)]
    x, v = golden_section_max(objective, lo, hi)
    best = max(vals[j], v, 0.0)
    return best


# ---------------------------------------------------------------------------
# Built-in complementary pairs


@dataclass(frozen=True, eq=False)
class YoungPair:
    """A complementary pair (Phi, Psi) with Psi exact: a closed form, or
    the objective at the exact maximiser."""

    name: str
    phi: YoungFunction
    psi: YoungFunction
    # every complement is exact; bench/tracer.py still reads this flag
    analytic_complement = True


def _psisonsuz(y: float) -> float:
    return 0.0 if y <= 1.0 else math.inf


def _psisonsuz_many(y: np.ndarray) -> np.ndarray:
    return np.where(y <= 1.0, 0.0, math.inf)


def _power(r: float):
    """x^r / r, +inf where x^r overflows."""

    def fn(x: float) -> float:
        try:
            return x**r / r
        except OverflowError:
            return math.inf

    return fn


def _cosh_conjugate(y: float) -> float:
    """x* y - (cosh x* - 1) at x* = asinh(y), with cosh(asinh y) - 1 written
    as y^2 / (1 + hypot(1, y)): no cancellation at 0, no inf/inf at huge y."""
    return math.asinh(y) * y - y * (y / (1.0 + math.hypot(1.0, y)))


@_overflow_to_inf
def _cosh_conjugate_many(y: np.ndarray) -> np.ndarray:
    return np.arcsinh(y) * y - y * (y / (1.0 + np.hypot(1.0, y)))


# array forms of numeric's coshm1, expm1mx, entropy_fn and xlog1p, formula
# for formula


@_overflow_to_inf
def _coshm1_many(x: np.ndarray) -> np.ndarray:
    s = np.sinh(0.5 * x)
    return 2.0 * s * s


@_overflow_to_inf
def _expm1mx_many(x: np.ndarray) -> np.ndarray:
    return np.expm1(x) - x


@_overflow_to_inf
def _entropy_many(x: np.ndarray) -> np.ndarray:
    return (1.0 + x) * np.log1p(x) - x


@_overflow_to_inf
def _xlog1p_many(x: np.ndarray) -> np.ndarray:
    return x * np.log1p(x)


def _xlog_conjugate(y: float) -> float:
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
    # x (y - log1p x) is x y - Phi(x) without overflowing x y near y = 709
    return hi * (y - math.log1p(hi))


def _power_function(var: str, r: float) -> YoungFunction:
    """x^r / r, marked with its exponent."""
    fn = young_function(f"{var}^{r:g}/{r:g}", _power(r), _overflow_to_inf(lambda x: np.power(x, r) / r))
    return replace(fn, power=r)


def lp_pair(p: float) -> YoungPair:
    if not p > 1.0:
        raise ValueError("Lp pair needs p > 1")
    q = p / (p - 1.0)
    return YoungPair(name=f"Lp:{p:g}", phi=_power_function("x", p), psi=_power_function("y", q))


def l1_pair() -> YoungPair:
    phi = young_function("x", lambda x: x, lambda x: x)
    psi = young_function("0 on [0,1], inf beyond", _psisonsuz, _psisonsuz_many)
    return YoungPair(name="L1", phi=phi, psi=psi)


def xlog_pair() -> YoungPair:
    phi = young_function("x ln(1+x)", xlog1p, _xlog1p_many)
    # no closed form: the array form maps the scalar bisection
    psi = young_function("conj(x ln(1+x))", _xlog_conjugate)
    return YoungPair(name="xlog", phi=phi, psi=psi)


def cosh_pair() -> YoungPair:
    phi = young_function("cosh x - 1", coshm1, _coshm1_many)
    psi = young_function("y asinh y - sqrt(1+y^2) + 1", _cosh_conjugate, _cosh_conjugate_many)
    return YoungPair(name="cosh", phi=phi, psi=psi)


def expm_pair() -> YoungPair:
    phi = young_function("e^x - x - 1", expm1mx, _expm1mx_many)
    psi = young_function("(1+y)ln(1+y) - y", entropy_fn, _entropy_many)
    return YoungPair(name="expm", phi=phi, psi=psi)


def entropy_pair() -> YoungPair:
    phi = young_function("(1+x)ln(1+x) - x", entropy_fn, _entropy_many)
    psi = young_function("e^y - y - 1", expm1mx, _expm1mx_many)
    return YoungPair(name="entropy", phi=phi, psi=psi)


def parse_pair(spec: str) -> YoungPair:
    """Pair spec strings: ``Lp:{p}``, ``L1``, ``xlog``, ``cosh``, ``expm``,
    ``entropy``, or ``pw:{path}`` for a custom piecewise-linear table in a
    JSON file (a list of [x, y] breakpoints, optionally under a "points"
    key); a table's complement is its exact Legendre transform
    (``piecewise_pair``)."""
    spec = spec.strip()
    if spec == "L1":
        return l1_pair()
    if spec.startswith("Lp:"):
        return lp_pair(float(spec.split(":", 1)[1]))
    if spec.startswith("pw:"):
        path = spec.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        points = doc.get("points") if isinstance(doc, dict) else doc
        name = doc.get("name", "piecewise") if isinstance(doc, dict) else "piecewise"
        if not isinstance(points, list):
            raise YoungFunctionError(
                f"{path}: expected a list of [x, y] breakpoints, optionally under a \"points\" key"
            )
        try:
            return piecewise_pair(points, name=name)
        except YoungFunctionError as exc:
            raise YoungFunctionError(f"{path}: {exc}") from None
    table = {"xlog": xlog_pair, "cosh": cosh_pair, "expm": expm_pair, "entropy": entropy_pair}
    if spec in table:
        return table[spec]()
    raise ValueError(f"unknown Young pair spec {spec!r}")


def builtin_pairs() -> list[YoungPair]:
    pairs = [l1_pair()] + [lp_pair(p) for p in (1.5, 2.0, 3.0)]
    pairs += [xlog_pair(), cosh_pair(), expm_pair(), entropy_pair()]
    return pairs


# ---------------------------------------------------------------------------
# Custom piecewise-linear Young functions (JSON tables)


def piecewise_pair(points, name: str = "piecewise") -> YoungPair:
    """Pair from a sorted breakpoint table [(x0, y0), ...].

    The table must start at (0, 0), have nondecreasing slopes (convexity),
    and a positive final slope; Phi interpolates and extrapolates with the
    last slope.  The objective x y - Phi(x) is concave and linear between
    breakpoints, so Psi(y) = max_i (x_i y - y_i) below the last slope and
    +inf above it.
    """
    try:
        pts = [(float(x), float(y)) for x, y in points]
    except (TypeError, ValueError):
        raise YoungFunctionError("piecewise table entries must be [x, y] number pairs") from None
    if len(pts) < 2:
        raise YoungFunctionError("piecewise table needs at least 2 breakpoints")
    if pts[0] != (0.0, 0.0):
        raise YoungFunctionError("piecewise table must start at (0, 0)")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise YoungFunctionError("piecewise breakpoints must be strictly increasing")
    slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
    if any(s < 0 for s in slopes) or any(b < a - 1e-12 for a, b in zip(slopes, slopes[1:])):
        raise YoungFunctionError("piecewise table is not convex nondecreasing")
    if slopes[-1] <= 0:
        raise YoungFunctionError("final slope must be positive so that eval -> inf")
    xa = np.asarray(xs)
    ya = np.asarray(ys)
    last_x, last_y, last_s = xs[-1], ys[-1], slopes[-1]

    def phi(x: float) -> float:
        if x <= last_x:
            return float(np.interp(x, xa, ya))
        return last_y + last_s * (x - last_x)

    def phi_many(x: np.ndarray) -> np.ndarray:
        return np.where(x <= last_x, np.interp(x, xa, ya), last_y + last_s * (x - last_x))

    def psi(y: float) -> float:
        if y > last_s:
            return math.inf
        return max(x * y - v for x, v in pts)

    def psi_many(y: np.ndarray) -> np.ndarray:
        best = (y[:, None] * xa - ya).max(axis=1)
        return np.where(y > last_s, math.inf, best)

    return YoungPair(
        name=name,
        phi=young_function(name, phi, _overflow_to_inf(phi_many)),
        psi=young_function(f"conj({name})", psi, _overflow_to_inf(psi_many)),
    )
