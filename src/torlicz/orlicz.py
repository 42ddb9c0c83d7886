"""Finitely supported functions and their Orlicz-space norms.

Under the counting measure the modular of f is sum Phi(|f(s)|) over the
support.  The Luxemburg norm

    N_Phi(f) = inf { k > 0 : modular(f / k) <= 1 }

is found by bisection on the monotone predicate (an infinite modular counts
as "greater than one").  The Orlicz (dual) norm is computed through the
Amemiya form

    ||f||_Phi = inf_{k > 0} (1 + modular(k f)) / k,

whose objective is unimodal in k; a geometric scan plus golden section
refines the infimum.  Both routines only ever report values they evaluated,
so the Luxemburg result satisfies its defining modular inequality and the
Amemiya result is an upper approximation of the true infimum.  The dual
pairing check gives independent lower-bound certificates.

For Phi = x^p / p (``YoungFunction.power``, set by ``lp_pair`` on both
members of the pair) neither search runs.  With S = sum |f|^p, the Amemiya
objective 1/k + k^(p-1) S / p is smallest at k* = (p / ((p - 1) S))^(1/p),
and the result is the objective evaluated there, raised by the relative
``LP_ROUND_UP`` so that rounding never puts it below the infimum (at a
point mass the Hoelder bound is an equality, and a value a few ulps low
fails it).  The Luxemburg norm is (S / p)^(1/p), stepped up with
``math.nextafter`` to the first float the feasibility predicate accepts
(at most ``LP_MAX_STEPS`` steps, then the bisection).  S is formed as M^p sum (|f| / M)^p with M = max |f|, so no
power of |f| itself overflows or underflows.  The scan, golden section and
bisection serve every other Young function and are the tests' oracle for
the closed forms.

From ``ARRAY_MIN_POINTS`` support points on, ``modular``, each Luxemburg
bisection step and each Amemiya objective value form their n terms in one
call of the Young function's array form (``YoungFunction.many``) and add
them with ``np.cumsum``, left to right from the loop's start value, as the
scalar loop does (``np.sum`` would add pairwise).  Below the cutover numpy's
fixed cost per step exceeds the loop's, and the loop runs; it is also the
tests' oracle for the array path.  numpy's ufuncs may differ from ``math``
by an ulp, so the array path is not bit-identical.  Its contract:

- each term within a few ulp of the loop's (of the larger operand where
  the formula subtracts, as in e^x - x - 1), with +inf at the same points;
- sums added in the same order, so a modular differs from the loop's by
  no more than the terms do plus one rounding per addition (n eps relative);
- norms within 1e-11 relative of the loop's.  A Luxemburg step whose
  modular lies within those roundings of 1 may decide the other way, which
  moves the result by at most one final bisection step, BISECT_TOL (1 + N).

Forms that use the same IEEE operations as their scalar eval (``L1`` and
``pw:`` tables) give bit-identical terms, hence bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import Group
from .numeric import grid_then_golden_min
from .young import YoungFunction, YoungPair

BISECT_TOL = 1e-12
# support size from which the norms evaluate Phi as one array per step
ARRAY_MIN_POINTS = 64
# nextafter steps from the closed-form Luxemburg norm of x^p/p to its
# feasible side before the bisection takes over; 6 were the most needed over
# 6,000 random supports of 1 to 300 points and magnitudes 1e-200 to 1e200
LP_MAX_STEPS = 64
# relative amount the closed-form Amemiya value of x^p/p is raised by: the
# objective evaluated at k* can round a few ulps below its true value (3 at
# most, 6.7e-16, over 120,000 point masses, where the Hoelder bound is an
# equality), so the result is moved outward to stay an upper approximation
LP_ROUND_UP = 2.0**-49

# Inequalities hold with mathematical slack zero; comparisons still need a
# relative guard at true-equality points (a point mass at the identity makes
# the module bound an equality), where the two sides round differently.
FLOAT_GUARD = 1e-12


class GroupMismatchError(ValueError):
    pass


def _leq(lhs: float, rhs: float) -> bool:
    return lhs <= rhs * (1.0 + FLOAT_GUARD) + 1e-300


@dataclass(frozen=True, eq=False)
class SupportedFunction:
    """A finitely supported complex function on a group.

    Exact zeros are dropped at construction so the stored support is the
    true support; keys are canonical group elements.
    """

    group: Group
    values: dict

    def __post_init__(self):
        canon = {}
        op, e = self.group.op, self.group.identity
        for s, v in self.values.items():
            if v == 0:
                continue
            key = op(s, e)  # canonical representative (reduces cyclic coordinates)
            canon[key] = canon.get(key, 0) + complex(v)
        object.__setattr__(self, "values", {s: v for s, v in canon.items() if v != 0})

    @classmethod
    def from_canonical(cls, group: Group, values: dict) -> "SupportedFunction":
        """The function with these values, for keys that are canonical and
        distinct by construction, so they are not re-keyed through
        ``group.op``.  Exact zeros are still dropped, and ``0 + complex(v)``
        still turns a -0.0 part into +0.0: the result is the constructor's
        bit for bit."""
        f = object.__new__(cls)
        object.__setattr__(f, "group", group)
        object.__setattr__(f, "values", {s: 0 + complex(v) for s, v in values.items() if v != 0})
        return f

    @property
    def support(self):
        return self.values.keys()

    def is_zero(self) -> bool:
        return not self.values

    def scale(self, c: complex) -> "SupportedFunction":
        return SupportedFunction.from_canonical(self.group, {s: c * v for s, v in self.values.items()})

    def add(self, other: "SupportedFunction") -> "SupportedFunction":
        _require_same_group(self, other)
        out = dict(self.values)
        for s, v in other.values.items():
            out[s] = out.get(s, 0) + v
        return SupportedFunction(self.group, out)

    def sub(self, other: "SupportedFunction") -> "SupportedFunction":
        return self.add(other.scale(-1))

    def mul_pointwise(self, w) -> "SupportedFunction":
        """Pointwise product with a callable on group elements."""
        return SupportedFunction.from_canonical(self.group, {s: v * w(s) for s, v in self.values.items()})

    def div_pointwise(self, w) -> "SupportedFunction":
        return SupportedFunction.from_canonical(self.group, {s: v / w(s) for s, v in self.values.items()})


def _require_same_group(f: SupportedFunction, g: SupportedFunction) -> None:
    if f.group is not g.group and f.group.name != g.group.name:
        raise GroupMismatchError(f"{f.group.name} vs {g.group.name}")


def delta(group: Group, s=None, value: complex = 1.0) -> SupportedFunction:
    """The point mass at s (default: the identity)."""
    if s is None:
        s = group.identity
    return SupportedFunction(group, {s: value})


@dataclass(frozen=True)
class SpaceContext:
    """A Young pair plus an optional weight for the weighted norm."""

    pair: YoungPair
    weight: object | None = None


# ---------------------------------------------------------------------------
# Norms


def l1_norm(f: SupportedFunction) -> float:
    return float(sum(abs(v) for v in f.values.values()))


def weighted_l1_norm(f: SupportedFunction, w) -> float:
    return float(sum(abs(v) * w(s) for s, v in f.values.items()))


def _sum_in_loop_order(terms: np.ndarray, start: float) -> float:
    """start + terms[0] + terms[1] + ..., added left to right as the scalar
    loops add.  Terms are never NaN or negative, so an +inf term carries
    through every later partial sum and the total is +inf, as the loops
    return."""
    return float(np.cumsum(np.concatenate(((start,), terms)))[-1])


def modular(f: SupportedFunction, phi: YoungFunction) -> float:
    """sum over the support of Phi(|f(s)|); may be +inf."""
    if len(f.values) >= ARRAY_MIN_POINTS:
        mags = np.array([abs(v) for v in f.values.values()])
        return _sum_in_loop_order(phi.many(mags), 0.0)
    total = 0.0
    for v in f.values.values():
        t = phi(abs(v))
        if math.isinf(t):
            return math.inf
        total += t
    return total


def _finite_magnitudes(f: SupportedFunction) -> list:
    """|f(s)| over the support; a norm of a non-finite value is undefined
    (and would stall the bracket search), so it is rejected."""
    mags = [abs(v) for v in f.values.values()]
    if not all(map(math.isfinite, mags)):
        raise ValueError("norms need finite function values")
    return mags


def _scaled_power_sum(mags: list, p: float) -> tuple:
    """(M, T) with M = max |f| and T = sum (|f| / M)^p, so that
    S = sum |f|^p = M^p T without overflowing or underflowing M^p."""
    big = max(mags)
    return big, math.fsum((m / big) ** p for m in mags)


def luxemburg_norm(f: SupportedFunction, phi: YoungFunction) -> float:
    """inf { k > 0 : modular(f / k) <= 1 }: in closed form for x^p / p,
    by bisection otherwise.

    The returned k satisfies modular(f / k) <= 1 (the feasible side), so
    N_Phi(f) <= 1 iff modular(f) <= 1 also holds for the computed value.
    """
    if f.is_zero():
        return 0.0
    mags = _finite_magnitudes(f)

    if len(mags) >= ARRAY_MIN_POINTS:
        arr = np.array(mags)

        def feasible(k: float) -> bool:
            # partial sums of non-negative terms never decrease, so the
            # total exceeds 1 iff the loop's early exit would have fired
            return _sum_in_loop_order(phi.many(arr / k), 0.0) <= 1.0

    else:

        def feasible(k: float) -> bool:
            total = 0.0
            for m in mags:
                t = phi(m / k)
                if math.isinf(t):
                    return False
                total += t
                if total > 1.0:
                    return False
            return True

    if phi.power is not None:
        # modular(f / N) = S / (p N^p) = 1 at N = (S / p)^(1/p); step up from
        # its rounded value to the first float the predicate accepts
        p = phi.power
        big, t = _scaled_power_sum(mags, p)
        n = big * (t / p) ** (1.0 / p)
        for _ in range(LP_MAX_STEPS):
            if feasible(n):
                return n
            n = math.nextafter(n, math.inf)

    hi = max(mags)
    for _ in range(200):
        if feasible(hi):
            break
        hi *= 2.0
    else:
        raise ArithmeticError("luxemburg bracket expansion failed")
    lo = hi / 2.0
    while lo > 1e-300 and feasible(lo):
        hi = lo
        lo /= 2.0
    for _ in range(200):
        if hi - lo <= BISECT_TOL * (1.0 + hi):
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def orlicz_norm(f: SupportedFunction, pair: YoungPair) -> float:
    """Orlicz norm through the Amemiya form, at the exact minimiser for
    x^p / p and by a scan plus golden section otherwise; an upper
    approximation of the dual-ball supremum it equals."""
    if f.is_zero():
        return 0.0
    phi = pair.phi
    mags = _finite_magnitudes(f)

    if len(mags) >= ARRAY_MIN_POINTS:
        arr = np.array(mags)

        def objective(k: float) -> float:
            return _sum_in_loop_order(phi.many(k * arr), 1.0) / k

    else:

        def objective(k: float) -> float:
            total = 1.0
            for m in mags:
                t = phi(k * m)
                if math.isinf(t):
                    return math.inf
                total += t
            return total / k

    if phi.power is not None:
        # d/dk (1/k + k^(p-1) S / p) = 0 at k^p = p / ((p - 1) S)
        p = phi.power
        big, t = _scaled_power_sum(mags, p)
        return objective((p / ((p - 1.0) * t)) ** (1.0 / p) / big) * (1.0 + LP_ROUND_UP)

    # the minimizer sits within a few decades of 1/sup|f|, so anchor the
    # scan grid there; a linear Phi pushes the infimum to the right end,
    # where the residual 1/k is below 1e-15 relative
    scale = 1.0 / max(mags)
    grid = [scale * 2.0**j for j in range(-40, 51)]
    _, best = grid_then_golden_min(objective, grid)
    return best


def weighted_norm(f: SupportedFunction, ctx: SpaceContext) -> float:
    """||f||_{Phi, w} = ||f w||_Phi."""
    if ctx.weight is None:
        raise ValueError("weighted_norm needs a weight in the context")
    return orlicz_norm(f.mul_pointwise(ctx.weight), ctx.pair)


def lambda_map(f: SupportedFunction, w) -> SupportedFunction:
    """Pointwise division by the weight; an isometry from the plain Orlicz
    norm onto the weighted one."""
    return f.div_pointwise(w)


def dual_pairing_bound(f: SupportedFunction, v: SupportedFunction, pair: YoungPair) -> dict:
    """Orlicz Hoelder check plus the dual lower-bound certificate.

    Verifies ||f v||_1 <= min(N_Phi(f) ||v||_Psi, ||f||_Phi N_Psi(v)); when
    modular(v, Psi) <= 1 additionally checks that the pairing sum |f v| stays
    below the Amemiya value of f (up to ``FLOAT_GUARD``), certifying the
    dual supremum from below.  The Hoelder comparison has no guard: point
    masses at one element make it an equality, which the norms' outward
    rounding keeps on the passing side.
    """
    _require_same_group(f, v)
    psi_pair = YoungPair(name=f"dual({pair.name})", phi=pair.psi, psi=pair.phi)
    pairing = float(
        sum(abs(f.values[s] * v.values[s]) for s in f.support & v.support)
    )
    lux_f = luxemburg_norm(f, pair.phi)
    orl_v = orlicz_norm(v, psi_pair)
    orl_f = orlicz_norm(f, pair)
    lux_v = luxemburg_norm(v, pair.psi)
    bound = min(lux_f * orl_v, orl_f * lux_v)
    report = {
        "pairing_l1": pairing,
        "luxemburg_f": lux_f,
        "orlicz_v": orl_v,
        "orlicz_f": orl_f,
        "luxemburg_v": lux_v,
        "holder_bound": bound,
        "holder_ok": pairing <= bound,
        "dual_certificate_ok": True,
    }
    if modular(v, pair.psi) <= 1.0:
        report["dual_certificate_ok"] = _leq(pairing, orl_f)
    return report


# ---------------------------------------------------------------------------
# Membership series for 1/weight in the Psi-space


@dataclass(frozen=True)
class SeriesReport:
    partial_sums: tuple
    block_ratios: tuple
    converges: bool
    n_max: int


def psi_membership_series(w, pair: YoungPair, big_n: float, n_max: int) -> SeriesReport:
    """Layerwise partial sums of Psi(big_n / w(s)) over word-metric balls.

    Convergence is judged by dyadic block sums: geometric decay of the block
    ratios is evidence that 1/w lies in the Psi-space; ratios at or above 1
    flag divergence.  A finite group terminates the series, which counts as
    convergent.
    """
    from .groups import ball_table  # local import to keep module deps one-way

    psi = pair.psi
    table = ball_table(w.group, n_max)
    partial = []
    total = 0.0
    layer_sums = []
    for layer in table.layers:
        s_layer = 0.0
        for g in layer:
            s_layer += psi(big_n / w(g))
        total += s_layer
        layer_sums.append(s_layer)
        partial.append(total)
    # dyadic blocks over layer index
    ratios = []
    k = 1
    prev = None
    while 2**k <= n_max:
        lo, hi = 2 ** (k - 1) + 1, 2**k
        block = float(sum(layer_sums[lo : hi + 1]))
        if prev is not None:
            ratios.append(block / prev if prev > 0 else 0.0)
        prev = block
        k += 1
    tail = [r for r in ratios[-3:]]
    converges = bool(tail) and all(r < 0.98 for r in tail)
    if not tail:
        converges = math.isfinite(total)
    return SeriesReport(
        partial_sums=tuple(partial),
        block_ratios=tuple(ratios),
        converges=converges,
        n_max=n_max,
    )


# ---------------------------------------------------------------------------
# Sampling and serialization


def random_supported_function(
    group: Group,
    rng: np.random.Generator,
    max_support: int = 6,
    radius: int = 5,
    real: bool = False,
) -> SupportedFunction:
    """A random finitely supported function: support from short random
    words in the generators, values standard complex Gaussian."""
    gens = group.generators
    size = int(rng.integers(1, max_support + 1))
    values = {}
    for _ in range(size):
        g = group.identity
        for _ in range(int(rng.integers(0, radius + 1))):
            g = group.op(g, gens[int(rng.integers(0, len(gens)))])
        v = complex(rng.standard_normal(), 0.0 if real else rng.standard_normal())
        values[g] = values.get(g, 0) + v
    f = SupportedFunction(group, values)
    if f.is_zero():
        return delta(group, value=1.0)
    return f


def function_to_json(f: SupportedFunction) -> dict:
    from .groups import element_to_list

    return {
        "group": f.group.name,
        "support": [
            {"elt": element_to_list(s), "re": float(v.real), "im": float(v.imag)}
            for s, v in f.values.items()
        ],
    }


def function_from_json(doc: dict, group: Group | None = None) -> SupportedFunction:
    """The function of a ``function_to_json`` document; ValueError on any
    document of another shape."""
    from .groups import element_from_list, parse_group

    if not isinstance(doc, dict):
        raise ValueError('expected a JSON object with "group" and "support" keys')
    if group is None:
        if not isinstance(doc.get("group"), str):
            raise ValueError('no group spec: "group" must be a string such as "Z^d:2"')
        group = parse_group(doc["group"])
    elif doc.get("group") not in (None, group.name):
        raise ValueError(f"group spec mismatch: file says {doc['group']!r}, expected {group.name!r}")
    support = doc.get("support", [])
    if not isinstance(support, list):
        raise ValueError('"support" must be a list of {"elt", "re", "im"} objects')
    values = {}
    seen = {}
    for i, entry in enumerate(support):
        if not isinstance(entry, dict) or "elt" not in entry:
            raise ValueError(f'support entry at index {i} is not an object with an "elt" key')
        s = element_from_list(group, entry["elt"])
        try:
            v = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
        except TypeError:
            raise ValueError(f'support entry at index {i}: "re" and "im" must be numbers') from None
        if v == 0:
            raise ValueError(f"zero-value entry at index {i}: {entry['elt']}")
        if s in seen:
            raise ValueError(
                f"duplicate element {entry['elt']} at indices {seen[s]} and {i}"
            )
        seen[s] = i
        values[s] = v
    return SupportedFunction.from_canonical(group, values)
