"""Finitely supported functions and their Orlicz-space norms.

Under the counting measure the modular of f is sum Phi(|f(s)|) over the
support.  The Luxemburg norm

    N_Phi(f) = inf { k > 0 : modular(f / k) <= 1 }

is the root of the monotone function -log modular(f / k) (an infinite
modular counts as "greater than one").  The Orlicz (dual) norm is computed
through the Amemiya form

    ||f||_Phi = inf_{k > 0} (1 + modular(k f)) / k,

whose objective has slope (G(k) - 1) / k^2 with

    G(k) = sum [k |f| Phi'(k |f|) - Phi(k |f|)] = sum Psi(Phi'(k |f|)),

the second form by Young's equality; G is nondecreasing, so the infimum is
at the least k with G(k) >= 1 (Krasnosel'skii and Rutickii, Convex
Functions and Orlicz Spaces, section 10; Hudzik and Maligranda, Amemiya
norm equals Orlicz norm in general, Indag. Math. 11, 2000).  Both roots are
bracketed by ``numeric.expand_bracket_log``, from k = max |f| and from
k = 1 / max |f|, and found by ``numeric.secant_bisect_log`` on log modular
and log G, which are close to linear in log k where Phi is close to a
power.  The Luxemburg search stops at a bracket of relative width
``BISECT_TOL`` and returns its feasible end; the Amemiya search stops at a
bracket of k* of relative width ``AMEMIYA_TOL`` and evaluates the objective
at the end where G is closer to 1, which puts it about 1e-18 relative above
its minimum.  A NaN or +inf G (Phi and Phi' both overflow) counts as above
1.  Where G stays below 1 (``L1``, a ``pw:`` table with bounded
x Phi' - Phi) the objective decreases for ever, and the norm is its value at
k = 2^``AMEMIYA_REACH`` / max |f|, within 2^-50 relative of the limit.

For a piecewise-linear Phi (``YoungFunction.kinks``: ``L1`` and both
members of a ``pw:`` pair) G is a step function, which a root search would
only bracket.  Between the points k = kink / |f(s)| the objective is
A / k + B, so its infimum is at one of them; it is convex in 1/k, so a
bisection on neighbouring pairs of the sorted points finds the smallest
value.  Both norms only ever report values they evaluated, so the
Luxemburg result satisfies its defining modular inequality and the
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
(at most ``LP_MAX_STEPS`` steps, then the root search).  S is formed as
M^p sum (|f| / M)^p with M = max |f|, so no power of |f| itself overflows
or underflows.

Both norms are homogeneous, so they run on |f| 2^-e, with the exact power
of two 2^e putting max |f| 2^-e in [1, 2), and multiply the result by 2^e.
Every step of the closed forms and the searches commutes with that scaling
while the scaled values stay normal floats, so it changes no result there;
it keeps a subnormal |f| from overflowing k*, which made such norms +inf
or NaN.

``modular``, each Luxemburg feasibility test and each Amemiya objective
value form their n terms in one call of the Young function's array form
(``YoungFunction.many``) and add them with ``np.add.accumulate``, left to
right from the start value (``np.sum`` would add pairwise).  numpy's ufuncs may
differ from ``math`` by an ulp; ``dataclasses.replace(phi, array_fn=None)``
maps the ``math``-based scalar eval instead and is the tests' oracle.
Against it, each term is within a few ulp (of the larger operand where the
formula subtracts, as in e^x - x - 1) with +inf at the same points, sums
are added in the same order, and norms agree within 1e-11 relative.
Forms that use the same IEEE operations as their scalar eval (``L1`` and
``pw:`` tables) give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import Group
from .numeric import expand_bracket_log, secant_bisect_log
from .young import YoungFunction, YoungPair

# relative width at which the Luxemburg root search stops
BISECT_TOL = 1e-12
# the Luxemburg bracket search gives up at 2^1000 max|f|, which only a Phi
# still below 1 at 2^-1000 would need
LUX_REACH = 2.0**1000
# relative width of the bracket of the Amemiya minimiser k*
AMEMIYA_TOL = 1e-9
# where G never reaches 1 the norm is the objective at 2^AMEMIYA_REACH / max|f|
AMEMIYA_REACH = 50
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
    """start + terms[0] + terms[1] + ..., added left to right.  Terms are
    never NaN or negative, so an +inf term carries through every later
    partial sum and the total is +inf."""
    return float(np.add.accumulate(np.concatenate(((start,), terms)))[-1])


def modular(f: SupportedFunction, phi: YoungFunction) -> float:
    """sum over the support of Phi(|f(s)|); may be +inf."""
    # Python's abs per value: np.abs of a complex differs in the last bit
    mags = np.fromiter(map(abs, f.values.values()), dtype=float, count=len(f.values))
    return _sum_in_loop_order(phi.many(mags), 0.0)


def _normalized_magnitudes(f: SupportedFunction) -> tuple:
    """(|f| 2^-e, max |f| 2^-e, 2^e), the maximum in [1, 2).  A norm of a
    non-finite value is undefined (and would stall the bracket search), so
    it is rejected."""
    mags = [abs(v) for v in f.values.values()]
    if not all(map(math.isfinite, mags)):
        raise ValueError("norms need finite function values")
    big = max(mags)
    e = math.frexp(big)[1] - 1
    return np.ldexp(mags, -e), math.ldexp(big, -e), 2.0**e


def _power_sum(mags: np.ndarray, top: float, p: float) -> float:
    """T = sum (|f| / M)^p with M = max |f| = top, so that S = sum |f|^p =
    M^p T without overflowing or underflowing M^p."""
    return math.fsum((m / top) ** p for m in mags.tolist())


def _log(x: float) -> float:
    """log x, -inf at 0 and NaN at NaN."""
    return math.log(x) if x > 0.0 else -math.inf if x == 0.0 else x


def luxemburg_norm(f: SupportedFunction, phi: YoungFunction) -> float:
    """inf { k > 0 : modular(f / k) <= 1 }: in closed form for x^p / p,
    by a secant-bisection to ``BISECT_TOL`` relative width otherwise.

    The returned k satisfies modular(f / k) <= 1 (the feasible side), so
    N_Phi(f) <= 1 iff modular(f) <= 1 also holds for the computed value.
    """
    if f.is_zero():
        return 0.0
    mags, top, unit = _normalized_magnitudes(f)

    def slack(k: float) -> float:
        # >= 0 exactly where modular(f / k) <= 1; -inf for an infinite modular
        return -_log(_sum_in_loop_order(phi.many(mags / k), 0.0))

    if phi.power is not None:
        # modular(f / N) = S / (p N^p) = 1 at N = (S / p)^(1/p); step up from
        # its rounded value to the first float the predicate accepts
        p = phi.power
        n = top * (_power_sum(mags, top, p) / p) ** (1.0 / p)
        for _ in range(LP_MAX_STEPS):
            if slack(n) >= 0.0:
                return n * unit
            n = math.nextafter(n, math.inf)

    bracket = expand_bracket_log(slack, top, LUX_REACH)
    if bracket is None:
        raise ArithmeticError("luxemburg bracket expansion failed")
    _, _, hi, _ = secant_bisect_log(slack, *bracket, BISECT_TOL)
    return hi * unit


def _min_at_kinks(objective, kinks: tuple, mags: np.ndarray, k_end: float) -> float:
    """The smallest objective value over k = kink / |f(s)| and k_end, for a
    piecewise-linear Phi.  A point whose k |f(s)| rounds past its own kink
    is moved down one float, so an infinite jump there is not crossed."""
    mags = mags[mags > 0.0]
    kinks = np.asarray(kinks, dtype=float)[:, None]
    with np.errstate(over="ignore"):
        ks = kinks / mags
        finite = np.isfinite(ks)
        ks = np.where(ks * mags > kinks, np.nextafter(ks, 0.0), ks)[finite]
    ks = np.sort(np.append(ks, k_end))
    lo, hi = 0, len(ks) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if objective(float(ks[mid])) <= objective(float(ks[mid + 1])):
            hi = mid
        else:
            lo = mid + 1
    return objective(float(ks[lo]))


def orlicz_norm(f: SupportedFunction, pair: YoungPair) -> float:
    """Orlicz norm through the Amemiya form, at the exact minimiser for
    x^p / p, at the best kink point for a piecewise-linear Phi, and at the
    root of Young's equality G(k) = 1 otherwise; an upper approximation of
    the dual-ball supremum it equals."""
    if f.is_zero():
        return 0.0
    phi = pair.phi
    mags, top, unit = _normalized_magnitudes(f)

    def objective(k: float) -> float:
        return _sum_in_loop_order(phi.many(k * mags), 1.0) / k

    if phi.power is not None:
        # d/dk (1/k + k^(p-1) S / p) = 0 at k^p = p / ((p - 1) S)
        p = phi.power
        k = (p / ((p - 1.0) * _power_sum(mags, top, p))) ** (1.0 / p) / top
        return objective(k) * (1.0 + LP_ROUND_UP) * unit

    k_end = 2.0**AMEMIYA_REACH / top
    if phi.kinks is not None:
        return _min_at_kinks(objective, phi.kinks, mags, k_end) * unit
    if phi.derivative is None:
        raise ValueError(f"the Orlicz norm of {phi.name} needs its derivative or its kinks")

    def log_g(k: float) -> float:
        # NaN where Phi and Phi' both overflow
        x = k * mags
        with np.errstate(all="ignore"):
            return _log(float(np.sum(x * phi.derivative(x) - phi.many(x))))

    bracket = expand_bracket_log(log_g, 1.0 / top, k_end)
    if bracket is None:
        return objective(k_end) * unit
    lo, g_lo, hi, g_hi = secant_bisect_log(log_g, *bracket, AMEMIYA_TOL)
    return objective(hi if g_hi <= -g_lo else lo) * unit


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


# layers 3-4 against layer 2 give the first dyadic block ratio
SERIES_MIN_LAYERS = 4


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
    convergent.  The first block ratio needs n_max >= 4; a smaller n_max
    is a ValueError, as its verdict would rest on no ratio at all.
    """
    from .groups import ball_table  # local import to keep module deps one-way

    if n_max < SERIES_MIN_LAYERS:
        raise ValueError(f"psi-series needs n_max >= {SERIES_MIN_LAYERS} for one block ratio, got {n_max}")

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
