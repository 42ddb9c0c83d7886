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

``orlicz_norms`` and ``luxemburg_norms`` give one norm per row of a
``FunctionBatch``, each equal to the scalar norm of that row bit for bit;
the scalar norms run the same code on a batch of one row.  For x^p / p the
closed forms run on the padded (n, m) array of scaled magnitudes: one
objective or modular evaluation for all rows, and nextafter steps on the
rows the modular test has not yet accepted (padding adds Phi(0) = 0 after
a row's terms, which leaves its sum as it is).  Rows left after
``LP_MAX_STEPS`` checks, and every row of any other Phi, take the root
searches one row at a time.  The power sums and k* and N use Python's
``**``, which is libm's ``pow``: ``np.power`` rounded differently in 162
of 200,000 squares and in about 5% of values at a non-integer p (numpy
2.4, x86-64), and a power sum an ulp away can move a norm.  |f| is
``np.hypot`` of the parts, the bits of Python's ``abs`` of a complex
(``np.abs`` of a complex differs in about a third of values).

``dual_pairing_bounds`` is ``dual_pairing_bound`` for every row pair of two
batches: the four norms and the modular run batched, and each pairing sum
is added in the order of the set of common points, as the scalar sum adds
it (no array order reproduces that order past two terms).  Both build
their report with the one ``_holder_report``.

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

from .groups import Group, ball_table, row_classes
from .numeric import expand_bracket_log, secant_bisect_log
from .weights import length_values, weight_values
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
        """Pointwise product with a callable on group elements, evaluated
        through ``weights.weight_values``."""
        return SupportedFunction.from_canonical(
            self.group, {s: v * x for (s, v), x in zip(self.values.items(), weight_values(w, self.values))}
        )

    def div_pointwise(self, w) -> "SupportedFunction":
        return SupportedFunction.from_canonical(
            self.group, {s: v / x for (s, v), x in zip(self.values.items(), weight_values(w, self.values))}
        )


def _require_same_group(f: SupportedFunction, g: SupportedFunction) -> None:
    if f.group is not g.group and f.group.name != g.group.name:
        raise GroupMismatchError(f"{f.group.name} vs {g.group.name}")


def delta(group: Group, s=None, value: complex = 1.0) -> SupportedFunction:
    """The point mass at s (default: the identity)."""
    if s is None:
        s = group.identity
    return SupportedFunction(group, {s: value})


# ---------------------------------------------------------------------------
# Norms


def l1_norm(f: SupportedFunction) -> float:
    return float(sum(abs(v) for v in f.values.values()))


def weighted_l1_norm(f: SupportedFunction, w) -> float:
    return float(sum(abs(v) * x for v, x in zip(f.values.values(), weight_values(w, f.values))))


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


def _magnitudes(values: np.ndarray) -> tuple:
    """(|f| 2^-e, max |f| 2^-e, 2^e) for each row of an (n, m) complex
    array, the exact power of two 2^e putting the row maximum in [1, 2):
    an array, a list and an array.  np.hypot rounds as Python's abs of a
    complex (np.abs does not).  A norm of a non-finite value is undefined
    (and would stall the bracket search), so it is rejected."""
    mags = np.hypot(values.real, values.imag)
    big = mags.max(axis=1)
    if not np.isfinite(big).all():
        raise ValueError("norms need finite function values")
    e = np.frexp(big)[1] - 1
    return np.ldexp(mags, -e[:, None]), np.ldexp(big, -e).tolist(), np.ldexp(1.0, e)


def _values(f: SupportedFunction) -> np.ndarray:
    """The values of f as one row: a (1, n) complex array."""
    return np.fromiter(f.values.values(), dtype=complex, count=len(f.values))[None]


def _sums_in_loop_order(terms: np.ndarray, start: float) -> np.ndarray:
    """``_sum_in_loop_order`` of each row of an (n, m) array, which it
    overwrites: start + terms[i, 0] is terms[i, 0] + start, so the start
    goes into the first column."""
    terms[:, 0] += start
    return np.add.accumulate(terms, axis=1)[:, -1]


def _power_sums(mags: np.ndarray, tops: list, sizes: list, p: float) -> list:
    """T = sum (|f| / M)^p per row, with M = max |f| = top, so that S =
    sum |f|^p = M^p T without overflowing or underflowing M^p.  Each power
    is Python's ** (libm pow) and each sum correctly rounded."""
    return [math.fsum((m / top) ** p for m in row[:n]) for row, n, top in zip(mags.tolist(), sizes, tops)]


def _log(x: float) -> float:
    """log x, -inf at 0 and NaN at NaN."""
    return math.log(x) if x > 0.0 else -math.inf if x == 0.0 else x


def _row_norms(batch: "FunctionBatch", norms, phi: YoungFunction) -> np.ndarray:
    """``norms(mags, tops, sizes, phi)`` (``_luxemburg`` or ``_orlicz``) of
    the nonzero rows of a FunctionBatch, times their 2^e; 0.0 for a zero
    row."""
    out = np.zeros(len(batch))
    live = batch.sizes > 0
    if live.any():
        mags, tops, units = _magnitudes(batch.values[live])
        out[live] = norms(mags, tops, batch.sizes[live].tolist(), phi) * units
    return out


def _luxemburg(mags: np.ndarray, tops: list, sizes: list, phi: YoungFunction) -> np.ndarray:
    """N_Phi of each row of normalized magnitudes (zero padded past its
    size): the x^p / p closed form on all rows at once, the root search row
    by row for the rows it leaves and for any other Phi."""
    if phi.power is None:
        return np.array([_luxemburg_search(mags[i, :n], top, phi) for i, (n, top) in enumerate(zip(sizes, tops))])
    # modular(f / N) = S / (p N^p) = 1 at N = (S / p)^(1/p); step each row
    # up from its rounded value to the first float it accepts (a row that
    # accepts keeps its value, so checking it again changes nothing)
    p = phi.power
    norms = np.array([top * (s / p) ** (1.0 / p) for s, top in zip(_power_sums(mags, tops, sizes, p), tops)])
    done = _sums_in_loop_order(phi.many(mags / norms[:, None]), 0.0) <= 1.0
    for _ in range(LP_MAX_STEPS - 1):
        if done.all():
            return norms
        norms = np.where(done, norms, np.nextafter(norms, math.inf))
        done = _sums_in_loop_order(phi.many(mags / norms[:, None]), 0.0) <= 1.0
    for i in np.flatnonzero(~done).tolist():
        norms[i] = _luxemburg_search(mags[i, : sizes[i]], tops[i], phi)
    return norms


def _luxemburg_search(mags: np.ndarray, top: float, phi: YoungFunction) -> float:
    """The Luxemburg root search on one row: the feasible end of a bracket
    of relative width ``BISECT_TOL``."""

    def slack(k: float) -> float:
        # >= 0 exactly where modular(f / k) <= 1; -inf for an infinite modular
        return -_log(_sum_in_loop_order(phi.many(mags / k), 0.0))

    bracket = expand_bracket_log(slack, top, LUX_REACH)
    if bracket is None:
        raise ArithmeticError("luxemburg bracket expansion failed")
    _, _, hi, _ = secant_bisect_log(slack, *bracket, BISECT_TOL)
    return hi


def luxemburg_norm(f: SupportedFunction, phi: YoungFunction) -> float:
    """inf { k > 0 : modular(f / k) <= 1 }: in closed form for x^p / p,
    by a secant-bisection to ``BISECT_TOL`` relative width otherwise.

    The returned k satisfies modular(f / k) <= 1 (the feasible side), so
    N_Phi(f) <= 1 iff modular(f) <= 1 also holds for the computed value.
    """
    if f.is_zero():
        return 0.0
    mags, tops, units = _magnitudes(_values(f))
    return float(_luxemburg(mags, tops, [len(f.values)], phi)[0] * units[0])


def luxemburg_norms(batch: "FunctionBatch", phi: YoungFunction) -> np.ndarray:
    """``luxemburg_norm`` of every row of a FunctionBatch, bit for bit."""
    return _row_norms(batch, _luxemburg, phi)


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


def _orlicz(mags: np.ndarray, tops: list, sizes: list, phi: YoungFunction) -> np.ndarray:
    """The Amemiya value of each row of normalized magnitudes (zero padded
    past its size): the x^p / p closed form on all rows at once, the search
    row by row for any other Phi."""
    if phi.power is None:
        return np.array([_amemiya_search(mags[i, :n], top, phi) for i, (n, top) in enumerate(zip(sizes, tops))])
    # d/dk (1/k + k^(p-1) S / p) = 0 at k^p = p / ((p - 1) S)
    p = phi.power
    ks = np.array([(p / ((p - 1.0) * s)) ** (1.0 / p) / top for s, top in zip(_power_sums(mags, tops, sizes, p), tops)])
    return _sums_in_loop_order(phi.many(ks[:, None] * mags), 1.0) / ks * (1.0 + LP_ROUND_UP)


def _amemiya_search(mags: np.ndarray, top: float, phi: YoungFunction) -> float:
    """The Amemiya value of one row at the best kink point for a
    piecewise-linear Phi, and at the root of Young's equality G(k) = 1
    otherwise."""

    def objective(k: float) -> float:
        return _sum_in_loop_order(phi.many(k * mags), 1.0) / k

    k_end = 2.0**AMEMIYA_REACH / top
    if phi.kinks is not None:
        return _min_at_kinks(objective, phi.kinks, mags, k_end)
    if phi.derivative is None:
        raise ValueError(f"the Orlicz norm of {phi.name} needs its derivative or its kinks")

    def log_g(k: float) -> float:
        # NaN where Phi and Phi' both overflow
        x = k * mags
        with np.errstate(all="ignore"):
            return _log(float(np.sum(x * phi.derivative(x) - phi.many(x))))

    bracket = expand_bracket_log(log_g, 1.0 / top, k_end)
    if bracket is None:
        return objective(k_end)
    lo, g_lo, hi, g_hi = secant_bisect_log(log_g, *bracket, AMEMIYA_TOL)
    return objective(hi if g_hi <= -g_lo else lo)


def orlicz_norm(f: SupportedFunction, pair: YoungPair) -> float:
    """Orlicz norm through the Amemiya form, at the exact minimiser for
    x^p / p, at the best kink point for a piecewise-linear Phi, and at the
    root of Young's equality G(k) = 1 otherwise; an upper approximation of
    the dual-ball supremum it equals."""
    if f.is_zero():
        return 0.0
    mags, tops, units = _magnitudes(_values(f))
    return float(_orlicz(mags, tops, [len(f.values)], pair.phi)[0] * units[0])


def orlicz_norms(batch: "FunctionBatch", pair: YoungPair) -> np.ndarray:
    """``orlicz_norm`` of every row of a FunctionBatch, bit for bit."""
    return _row_norms(batch, _orlicz, pair.phi)


def _pairing(f: dict, v: dict) -> float:
    """sum |f(s) v(s)| over the common support, added in the order of the
    set ``f.keys() & v.keys()``."""
    return float(sum(abs(f[s] * v[s]) for s in f.keys() & v.keys()))


def _min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Python's min(a, b) per element: b only where b < a."""
    return np.where(b < a, b, a)


def _holder_report(pairing, lux_f, orl_v, orl_f, lux_v, modular_v) -> dict:
    """The report of ``dual_pairing_bounds`` from arrays of the pairing
    sums, N_Phi(f), ||v||_Psi, ||f||_Phi, N_Psi(v) and modular(v, Psi)."""
    bound = _min(lux_f * orl_v, orl_f * lux_v)
    return {
        "pairing_l1": pairing,
        "luxemburg_f": lux_f,
        "orlicz_v": orl_v,
        "orlicz_f": orl_f,
        "luxemburg_v": lux_v,
        "holder_bound": bound,
        "holder_ok": pairing <= bound,
        # the certificate applies where modular(v, Psi) <= 1
        "dual_certificate_ok": ~(modular_v <= 1.0) | _leq(pairing, orl_f),
    }


def _dual_pair(pair: YoungPair) -> YoungPair:
    """(Psi, Phi): the pair whose Orlicz norm is ||.||_Psi."""
    return YoungPair(name=f"dual({pair.name})", phi=pair.psi, psi=pair.phi)


def dual_pairing_bounds(f: "FunctionBatch", v: "FunctionBatch", pair: YoungPair) -> dict:
    """``dual_pairing_bound`` of each row pair (f_i, v_i) of two
    FunctionBatches, bit for bit, as a dict of arrays.  The norms and the
    modular run batched; the pairing sums run row by row, in the order of
    the common support's set, as the scalar sum adds them."""
    _require_same_group(f, v)
    pairing = np.array([_pairing(a.values, b.values) for a, b in zip(f.functions(), v.functions())])
    norms = (luxemburg_norms(f, pair.phi), orlicz_norms(v, _dual_pair(pair)),
             orlicz_norms(f, pair), luxemburg_norms(v, pair.psi))
    terms = np.zeros(v.values.shape)
    terms[v.valid] = pair.psi.many(np.hypot(v.values.real, v.values.imag)[v.valid])
    return _holder_report(pairing, *norms, _sums_in_loop_order(terms, 0.0))


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
    pairing = _pairing(f.values, v.values)
    norms = (luxemburg_norm(f, pair.phi), orlicz_norm(v, _dual_pair(pair)),
             orlicz_norm(f, pair), luxemburg_norm(v, pair.psi))
    rep = _holder_report(*(np.array([x]) for x in (pairing, *norms, modular(v, pair.psi))))
    return {key: value[0].item() for key, value in rep.items()}


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
    is a ValueError, as its verdict would rest on no ratio at all.  So is
    N <= 0: at N = 0 every term is Psi(0) = 0, whatever the weight.

    A weight with ``of_tau`` has one value per length, so layer n adds
    |S_n| copies of one term: ``of_tau`` and Psi run once per length, on
    the group's sphere sizes, with no BFS where those have a closed form.
    The product |S_n| Psi rounds once, to the correctly rounded sum of the
    |S_n| terms; adding them one at a time gives the same float when
    |S_n| <= 2 (Z^1, Z_n) and may differ in the last bits on larger
    spheres.  Any other weight is evaluated at every element of the BFS
    layers, and each layer's terms are added left to right.
    """
    if n_max < SERIES_MIN_LAYERS:
        raise ValueError(f"psi-series needs n_max >= {SERIES_MIN_LAYERS} for one block ratio, got {n_max}")
    if not big_n > 0:
        raise ValueError(f"psi-series needs N > 0, got {big_n}")

    psi = pair.psi
    layer_sums = np.zeros(n_max + 1)
    if w.of_tau is not None:
        sizes, values = length_values(w, n_max)
        layer_sums[: len(sizes)] = np.asarray(sizes, dtype=float) * psi.many(big_n / values)
    else:
        layers = ball_table(w.group, n_max).layers
        lens = np.array([len(layer) for layer in layers])
        values = np.array(weight_values(w, (g for layer in layers for g in layer)), dtype=float)
        # one zero-padded row per layer; accumulate adds along a row in order
        rows = np.zeros((len(layers), lens.max()))
        rows[np.arange(lens.max()) < lens[:, None]] = psi.many(big_n / values)
        layer_sums[: len(layers)] = np.add.accumulate(rows, axis=1)[:, -1]
    partial = np.add.accumulate(layer_sums).tolist()
    layer_sums = layer_sums.tolist()
    total = partial[-1]
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


@dataclass(frozen=True, eq=False)
class FunctionBatch:
    """Finitely supported functions f_0, ..., f_{n-1} on one group as padded
    arrays: row i holds the support points of f_i in its dict order in
    ``coords[i, :sizes[i]]`` (int64, shape (n, m, k)) and their values in
    ``values[i, :sizes[i]]`` (complex, shape (n, m)).  Padding is the
    identity with value 0, and m >= 1."""

    group: Group
    coords: np.ndarray
    values: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def valid(self) -> np.ndarray:
        """(n, m) mask of the support points."""
        return np.arange(self.values.shape[1]) < self.sizes[:, None]

    @property
    def rows(self) -> np.ndarray:
        """(n, m) row index of every point, n at the padding: the ``rows``
        of ``keyed_sum`` for entries laid out like this batch."""
        return np.where(self.valid, np.arange(len(self))[:, None], len(self))

    def function(self, i: int) -> SupportedFunction:
        n = int(self.sizes[i])
        points = map(tuple, self.coords[i, :n].tolist())
        return SupportedFunction.from_canonical(self.group, dict(zip(points, self.values[i, :n].tolist())))

    def functions(self) -> list:
        return [self.function(i) for i in range(len(self))]

    def take(self, rows) -> "FunctionBatch":
        """The batch of the functions at ``rows``, padded to the widest."""
        sizes = self.sizes[rows]
        width = max(int(sizes.max(initial=0)), 1)
        return FunctionBatch(self.group, self.coords[rows, :width], self.values[rows, :width], sizes)

    @staticmethod
    def empty(group: Group, n: int, width: int) -> "FunctionBatch":
        """n zero functions with room for ``width`` points each."""
        coords = np.empty((n, max(width, 1), len(group.identity)), dtype=np.int64)
        coords[...] = group.identity
        return FunctionBatch(group, coords, np.zeros(coords.shape[:2], dtype=complex), np.zeros(n, dtype=np.intp))

    @staticmethod
    def of(group: Group, functions: list) -> "FunctionBatch | None":
        """The batch of these functions, or None when a coordinate is past
        +-2^31, where a product of two (as H3 forms) could overflow int64."""
        batch = FunctionBatch.empty(group, len(functions), max(map(len, (f.values for f in functions))))
        for i, f in enumerate(functions):
            n = len(f.values)
            batch.sizes[i] = n
            if n:
                try:
                    batch.coords[i, :n] = list(f.values)
                except OverflowError:
                    return None
                batch.values[i, :n] = list(f.values.values())
        return batch if -2**31 < batch.coords.min() and batch.coords.max() < 2**31 else None


def keyed_sum(group: Group, n: int, rows: np.ndarray, coords: np.ndarray, values: np.ndarray,
              classes=None) -> FunctionBatch:
    """The n functions f_i = sum of values[e] delta_{coords[e]} over the
    entries e with rows[e] == i (entries of row n are left out, such as
    padding), for entries listed row by row: each point's values added in
    entry order from 0.0, the points in order of first occurrence, exact
    zeros dropped.  That is ``SupportedFunction`` built by adding the
    entries one at a time into a dict, bit for bit.  One keying of the
    (row, point) pairs, ``groups.row_classes(coords, rows)`` (``classes``,
    if the caller has it), and one ``np.bincount`` per part."""
    if classes is None:
        classes = row_classes(coords, rows)
    _, first, inverse = classes
    # number the distinct (row, point) keys by first occurrence: dict order
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    labels = rank[inverse.reshape(-1)]
    # bincount adds in input order starting from 0.0, as the dict does from 0
    re = np.bincount(labels, weights=values.real.reshape(-1), minlength=len(order))
    im = np.bincount(labels, weights=values.imag.reshape(-1), minlength=len(order))
    at = first[order]
    keep = ((re != 0.0) | (im != 0.0)) & (rows[at] < n)
    at = at[keep]
    out_rows = rows[at]
    sizes = np.bincount(out_rows, minlength=n)
    pos = np.arange(len(at)) - (np.cumsum(sizes) - sizes)[out_rows]
    out = FunctionBatch.empty(group, n, int(sizes.max(initial=0)))
    out.sizes[:] = sizes
    out.coords[out_rows, pos] = coords[at]
    out.values.real[out_rows, pos] = re[keep]
    out.values.imag[out_rows, pos] = im[keep]
    return out


def draw_supported_function(group: Group, rng: np.random.Generator, max_support: int = 6,
                            radius: int = 5, real: bool = False) -> list:
    """The random choices behind ``random_supported_function``: up to
    ``max_support`` points, each a (word, value) pair of a random word of at
    most ``radius`` generator indices and a standard complex Gaussian value
    (real part first).  A draw is a list of scalar RNG calls, so a sequence
    of draws consumes the generator exactly as a sequence of
    ``random_supported_function`` calls does."""
    n_gens = len(group.generators)
    integers, normal = rng.integers, rng.standard_normal
    points = []
    for _ in range(int(integers(1, max_support + 1))):
        word = [int(integers(0, n_gens)) for _ in range(int(integers(0, radius + 1)))]
        points.append((word, complex(normal(), 0.0 if real else normal())))
    return points


def build_supported_functions(group: Group, draws: list) -> FunctionBatch:
    """The functions of ``draw_supported_function`` draws as one batch.
    Every point's word is multiplied out left to right with one
    ``op_many`` per step over the points of all draws (words padded with
    the identity), repeated points are summed by ``keyed_sum``, and a draw
    whose values cancel to zero becomes the point mass 1 at the identity."""
    words = [word for points in draws for word, _ in points]
    rows = np.repeat(np.arange(len(draws)), list(map(len, draws)))
    gens = np.array(group.generators + (group.identity,), dtype=np.int64)
    steps = max(map(len, words))
    pad = [len(group.generators)]
    index = np.array([word + pad * (steps - len(word)) for word in words], dtype=np.intp).reshape(len(words), steps)
    coords = np.broadcast_to(np.array(group.identity, dtype=np.int64), (len(words), len(group.identity)))
    for step in index.T:
        coords = group.op_many(coords, gens[step])
    values = np.array([v for points in draws for _, v in points], dtype=complex)
    batch = keyed_sum(group, len(draws), rows, coords, values)
    cancelled = batch.sizes == 0
    batch.values[cancelled, 0] = 1.0
    batch.sizes[cancelled] = 1
    return batch


def random_supported_function(
    group: Group,
    rng: np.random.Generator,
    max_support: int = 6,
    radius: int = 5,
    real: bool = False,
) -> SupportedFunction:
    """A random finitely supported function: support from short random
    words in the generators, values standard complex Gaussian."""
    draw = draw_supported_function(group, rng, max_support, radius, real)
    return build_supported_functions(group, [draw]).function(0)


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
