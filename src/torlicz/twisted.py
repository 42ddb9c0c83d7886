"""Twisted convolution, involution, and the algebra-level verifiers.

The twisted convolution of finitely supported f, g under a cocycle Omega is

    (f *_O g)(t) = sum_s f(s) g(s^{-1} t) Omega(s, s^{-1} t),

summed in the order of the double loop over the supports (cocycle twists
break the translation invariance that fast transforms need).
``convolve_batch`` convolves the rows of two ``orlicz.FunctionBatch``es at
once: all pair products (``Group.op_many``) and cocycle values
(``Cocycle.table``, which maps the scalar calls for a cocycle without a
table form) are formed in numpy, and ``orlicz.keyed_sum`` adds the terms
keyed on (row, product) with ``np.bincount`` in loop order, so each row is
equal to the loop's result bit for bit, keys in the same order.
``twisted_convolve`` runs it as a batch of one from ``TABLE_MIN_PAIRS``
support pairs on, and the scalar loop ``_twisted_convolve_exact`` below
that; the loop is also the test oracle.  All groups here are discrete, so
the modular function is 1 and the involution reads

    f^*(s) = conj(f(s^{-1})) conj(Omega_T(s, s^{-1}))

for a unimodular phase cocycle Omega_T.

The checkers verify one-sided inequalities with every norm computed by the
orlicz module; margins are reported, and a checker must never flag a valid
input.  They take all sampled trials of a check as batches.  Constants
entering the bounds (sup |Omega|, weak-subadditivity C, domination M) are
taken over balls covering the supports involved, which is exactly what the
inequalities need.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cocycles import Cocycle, DominationPair, complex_product, polar, real_quotient
from .groups import BudgetError, ball_elements, row_classes, word_length
from .orlicz import (
    FunctionBatch,
    SupportedFunction,
    keyed_sum,
    _leq,
    _min,
    _require_same_group,
    l1_norm,
    luxemburg_norm,
    orlicz_norm,
    orlicz_norms,
    weighted_l1_norm,
)
from .weights import (
    Weight,
    check_lss_domination,
    check_weak_subadditive,
    constant_weight,
    quotient_weight,
    weight_table,
)
from .young import YoungPair

# Below this many support pairs the scalar loop wins against the fixed cost
# of the table path's numpy calls.  Measured crossover (2-core x86-64,
# Python 3.11, numpy 2.4): 64-100 pairs.
TABLE_MIN_PAIRS = 128

# Tolerance on |Omega|: unimodular in involution, the coboundary in check_intertwining
MODULUS_TOL = 1e-9
# Support size of f^n above which spectral_radius_estimate raises BudgetError
SUPPORT_CAP = 50_000
# Bytes of (|G|, |G|) complex convolution matrices finite_symmetry_check
# builds and decomposes at once (one matrix at least): its memory is then
# bounded in the number of trials, where a large finite group makes each
# matrix big
SYMMETRY_MATRIX_BYTES = 2**24


@dataclass(frozen=True)
class AlgebraContext:
    """Cocycle, Young pair, and the weights entering the weighted norms:
    ``weight`` is the norm weight sigma, ``aux_weight`` the comparison
    weight omega whose quotient rho = sigma/omega drives the differential
    bound.  All components must live on one group."""

    cocycle: Cocycle
    pair: YoungPair
    weight: Weight | None = None
    aux_weight: Weight | None = None

    def __post_init__(self):
        name = self.cocycle.group.name
        for w in (self.weight, self.aux_weight):
            if w is not None and w.group.name != name:
                raise ValueError("context components live on different groups")


@dataclass(frozen=True)
class ResidualReport:
    value: float
    witness: object = None


def twisted_convolve(f: SupportedFunction, g: SupportedFunction, omega: Cocycle) -> SupportedFunction:
    _require_same_group(f, g)
    if len(f.values) * len(g.values) >= TABLE_MIN_PAIRS:
        h = _twisted_convolve_table(f, g, omega)
        if h is not None:
            return h
    return _twisted_convolve_exact(f, g, omega)


def _twisted_convolve_exact(f: SupportedFunction, g: SupportedFunction, omega: Cocycle) -> SupportedFunction:
    group = f.group
    out: dict = {}
    for s, fs in f.values.items():
        for u, gu in g.values.items():
            t = group.op(s, u)
            # complex(): a float cocycle value multiplies as (x, 0.0) and the
            # sum starts at 0j on every Python version, as in the table path
            out[t] = out.get(t, 0j) + fs * gu * complex(omega(s, u))
    return SupportedFunction.from_canonical(group, out)


def _twisted_convolve_table(f: SupportedFunction, g: SupportedFunction, omega: Cocycle):
    """The table path: ``convolve_batch`` on a batch of one, or None where
    it does not apply (coordinates past ``FunctionBatch.of``'s bound)."""
    pair = [FunctionBatch.of(f.group, [x]) for x in (f, g)]
    return None if None in pair else convolve_batch(*pair, omega).function(0)


def _pairs(f: FunctionBatch, g: FunctionBatch) -> np.ndarray:
    """(n, m_f, m_g) mask of the support pairs of rows i of f and g."""
    return f.valid[:, :, None] & g.valid[:, None]


def _pair_values(f: FunctionBatch, g: FunctionBatch, omega: Cocycle) -> np.ndarray:
    """omega(s, t) for every s in row i of f and t in row i of g, as a
    complex (n, m_f, m_g) array; padding pairs hold the identity, where a
    normalized cocycle is 1."""
    return omega.table(f.coords[:, :, None], g.coords[:, None])


def convolve_batch(f: FunctionBatch, g: FunctionBatch, omega: Cocycle, table=None) -> FunctionBatch:
    """f_i *_Omega g_i for every row i: one ``op_many`` over all support
    pairs, one cocycle table (``table``, if the caller already holds these
    ``_pair_values``) and one ``keyed_sum`` keyed on (row, product), whose
    terms are added in the double loop's order, so each row equals
    ``_twisted_convolve_exact`` bit for bit, keys in the same order.  The
    padding pairs are keyed to row n and left out."""
    n = len(f)
    S, T = f.coords[:, :, None], g.coords[:, None]
    prods = f.group.op_many(S, T)
    rows = np.where(_pairs(f, g), np.arange(n)[:, None, None], n)
    classes = row_classes(prods, rows)
    if table is None:
        table = omega.table(S, T, classes)
    terms = complex_product(complex_product(f.values[:, :, None], g.values[:, None]), table)
    return keyed_sum(f.group, n, rows.reshape(-1), classes[0], terms, classes)


def involution(f: SupportedFunction, phase: Cocycle) -> SupportedFunction:
    """f^*(s) = conj(f(s^{-1})) conj(phase(s, s^{-1})); the phase cocycle
    must be unimodular on the pairs it is evaluated at."""
    group = f.group
    out = {}
    for u, v in f.values.items():
        ui = group.inv(u)
        w = phase(ui, u)
        if abs(abs(w) - 1.0) > MODULUS_TOL:
            raise ValueError(f"involution needs a unimodular phase; |Omega({ui},{u})| = {abs(w):g}")
        out[ui] = v.conjugate() * w.conjugate()
    return SupportedFunction(group, out)


# ---------------------------------------------------------------------------
# Checkers
#
# Each checker takes all trials of a check at once, as FunctionBatch rows
# (row i of every argument is trial i), and returns one value per trial
# that the trial-by-trial loop (tests/oracles.py) gives bit for bit.
# Trial-invariant constants are computed once.  They run under
# np.errstate(all="ignore"): the loop's Python float arithmetic overflows
# silently.  A trial that raises makes the batch raise some trial's error;
# the caller that needs the first failing trial's reruns the trials one at
# a time (cli._measure).


def _pointwise(f: FunctionBatch, values: np.ndarray) -> FunctionBatch:
    """f's points with new values, exact zeros dropped (``from_canonical``)."""
    return keyed_sum(f.group, len(f), f.rows.reshape(-1), f.coords.reshape(-1, f.coords.shape[-1]), values)


def _times(f: FunctionBatch, x: np.ndarray) -> FunctionBatch:
    """f * x pointwise for a weight's values x at f's points (its
    ``weight_table``): ``SupportedFunction.mul_pointwise``, whose complex
    times float multiplies by (x, 0.0)."""
    return _pointwise(f, complex_product(f.values, x.astype(complex)))


def _divided(f: FunctionBatch, x: np.ndarray) -> FunctionBatch:
    """f / x pointwise for real x: ``SupportedFunction.div_pointwise``,
    whose complex by float division divides by (x, 0.0)."""
    if not x[f.valid].all():
        raise ZeroDivisionError("complex division by zero")
    return _pointwise(f, real_quotient(f.values, x))


def _sub(f: FunctionBatch, g: FunctionBatch) -> FunctionBatch:
    """f - g per row: ``SupportedFunction.sub``, f's points then g's new
    ones, each g value negated as (-1) * v."""
    rows = np.concatenate([f.rows, g.rows], axis=1).reshape(-1)
    coords = np.concatenate([f.coords, g.coords], axis=1).reshape(-1, f.coords.shape[-1])
    values = np.concatenate([f.values, complex_product(g.values, np.complex128(-1.0))], axis=1)
    return keyed_sum(f.group, len(f), rows, coords, values)


def _abs(f: FunctionBatch) -> np.ndarray:
    """|f| at every point, 0 at the padding (np.hypot rounds as abs(complex))."""
    return np.hypot(f.values.real, f.values.imag)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Each row added left to right from its first term, as ``sum`` adds a
    support's terms; the padding at the end adds 0.0."""
    return np.add.accumulate(x, axis=1)[:, -1]


def _l1(f: FunctionBatch) -> np.ndarray:
    return _row_sums(_abs(f))


def _residual(diff: FunctionBatch) -> ResidualReport:
    """The l1 size of each row and its largest point, the first of
    ``max(diff.values, key=abs)``: the first point if its size is NaN, else
    the first largest size, NaN sizes skipped."""
    size = _abs(diff)
    rows = np.arange(len(diff))
    at = np.argmax(np.where(diff.valid & ~np.isnan(size), size, -np.inf), axis=1)
    at[np.isnan(size[:, 0])] = 0
    points = map(tuple, diff.coords[rows, at].tolist())
    witness = [p if n else None for p, n in zip(points, diff.sizes.tolist())]
    return ResidualReport(value=_row_sums(size), witness=witness)


@np.errstate(all="ignore")
def check_associativity(f, g, h, omega: Cocycle) -> ResidualReport:
    """l1 size of (f*g)*h - f*(g*h) per trial, with the argmax point as
    witness."""
    left = convolve_batch(convolve_batch(f, g, omega), h, omega)
    right = convolve_batch(f, convolve_batch(g, h, omega), omega)
    return _residual(_sub(left, right))


def _sup_abs(table: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """sup |Omega| over each row's support pairs: the pair loop's running
    max(worst, |Omega|) from 0.0, which skips NaN."""
    size = np.where(pairs, np.hypot(table.real, table.imag), 0.0)
    return np.fmax.reduce(size.reshape(len(size), -1), axis=1, initial=0.0)


@np.errstate(all="ignore")
def check_module_bound(f, g, ctx: AlgebraContext) -> dict:
    """Both module inequalities ||f*g||_Phi <= C ||f||_1 ||g||_Phi and
    ||g*f||_Phi <= C ||g||_Phi ||f||_1, with C = sup |Omega| over the
    support pairs the convolutions touch.  Each pair set has one cocycle
    table, read by the sup and the convolution."""
    omega, pair = ctx.cocycle, ctx.pair
    tables = _pair_values(f, g, omega), _pair_values(g, f, omega)
    c_fg, c_gf = _sup_abs(tables[0], _pairs(f, g)), _sup_abs(tables[1], _pairs(g, f))
    c = np.where(c_gf > c_fg, c_gf, c_fg)
    lhs_left = orlicz_norms(convolve_batch(f, g, omega, tables[0]), pair)
    lhs_right = orlicz_norms(convolve_batch(g, f, omega, tables[1]), pair)
    f1, gphi = _l1(f), orlicz_norms(g, pair)
    rhs = c * f1 * gphi
    return {
        "c_sup": c,
        "left_lhs": lhs_left,
        "right_lhs": lhs_right,
        "rhs": rhs,
        "margin": _min(rhs - lhs_left, rhs - lhs_right),
        "pass": _leq(lhs_left, rhs) & _leq(lhs_right, rhs),
    }


def _domination_values(values: dict, f: FunctionBatch) -> tuple:
    """(values[s] at every point s of f, 0.0 at the padding and where s is
    not a key; the mask of the points that are not keys)."""
    valid = f.valid
    points = list(map(tuple, f.coords[valid].tolist()))
    out, outside = np.zeros(valid.shape), np.zeros(valid.shape, dtype=bool)
    out[valid] = [values.get(s, 0.0) for s in points]
    outside[valid] = [s not in values for s in points]
    return out, outside


@np.errstate(all="ignore")
def check_algebra_bound(f, g, ctx: AlgebraContext, dom: DominationPair) -> dict:
    """The domination-driven bound

        ||f*g||_Phi <= ||f u||_1 ||g||_Phi + ||f||_Phi ||g v||_1

    together with the derived submultiplicative form with constant
    N_Psi(u) + N_Psi(v).  The domination ball must cover both supports."""
    omega, pair = ctx.cocycle, ctx.pair
    (u, f_out), (v, g_out) = _domination_values(dom.u, f), _domination_values(dom.v, g)  # same keys
    outside = np.concatenate([f_out, g_out], axis=1)  # f's points, then g's
    if outside.any():
        trial, k = np.unravel_index(int(np.argmax(outside)), outside.shape)
        s = tuple(np.concatenate([f.coords, g.coords], axis=1)[trial, k].tolist())
        raise ValueError(f"domination ball (radius {dom.radius}) does not cover support point {s}")
    lhs = orlicz_norms(convolve_batch(f, g, omega), pair)
    fu1 = _row_sums(_abs(f) * u)
    gv1 = _row_sums(_abs(g) * v)
    fphi = orlicz_norms(f, pair)
    gphi = orlicz_norms(g, pair)
    rhs_split = fu1 * gphi + fphi * gv1
    rhs_submult = dom.algebra_constant * fphi * gphi
    return {
        "lhs": lhs,
        "fu_l1": fu1,
        "g_phi": gphi,
        "f_phi": fphi,
        "gv_l1": gv1,
        "rhs_split": rhs_split,
        "rhs_submult": rhs_submult,
        "margin": _min(rhs_split - lhs, rhs_submult - lhs),
        "pass": _leq(lhs, rhs_split) & _leq(lhs, rhs_submult),
    }


@np.errstate(all="ignore")
def check_intertwining(f, g, w: Weight, omega: Cocycle) -> ResidualReport:
    """l1 residual of Lambda_w(f *_O g) = Lambda_w(f) *_T Lambda_w(g) per
    trial, where *_T uses the phase part of Omega.  Requires |Omega| to be
    the coboundary of w on the support pairs (validated pointwise).  The
    table of Omega on those pairs is read by the validation and the Omega
    convolution."""
    S, T = f.coords[:, :, None], g.coords[:, None]
    pairs = _pairs(f, g)
    table = _pair_values(f, g, omega)
    w_f, w_g = weight_table(w, f.coords), weight_table(w, g.coords)
    w_s_w_t = w_f[:, :, None] * w_g[:, None]
    if not w_s_w_t[pairs].all():
        raise ZeroDivisionError("float division by zero")  # as the scalar coboundary divides
    cob = weight_table(w, f.group.op_many(S, T)) / w_s_w_t
    off = np.abs(np.hypot(table.real, table.imag) - cob) > MODULUS_TOL * np.where(cob > 1.0, cob, 1.0)
    off &= pairs
    if off.any():
        trial, i, j = np.unravel_index(int(np.argmax(off)), off.shape)
        s, t = (tuple(x[trial, k].tolist()) for x, k in ((f.coords, i), (g.coords, j)))
        raise ValueError(f"|Omega| is not the coboundary of {w.name} at ({s}, {t})")
    _, phase = polar(omega)
    left = convolve_batch(f, g, omega, table)
    left = _divided(left, weight_table(w, left.coords))
    right = convolve_batch(_divided(f, w_f), _divided(g, w_g), phase)
    return _residual(_sub(left, right))


@np.errstate(all="ignore")
def check_differential_bound(f, g, ctx: AlgebraContext, radius: int) -> dict:
    """The differential-norm inequality in weighted form:

        ||f *_T g||_{Phi,sigma} <= C M (||f||_{1,rho} ||g||_{Phi,sigma}
                                        + ||f||_{Phi,sigma} ||g||_{1,rho})

    with rho = sigma/omega, C the weak-subadditivity constant of omega and
    M the domination constant of sigma against omega, both over the radius
    ball, which must cover the supports.  Also checks the containment
    certificate ||f||_{1,rho} <= ||f||_{Phi,sigma} N_Psi(1/omega).  C, M,
    rho, the phase and N_Psi(1/omega) are computed once for all trials and
    reported as single floats."""
    if ctx.weight is None:
        raise ValueError("differential bound needs the norm weight sigma")
    sigma = ctx.weight
    omega_w = ctx.aux_weight if ctx.aux_weight is not None else constant_weight(sigma.group)
    group = sigma.group
    length = group.length_many or functools.partial(weight_table, functools.partial(word_length, group))
    cover = np.maximum(length(f.coords).max(axis=1), length(g.coords).max(axis=1))
    if (cover > radius).any():
        raise ValueError(f"radius {radius} does not cover the supports (need {cover[np.argmax(cover > radius)]})")
    c_const = check_weak_subadditive(omega_w, radius).constant
    m_const = check_lss_domination(sigma, omega_w, radius).constant
    rho = quotient_weight(sigma, omega_w)
    _, phase = polar(ctx.cocycle)
    h = convolve_batch(f, g, phase)
    lhs = orlicz_norms(_times(h, weight_table(sigma, h.coords)), ctx.pair)
    f1r = _row_sums(_abs(f) * weight_table(rho, f.coords))
    g1r = _row_sums(_abs(g) * weight_table(rho, g.coords))
    fps = orlicz_norms(_times(f, weight_table(sigma, f.coords)), ctx.pair)
    gps = orlicz_norms(_times(g, weight_table(sigma, g.coords)), ctx.pair)
    rhs = c_const * m_const * (f1r * gps + fps * g1r)
    inv_omega = SupportedFunction(
        group, {s: 1.0 / omega_w(s) for s in ball_elements(group, radius)}
    )
    n_psi_inv = luxemburg_norm(inv_omega, ctx.pair.psi)
    cert_ok = _leq(f1r, fps * n_psi_inv) & _leq(g1r, gps * n_psi_inv)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "c_weak_subadd": c_const,
        "m_domination": m_const,
        "n_psi_inv_omega": n_psi_inv,
        "containment_ok": cert_ok,
        "margin": rhs - lhs,
        "pass": _leq(lhs, rhs) & cert_ok,
    }


def spectral_radius_estimate(
    f: SupportedFunction, ctx: AlgebraContext, norm: str = "phi", n_max: int = 16
) -> np.ndarray:
    """||f^{*n}||^{1/n} for n = 1..n_max in the weighted Orlicz norm
    ("phi") or the weighted l1 norm ("l1"); a trend, and on finite groups
    an estimate of the spectral radius."""
    if norm not in ("phi", "l1"):
        raise ValueError("norm must be 'phi' or 'l1'")
    return power_norms(convolution_powers(f, ctx.cocycle, n_max), ctx, norm)


def power_norms(powers: list, ctx: AlgebraContext, norm: str) -> np.ndarray:
    """||f^{*n}||^{1/n} for the powers f, ..., f^{*n_max} of
    ``convolution_powers``, in the norm of ``spectral_radius_estimate``."""
    sigma, rho = _spectral_weights(powers[0], ctx)
    if norm == "phi":
        values = [orlicz_norm(p.mul_pointwise(sigma), ctx.pair) for p in powers]
    else:
        values = [weighted_l1_norm(p, rho) for p in powers]
    return np.array([v ** (1.0 / n) for n, v in enumerate(values, start=1)])


def _spectral_weights(f: SupportedFunction, ctx: AlgebraContext) -> tuple:
    """(sigma, rho): the norm weight (1 without one) and the l1 weight,
    sigma over the comparison weight where there is one."""
    sigma = ctx.weight if ctx.weight is not None else constant_weight(f.group)
    return sigma, quotient_weight(sigma, ctx.aux_weight) if ctx.aux_weight is not None else sigma


def convolution_powers(f: SupportedFunction, omega: Cocycle, n_max: int) -> list:
    """[f, f^{*2}, ..., f^{*n_max}], each the previous one twisted-convolved
    with f; BudgetError at the first power whose support passes
    ``SUPPORT_CAP``."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    powers = []
    power = f
    for n in range(1, n_max + 1):
        if len(power.values) > SUPPORT_CAP:
            raise BudgetError(f"support of f^{n} exceeds the budget ({SUPPORT_CAP})")
        powers.append(power)
        if n < n_max:
            power = twisted_convolve(power, f, omega)
    return powers


def weight_growth_rate(powers: list, ctx: AlgebraContext) -> float:
    """The slope b of the least-squares fit

        L_n = log(||f^n||_{1,rho} / ||f^n||_1) ~ a + b n + c log n

    over n_max/2 <= n <= n_max, for the powers f, ..., f^n_max of
    ``convolution_powers``, with rho the l1 weight of
    ``spectral_radius_estimate``.  b estimates log(r_rho(f) / r(f)), the
    gap between the weighted and the unweighted spectral radius of f: 0
    where l1_rho is inverse-closed in l1, as for GRS weights on groups of
    polynomial growth, and positive for an exponential weight and most f
    (Fendler, Groechenig and Leinert, "Symmetry of weighted L1-algebras and
    the GRS-condition", Bull. LMS 38 (2006)).  The c log n term takes up
    the polynomial factors of a weight; at finite n a subexponential weight
    still leaves a small positive b.  A power that vanishes makes b NaN."""
    n_max = len(powers)
    ns = np.arange((n_max + 1) // 2, n_max + 1)
    if len(ns) < 3:
        raise ValueError(f"the growth-rate fit needs n_max >= 4, got {n_max}")
    _, rho = _spectral_weights(powers[0], ctx)
    weighted, plain = np.array([(weighted_l1_norm(p, rho), l1_norm(p)) for p in powers[ns[0] - 1 :]]).T
    if not plain.all():
        return math.nan
    design = np.stack([np.ones(len(ns)), ns, np.log(ns)], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.log(weighted / plain), rcond=None)
    return float(coef[1])


@dataclass(frozen=True)
class SymmetryReport:
    """Per trial: the least real part and the largest |imaginary part| of
    the spectrum, the matrix 2-norm (1 for a zero matrix), the verdict."""

    min_real: np.ndarray
    max_imag: np.ndarray
    scale: np.ndarray
    passed: np.ndarray


def convolution_matrix(h: SupportedFunction, omega: Cocycle) -> tuple:
    """Matrix of left twisted convolution by h on the delta basis of a
    finite group; returns (matrix, element list)."""
    group = h.group
    if group.order is None:
        raise ValueError("convolution matrix needs a finite group")
    elems = ball_elements(group, group.order)
    return _convolution_matrices(FunctionBatch.of(group, [h]), omega, elems)[0], elems


def _convolution_matrices(h: FunctionBatch, omega: Cocycle, elems: list) -> np.ndarray:
    """(n, |G|, |G|): for each row h_i the matrix with column j the twisted
    convolution h_i * delta_{elems[j]} (``convolve_batch`` of h_i against
    every point mass), entry (t, j) at the index of t in ``elems``."""
    group, n, size = h.group, len(h), len(elems)
    points = np.array(elems, dtype=np.int64)
    deltas = FunctionBatch(group, np.tile(points[:, None], (n, 1, 1)), np.ones((n * size, 1), dtype=complex),
                           np.ones(n * size, dtype=np.intp))
    cols = convolve_batch(h.take(np.repeat(np.arange(n), size)), deltas, omega)
    _, _, classes = row_classes(np.concatenate([points, cols.coords.reshape(-1, points.shape[1])]))
    index = np.empty(classes.max() + 1, dtype=np.intp)
    index[classes[:size]] = np.arange(size)
    r, k = np.nonzero(cols.valid)
    mats = np.zeros((n, size, size), dtype=complex)
    mats[r // size, index[classes[size:]].reshape(cols.values.shape)[r, k], r % size] = cols.values[r, k]
    return mats


def _involution(f: FunctionBatch, phase: Cocycle) -> FunctionBatch:
    """``involution`` of every row, with the loop's error at the first
    point (row by row) whose phase is not unimodular."""
    group, valid = f.group, f.valid
    inv = np.empty_like(f.coords)
    inv[...] = group.identity
    inv[valid] = np.array([group.inv(u) for u in map(tuple, f.coords[valid].tolist())], dtype=np.int64)
    w = phase.table(inv, f.coords)
    size = np.hypot(w.real, w.imag)
    off = (np.abs(size - 1.0) > MODULUS_TOL) & valid
    if off.any():
        trial, k = np.unravel_index(int(np.argmax(off)), off.shape)
        ui, u = (tuple(x[trial, k].tolist()) for x in (inv, f.coords))
        raise ValueError(f"involution needs a unimodular phase; |Omega({ui},{u})| = {size[trial, k]:g}")
    return _pointwise(FunctionBatch(group, inv, f.values, f.sizes), complex_product(f.values.conj(), w.conj()))


def finite_symmetry_check(f: FunctionBatch, ctx: AlgebraContext, tol: float = 1e-8) -> SymmetryReport:
    """Spectrum test of h = f^* * f per trial on a finite group: eigenvalues
    of the left-convolution matrix must be real and nonnegative up to
    tol * ||h|| (the matrix 2-norm).  The cocycle must be a unimodular
    phase.  The trials' matrices go to ``eigvals`` and the 2-norm in
    stacks of at most ``SYMMETRY_MATRIX_BYTES``."""
    group = f.group
    if group.order is None:
        raise ValueError("finite_symmetry_check needs a finite group")
    omega = ctx.cocycle
    h = convolve_batch(_involution(f, omega), f, omega)
    elems = ball_elements(group, group.order)
    step = max(1, SYMMETRY_MATRIX_BYTES // (16 * len(elems) ** 2))
    scales, eigs = [], []
    for start in range(0, len(h), step):
        mats = _convolution_matrices(h.take(np.arange(start, min(start + step, len(h)))), omega, elems)
        scales.append(np.linalg.norm(mats, 2, axis=(1, 2)))
        eigs.append(np.linalg.eigvals(mats))
    scale, eig = np.concatenate(scales), np.concatenate(eigs)
    scale[scale == 0.0] = 1.0
    min_real = eig.real.min(axis=1)
    max_imag = np.abs(eig.imag).max(axis=1)
    return SymmetryReport(
        min_real=min_real,
        max_imag=max_imag,
        scale=scale,
        passed=(min_real >= -tol * scale) & (max_imag <= tol * scale),
    )
