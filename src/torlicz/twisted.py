"""Twisted convolution, involution, and the algebra-level verifiers.

The twisted convolution of finitely supported f, g under a cocycle Omega is

    (f *_O g)(t) = sum_s f(s) g(s^{-1} t) Omega(s, s^{-1} t),

summed in the order of the double loop over the supports (cocycle twists
break the translation invariance that fast transforms need).  From
``TABLE_MIN_PAIRS`` support pairs on, all pair products (``Group.op_many``)
and cocycle values (``Cocycle.table``, which maps the scalar calls for a
cocycle without a table form) are formed at once in numpy and the terms
are accumulated with ``np.bincount`` in loop order, so the result is equal
to the loop's bit for bit, keys in the same order.  Otherwise the scalar
loop ``_twisted_convolve_exact`` runs; it is also the test oracle for the
table path.  All groups here are discrete, so the modular function is 1
and the involution reads

    f^*(s) = conj(f(s^{-1})) conj(Omega_T(s, s^{-1}))

for a unimodular phase cocycle Omega_T.

The checkers verify one-sided inequalities with every norm computed by the
orlicz module; margins are reported, and a checker must never flag a valid
input.  Constants entering the bounds (sup |Omega|, weak-subadditivity C,
domination M) are taken over balls covering the supports involved, which is
exactly what the inequalities need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycles import Cocycle, DominationPair, complex_product
from .groups import BudgetError, ball_elements, row_classes, word_length
from .orlicz import (
    SupportedFunction,
    _leq,
    _require_same_group,
    l1_norm,
    luxemburg_norm,
    orlicz_norm,
    weighted_l1_norm,
)
from .weights import Weight, check_lss_domination, check_weak_subadditive, constant_weight, quotient_weight
from .young import YoungPair

# Below this many support pairs the scalar loop wins against the fixed cost
# of the table path's numpy calls.  Measured crossover (2-core x86-64,
# Python 3.11, numpy 2.4): 64-100 pairs.
TABLE_MIN_PAIRS = 128

# Tolerance on |Omega|: unimodular in involution, the coboundary in check_intertwining
MODULUS_TOL = 1e-9
# Support size of f^n above which spectral_radius_estimate raises BudgetError
SUPPORT_CAP = 50_000

# Coordinates below this size keep every op_many product (H3 multiplies
# two of them) inside int64.
_COORD_LIMIT = 2**31


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


def _coords(elements) -> np.ndarray | None:
    try:
        arr = np.array(list(elements), dtype=np.int64)
    except OverflowError:
        return None
    return arr if -_COORD_LIMIT < arr.min() and arr.max() < _COORD_LIMIT else None


def _twisted_convolve_table(f: SupportedFunction, g: SupportedFunction, omega: Cocycle):
    """The table path, or None where it does not apply: coordinates or
    packed keys too large for int64."""
    group = f.group
    S, T = _coords(f.values), _coords(g.values)
    if S is None or T is None:
        return None
    S, T = S[:, None], T[None]  # all support pairs
    classes = row_classes(group.op_many(S, T))
    if classes is None:
        return None
    table = omega.table(S, T, classes)
    prods, first, inverse = classes
    # number the distinct products by first occurrence: the loop's dict order
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    labels = rank[inverse].ravel()
    fv = np.array(list(f.values.values()), dtype=complex)
    gv = np.array(list(g.values.values()), dtype=complex)
    terms = complex_product(complex_product(fv[:, None], gv[None, :]), table).ravel()
    # bincount adds in input order starting from 0.0, as the loop does
    re = np.bincount(labels, weights=terms.real, minlength=len(order))
    im = np.bincount(labels, weights=terms.imag, minlength=len(order))
    points = map(tuple, prods[first[order]].tolist())
    return SupportedFunction.from_canonical(group, dict(zip(points, map(complex, re.tolist(), im.tolist()))))


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


def check_associativity(f, g, h, omega: Cocycle) -> ResidualReport:
    """l1 size of (f*g)*h - f*(g*h) with the argmax point as witness."""
    left = twisted_convolve(twisted_convolve(f, g, omega), h, omega)
    right = twisted_convolve(f, twisted_convolve(g, h, omega), omega)
    diff = left.sub(right)
    value = l1_norm(diff)
    witness = max(diff.values, key=lambda t: abs(diff.values[t]), default=None)
    return ResidualReport(value=value, witness=witness)


def _sup_abs_on_supports(omega: Cocycle, left_support, right_support) -> float:
    worst = 0.0
    for s in left_support:
        for t in right_support:
            worst = max(worst, abs(omega(s, t)))
    return worst


def check_module_bound(f, g, ctx: AlgebraContext) -> dict:
    """Both module inequalities ||f*g||_Phi <= C ||f||_1 ||g||_Phi and
    ||g*f||_Phi <= C ||g||_Phi ||f||_1, with C = sup |Omega| over the
    support pairs the convolutions touch."""
    omega, pair = ctx.cocycle, ctx.pair
    c = max(
        _sup_abs_on_supports(omega, f.support, g.support),
        _sup_abs_on_supports(omega, g.support, f.support),
    )
    lhs_left = orlicz_norm(twisted_convolve(f, g, omega), pair)
    lhs_right = orlicz_norm(twisted_convolve(g, f, omega), pair)
    f1, gphi = l1_norm(f), orlicz_norm(g, pair)
    rhs = c * f1 * gphi
    return {
        "c_sup": c,
        "left_lhs": lhs_left,
        "right_lhs": lhs_right,
        "rhs": rhs,
        "margin": min(rhs - lhs_left, rhs - lhs_right),
        "pass": _leq(lhs_left, rhs) and _leq(lhs_right, rhs),
    }


def check_algebra_bound(f, g, ctx: AlgebraContext, dom: DominationPair) -> dict:
    """The domination-driven bound

        ||f*g||_Phi <= ||f u||_1 ||g||_Phi + ||f||_Phi ||g v||_1

    together with the derived submultiplicative form with constant
    N_Psi(u) + N_Psi(v).  The domination ball must cover both supports."""
    omega, pair = ctx.cocycle, ctx.pair
    for s in list(f.support) + list(g.support):
        if s not in dom.u:
            raise ValueError(f"domination ball (radius {dom.radius}) does not cover support point {s}")
    lhs = orlicz_norm(twisted_convolve(f, g, omega), pair)
    fu1 = float(sum(abs(v) * dom.u[s] for s, v in f.values.items()))
    gv1 = float(sum(abs(v) * dom.v[s] for s, v in g.values.items()))
    fphi = orlicz_norm(f, pair)
    gphi = orlicz_norm(g, pair)
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
        "margin": min(rhs_split - lhs, rhs_submult - lhs),
        "pass": _leq(lhs, rhs_split) and _leq(lhs, rhs_submult),
    }


def check_intertwining(f, g, w: Weight, omega: Cocycle) -> ResidualReport:
    """l1 residual of Lambda_w(f *_O g) = Lambda_w(f) *_T Lambda_w(g), where
    *_T uses the phase part of Omega.  Requires |Omega| to be the coboundary
    of w on the support pairs (validated pointwise)."""
    from .cocycles import coboundary_from_weight, polar

    cobound = coboundary_from_weight(w).fn
    for s in f.support:
        for t in g.support:
            cob = cobound(s, t)
            if abs(abs(omega(s, t)) - cob) > MODULUS_TOL * max(1.0, cob):
                raise ValueError(
                    f"|Omega| is not the coboundary of {w.name} at ({s}, {t})"
                )
    _, phase = polar(omega)
    left = twisted_convolve(f, g, omega).div_pointwise(w)
    right = twisted_convolve(f.div_pointwise(w), g.div_pointwise(w), phase)
    diff = left.sub(right)
    value = l1_norm(diff)
    witness = max(diff.values, key=lambda t: abs(diff.values[t]), default=None)
    return ResidualReport(value=value, witness=witness)


def check_differential_bound(f, g, ctx: AlgebraContext, radius: int) -> dict:
    """The differential-norm inequality in weighted form:

        ||f *_T g||_{Phi,sigma} <= C M (||f||_{1,rho} ||g||_{Phi,sigma}
                                        + ||f||_{Phi,sigma} ||g||_{1,rho})

    with rho = sigma/omega, C the weak-subadditivity constant of omega and
    M the domination constant of sigma against omega, both over the radius
    ball, which must cover the supports.  Also checks the containment
    certificate ||f||_{1,rho} <= ||f||_{Phi,sigma} N_Psi(1/omega)."""
    if ctx.weight is None:
        raise ValueError("differential bound needs the norm weight sigma")
    sigma = ctx.weight
    omega_w = ctx.aux_weight if ctx.aux_weight is not None else constant_weight(sigma.group)
    group = sigma.group
    support = list(f.support) + list(g.support)
    cover = max((word_length(group, s) for s in support), default=0)
    if radius < cover:
        raise ValueError(f"radius {radius} does not cover the supports (need {cover})")
    c_const = check_weak_subadditive(omega_w, radius).constant
    m_const = check_lss_domination(sigma, omega_w, radius).constant
    rho = quotient_weight(sigma, omega_w)
    from .cocycles import polar

    _, phase = polar(ctx.cocycle)
    conv = twisted_convolve(f, g, phase)
    lhs = orlicz_norm(conv.mul_pointwise(sigma), ctx.pair)
    f1r = weighted_l1_norm(f, rho)
    g1r = weighted_l1_norm(g, rho)
    fps = orlicz_norm(f.mul_pointwise(sigma), ctx.pair)
    gps = orlicz_norm(g.mul_pointwise(sigma), ctx.pair)
    rhs = c_const * m_const * (f1r * gps + fps * g1r)
    inv_omega = SupportedFunction(
        group, {s: 1.0 / omega_w(s) for s in ball_elements(group, radius)}
    )
    n_psi_inv = luxemburg_norm(inv_omega, ctx.pair.psi)
    cert_ok = _leq(f1r, fps * n_psi_inv) and _leq(g1r, gps * n_psi_inv)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "c_weak_subadd": c_const,
        "m_domination": m_const,
        "n_psi_inv_omega": n_psi_inv,
        "containment_ok": bool(cert_ok),
        "margin": rhs - lhs,
        "pass": bool(_leq(lhs, rhs) and cert_ok),
    }


def spectral_radius_estimate(
    f: SupportedFunction, ctx: AlgebraContext, norm: str = "phi", n_max: int = 16
) -> np.ndarray:
    """||f^{*n}||^{1/n} for n = 1..n_max in the weighted Orlicz norm
    ("phi") or the weighted l1 norm ("l1"); a trend, and on finite groups
    an estimate of the spectral radius."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if norm not in ("phi", "l1"):
        raise ValueError("norm must be 'phi' or 'l1'")
    sigma, rho = _spectral_weights(f, ctx)
    out = np.empty(n_max)
    for n, power in enumerate(_powers(f, ctx.cocycle, n_max), start=1):
        if norm == "phi":
            val = orlicz_norm(power.mul_pointwise(sigma), ctx.pair)
        else:
            val = weighted_l1_norm(power, rho)
        out[n - 1] = val ** (1.0 / n)
    return out


def _spectral_weights(f: SupportedFunction, ctx: AlgebraContext) -> tuple:
    """(sigma, rho): the norm weight (1 without one) and the l1 weight,
    sigma over the comparison weight where there is one."""
    sigma = ctx.weight if ctx.weight is not None else constant_weight(f.group)
    return sigma, quotient_weight(sigma, ctx.aux_weight) if ctx.aux_weight is not None else sigma


def _powers(f: SupportedFunction, omega: Cocycle, n_max: int):
    """f, f^{*2}, ..., f^{*n_max}, each the previous one twisted-convolved
    with f; BudgetError before yielding a support past ``SUPPORT_CAP``."""
    power = f
    for n in range(1, n_max + 1):
        if len(power.values) > SUPPORT_CAP:
            raise BudgetError(f"support of f^{n} exceeds the budget ({SUPPORT_CAP})")
        yield power
        if n < n_max:
            power = twisted_convolve(power, f, omega)


def weight_growth_rate(f: SupportedFunction, ctx: AlgebraContext, n_max: int) -> float:
    """The slope b of the least-squares fit

        L_n = log(||f^n||_{1,rho} / ||f^n||_1) ~ a + b n + c log n

    over n_max/2 <= n <= n_max, with rho the l1 weight of
    ``spectral_radius_estimate``.  b estimates log(r_rho(f) / r(f)), the
    gap between the weighted and the unweighted spectral radius of f: 0
    where l1_rho is inverse-closed in l1, as for GRS weights on groups of
    polynomial growth, and positive for an exponential weight and most f
    (Fendler, Groechenig and Leinert, "Symmetry of weighted L1-algebras and
    the GRS-condition", Bull. LMS 38 (2006)).  The c log n term takes up
    the polynomial factors of a weight; at finite n a subexponential weight
    still leaves a small positive b.  A power that vanishes makes b NaN."""
    ns = np.arange((n_max + 1) // 2, n_max + 1)
    if len(ns) < 3:
        raise ValueError(f"the growth-rate fit needs n_max >= 4, got {n_max}")
    _, rho = _spectral_weights(f, ctx)
    weighted, plain = np.array(
        [(weighted_l1_norm(p, rho), l1_norm(p)) for n, p in enumerate(_powers(f, ctx.cocycle, n_max), 1) if n >= ns[0]]
    ).T
    if not plain.all():
        return math.nan
    design = np.stack([np.ones(len(ns)), ns, np.log(ns)], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.log(weighted / plain), rcond=None)
    return float(coef[1])


@dataclass(frozen=True)
class SymmetryReport:
    min_real: float
    max_imag: float
    scale: float
    passed: bool


def convolution_matrix(h: SupportedFunction, omega: Cocycle) -> tuple:
    """Matrix of left twisted convolution by h on the delta basis of a
    finite group; returns (matrix, element list)."""
    group = h.group
    if group.order is None:
        raise ValueError("convolution matrix needs a finite group")
    elems = ball_elements(group, group.order)
    mat = np.zeros((len(elems), len(elems)), dtype=complex)
    for j, x in enumerate(elems):
        col = twisted_convolve(h, SupportedFunction(group, {x: 1.0}), omega)
        for i, t in enumerate(elems):
            v = col.values.get(t)
            if v is not None:
                mat[i, j] = v
    return mat, elems


def finite_symmetry_check(f: SupportedFunction, ctx: AlgebraContext, tol: float = 1e-8) -> SymmetryReport:
    """Spectrum test of h = f^* * f on a finite group: eigenvalues of the
    left-convolution matrix must be real and nonnegative up to
    tol * ||h||.  The cocycle must be a unimodular phase."""
    group = f.group
    if group.order is None:
        raise ValueError("finite_symmetry_check needs a finite group")
    omega = ctx.cocycle
    h = twisted_convolve(involution(f, omega), f, omega)
    mat, _ = convolution_matrix(h, omega)
    scale = float(np.linalg.norm(mat, 2)) or 1.0
    eig = np.linalg.eigvals(mat)
    min_real = float(eig.real.min())
    max_imag = float(np.abs(eig.imag).max())
    return SymmetryReport(
        min_real=min_real,
        max_imag=max_imag,
        scale=scale,
        passed=bool(min_real >= -tol * scale and max_imag <= tol * scale),
    )
