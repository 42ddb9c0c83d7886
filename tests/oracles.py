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

The sampled-trial checks ran one trial at a time before they took all
trials of a check at once: ``draw_functions_loop`` makes the block RNG
calls of ``orlicz.draw_functions`` and builds each function point by point
in a dict, walking each word with scalar ``group.op`` calls
(``function_of_draw_loop``, also for hand-made draws, which
``build_supported_functions`` hands to the library's array builder), the
``*_loop``
checkers and measures score one trial's functions with the scalar
convolution loop, the pointwise maps of ``SupportedFunction``, the
single-function norms and ``dual_pairing_bound_loop`` (the Hoelder
report as it ran on one pair of functions), and one convolution
matrix (``convolution_matrix_loop``, a column at a time) per spectrum
test; ``run_trials_loop`` is the trial-by-trial runner with the
worst-score rule of its ``_replaces``.  ``lp_norms_one_at_a_time`` is the
x^p/p closed forms of both norms as they ran on one function at a time,
before the norms took a batch of rows, on the magnitudes of
``normalized_magnitudes_loop`` (Python's abs of each value).
"""

from __future__ import annotations

import math

import numpy as np

from torlicz import cli
from torlicz.cocycles import coboundary_from_weight, polar
from torlicz.groups import ball_elements, ball_table, word_length
from torlicz.numeric import golden_section_min
from torlicz.orlicz import (
    FLOAT_GUARD,
    LP_MAX_STEPS,
    LP_ROUND_UP,
    FunctionBatch,
    SupportedFunction,
    _built_functions,
    _leq,
    _sum_in_loop_order,
    delta,
    function_to_json,
    l1_norm,
    luxemburg_norm,
    modular,
    orlicz_norm,
    weighted_l1_norm,
)
from torlicz.twisted import (
    MODULUS_TOL,
    ResidualReport,
    _twisted_convolve_exact,
    involution,
    twisted_convolve,
)
from torlicz.weights import check_lss_domination, check_weak_subadditive, constant_weight, quotient_weight
from torlicz.young import YoungPair


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


def normalized_magnitudes_loop(f) -> tuple:
    """(|f| 2^-e, max |f| 2^-e, 2^e) of one function, the maximum in
    [1, 2), from Python's abs of each value."""
    mags = [abs(v) for v in f.values.values()]
    if not all(map(math.isfinite, mags)):
        raise ValueError("norms need finite function values")
    big = max(mags)
    e = math.frexp(big)[1] - 1
    return np.ldexp(mags, -e), math.ldexp(big, -e), 2.0**e


def scan_amemiya(f, phi) -> tuple:
    """(k, value) of the Amemiya form of f under phi, by the scan; k is the
    minimiser in the units of f.  A linear Phi pushes the infimum to the
    grid's right end, where the residual 1/k is below 1e-15 relative."""
    mags, top, unit = normalized_magnitudes_loop(f)

    def objective(k: float) -> float:
        return _sum_in_loop_order(phi.many(k * mags), 1.0) / k

    grid = [2.0**j / top for j in range(-40, 51)]
    k, best = grid_then_golden_min(objective, grid)
    return k / unit, best * unit


def lp_norms_one_at_a_time(f, phi) -> tuple:
    """(Orlicz, Luxemburg) norms of one function under phi = x^p / p by the
    closed forms as they ran on one function at a time: the power sum and
    k* by Python's ** and math.fsum, the objective and the modular by
    ``phi.many`` added left to right, the Luxemburg value stepped up by
    ``math.nextafter`` (the root search, as ``luxemburg_norm`` runs it,
    past ``LP_MAX_STEPS`` steps)."""
    if f.is_zero():
        return 0.0, 0.0
    mags, top, unit = normalized_magnitudes_loop(f)
    p = phi.power
    s = math.fsum((m / top) ** p for m in mags.tolist())
    k = (p / ((p - 1.0) * s)) ** (1.0 / p) / top
    orlicz = _sum_in_loop_order(phi.many(k * mags), 1.0) / k * (1.0 + LP_ROUND_UP) * unit
    n = top * (s / p) ** (1.0 / p)
    for _ in range(LP_MAX_STEPS):
        if _sum_in_loop_order(phi.many(mags / n), 0.0) <= 1.0:
            return orlicz, n * unit
        n = math.nextafter(n, math.inf)
    return orlicz, luxemburg_norm(f, phi)


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


# ---------------------------------------------------------------------------
# Sampled trials, one at a time


def function_of_draw_loop(group, draw):
    """The function of one draw, a list of (word, value) points with words
    of generator indices: each word multiplied out by scalar ``group.op``
    calls and its value added into a dict; the point mass 1 at the identity
    where the values cancel to zero."""
    values = {}
    for word, v in draw:
        g = group.identity
        for k in word:
            g = group.op(g, group.generators[k])
        values[g] = values.get(g, 0) + v
    f = SupportedFunction(group, values)
    return delta(group, value=1.0) if f.is_zero() else f


def draw_functions_loop(group, rng, n, max_support=6, radius=5, real=False):
    """``orlicz.draw_functions`` as a list of functions: the same block RNG
    calls, then every function built point by point."""
    sizes = rng.integers(1, max_support + 1, size=n).tolist()
    count = sum(sizes)
    lengths = rng.integers(0, radius + 1, size=count).tolist()
    index = rng.integers(0, len(group.generators), size=(count, radius)).tolist()
    re = rng.standard_normal(count).tolist()
    im = [0.0] * count if real else rng.standard_normal(count).tolist()
    points = [(index[e][: lengths[e]], complex(re[e], im[e])) for e in range(count)]
    starts = np.cumsum([0] + sizes).tolist()
    return [function_of_draw_loop(group, points[a:b]) for a, b in zip(starts, starts[1:])]


def build_supported_functions(group, draws):
    """Hand-made draws as one batch, through the array builder behind
    ``orlicz.draw_functions``: the words padded with the identity's index."""
    words = [word for points in draws for word, _ in points]
    steps = max(map(len, words))
    pad = [len(group.generators)]
    index = np.array([word + pad * (steps - len(word)) for word in words], dtype=np.int64).reshape(len(words), steps)
    values = np.array([v for points in draws for _, v in points], dtype=complex)
    return _built_functions(group, np.array(list(map(len, draws))), index, values)


def _witness_point(diff):
    return max(diff.values, key=lambda t: abs(diff.values[t]), default=None)


def check_associativity_loop(f, g, h, omega):
    left = _twisted_convolve_exact(_twisted_convolve_exact(f, g, omega), h, omega)
    right = _twisted_convolve_exact(f, _twisted_convolve_exact(g, h, omega), omega)
    diff = left.sub(right)
    return ResidualReport(value=l1_norm(diff), witness=_witness_point(diff))


def _sup_abs_on_supports(omega, left_support, right_support):
    worst = 0.0
    for s in left_support:
        for t in right_support:
            worst = max(worst, abs(omega(s, t)))
    return worst


def check_module_bound_loop(f, g, ctx):
    omega, pair = ctx.cocycle, ctx.pair
    c = max(
        _sup_abs_on_supports(omega, f.support, g.support),
        _sup_abs_on_supports(omega, g.support, f.support),
    )
    lhs_left = orlicz_norm(_twisted_convolve_exact(f, g, omega), pair)
    lhs_right = orlicz_norm(_twisted_convolve_exact(g, f, omega), pair)
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


def check_algebra_bound_loop(f, g, ctx, dom):
    omega, pair = ctx.cocycle, ctx.pair
    for s in list(f.support) + list(g.support):
        if s not in dom.u:
            raise ValueError(f"domination ball (radius {dom.radius}) does not cover support point {s}")
    lhs = orlicz_norm(_twisted_convolve_exact(f, g, omega), pair)
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


def check_intertwining_loop(f, g, w, omega):
    cobound = coboundary_from_weight(w).fn
    for s in f.support:
        for t in g.support:
            cob = cobound(s, t)
            if abs(abs(omega(s, t)) - cob) > MODULUS_TOL * max(1.0, cob):
                raise ValueError(f"|Omega| is not the coboundary of {w.name} at ({s}, {t})")
    _, phase = polar(omega)
    left = _twisted_convolve_exact(f, g, omega).div_pointwise(w)
    right = _twisted_convolve_exact(f.div_pointwise(w), g.div_pointwise(w), phase)
    diff = left.sub(right)
    return ResidualReport(value=l1_norm(diff), witness=_witness_point(diff))


def check_differential_bound_loop(f, g, ctx, radius):
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
    _, phase = polar(ctx.cocycle)
    conv = _twisted_convolve_exact(f, g, phase)
    lhs = orlicz_norm(conv.mul_pointwise(sigma), ctx.pair)
    f1r = weighted_l1_norm(f, rho)
    g1r = weighted_l1_norm(g, rho)
    fps = orlicz_norm(f.mul_pointwise(sigma), ctx.pair)
    gps = orlicz_norm(g.mul_pointwise(sigma), ctx.pair)
    rhs = c_const * m_const * (f1r * gps + fps * g1r)
    inv_omega = SupportedFunction(group, {s: 1.0 / omega_w(s) for s in ball_elements(group, radius)})
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


def sandwich_loop(t, f):
    slack = t.spec.params.get("slack", FLOAT_GUARD)
    n, o = luxemburg_norm(f, t.ctx.pair.phi), orlicz_norm(f, t.ctx.pair)
    low, high = o - n * (1.0 - slack), 2.0 * n * (1.0 + slack) - o
    return (min(low, high),), low >= 0 and high >= 0


def dual_pairing_bound_loop(f, v, pair):
    """``dual_pairing_bound`` from the single-function norms and modular."""
    psi_pair = YoungPair(name=f"dual({pair.name})", phi=pair.psi, psi=pair.phi)
    pairing = float(sum(abs(f.values[s] * v.values[s]) for s in f.support & v.support))
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


def holder_loop(t, f, v):
    rep = dual_pairing_bound_loop(f, v, t.ctx.pair)
    ok = rep["holder_ok"] and rep["dual_certificate_ok"]
    return (rep["holder_bound"] - rep["pairing_l1"],), ok


def lambda_gap_loop(t, f):
    pair, w = t.ctx.pair, t.ctx.weight
    plain = orlicz_norm(f, pair)
    gap = abs(plain - orlicz_norm(f.div_pointwise(w).mul_pointwise(w), pair)) / max(plain, 1e-300)
    return (gap,), gap <= t.spec.params.get("tol", cli.RESIDUAL_TOL)


def convolution_matrix_loop(h, omega):
    """The matrix of left twisted convolution by h, one column (one
    scalar convolution with a point mass) at a time."""
    group = h.group
    elems = ball_elements(group, group.order)
    mat = np.zeros((len(elems), len(elems)), dtype=complex)
    for j, x in enumerate(elems):
        col = twisted_convolve(h, SupportedFunction(group, {x: 1.0}), omega)
        for i, t in enumerate(elems):
            v = col.values.get(t)
            if v is not None:
                mat[i, j] = v
    return mat


def finite_symmetry_check_loop(f, ctx, tol=1e-8):
    """(min_real, max_imag, scale, passed) of one trial's spectrum test."""
    group = f.group
    if group.order is None:
        raise ValueError("finite_symmetry_check needs a finite group")
    omega = ctx.cocycle
    mat = convolution_matrix_loop(twisted_convolve(involution(f, omega), f, omega), omega)
    scale = float(np.linalg.norm(mat, 2)) or 1.0
    eig = np.linalg.eigvals(mat)
    min_real = float(eig.real.min())
    max_imag = float(np.abs(eig.imag).max())
    return min_real, max_imag, scale, bool(min_real >= -tol * scale and max_imag <= tol * scale)


def symmetry_loop(t, f):
    min_real, max_imag, scale, passed = finite_symmetry_check_loop(f, t.ctx, tol=t.spec.params.get("tol", cli.EIGEN_TOL))
    return (min_real / scale, max_imag / scale), passed


def _inputs(**fs):
    return lambda: {name: function_to_json(f) for name, f in fs.items()}


def _margin(rep, **fs):
    return (rep["margin"],), rep["pass"], _inputs(**fs)


def _residual(t, rep):
    return (rep.value,), rep.value <= t.spec.params.get("tol", cli.RESIDUAL_TOL), lambda: rep.witness


def _unwitnessed(measure, *names):
    def scored(t, *fs):
        scores, ok = measure(t, *fs)
        return scores, ok, _inputs(**dict(zip(names, fs))) if names else None

    return scored


# the sampled-trial checks' runners (cli.TrialCheck) by check name
TRIAL_RUNNERS = {name: c.run for name, c in cli.CHECKS.items() if isinstance(c.run, cli.TrialCheck)}

# check name -> measure(trial, *fs) of one trial: (scores, ok, witness or None)
MEASURES_LOOP = {
    "algebra-bound": lambda t, f, g: _margin(check_algebra_bound_loop(f, g, t.ctx, t.dom), f=f, g=g),
    "module-bound": lambda t, f, g: _margin(check_module_bound_loop(f, g, t.ctx), f=f, g=g),
    "differential": lambda t, f, g: _margin(check_differential_bound_loop(f, g, t.ctx, t.spec.radius), f=f, g=g),
    "assoc": lambda t, f, g, h: _residual(t, check_associativity_loop(f, g, h, t.ctx.cocycle)),
    "intertwine": lambda t, f, g: _residual(t, check_intertwining_loop(f, g, t.ctx.weight, t.ctx.cocycle)),
    "sandwich": _unwitnessed(sandwich_loop),
    "holder": _unwitnessed(holder_loop, "f", "v"),
    "lambda-isometry": _unwitnessed(lambda_gap_loop),
    "symmetry-finite": _unwitnessed(symmetry_loop),
}


def _replaces(worse, score, worst) -> bool:
    """Whether a trial's score becomes the worst so far: strictly worse, or
    the first NaN (which then stays the worst)."""
    return worse(score, worst) or (math.isnan(score) and not math.isnan(worst))


def worst_loop(scores, worse):
    """(worst score, its trial or None) by ``_replaces``, trial by trial."""
    worst, kept = (math.inf if worse is cli.MIN else 0.0), None
    for i, score in enumerate(scores):
        if _replaces(worse, score, worst):
            worst, kept = score, i
    return worst, kept


def run_trials_loop(spec, measure=None):
    """A sampled-trial check run one trial at a time: draw each chunk's
    functions with ``draw_functions_loop``, then score trial by trial and
    keep the worst scores; ``measure`` defaults to the check's
    ``MEASURES_LOOP`` entry."""
    check, params = TRIAL_RUNNERS[spec.check], cli.CHECKS[spec.check].resolve(spec)
    measure = measure or MEASURES_LOOP[spec.check]
    ctx, dom = cli._domination(spec, params) if check.dominated else (cli._ctx(spec), None)
    trial = cli.Trial(spec, params, ctx, dom)
    rng = np.random.default_rng(spec.seed)
    radius = params["sample_radius"] if check.radius is None else check.radius
    keys, worse = zip(*check.worst)
    worst = [math.inf if w is cli.MIN else 0.0 for w in worse]
    witness, ok = None, True
    drawn = []
    for start in range(spec.trials):
        if start % cli.TRIAL_CHUNK == 0:
            n = min(cli.TRIAL_CHUNK, spec.trials - start) * check.draws
            drawn = draw_functions_loop(ctx.cocycle.group, rng, n, radius=radius)
        fs, drawn = drawn[: check.draws], drawn[check.draws :]
        scores, trial_ok, found = measure(trial, *fs)
        if _replaces(worse[0], scores[0], worst[0]):
            witness = found
        worst = [x if _replaces(w, x, y) else y for w, x, y in zip(worse, scores, worst)]
        ok = ok and trial_ok
    out = {"trials": spec.trials, **dict(zip(keys, worst)), "pass": ok}
    if check.witness:
        out["witness"] = None if witness is None else witness()
    return out


# ---------------------------------------------------------------------------
# Batches of one, for tests that score a single trial


def singletons(*fs):
    """One FunctionBatch of one row per function."""
    return [FunctionBatch.of(f.group, [f]) for f in fs]


def first_trial(rep):
    """Trial 0 of a batched checker's report: a ResidualReport of one value
    and witness, or the dict with each per-trial array read at row 0."""
    if isinstance(rep, ResidualReport):
        return ResidualReport(float(rep.value[0]), rep.witness[0])
    return {k: v[0].item() if isinstance(v, np.ndarray) else v for k, v in rep.items()}
