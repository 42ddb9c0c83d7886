"""Command-line front end and batch verification suites.

Subcommands: ``norm``, ``conv``, ``growth``, ``plemma``, ``check <name>``,
``suite <preset|file>``, ``report``.  Exit codes: 0 pass, 1 check failure,
2 usage or budget error, malformed input files and check specs included.

A suite is a list of CheckSpec entries run in dependency order; reruns
with the same seed reproduce identical numeric report fields (the
timestamp is the only field allowed to differ).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import operator
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .cocycles import (
    DominationViolation,
    domination_from_subadditive,
    one_cocycle,
    parse_cocycle,
    polar,
    central_extension_embed,
    central_extension_group,
    complex_product,
    value_table,
    verify_cocycle,
)
from .groups import (
    BudgetError,
    ball_elements,
    ball_sizes,
    element_from_list,
    growth_degree_estimate,
    pair_table,
    parse_group,
)
from .orlicz import (
    FLOAT_GUARD,
    SupportedFunction,
    _min,
    build_supported_functions,
    draw_supported_function,
    dual_pairing_bounds,
    function_from_json,
    function_to_json,
    l1_norm,
    luxemburg_norm,
    luxemburg_norms,
    modular,
    orlicz_norm,
    orlicz_norms,
    psi_membership_series,
    random_supported_function,
    weighted_l1_norm,
)
from .twisted import (
    AlgebraContext,
    _divided,
    _times,
    check_algebra_bound,
    check_associativity,
    check_differential_bound,
    check_intertwining,
    check_module_bound,
    convolution_powers,
    finite_symmetry_check,
    power_norms,
    twisted_convolve,
    weight_growth_rate,
)
from .weights import (
    PFunctionError,
    analyze_p_function,
    check_grs,
    check_lss_domination,
    check_submultiplicative,
    check_symmetric,
    check_weak_subadditive,
    parse_weight,
    weight_table,
)
from .young import parse_pair

RESIDUAL_TOL = 1e-10
EXTENSION_TOL = 1e-12
EIGEN_TOL = 1e-8
# spectral on an infinite group passes iff the fitted weight growth rate
# (twisted.weight_growth_rate) is at most this.  At the default n_max 24 and
# sample radius 2, seeds 0-40 gave at most 0.085 for the GRS weights poly:2,
# poly:3 and subexp:0.5:1 on Z and Z^2, and more than 0.1 for subexp:1:1 on
# 65 of the 66 samples that are not a point mass at the identity.
GROWTH_RATE_TOL = 0.1

# JSON types of the CheckSpec fields; the others are strings
_FIELD_KINDS = {"radius": int, "trials": int, "seed": int, "params": dict}


@dataclass(frozen=True)
class CheckSpec:
    """One named check with everything needed to reproduce it."""

    check: str
    group: str = "Z^d:1"
    pair: str = "Lp:2"
    weight: str | None = None
    weight2: str | None = None
    cocycle: str | None = None
    radius: int = 8
    trials: int = 50
    seed: int = 0
    params: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(doc: dict) -> "CheckSpec":
        """The spec of a JSON check entry; ValueError on an entry of another
        shape.  A field whose default is None may also be null."""
        if not isinstance(doc, dict) or "check" not in doc:
            raise ValueError(f'a check entry must be an object with a "check" name, got {doc!r}')
        fields = CheckSpec.__dataclass_fields__
        unknown = set(doc) - set(fields)
        if unknown:
            raise ValueError(f"unknown CheckSpec fields: {sorted(unknown)}")
        for name, value in doc.items():
            kind = _FIELD_KINDS.get(name, str)
            if not (isinstance(value, kind) and not isinstance(value, bool)
                    or value is None and fields[name].default is None):
                raise ValueError(f"CheckSpec field {name!r} must be {kind.__name__}, got {value!r}")
        return CheckSpec(**doc)


@dataclass(frozen=True)
class Report:
    suite: str
    spec: tuple
    results: tuple
    environment: dict
    passed: bool


def _jsonable(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, complex):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def _dumps(obj, **kwargs) -> str:
    """Strict JSON: non-finite floats become the strings "inf", "-inf" and
    "nan" (float() reads them back), never the non-standard tokens."""
    return json.dumps(_jsonable(obj), sort_keys=True, allow_nan=False, **kwargs)


# ---------------------------------------------------------------------------
# Check runners.  Each takes a CheckSpec and returns a dict that includes at
# least {"check", "pass"}; numeric fields are fully determined by the spec.


def _ctx(spec: CheckSpec) -> AlgebraContext:
    group = parse_group(spec.group)
    pair = parse_pair(spec.pair)
    cocycle = parse_cocycle(group, spec.cocycle or "one")
    weight = parse_weight(group, spec.weight) if spec.weight else None
    aux = parse_weight(group, spec.weight2) if spec.weight2 else None
    return AlgebraContext(cocycle=cocycle, pair=pair, weight=weight, aux_weight=aux)


def _run_cocycle_verify(spec: CheckSpec) -> dict:
    ctx = _ctx(spec)
    rep = verify_cocycle(ctx.cocycle, spec.radius, seed=spec.seed)
    tol = spec.params.get("tol", RESIDUAL_TOL)
    return {
        "identity_residual": rep.identity_residual,
        "normalization_residual": rep.normalization_residual,
        "sup_abs": rep.sup_abs,
        "n_triples": rep.n_triples,
        "sampled": rep.sampled,
        "witness": rep.witness,
        "pass": rep.identity_residual <= tol and rep.normalization_residual <= tol,
    }


def _run_cocycle_polar(spec: CheckSpec) -> dict:
    ctx = _ctx(spec)
    modulus, phase = polar(ctx.cocycle)
    elems = ball_elements(ctx.cocycle.group, spec.radius)
    v = value_table(ctx.cocycle, elems, elems)
    ph = value_table(phase, elems, elems)
    # complex_product rounds as the scalar (|v|, 0.0) * phase does.  numpy's
    # own multiply gives the same bits on this product, because the modulus
    # table is real with imaginary part +0.0 (2,000,000 of 2,000,000 real x
    # unit-phase samples matched on x86-64 with numpy 2.4), so no test can
    # tell the two apart here; on general complex products they differ in
    # about 44% of samples (874,874 of 2,000,000).
    recon = complex_product(value_table(modulus, elems, elems), ph) - v
    # fmax from 0.0: the running max(worst, x) of the pair loop, which skips NaN
    worst_recon = float(np.fmax.reduce(np.hypot(recon.real, recon.imag), axis=None, initial=0.0))
    unimod = np.abs(np.hypot(ph.real, ph.imag) - 1.0)
    worst_unimod = float(np.fmax.reduce(unimod, axis=None, initial=0.0))
    parts_ok = (
        verify_cocycle(modulus, spec.radius).identity_residual <= RESIDUAL_TOL
        and verify_cocycle(phase, spec.radius).identity_residual <= RESIDUAL_TOL
    )
    return {
        "reconstruction_residual": worst_recon,
        "unimodularity_residual": worst_unimod,
        "parts_are_cocycles": parts_ok,
        "pass": worst_recon <= 1e-12 and worst_unimod <= 1e-12 and parts_ok,
    }


def _domination(spec: CheckSpec):
    ctx = _ctx(spec)
    c = spec.params.get("C")
    if c is None:
        c = check_weak_subadditive(ctx.weight, spec.radius).constant
    return ctx, domination_from_subadditive(ctx.cocycle, ctx.weight, float(c), ctx.pair, spec.radius)


def _run_domination(spec: CheckSpec) -> dict:
    _, dom = _domination(spec)
    return {
        "n_psi_u": dom.n_psi_u,
        "n_psi_v": dom.n_psi_v,
        "algebra_constant": dom.algebra_constant,
        "radius": dom.radius,
        "pass": True,
    }


def _run_spectral(spec: CheckSpec) -> dict:
    ctx = _ctx(spec)
    group = ctx.cocycle.group
    radius = spec.params.get("sample_radius", 2)
    # op reduces a generator that is not canonical, such as Zn:1's (1,)
    if radius < 1 or all(group.op(u, group.identity) == group.identity for u in group.generators):
        raise ValueError(f"spectral on {group.name} at sample_radius {radius} draws only point masses at the identity")
    rng = np.random.default_rng(spec.seed)
    f = random_supported_function(group, rng, radius=radius)
    # a multiple of the identity's point mass has the same weighted and
    # plain norms in every power, for every weight: that pass is vacuous
    while f.values.keys() == {group.identity}:
        f = random_supported_function(group, rng, radius=radius)
    powers = convolution_powers(f, ctx.cocycle, spec.params.get("n_max", 24))
    seq_phi = power_norms(powers, ctx, "phi")
    seq_l1 = power_norms(powers, ctx, "l1")
    gap = abs(seq_phi[-1] - seq_l1[-1]) / max(seq_l1[-1], 1e-300)
    out = {
        "phi_sequence_tail": float(seq_phi[-1]),
        "l1_sequence_tail": float(seq_l1[-1]),
        "relative_gap": float(gap),
        "trend_only": False,
    }
    if group.order is not None:
        return {**out, "pass": bool(gap <= spec.params.get("gap_tol", 0.05))}
    rate = weight_growth_rate(powers, ctx)
    return {**out, "weight_growth_rate": rate, "growth_rate_tol": GROWTH_RATE_TOL, "pass": rate <= GROWTH_RATE_TOL}


def _run_central_ext(spec: CheckSpec) -> dict:
    group = parse_group(spec.group)
    if group.order is None:
        raise ValueError("central-ext needs a finite group")
    ctx = _ctx(spec)
    n = spec.params.get("n")
    n = group.order if n is None else n
    tol = spec.params.get("tol", EXTENSION_TOL)
    elems = ball_elements(group, group.order)
    ext = central_extension_group(group, ctx.cocycle, n)
    untwisted = one_cocycle(ext)
    worst = 0.0
    witness = None
    for s in elems:
        for t in elems:
            f = SupportedFunction(group, {s: 1.0})
            g = SupportedFunction(group, {t: 1.0})
            lhs = central_extension_embed(twisted_convolve(f, g, ctx.cocycle), ext)
            gf = central_extension_embed(f, ext)
            gg = central_extension_embed(g, ext)
            rhs = twisted_convolve(gf, gg, untwisted).scale(1.0 / n)
            resid = l1_norm(lhs.sub(rhs))
            if resid > worst:
                worst, witness = resid, (s, t)
    return {"residual": worst, "witness": witness, "n": n, "pass": worst <= tol}


def _constant(rep, ok: bool) -> dict:
    """The report of a ball-pair constant (a weights.PairCheck)."""
    return {"radius": rep.radius, "constant": rep.constant, "witness": rep.witness, "pass": ok}


def _run_submult(spec: CheckSpec) -> dict:
    rep = check_submultiplicative(_ctx(spec).weight, spec.radius)
    bound = spec.params.get("bound")
    return _constant(rep, math.isfinite(rep.constant) and (bound is None or rep.constant <= bound))


def _run_submult_stable(spec: CheckSpec) -> dict:
    ctx = _ctx(spec)
    factor = spec.params.get("factor", 1.05)
    rep1 = check_submultiplicative(ctx.weight, spec.radius)
    rep2 = check_submultiplicative(ctx.weight, 2 * spec.radius)
    growth = rep2.constant / rep1.constant
    return {
        "radius": spec.radius,
        "constant": rep1.constant,
        "constant_doubled": rep2.constant,
        "growth": growth,
        "witness": rep2.witness,
        "pass": math.isfinite(rep2.constant) and growth <= factor,
    }


def _run_weak_subadd(spec: CheckSpec) -> dict:
    rep = check_weak_subadditive(_ctx(spec).weight, spec.radius)
    bound = spec.params.get("bound")
    return _constant(rep, bound is None or rep.constant <= bound)


def _run_symmetric(spec: CheckSpec) -> dict:
    ctx = _ctx(spec)
    ok = check_symmetric(ctx.weight, spec.radius)
    return {"radius": spec.radius, "pass": bool(ok)}


def _run_grs(spec: CheckSpec) -> dict:
    ctx = _ctx(spec)
    group = ctx.cocycle.group
    s = spec.params.get("element")
    s = group.generators[-1] if s is None else element_from_list(group, s)
    n_max = spec.params.get("n_max", 200)
    seq = check_grs(ctx.weight, s, n_max)
    bound = spec.params.get("max_final")
    final = float(seq[-1])
    return {
        "element": s,
        "final": final,
        "monotone_tail_decreasing": bool(np.all(np.diff(seq[n_max // 2 :]) <= 1e-12)),
        "pass": bound is None or final <= bound,
    }


def _run_lss(spec: CheckSpec) -> dict:
    ctx = _ctx(spec)
    rep = check_lss_domination(ctx.weight, ctx.aux_weight, spec.radius)
    return _constant(rep, math.isfinite(rep.constant) and rep.constant >= 1.0)


def _run_plemma(spec: CheckSpec) -> dict:
    p = spec.params
    res = analyze_p_function(p.get("beta", 1.0), p.get("gamma", 1.0), p.get("C", 1.0))
    return {
        "x0": res.x0,
        "M": res.m_const,
        "violations": res.violations,
        "pass": res.violations == 0,
    }


def _run_psi_series(spec: CheckSpec) -> dict:
    ctx = _ctx(spec)
    rep = psi_membership_series(
        ctx.weight,
        ctx.pair,
        spec.params.get("N", 1.0),
        spec.params.get("n_max", 4096),
    )
    expect = spec.params.get("expect", "convergent")
    got = "convergent" if rep.converges else "divergent"
    return {
        "verdict": got,
        "expected": expect,
        "last_partial_sum": rep.partial_sums[-1],
        "block_ratios_tail": rep.block_ratios[-3:],
        "pass": got == expect,
    }


def _run_block_weight(spec: CheckSpec) -> dict:
    group = parse_group(spec.group)
    weight = parse_weight(group, spec.weight or "block:1,3,9,27,81")
    elems, elems2, prod = pair_table(group, len(group.identity))
    w2 = np.array([weight(g) for g in elems2])
    w = w2[: len(elems)]
    excess = w2[prod] - np.maximum.outer(w, w)
    i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
    worst = float(excess[i, j])
    return {"max_excess": worst, "witness": (elems[i], elems[j]), "pass": worst <= 1e-12}


# ---------------------------------------------------------------------------
# Sampled-trial checks.  The trials run in chunks of TRIAL_CHUNK: every
# trial's functions of a chunk are drawn first, in the scalar RNG order of a
# trial-by-trial loop, and built into one FunctionBatch per function slot;
# the measure scores the chunk's trials at once and the report keeps the
# worst score under each report key, with the witness of the trial behind
# the worst first score.

MIN, MAX = operator.lt, operator.gt  # a margin is worse when lower, a residual when higher
RESIDUAL = (("worst_residual", MAX),)
# Trials measured at once: the batched arrays grow with the chunk, not with
# spec.trials (symmetry-finite's (|G|, |G|) matrices, which also grow with
# the group, go in stacks of twisted.SYMMETRY_MATRIX_BYTES).  The presets
# run at most 60 trials, one chunk each.
TRIAL_CHUNK = 256


class Trial(NamedTuple):
    spec: CheckSpec
    ctx: AlgebraContext
    dom: object  # the domination pair of a dominated check, else None


@dataclass(frozen=True)
class TrialCheck:
    """``draws`` functions per trial from the ball of radius
    ``sample_radius(spec)``; ``measure(trial, *batches)`` gets one
    FunctionBatch per drawn function (row i of each is trial i) and returns
    ``(scores, ok, witness)``: one score array per ``(key, MIN | MAX)`` of
    ``worst`` (MIN keys start at inf, MAX keys at 0; a NaN score is worse
    than any number), a bool array, and a function of a trial index that
    gives that trial's witness, called only for a trial that becomes the
    worst so far, at most once a chunk (None for checks without a
    witness).  The check passes when every trial is ok.
    A ``dominated`` check gets the spec's domination pair as ``trial.dom``."""

    draws: int
    sample_radius: Callable
    measure: Callable
    worst: tuple = (("worst_margin", MIN),)
    witness: bool = True
    dominated: bool = False


def _worst(scores: np.ndarray, worse: Callable, start: float | None = None) -> tuple:
    """(worst score, its trial or None): the score a loop over the trials
    keeps when it replaces the worst so far by a strictly worse score or by
    the first NaN (which then stays the worst), starting from ``start``,
    by default 0 (MAX) or inf (MIN); None where no trial replaced it."""
    if start is None:
        start = 0.0 if worse is MAX else math.inf
    if math.isnan(start):
        return start, None
    nan = np.isnan(scores)
    if nan.any():
        i = int(np.argmax(nan))
        return float(scores[i]), i
    i = int(np.argmax(scores) if worse is MAX else np.argmin(scores))  # the first extreme
    return (float(scores[i]), i) if worse(scores[i], start) else (start, None)


def _measure(check: TrialCheck, trial: Trial, batches: list) -> tuple:
    """``check.measure`` on a chunk of trials.  Where it raises, the trials
    run again one at a time, so the error that leaves is the first failing
    trial's, as in a loop over the trials."""
    try:
        return check.measure(trial, *batches)
    except (ValueError, ArithmeticError, BudgetError):
        for i in range(len(batches[0])):
            check.measure(trial, *(b.take([i]) for b in batches))
        raise


def _run_trials(spec: CheckSpec, check: TrialCheck) -> dict:
    ctx, dom = _domination(spec) if check.dominated else (_ctx(spec), None)
    trial = Trial(spec, ctx, dom)
    group = ctx.cocycle.group
    rng = np.random.default_rng(spec.seed)
    radius = check.sample_radius(spec)
    keys, worse = zip(*check.worst)
    worst = [None] * len(keys)  # _worst's start values
    passed, kept = True, None
    for start in range(0, spec.trials, TRIAL_CHUNK):
        n = min(TRIAL_CHUNK, spec.trials - start) * check.draws
        built = build_supported_functions(group, [draw_supported_function(group, rng, radius=radius) for _ in range(n)])
        batches = [built.take(np.arange(k, n, check.draws)) for k in range(check.draws)]
        scores, ok, witness = _measure(check, trial, batches)
        passed &= bool(np.all(ok))
        for j, (x, w) in enumerate(zip(scores, worse)):
            worst[j], i = _worst(np.asarray(x, dtype=float), w, worst[j])
            if j == 0 and i is not None and check.witness:
                kept = witness(i)
    out = {"trials": spec.trials, **dict(zip(keys, worst)), "pass": passed}
    if check.witness:
        out["witness"] = kept
    return out


def _inputs(**batches) -> Callable:
    """The witness of trial i on the functions ``batches``: their JSON
    forms, made only for the trial whose witness is kept."""
    return lambda i: {name: function_to_json(b.function(i)) for name, b in batches.items()}


def _margin(rep: dict, **batches):
    return (rep["margin"],), rep["pass"], _inputs(**batches)


def _residual(t: Trial, rep):
    return (rep.value,), rep.value <= t.spec.params.get("tol", RESIDUAL_TOL), rep.witness.__getitem__


def _sandwich(t: Trial, f):
    """N_Phi(f) <= ||f||_Phi <= 2 N_Phi(f), each side with relative slack
    (by default the float guard of the other one-sided checks)."""
    slack = t.spec.params.get("slack", FLOAT_GUARD)
    n, o = luxemburg_norms(f, t.ctx.pair.phi), orlicz_norms(f, t.ctx.pair)
    low, high = o - n * (1.0 - slack), 2.0 * n * (1.0 + slack) - o
    return (_min(low, high),), (low >= 0) & (high >= 0), None


def _holder(t: Trial, f, v):
    rep = dual_pairing_bounds(f, v, t.ctx.pair)
    ok = rep["holder_ok"] & rep["dual_certificate_ok"]
    return (rep["holder_bound"] - rep["pairing_l1"],), ok, _inputs(f=f, v=v)


def _lambda_gap(t: Trial, f):
    """Relative gap between ||f||_Phi and the weighted norm of Lambda_w f."""
    pair, w = t.ctx.pair, t.ctx.weight
    plain = orlicz_norms(f, pair)
    gap = np.abs(plain - orlicz_norms(_times(_divided(f, weight_table(w, f.coords)), w), pair))
    gap /= np.where(1e-300 > plain, 1e-300, plain)
    return (gap,), gap <= t.spec.params.get("tol", RESIDUAL_TOL), None


def _symmetry(t: Trial, f):
    rep = finite_symmetry_check(f, t.ctx, tol=t.spec.params.get("tol", EIGEN_TOL))
    return (rep.min_real / rep.scale, rep.max_imag / rep.scale), rep.passed, None


def _param_radius(default: int):
    return lambda spec: spec.params.get("sample_radius", default)


# The measures call their checkers through this module's globals, so a
# rebinding such as cli.check_module_bound = traced(...) reaches the loop.
TRIAL_CHECKS = {
    "algebra-bound": TrialCheck(
        2, lambda spec: spec.params.get("sample_radius", max(1, spec.radius // 4)),
        lambda t, f, g: _margin(check_algebra_bound(f, g, t.ctx, t.dom), f=f, g=g), dominated=True),
    "module-bound": TrialCheck(
        2, _param_radius(3), lambda t, f, g: _margin(check_module_bound(f, g, t.ctx), f=f, g=g)),
    "differential": TrialCheck(
        2, _param_radius(3),
        lambda t, f, g: _margin(check_differential_bound(f, g, t.ctx, radius=t.spec.radius), f=f, g=g)),
    "assoc": TrialCheck(
        3, _param_radius(3),
        lambda t, f, g, h: _residual(t, check_associativity(f, g, h, t.ctx.cocycle)), RESIDUAL),
    "intertwine": TrialCheck(
        2, _param_radius(4),
        lambda t, f, g: _residual(t, check_intertwining(f, g, t.ctx.weight, t.ctx.cocycle)), RESIDUAL),
    "sandwich": TrialCheck(1, lambda spec: 4, _sandwich, witness=False),
    "holder": TrialCheck(2, lambda spec: 4, _holder),
    "lambda-isometry": TrialCheck(1, lambda spec: 4, _lambda_gap, (("worst_relative_gap", MAX),), witness=False),
    "symmetry-finite": TrialCheck(
        1, lambda spec: 2, _symmetry,
        (("worst_scaled_min_real", MIN), ("worst_scaled_max_imag", MAX)), witness=False),
}


CHECK_RUNNERS = {
    "cocycle-verify": _run_cocycle_verify,
    "cocycle-polar": _run_cocycle_polar,
    "domination": _run_domination,
    "spectral": _run_spectral,
    "central-ext": _run_central_ext,
    "submult": _run_submult,
    "submult-stable": _run_submult_stable,
    "weak-subadd": _run_weak_subadd,
    "symmetric": _run_symmetric,
    "grs": _run_grs,
    "lss": _run_lss,
    "plemma": _run_plemma,
    "psi-series": _run_psi_series,
    "block-weight": _run_block_weight,
    **{name: functools.partial(_run_trials, check=check) for name, check in TRIAL_CHECKS.items()},
}

# The spec weights each check reads: run_check rejects a spec without them
# (exit 2) before the runner starts.
REQUIRED_WEIGHTS = {
    **dict.fromkeys(
        ("submult", "submult-stable", "weak-subadd", "symmetric", "grs", "psi-series", "domination",
         "algebra-bound", "intertwine", "lambda-isometry", "differential"),
        ("weight",),
    ),
    "lss": ("weight", "weight2"),
}

# The params each check reads and their kinds; run_check rejects any other
# key or kind (exit 2) before the runner starts.  A number is an int or a
# float, never a bool; "or null" marks a param whose default is None.
_PARAM_KINDS = {
    "a number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "an int": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "an integer array": lambda x: isinstance(x, list),
    '"convergent" or "divergent"': lambda x: x in ("convergent", "divergent"),
}
CHECK_PARAMS = {
    "cocycle-verify": {"tol": "a number"},
    "cocycle-polar": {},
    "domination": {"C": "a number or null"},
    "spectral": {"sample_radius": "an int", "n_max": "an int", "gap_tol": "a number"},
    "central-ext": {"n": "an int or null", "tol": "a number"},
    "submult": {"bound": "a number or null"},
    "submult-stable": {"factor": "a number"},
    "weak-subadd": {"bound": "a number or null"},
    "symmetric": {},
    "grs": {"element": "an integer array or null", "n_max": "an int", "max_final": "a number or null"},
    "lss": {},
    "plemma": {"beta": "a number", "gamma": "a number", "C": "a number"},
    "psi-series": {"N": "a number", "n_max": "an int", "expect": '"convergent" or "divergent"'},
    "block-weight": {},
    "algebra-bound": {"C": "a number or null", "sample_radius": "an int"},
    "module-bound": {"sample_radius": "an int"},
    "differential": {"sample_radius": "an int"},
    "assoc": {"sample_radius": "an int", "tol": "a number"},
    "intertwine": {"sample_radius": "an int", "tol": "a number"},
    "sandwich": {"slack": "a number"},
    "holder": {},
    "lambda-isometry": {"tol": "a number"},
    "symmetry-finite": {"tol": "a number"},
}


def _check_params(spec: CheckSpec) -> None:
    accepted = CHECK_PARAMS[spec.check]
    for key, value in spec.params.items():
        kind = accepted.get(key)
        if kind is None:
            problem = f"unknown param {key!r}"
        elif value is None and kind.endswith(" or null") or _PARAM_KINDS[kind.removesuffix(" or null")](value):
            continue
        else:
            problem = f"param {key!r} must be {kind}, got {value!r}"
        keys = ", ".join(f"{k} ({v})" for k, v in accepted.items()) or "none"
        raise ValueError(f"check {spec.check}: {problem}; its params: {keys}")


# ---------------------------------------------------------------------------
# Preset suites (named after the structural results they exercise)

SUITES = {
    "thm-orlicz-alg": [
        dict(check="cocycle-verify", group="Z^d:1", cocycle="cobound:poly:2", radius=8),
        dict(check="cocycle-polar", group="Z^d:1", cocycle="prod:cobound:poly:2*bichar:0.7", radius=5),
        dict(check="domination", group="Z^d:1", cocycle="cobound:poly:2", weight="poly:2", radius=20, params={"C": 4.0}),
        dict(check="module-bound", group="Z^d:2", cocycle="cobound:poly:2", weight="poly:2", trials=40, seed=11),
        dict(check="algebra-bound", group="Z^d:1", cocycle="cobound:poly:2", weight="poly:2", radius=20, trials=60, seed=12, params={"C": 4.0, "sample_radius": 4}),
        dict(check="assoc", group="Z^d:2", cocycle="bichar:1.0", trials=40, seed=13),
        dict(check="intertwine", group="Z^d:2", cocycle="prod:cobound:poly:1*bichar:0.5", weight="poly:1", trials=40, seed=14),
    ],
    "cor-poly-weight": [
        dict(check="weak-subadd", group="Z^d:1", weight="poly:2", radius=24, params={"bound": 4.0}),
        dict(check="psi-series", group="Z^d:1", pair="Lp:2", weight="poly:1", params={"n_max": 4096, "expect": "convergent"}),
        dict(check="sandwich", group="Z^d:2", pair="Lp:2", trials=60, seed=21),
        dict(check="holder", group="Z^d:2", pair="Lp:2", trials=60, seed=22),
        dict(check="lambda-isometry", group="Z^d:2", pair="Lp:2", weight="poly:2", trials=40, seed=23),
        dict(check="block-weight", group="Block:6", weight="block:1,3,9,27,81"),
    ],
    "lem-p-function": [
        dict(check="plemma", params={"beta": b, "gamma": g, "C": c})
        for b in (1.0, 2.0)
        for g in (1.0, 2.0)
        for c in (1.0, 2.0)
    ],
    "thm-subexp": [
        dict(check="submult", group="Z^d:1", weight="subexp:0.5:1", radius=16, params={"bound": 1.0 + 1e-9}),
        dict(check="lss", group="Z^d:1", weight="subexp:0.5:1", weight2="poly:25", radius=30),
        dict(check="submult", group="Z^d:1", weight="quot:subexp:0.5:1/poly:25", radius=30),
        dict(check="grs", group="Z^d:1", weight="subexp:0.5:1", params={"element": [1], "n_max": 400, "max_final": 1.4}),
        dict(check="differential", group="Z^d:1", pair="Lp:2", cocycle="bichar:0.9", weight="subexp:0.5:1", weight2="poly:25", radius=10, trials=30, seed=31, params={"sample_radius": 2}),
    ],
    "prop-quotient-weight": [
        dict(check="symmetric", group="Z^d:1", weight="quot:subexp2:1:1/poly:1", radius=30),
        dict(check="submult-stable", group="Z^d:1", weight="quot:subexp2:1:1/poly:1", radius=30, params={"factor": 1.05}),
        dict(check="grs", group="Z^d:1", weight="quot:subexp2:1:1/poly:1", params={"element": [1], "n_max": 400}),
    ],
    "sym-finite": [
        dict(check="symmetry-finite", group="Zn:4", cocycle="bichar:", trials=50, seed=41),
        dict(check="symmetry-finite", group="Zn:2x2", cocycle="bichar:3.141592653589793", trials=50, seed=42),
        dict(check="spectral", group="Zn:8", cocycle="bichar:", seed=43, params={"n_max": 48}),
    ],
    "central-ext": [
        dict(check="central-ext", group="Zn:4", cocycle="bichar:", params={"n": 4}),
        dict(check="central-ext", group="Zn:2x2", cocycle="bichar:3.141592653589793", params={"n": 2}),
    ],
}


def run_check(spec: CheckSpec) -> dict:
    runner = CHECK_RUNNERS.get(spec.check)
    if runner is None:
        raise ValueError(f"unknown check {spec.check!r}; known: {sorted(CHECK_RUNNERS)}")
    if spec.trials < 1:
        raise ValueError(f"trials must be >= 1, got {spec.trials}")
    if spec.radius < 0:
        raise ValueError(f"radius must be >= 0, got {spec.radius}")
    missing = [name for name in REQUIRED_WEIGHTS.get(spec.check, ()) if not getattr(spec, name)]
    if missing:
        raise ValueError(f"{spec.check} needs {' and '.join(missing)}")
    _check_params(spec)
    out = {"check": spec.check, "spec": asdict(spec)}
    try:
        out.update(_jsonable(runner(spec)))
    except DominationViolation as exc:  # a failed result with its witness pair
        out.update(_jsonable({"pass": False, "witness": exc.witness, "error": str(exc)}))
    return out


def run_suite(name_or_specs) -> Report:
    """Run a preset suite or an explicit CheckSpec list.

    Hard failures of prerequisite checks (cocycle validity, domination)
    short-circuit the dependent remainder of the suite.  A suite without
    checks is a ValueError: it would pass without checking anything.
    """
    if isinstance(name_or_specs, str):
        if name_or_specs not in SUITES:
            raise ValueError(f"unknown suite {name_or_specs!r}; presets: {sorted(SUITES)}")
        suite_name = name_or_specs
        specs = [CheckSpec.from_dict(d) for d in SUITES[name_or_specs]]
    else:
        suite_name = "custom"
        specs = [s if isinstance(s, CheckSpec) else CheckSpec.from_dict(s) for s in name_or_specs]
    if not specs:
        raise ValueError("suite has no checks")

    # cocycle validity gates domination, which gates everything downstream:
    # gates run first (sorted is stable), results keep the spec order
    gates = {"cocycle-verify", "domination"}
    results: list[dict | None] = [None] * len(specs)
    gate_failed = False
    for i in sorted(range(len(specs)), key=lambda i: specs[i].check not in gates):
        if gate_failed:
            results[i] = {
                "check": specs[i].check,
                "spec": asdict(specs[i]),
                "skipped": "prerequisite check failed",
                "pass": False,
            }
            continue
        results[i] = run_check(specs[i])
        gate_failed = specs[i].check in gates and not results[i]["pass"]

    passed = all(r["pass"] for r in results)
    env = {
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    return Report(
        suite=suite_name,
        spec=tuple(_jsonable(asdict(s)) for s in specs),
        results=tuple(results),
        environment=env,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Report emission


def emit_report(report: Report, fmt: str = "json") -> str:
    doc = {
        "suite": report.suite,
        "spec": list(report.spec),
        "results": list(report.results),
        "environment": report.environment,
        "pass": report.passed,
    }
    if fmt == "json":
        return _dumps(doc, indent=2)
    if fmt == "csv":
        import csv as _csv
        import io

        buf = io.StringIO()
        writer = _csv.writer(buf)
        writer.writerow(["suite", "check", "pass", "metric", "value", "witness"])
        for res in report.results:
            metric, value = _headline_metric(res)
            witness = (
                _dumps(res.get("witness"))
                if res.get("witness") is not None
                else ""
            )
            writer.writerow([report.suite, res["check"], int(res["pass"]), metric, value, witness])
        return buf.getvalue()
    if fmt == "text":
        lines = [f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'}"]
        for res in report.results:
            metric, value = _headline_metric(res)
            line = f"  [{'ok' if res['pass'] else 'FAIL'}] {res['check']}: {metric}={value}"
            lines.append(line)
            if not res["pass"] and res.get("witness") is not None:
                lines.append(f"        witness: {_jsonable(res['witness'])}")
            if not res["pass"] and res.get("error"):
                lines.append(f"        error: {res['error']}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def _headline_metric(res: dict) -> tuple:
    for key in (
        "identity_residual",
        "residual",
        "worst_residual",
        "worst_margin",
        "constant",
        "growth",
        "verdict",
        "x0",
        "final",
        "relative_gap",
        "worst_scaled_min_real",
        "worst_relative_gap",
        "max_excess",
        "reconstruction_residual",
        "algebra_constant",
        "skipped",
    ):
        if key in res:
            return key, res[key]
    return "pass", res["pass"]


# ---------------------------------------------------------------------------
# File I/O


def parse_function_file(path: str, group=None) -> SupportedFunction:
    """Load a finitely supported function from its JSON file form."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    try:
        return function_from_json(doc, group)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _number_text(x: float) -> str:
    return repr(x) if math.isfinite(x) else '"%r"' % x


def function_file_text(f: SupportedFunction) -> str:
    """The function file of f: byte for byte ``_dumps(function_to_json(f),
    indent=2)`` (2-space indent, keys sorted, repr of finite floats, "inf",
    "-inf" and "nan" strings), formatted with one template per support point
    because the indented JSON encoder runs in pure Python."""
    head = '{\n  "group": %s,\n  "support": ' % json.dumps(f.group.name)
    if not f.values:
        return head + "[]\n}"
    elt = ",\n".join(["        %d"] * len(f.group.identity))
    record = '    {\n      "elt": [\n' + elt + '\n      ],\n      "im": %s,\n      "re": %s\n    }'
    body = ",\n".join(
        record % (*s, _number_text(v.imag), _number_text(v.real)) for s, v in f.values.items()
    )
    return head + "[\n" + body + "\n  ]\n}"


def save_function_file(f: SupportedFunction, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(function_file_text(f) + "\n")


# ---------------------------------------------------------------------------
# Entry point


def _cmd_norm(args) -> int:
    pair = parse_pair(args.pair)
    f = parse_function_file(args.infile)
    out = {
        "modular": modular(f, pair.phi),
        "luxemburg": luxemburg_norm(f, pair.phi),
        "orlicz": orlicz_norm(f, pair),
        "l1": l1_norm(f),
    }
    if args.weight:
        w = parse_weight(f.group, args.weight)
        out["weighted_orlicz"] = orlicz_norm(f.mul_pointwise(w), pair)
        out["weighted_l1"] = weighted_l1_norm(f, w)
    print(_dumps(out, indent=2))
    return 0


def _cmd_conv(args) -> int:
    f = parse_function_file(args.infiles[0])
    g = parse_function_file(args.infiles[1], f.group)
    omega = parse_cocycle(f.group, args.cocycle)
    h = twisted_convolve(f, g, omega)
    if args.out:
        save_function_file(h, args.out)
    else:
        print(function_file_text(h))
    return 0


def _cmd_growth(args) -> int:
    group = parse_group(args.group)
    sizes = ball_sizes(group, args.nmax)
    out = {"group": group.name, "sizes": sizes, "degree": None, "residual": None, "window": None}
    try:
        fit = growth_degree_estimate(sizes)
    except ValueError:
        pass  # below --nmax 4 the fit's upper window has too few radii; the sizes stand alone
    else:
        out.update(degree=fit.degree, residual=fit.residual, window=list(fit.window))
    print(_dumps(out, indent=2))
    return 0


def _cmd_plemma(args) -> int:
    res = analyze_p_function(args.beta, args.gamma, args.C)
    print(_dumps(
        {"beta": args.beta, "gamma": args.gamma, "C": args.C, "x0": res.x0,
         "M": res.m_const, "violations": res.violations},
        indent=2,
    ))
    return 0 if res.violations == 0 else 1


def _cmd_check(args) -> int:
    params = json.loads(args.params) if args.params else {}
    fields = ("group", "pair", "weight", "weight2", "cocycle", "radius", "trials", "seed")
    spec = CheckSpec.from_dict({"check": args.name, "params": params, **{k: getattr(args, k) for k in fields}})
    res = run_check(spec)
    print(_dumps(res, indent=2))
    return 0 if res["pass"] else 1


def _cmd_suite(args) -> int:
    if args.name in SUITES:
        report = run_suite(args.name)
    else:
        with open(args.name, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        specs = doc.get("checks") if isinstance(doc, dict) else doc
        if not isinstance(specs, list):
            raise ValueError(f'{args.name}: a suite file is a list of checks or an object with a "checks" list')
        report = run_suite([CheckSpec.from_dict(d) for d in specs])
    text = emit_report(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)
    return 0 if report.passed else 1


def _cmd_report(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    shape = {"suite": str, "spec": list, "results": list, "environment": dict, "pass": bool}
    if not (isinstance(doc, dict) and all(isinstance(doc.get(k), t) for k, t in shape.items())
            and all(isinstance(r, dict) and "check" in r and "pass" in r for r in doc["results"])):
        raise ValueError(f'{args.infile}: a report has {", ".join(shape)} and results with "check" and "pass"')
    report = Report(
        suite=doc["suite"],
        spec=tuple(doc["spec"]),
        results=tuple(doc["results"]),
        environment=doc["environment"],
        passed=doc["pass"],
    )
    print(emit_report(report, args.format))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused: building
    it costs about as much as a small ``norm`` or ``conv`` command, and
    parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="torlicz", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="norms of a function file")
    p.add_argument("--pair", default="Lp:2")
    p.add_argument("--weight", default=None)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("conv", help="twisted convolution of two function files")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--in", dest="infiles", nargs=2, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_conv)

    p = sub.add_parser("growth", help="ball sizes and growth degree")
    p.add_argument("--group", required=True)
    p.add_argument("--nmax", type=int, default=12)
    p.set_defaults(fn=_cmd_growth)

    p = sub.add_parser("plemma", help="analyze the concave-difference p function")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.set_defaults(fn=_cmd_plemma)

    p = sub.add_parser("check", help="run one named check")
    p.add_argument("name")
    p.add_argument("--group", default="Z^d:1")
    p.add_argument("--pair", default="Lp:2")
    p.add_argument("--weight", default=None)
    p.add_argument("--weight2", default=None)
    p.add_argument("--cocycle", default=None)
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", default=None, help="JSON dict of extra parameters")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("suite", help="run a preset suite or a JSON spec file")
    p.add_argument("name")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("report", help="re-emit a saved JSON report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.set_defaults(fn=_cmd_report)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError, PFunctionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
