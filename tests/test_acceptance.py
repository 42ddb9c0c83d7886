"""Acceptance battery: one test per numbered criterion, each printing a
PASS/FAIL line with its headline numbers.

Criterion 9 is split into its two weight quotients.  The subexponential
quotient exp(sqrt(tau))/(1+tau)^25 has its ball maximum of
w(st)/(w(s)w(t)) pinned to antipodal boundary pairs until the radius
reaches about (2*25)^2 = 2500, so its radius-30 constant cannot be stable
under doubling at the 5 percent level; the test states the requirement
as written and records the measured growth in its failure message.  See
tests/test_acceptance.py::test_c09 and the script
scripts/weight_constants.py for the radius sweep.
"""

import json
import math

import numpy as np
import pytest

from conftest import builtin_pairs
from torlicz.cli import SUITES, emit_report, run_suite
from torlicz.cocycles import (
    Cocycle,
    bicharacter_cocycle,
    central_extension_embed,
    central_extension_group,
    coboundary_from_weight,
    domination_from_subadditive,
    one_cocycle,
    polar,
    product_cocycle,
    verify_cocycle,
)
from torlicz.groups import (
    ball_sizes,
    cyclic_group,
    cyclic_product_group,
    growth_degree_estimate,
    heisenberg_group,
    integer_lattice,
)
from torlicz.orlicz import (
    FunctionBatch,
    delta,
    dual_pairing_bound,
    l1_norm,
    luxemburg_norm,
    orlicz_norm,
    psi_membership_series,
    random_supported_function,
)
from torlicz.twisted import (
    AlgebraContext,
    check_algebra_bound,
    check_intertwining,
    finite_symmetry_check,
    twisted_convolve,
)
from torlicz.weights import (
    analyze_p_function,
    check_submultiplicative,
    check_symmetric,
    make_poly_weight,
    make_subexp2_weight,
    make_subexp_weight,
    quotient_weight,
)
from torlicz.young import (
    YoungPair,
    conjugate,
    l1_pair,
    lp_pair,
    young_function,
)

Z1 = integer_lattice(1)
Z2 = integer_lattice(2)


def report_line(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {tag}: {status}  {detail}")


def test_c01_norm_sandwich_and_l1_equality():
    pairs = builtin_pairs()  # L1, Lp 1.5/2/3, xlog, cosh, expm, entropy
    rng = np.random.default_rng(101)
    slack = 1e-8
    trials = 0
    worst = math.inf
    ok = True
    while trials < 500:
        pair = pairs[trials % len(pairs)]
        f = random_supported_function(Z2, rng)
        n = luxemburg_norm(f, pair.phi)
        o = orlicz_norm(f, pair)
        worst = min(worst, o - n * (1 - slack), 2 * n * (1 + slack) - o)
        ok = ok and n * (1 - slack) <= o <= 2 * n * (1 + slack)
        if pair.name == "L1":
            ok = ok and abs(o - l1_norm(f)) <= 1e-10 * max(1.0, l1_norm(f))
        trials += 1
    report_line("C01 norm-sandwich", ok, f"trials={trials} worst_margin={worst:.3e}")
    assert ok


def test_c02_conjugate_correctness():
    ok = True
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        pair = lp_pair(p)
        q = p / (p - 1.0)
        for y in np.linspace(0.01, 20.0, 100):
            expected = y**q / q
            rel = abs(conjugate(pair.phi, float(y)) - expected) / expected
            worst = max(worst, rel)
            ok = ok and rel <= 1e-8
    phi1 = l1_pair().phi
    for y in (0.0, 0.3, 0.99, 1.0):
        ok = ok and conjugate(phi1, y) == 0.0
    for y in (1.01, 2.0, 7.5):
        ok = ok and math.isinf(conjugate(phi1, y))
    report_line("C02 conjugate", ok, f"worst_rel={worst:.3e}")
    assert ok


def test_c03_holder_zero_violations():
    rng = np.random.default_rng(103)
    plan = [("Lp:2", 150), ("Lp:1.5", 100), ("expm", 100), ("entropy", 100), ("L1", 50)]
    from torlicz.young import parse_pair

    violations = 0
    total = 0
    for spec, trials in plan:
        pair = parse_pair(spec)
        for _ in range(trials):
            f = random_supported_function(Z2, rng)
            v = random_supported_function(Z2, rng)
            rep = dual_pairing_bound(f, v, pair)
            if not (rep["holder_ok"] and rep["dual_certificate_ok"]):
                violations += 1
            total += 1
    report_line("C03 holder", violations == 0, f"trials={total} violations={violations}")
    assert violations == 0


def test_c04_cocycle_suite():
    w = make_poly_weight(Z2, 2.0)
    cob = coboundary_from_weight(w)
    bic = bicharacter_cocycle(Z2, 0.9)
    rep_cob = verify_cocycle(cob, 6)
    rep_bic = verify_cocycle(bic, 6)
    full = rep_cob.n_triples == 13**6 and not rep_cob.sampled
    residuals_ok = (
        rep_cob.identity_residual <= 1e-10
        and rep_cob.normalization_residual <= 1e-10
        and rep_bic.identity_residual <= 1e-10
        and rep_bic.normalization_residual <= 1e-10
    )

    prod = product_cocycle(cob, bic)
    modulus, phase = polar(prod)
    polar_ok = True
    from torlicz.groups import ball_elements

    for s in ball_elements(Z2, 4):
        for t in ball_elements(Z2, 4):
            v = prod(s, t)
            polar_ok = polar_ok and abs(modulus(s, t) * phase(s, t) - v) <= 1e-13 * abs(v)
            polar_ok = polar_ok and abs(modulus(s, t) - cob(s, t).real) <= 1e-12 * cob(s, t).real

    def corrupted(s, t):
        return 3.0 * cob(s, t) if (s, t) == ((1, 0), (0, 1)) else cob(s, t)

    bad = Cocycle(Z2, corrupted, "fault")
    rep_bad = verify_cocycle(bad, 3)
    detected = rep_bad.identity_residual > 1e-6 and rep_bad.witness is not None

    ok = full and residuals_ok and polar_ok and detected
    report_line(
        "C04 cocycle-suite",
        ok,
        f"idres={max(rep_cob.identity_residual, rep_bic.identity_residual):.2e} "
        f"triples={rep_cob.n_triples} fault_res={rep_bad.identity_residual:.2e}",
    )
    assert ok


def test_c05_algebra_bound():
    beta = 2.0
    w = make_poly_weight(Z1, beta)
    om = coboundary_from_weight(w)
    pair = lp_pair(2.0)
    ctx = AlgebraContext(cocycle=om, pair=pair)
    dom = domination_from_subadditive(om, w, 2.0**beta, pair, 20)
    rng = np.random.default_rng(105)
    fs, gs = zip(*((random_supported_function(Z1, rng, radius=4), random_supported_function(Z1, rng, radius=4))
                   for _ in range(200)))
    rep = check_algebra_bound(FunctionBatch.of(Z1, fs), FunctionBatch.of(Z1, gs), ctx, dom)
    worst = min(rep["margin"].tolist())
    violations = int(np.sum(~rep["pass"]))
    ok = violations == 0
    report_line("C05 algebra-bound", ok, f"trials=200 violations={violations} worst_margin={worst:.3e}")
    assert ok


def test_c06_membership_series():
    w1 = make_poly_weight(Z1, 1.0)
    conv = psi_membership_series(w1, lp_pair(2.0), 1.0, 4096)
    conv_ok = conv.converges and all(r < 1.0 for r in conv.block_ratios[-3:])

    linear_pair = YoungPair(
        name="linear-psi", phi=l1_pair().psi, psi=young_function("y", lambda y: y)
    )
    w05 = make_poly_weight(Z1, 0.5)
    div = psi_membership_series(w05, linear_pair, 1.0, 4096)
    div_ok = not div.converges

    ok = conv_ok and div_ok
    report_line(
        "C06 psi-series",
        ok,
        f"convergent_tail_ratio={conv.block_ratios[-1]:.3f} divergent_tail_ratio={div.block_ratios[-1]:.3f}",
    )
    assert ok


def test_c07_lambda_intertwining():
    w = make_poly_weight(Z2, 2.0)
    om = product_cocycle(coboundary_from_weight(w), bicharacter_cocycle(Z2, 1.7))
    rng = np.random.default_rng(107)
    fs, gs = zip(*((random_supported_function(Z2, rng), random_supported_function(Z2, rng)) for _ in range(200)))
    worst = max(check_intertwining(FunctionBatch.of(Z2, fs), FunctionBatch.of(Z2, gs), w, om).value.tolist())
    ok = worst <= 1e-10
    report_line("C07 intertwining", ok, f"trials=200 worst_residual={worst:.3e}")
    assert ok


def test_c08_p_lemma_grid():
    ok = True
    details = []
    for c in (1.0, 2.0):
        for beta in (1.0, 2.0):
            for gamma in (1.0, 2.0):
                res = analyze_p_function(beta, gamma, c)
                ok = ok and res.violations == 0
                details.append(f"({beta:g},{gamma:g},{c:g}):x0={res.x0:.3g},M={res.m_const:.3g}")
    report_line("C08 p-lemma", ok, " ".join(details[:3]) + " ...")
    assert ok


@pytest.mark.parametrize(
    "label,quotient",
    [
        (
            "subexp(0.5,1)/poly(25)",
            lambda: quotient_weight(
                make_subexp_weight(Z1, 0.5, 1.0), make_poly_weight(Z1, 25.0)
            ),
        ),
        (
            "subexp2(1,1)/poly(1)",
            lambda: quotient_weight(
                make_subexp2_weight(Z1, 1.0, 1.0), make_poly_weight(Z1, 1.0)
            ),
        ),
    ],
    ids=["sigma-quotient", "rho-quotient"],
)
def test_c09_quotient_weight_stability(label, quotient):
    w = quotient()
    k30 = check_submultiplicative(w, 30)
    k60 = check_submultiplicative(w, 60)
    growth = k60.constant / k30.constant
    finite = math.isfinite(k30.constant) and math.isfinite(k60.constant)
    ok = finite and growth <= 1.05
    report_line(
        f"C09 quotient-stability[{label}]",
        ok,
        f"K30={k30.constant:.6g} K60={k60.constant:.6g} growth={growth:.6g}",
    )
    assert ok, (
        f"{label}: radius-30 constant {k30.constant:.6g} grows to {k60.constant:.6g} "
        f"at radius 60 (factor {growth:.3g}); the ball maximum sits on antipodal "
        f"boundary pairs (witness {k60.witness}) and keeps growing until radius "
        f"~(2*beta/C)^2, so 5 percent stability at radius 30 is unattainable for "
        f"this family"
    )


def test_c10_finite_symmetry():
    pair = lp_pair(2.0)
    cases = [
        ("Z4", cyclic_group(4), None),  # default theta = pi/2, values i^{jk}
        ("Z2xZ2", cyclic_product_group((2, 2)), math.pi),  # values (-1)^{bc}
    ]
    ok = True
    details = []
    for name, group, theta in cases:
        om = bicharacter_cocycle(group, theta)
        sigma = make_poly_weight(group, 1.0)
        assert check_symmetric(sigma, group.order)
        ctx = AlgebraContext(cocycle=om, pair=pair, weight=sigma)
        rng = np.random.default_rng(110)
        worst_real = 0.0
        worst_imag = 0.0
        for _ in range(50):
            f = random_supported_function(group, rng)
            rep = finite_symmetry_check(f, ctx, tol=1e-10)
            ok = ok and rep.passed
            worst_real = min(worst_real, rep.min_real / rep.scale)
            worst_imag = max(worst_imag, rep.max_imag / rep.scale)
        details.append(f"{name}: min_re/scale={worst_real:.2e} max_im/scale={worst_imag:.2e}")
    report_line("C10 finite-symmetry", ok, "; ".join(details))
    assert ok


def test_c11_central_extension():
    group = cyclic_group(4)
    om = bicharacter_cocycle(group)  # Omega(j, k) = i^{jk}
    ext = central_extension_group(group, om, 4)
    ext_one = one_cocycle(ext)
    worst = 0.0
    for j in range(4):
        for k in range(4):
            f = delta(group, (j,))
            g = delta(group, (k,))
            lhs = central_extension_embed(twisted_convolve(f, g, om), ext)
            gf = central_extension_embed(f, ext)
            gg = central_extension_embed(g, ext)
            rhs = twisted_convolve(gf, gg, ext_one).scale(0.25)
            worst = max(worst, l1_norm(lhs.sub(rhs)))
    ok = worst <= 1e-12
    report_line("C11 central-extension", ok, f"basis_sweep_residual={worst:.3e}")
    assert ok


def test_c12_growth():
    exact_ok = True
    for d in (1, 2, 3):
        sizes = ball_sizes(integer_lattice(d), 12)
        exact_ok = exact_ok and sizes == [(2 * n + 1) ** d for n in range(1, 13)]
    fit = growth_degree_estimate(ball_sizes(heisenberg_group(), 12))
    h3_ok = 3.5 <= fit.degree <= 4.5
    ok = exact_ok and h3_ok
    report_line("C12 growth", ok, f"lattice_exact={exact_ok} h3_degree={fit.degree:.3f}")
    assert ok


def test_c13_suite_determinism():
    ok = True
    for name in SUITES:
        docs = []
        for _ in range(2):
            doc = json.loads(emit_report(run_suite(name), "json"))
            doc["environment"].pop("timestamp")
            docs.append(json.dumps(doc, sort_keys=True).encode())
        ok = ok and docs[0] == docs[1]
    report_line("C13 determinism", ok, f"suites={len(SUITES)}")
    assert ok
