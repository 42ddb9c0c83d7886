import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torlicz import orlicz
from torlicz.groups import cyclic_group, integer_lattice
from torlicz.orlicz import (
    BISECT_TOL,
    GroupMismatchError,
    SpaceContext,
    SupportedFunction,
    delta,
    dual_pairing_bound,
    function_from_json,
    function_to_json,
    l1_norm,
    lambda_map,
    luxemburg_norm,
    modular,
    orlicz_norm,
    psi_membership_series,
    random_supported_function,
    weighted_l1_norm,
    weighted_norm,
)
from torlicz.weights import constant_weight, make_poly_weight
from torlicz.young import (
    YoungPair,
    builtin_pairs,
    l1_pair,
    lp_pair,
    parse_pair,
    piecewise_pair,
    young_function,
)

Z1 = integer_lattice(1)
Z2 = integer_lattice(2)
P2 = lp_pair(2.0)


def test_zero_values_dropped():
    f = SupportedFunction(Z1, {(0,): 0.0, (1,): 2.0})
    assert set(f.support) == {(1,)}
    assert SupportedFunction(Z1, {}).is_zero()


def test_support_elements_canonicalized():
    g4 = cyclic_group(4)
    f = SupportedFunction(g4, {(7,): 1.0, (3,): 2.0})
    assert f.values == {(3,): 3.0 + 0.0j}


def test_modular_values():
    assert modular(SupportedFunction(Z1, {}), P2.phi) == 0.0
    assert modular(delta(Z1), P2.phi) == pytest.approx(0.5)
    ball = SupportedFunction(Z1, {(-1,): 1.0, (0,): 1.0, (1,): 1.0})
    assert modular(ball, P2.phi) == pytest.approx(3 * P2.phi(1.0))


def test_luxemburg_point_mass():
    assert luxemburg_norm(delta(Z1), P2.phi) == pytest.approx(1 / math.sqrt(2), abs=1e-11)
    assert luxemburg_norm(SupportedFunction(Z1, {}), P2.phi) == 0.0


def test_luxemburg_indicator_closed_form():
    f = SupportedFunction(Z1, {(k,): 1.0 for k in range(4)})
    assert luxemburg_norm(f, P2.phi) == pytest.approx((4 / 2) ** 0.5, abs=1e-10)
    p3 = lp_pair(3.0)
    g = SupportedFunction(Z1, {(k,): 1.0 for k in range(9)})
    assert luxemburg_norm(g, p3.phi) == pytest.approx(3.0 ** (1 / 3), abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False))
def test_luxemburg_absolute_homogeneity(c):
    f = SupportedFunction(Z1, {(0,): 1.0 + 0.5j, (2,): -0.75j})
    lhs = luxemburg_norm(f.scale(c), P2.phi)
    rhs = abs(c) * luxemburg_norm(f, P2.phi)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_luxemburg_boundary_characterization():
    rng = np.random.default_rng(3)
    for pair in (P2, parse_pair("expm"), parse_pair("xlog")):
        f = random_supported_function(Z1, rng)
        n = luxemburg_norm(f, pair.phi)
        g = f.scale(1.0 / n)
        # N(f) <= 1 iff modular(f) <= 1, probed on both sides of the boundary
        assert luxemburg_norm(g, pair.phi) == pytest.approx(1.0, abs=1e-9)
        assert modular(g, pair.phi) <= 1.0 + 1e-9
        shrunk = g.scale(0.9)
        assert modular(shrunk, pair.phi) <= 1.0
        assert luxemburg_norm(shrunk, pair.phi) <= 1.0
        grown = g.scale(1.5)
        assert modular(grown, pair.phi) > 1.0
        assert luxemburg_norm(grown, pair.phi) > 1.0


def test_orlicz_norm_point_mass_amemiya():
    assert orlicz_norm(delta(Z1), P2) == pytest.approx(math.sqrt(2), abs=1e-10)
    assert orlicz_norm(SupportedFunction(Z1, {}), P2) == 0.0


def test_orlicz_norm_linear_case_is_l1():
    pair = l1_pair()
    rng = np.random.default_rng(5)
    for _ in range(25):
        f = random_supported_function(Z2, rng)
        assert orlicz_norm(f, pair) == pytest.approx(l1_norm(f), rel=1e-10)


def test_norm_sandwich_random():
    rng = np.random.default_rng(11)
    for pair in builtin_pairs():
        for _ in range(10):
            f = random_supported_function(Z2, rng)
            n = luxemburg_norm(f, pair.phi)
            o = orlicz_norm(f, pair)
            assert n <= o * (1 + 1e-8)
            assert o <= 2 * n * (1 + 1e-8)


def test_norm_axioms_random():
    rng = np.random.default_rng(13)
    for _ in range(20):
        f = random_supported_function(Z2, rng)
        g = random_supported_function(Z2, rng)
        assert orlicz_norm(f.add(g), P2) <= orlicz_norm(f, P2) + orlicz_norm(g, P2) + 1e-9
        assert luxemburg_norm(f.add(g), P2.phi) <= (
            luxemburg_norm(f, P2.phi) + luxemburg_norm(g, P2.phi) + 1e-9
        )
        assert orlicz_norm(f, P2) > 0
    assert orlicz_norm(f.sub(f), P2) == 0.0


def test_dual_pairing_tight_point_mass():
    rep = dual_pairing_bound(delta(Z1), delta(Z1), P2)
    assert rep["pairing_l1"] == pytest.approx(1.0)
    assert rep["holder_bound"] == pytest.approx(1.0, rel=1e-9)
    assert rep["holder_ok"] and rep["dual_certificate_ok"]


def test_dual_pairing_zero_function():
    rep = dual_pairing_bound(delta(Z1), SupportedFunction(Z1, {}), P2)
    assert rep["pairing_l1"] == 0.0
    assert rep["holder_ok"]


def test_dual_pairing_random_all_pairs():
    rng = np.random.default_rng(17)
    for pair in (P2, lp_pair(1.5), parse_pair("entropy"), l1_pair()):
        for _ in range(25):
            f = random_supported_function(Z2, rng)
            v = random_supported_function(Z2, rng)
            rep = dual_pairing_bound(f, v, pair)
            assert rep["holder_ok"], rep
            assert rep["dual_certificate_ok"], rep


def test_dual_pairing_numeric_complements():
    rng = np.random.default_rng(19)
    for spec in ("xlog", "cosh"):
        pair = parse_pair(spec)
        for _ in range(5):
            f = random_supported_function(Z1, rng, max_support=3)
            v = random_supported_function(Z1, rng, max_support=3)
            rep = dual_pairing_bound(f, v, pair)
            assert rep["holder_ok"] and rep["dual_certificate_ok"]


def test_weighted_norm_point_masses():
    w = make_poly_weight(Z1, 2.0)
    ctx = SpaceContext(P2, w)
    assert weighted_norm(delta(Z1), ctx) == pytest.approx(math.sqrt(2), abs=1e-10)
    s = (3,)
    assert weighted_norm(delta(Z1, s), ctx) == pytest.approx(w(s) * math.sqrt(2), rel=1e-10)
    assert weighted_norm(delta(Z1, s), SpaceContext(P2, constant_weight(Z1))) == pytest.approx(
        math.sqrt(2), rel=1e-10
    )


def test_lambda_map_identity_and_point_mass():
    w = make_poly_weight(Z1, 1.0)
    f = SupportedFunction(Z1, {(2,): 3.0})
    assert lambda_map(f, constant_weight(Z1)).values == f.values
    assert lambda_map(delta(Z1, (2,)), w).values[(2,)] == pytest.approx(1.0 / 3.0)


def test_lambda_map_isometry():
    w = make_poly_weight(Z1, 2.0)
    ctx = SpaceContext(P2, w)
    rng = np.random.default_rng(23)
    for _ in range(25):
        f = random_supported_function(Z1, rng)
        assert weighted_norm(lambda_map(f, w), ctx) == pytest.approx(
            orlicz_norm(f, P2), rel=1e-10
        )


def test_weighted_l1():
    w = make_poly_weight(Z1, 1.0)
    f = SupportedFunction(Z1, {(0,): 1.0, (2,): -2.0})
    assert weighted_l1_norm(f, w) == pytest.approx(1.0 + 2.0 * 3.0)


def test_psi_series_convergent_beta_above_threshold():
    w = make_poly_weight(Z1, 1.0)
    rep = psi_membership_series(w, P2, 1.0, 2048)
    assert rep.converges
    assert rep.block_ratios[-1] == pytest.approx(0.5, abs=0.05)


def test_psi_series_divergent_harmonic():
    w = make_poly_weight(Z1, 1.0)
    linear_pair = YoungPair(
        name="linear-psi",
        phi=l1_pair().psi,  # the 0/inf complement of the identity map
        psi=young_function("y", lambda y: y),
    )
    rep = psi_membership_series(w, linear_pair, 1.0, 2048)
    assert not rep.converges


def test_psi_series_finite_group_terminates():
    w = constant_weight(cyclic_group(5))
    rep = psi_membership_series(w, P2, 1.0, 64)
    assert rep.converges
    assert rep.partial_sums[-1] == pytest.approx(5 * P2.psi(1.0))


def test_group_mismatch_rejected():
    f = delta(Z1)
    g = delta(Z2)
    with pytest.raises(GroupMismatchError):
        f.add(g)


def test_function_json_round_trip():
    f = SupportedFunction(Z2, {(0, 0): 1 + 2j, (3, -1): -0.5j})
    doc = function_to_json(f)
    g = function_from_json(doc)
    assert g.values == f.values
    assert g.group.name == "Z^d:2"


def test_random_function_deterministic():
    a = random_supported_function(Z2, np.random.default_rng(99))
    b = random_supported_function(Z2, np.random.default_rng(99))
    assert a.values == b.values


@pytest.mark.parametrize("value", [math.inf, math.nan, complex(1.0, -math.inf)])
def test_norms_reject_non_finite_values(value):
    f = SupportedFunction(integer_lattice(1), {(0,): value})
    pair = lp_pair(2.0)
    with pytest.raises(ValueError, match="finite"):
        luxemburg_norm(f, pair.phi)
    with pytest.raises(ValueError, match="finite"):
        orlicz_norm(f, pair)


# ---------------------------------------------------------------------------
# The array path of the norms against the scalar loop


ARRAY_PAIRS = builtin_pairs() + [
    piecewise_pair([[0, 0], [0.5, 0.1], [1, 0.5], [2, 2.0], [3, 6.0]], name="pw")
]
# Young functions whose array form uses the scalar eval's IEEE operations
BIT_EXACT_PAIRS = {"L1", "pw"}
EPS = np.finfo(float).eps


def _on_both_paths(fn, *args):
    """fn(*args) with the scalar loop, then with the array path."""
    results = []
    for cutover in (math.inf, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orlicz, "ARRAY_MIN_POINTS", cutover)
            results.append(fn(*args))
    return results


def _oriented(idx: int, dual: bool) -> YoungPair:
    pair = ARRAY_PAIRS[idx]
    return YoungPair(name=pair.name, phi=pair.psi, psi=pair.phi) if dual else pair


def _feasible_at(f, phi, k) -> bool:
    scaled = SupportedFunction(f.group, {s: abs(v) / k for s, v in f.values.items()})
    return modular(scaled, phi) <= 1.0


@pytest.mark.parametrize("cutover", [math.inf, 1])
def test_luxemburg_bracket_moves_down_when_max_is_feasible(cutover, monkeypatch):
    # Phi(2) < 1, so k = max|f| = 1 is feasible and the bracket halves downward
    monkeypatch.setattr(orlicz, "ARRAY_MIN_POINTS", cutover)
    phi = piecewise_pair([[0, 0], [1, 0.01], [100, 10]]).phi
    f = SupportedFunction(Z1, {(0,): 1.0, (1,): 0.5})
    k = luxemburg_norm(f, phi)
    assert k == pytest.approx(0.12808, abs=1e-5)
    assert _feasible_at(f, phi, k) and not _feasible_at(f, phi, k * (1 - 1e-9))


@settings(max_examples=80, deadline=None)
@given(
    idx=st.integers(0, len(ARRAY_PAIRS) - 1),
    dual=st.booleans(),
    n=st.integers(1, 200),
    log_scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(idx=0, dual=False, n=1, log_scale=0.0, seed=0)
@example(idx=len(ARRAY_PAIRS) - 1, dual=True, n=200, log_scale=0.5, seed=1)
def test_array_norms_keep_the_loop_contract(idx, dual, n, log_scale, seed):
    pair = _oriented(idx, dual)
    phi = pair.phi
    rng = np.random.default_rng(seed)
    vals = 10.0**log_scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    f = SupportedFunction(Z1, {(i,): complex(v) for i, v in enumerate(vals)})
    exact = pair.name in BIT_EXACT_PAIRS

    mod_loop, mod_array = _on_both_paths(modular, f, phi)
    if exact or math.isinf(mod_loop):
        assert mod_array == mod_loop
    else:
        mags = np.array([abs(v) for v in f.values.values()])
        term_gap = np.abs(phi.many(mags) - [phi(float(m)) for m in mags]).sum()
        assert abs(mod_array - mod_loop) <= term_gap + len(mags) * EPS * mod_loop

    lux_loop, lux_array = _on_both_paths(luxemburg_norm, f, phi)
    orl_loop, orl_array = _on_both_paths(orlicz_norm, f, pair)
    if exact:
        assert (lux_array, orl_array) == (lux_loop, orl_loop)
    else:
        assert abs(lux_array - lux_loop) <= 1e-11 * lux_loop + BISECT_TOL * (1.0 + lux_loop)
        assert abs(orl_array - orl_loop) <= 1e-11 * orl_loop
    for cutover, k in ((math.inf, lux_loop), (1, lux_array)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orlicz, "ARRAY_MIN_POINTS", cutover)
            assert _feasible_at(f, phi, k)


@pytest.mark.parametrize("idx", range(len(ARRAY_PAIRS)))
def test_array_norms_of_zero_functions_and_point_masses(idx):
    pair = ARRAY_PAIRS[idx]
    zero = SupportedFunction(Z1, {})
    for fn, args in ((modular, (zero, pair.phi)), (luxemburg_norm, (zero, pair.phi)),
                     (orlicz_norm, (zero, pair))):
        assert _on_both_paths(fn, *args) == [0.0, 0.0]
    point = delta(Z1, value=0.75)
    for fn, args in ((modular, (point, pair.phi)), (luxemburg_norm, (point, pair.phi)),
                     (orlicz_norm, (point, pair))):
        loop, array = _on_both_paths(fn, *args)
        assert array == pytest.approx(loop, rel=1e-11, abs=0.0)


def test_array_norms_of_all_infinite_modulars():
    # Psi of L1 is +inf above 1, Phi of expm overflows past 709.8
    for phi, value in ((l1_pair().psi, 2.0), (parse_pair("expm").phi, 800.0)):
        f = SupportedFunction(Z1, {(i,): value * (1 + 0.01 * i) for i in range(70)})
        assert _on_both_paths(modular, f, phi) == [math.inf, math.inf]
        loop, array = _on_both_paths(luxemburg_norm, f, phi)
        assert math.isfinite(loop) and array == pytest.approx(loop, rel=1e-11, abs=0.0)
    # the Amemiya form of that Psi is the sup norm
    dual_l1 = YoungPair(name="dual(L1)", phi=l1_pair().psi, psi=l1_pair().phi)
    f = SupportedFunction(Z1, {(i,): 2.0 + i for i in range(70)})
    loop, array = _on_both_paths(orlicz_norm, f, dual_l1)
    assert array == loop == pytest.approx(71.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Closed-form norms of x^p/p against the scan, the bisection and the pairing


def _searched(phi):
    """phi without its exponent: the norms fall back to the scan and the
    bisection, the oracle for the closed forms."""
    return dataclasses.replace(phi, power=None)


def _extremal_dual(f, p, shrink=1e-12):
    """The v with |f v| summing to ||f||_Phi and modular(v, Psi) = 1 for
    Phi = x^p/p, v = (q / T)^(1/q) (|f| / M)^(p-1) with M = max |f| and
    T = sum (|f| / M)^p, shrunk by ``shrink`` onto the feasible side."""
    q = p / (p - 1.0)
    mags = {s: abs(x) for s, x in f.values.items()}
    big = max(mags.values())
    t = math.fsum((m / big) ** p for m in mags.values())
    c = (q / t) ** (1.0 / q) * (1.0 - shrink)
    return SupportedFunction(f.group, {s: c * (m / big) ** (p - 1.0) for s, m in mags.items()})


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(1.05, 8.0),
    dual=st.booleans(),
    n=st.integers(1, 200),
    log_scale=st.floats(-200.0, 200.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=2.0, dual=False, n=63, log_scale=200.0, seed=0)
@example(p=8.0, dual=True, n=64, log_scale=-200.0, seed=1)
@example(p=1.05, dual=False, n=200, log_scale=200.0, seed=2)
def test_lp_closed_forms_against_the_searches(p, dual, n, log_scale, seed):
    pair = lp_pair(p)
    if dual:
        pair = YoungPair(name=f"dual({pair.name})", phi=pair.psi, psi=pair.phi)
    phi = pair.phi
    rng = np.random.default_rng(seed)
    vals = 10.0**log_scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    f = SupportedFunction(Z1, {(i,): complex(v) for i, v in enumerate(vals)})

    orl = orlicz_norm(f, pair)
    scan = orlicz_norm(f, YoungPair(name="scan", phi=_searched(phi), psi=pair.psi))
    assert 0.0 < orl <= scan * (1.0 + 1e-12)
    v = _extremal_dual(f, phi.power)
    rep = dual_pairing_bound(f, v, pair)
    assert modular(v, pair.psi) <= 1.0 and rep["orlicz_f"] == orl
    assert rep["pairing_l1"] <= orl and rep["dual_certificate_ok"]

    lux = luxemburg_norm(f, phi)
    bisected = luxemburg_norm(f, _searched(phi))
    assert _feasible_at(f, phi, lux)
    assert abs(lux - bisected) <= BISECT_TOL * (1.0 + bisected)


@pytest.mark.parametrize("p", [1.05, 2.0, 8.0])
@pytest.mark.parametrize("size", [1e200, 1e-200])
def test_lp_closed_forms_at_extreme_magnitudes(p, size):
    # sum |f|^p overflows or underflows; the norms are formed from |f| / max |f|
    q = p / (p - 1.0)
    pair = lp_pair(p)
    f = SupportedFunction(Z1, {(0,): size, (1,): -size * 1j})
    lux, orl = luxemburg_norm(f, pair.phi), orlicz_norm(f, pair)
    assert lux == pytest.approx(size * (2.0 / p) ** (1.0 / p), rel=1e-14)
    assert orl == pytest.approx(size * q ** (1.0 / q) * 2.0 ** (1.0 / p), rel=1e-14)
    dual = YoungPair(name="dual", phi=pair.psi, psi=pair.phi)
    assert math.isfinite(luxemburg_norm(f, pair.psi)) and math.isfinite(orlicz_norm(f, dual))


def test_dual_certificate_rejects_an_orlicz_norm_1e_10_low(monkeypatch):
    rng = np.random.default_rng(23)
    f = random_supported_function(Z2, rng, max_support=8)
    v = _extremal_dual(f, 2.0, shrink=1e-13)
    assert dual_pairing_bound(f, v, P2)["dual_certificate_ok"]
    true_norm = orlicz.orlicz_norm
    monkeypatch.setattr(orlicz, "orlicz_norm", lambda g, pair: true_norm(g, pair) * (1.0 - 1e-10))
    rep = dual_pairing_bound(f, v, P2)
    assert not rep["dual_certificate_ok"]


# point masses at one element: ||f v||_1 = N_Phi(f) ||v||_Psi exactly
HOLDER_EQUALITY = (
    delta(Z2, value=-1.1368151698469047 - 0.38721200622575713j),
    delta(Z2, value=0.2945538909301812 - 0.13776220681094836j),
)


def test_holder_equality_of_point_masses_passes_without_a_guard():
    # the Amemiya value at k* alone puts the computed bound one ulp below
    # the pairing for these values
    f, v = HOLDER_EQUALITY
    rep = dual_pairing_bound(f, v, P2)
    assert rep["pairing_l1"] <= rep["holder_bound"] <= rep["pairing_l1"] * (1.0 + 1e-14)
    assert rep["holder_ok"] and rep["dual_certificate_ok"]
    unrounded = rep["holder_bound"] / (1.0 + orlicz.LP_ROUND_UP)
    assert unrounded < rep["pairing_l1"]


def test_holder_rejects_a_bound_1e_13_below_the_pairing(monkeypatch):
    f, v = HOLDER_EQUALITY
    true_norm = orlicz.orlicz_norm
    monkeypatch.setattr(orlicz, "orlicz_norm", lambda g, pair: true_norm(g, pair) * (1.0 - 1e-13))
    assert not dual_pairing_bound(f, v, P2)["holder_ok"]
