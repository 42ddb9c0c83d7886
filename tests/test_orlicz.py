import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import builtin_pairs
from oracles import lp_norms_one_at_a_time, psi_series_layer_loop, scan_amemiya
from torlicz import orlicz
from torlicz.groups import ball_elements, cyclic_group, integer_lattice, parse_group
from torlicz.orlicz import (
    BISECT_TOL,
    FLOAT_GUARD,
    FunctionBatch,
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
    luxemburg_norms,
    modular,
    orlicz_norm,
    orlicz_norms,
    psi_membership_series,
    random_supported_function,
    weighted_l1_norm,
    weighted_norm,
)
from torlicz.weights import constant_weight, make_poly_weight, parse_weight
from torlicz.young import (
    YoungPair,
    cosh_pair,
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


# Psi(y) = y: the harmonic series of 1/w diverges for poly:1 on Z
LINEAR_PSI = YoungPair(
    name="linear-psi",
    phi=l1_pair().psi,  # the 0/inf complement of the identity map
    psi=young_function("y", lambda y: y),
)


def test_psi_series_divergent_harmonic():
    w = make_poly_weight(Z1, 1.0)
    rep = psi_membership_series(w, LINEAR_PSI, 1.0, 2048)
    assert not rep.converges


def test_psi_series_finite_group_terminates():
    w = constant_weight(cyclic_group(5))
    rep = psi_membership_series(w, P2, 1.0, 64)
    assert rep.converges
    assert rep.partial_sums[-1] == pytest.approx(5 * P2.psi(1.0))


SERIES_PAIRS = {"Lp:2": P2, "cosh": cosh_pair(), "linear-psi": LINEAR_PSI}


def _scalar_psi(pair: YoungPair) -> YoungPair:
    """The pair with Psi's array form mapping its scalar eval, the call the
    layer loop makes."""
    return dataclasses.replace(pair, psi=dataclasses.replace(pair.psi, array_fn=None))


def _float_bits(xs) -> bytes:
    return np.array(xs, dtype=float).tobytes()


@pytest.mark.parametrize("pair_name", SERIES_PAIRS)
@pytest.mark.parametrize(
    "group_spec, weight_spec",
    [
        ("Z^d:1", "poly:1"),
        ("Z^d:1", "subexp:0.5:1"),
        ("Z^d:1", "quot:subexp2:1:1/poly:1"),
        ("Zn:5", "poly:2"),
        ("Zn:5", "const"),
        ("Block:6", "block:1,3,9,27,81"),  # no of_tau: the per-element route
    ],
)
def test_psi_series_matches_the_layer_loop_bit_for_bit(group_spec, weight_spec, pair_name):
    # spheres of at most two elements: |S_n| Psi is the loop's sum exactly
    w = parse_weight(parse_group(group_spec), weight_spec)
    pair = _scalar_psi(SERIES_PAIRS[pair_name])
    rep = psi_membership_series(w, pair, 1.0, 256)
    assert _float_bits(rep.partial_sums) == _float_bits(psi_series_layer_loop(w, pair, 1.0, 256))


LARGE_SPHERE_CASES = [
    ("Z^d:1", "poly:1", 256),
    ("Z^d:2", "poly:3", 48),
    ("Z^d:2", "subexp:0.5:1", 48),
    ("Z^d:3", "poly:4", 12),
    ("Z^d:3", "quot:subexp2:1:1/poly:1", 12),
    ("H3", "poly:5", 8),
    ("H3", "const", 8),
]


@pytest.mark.parametrize("pair_name", SERIES_PAIRS)
@pytest.mark.parametrize("group_spec, weight_spec, n_max", LARGE_SPHERE_CASES)
def test_psi_series_matches_the_layer_loop_on_large_spheres(group_spec, weight_spec, n_max, pair_name):
    w = parse_weight(parse_group(group_spec), weight_spec)
    pair = SERIES_PAIRS[pair_name]
    # |S_n| Psi rounds once, as math.fsum of the |S_n| equal terms does
    scalar = _scalar_psi(pair)
    exact = psi_series_layer_loop(w, scalar, 1.0, n_max, exact_layers=True)
    assert _float_bits(psi_membership_series(w, scalar, 1.0, n_max).partial_sums) == _float_bits(exact)
    # Psi's array form is within an ulp of its scalar eval
    rep = psi_membership_series(w, pair, 1.0, n_max)
    assert np.allclose(rep.partial_sums, psi_series_layer_loop(w, pair, 1.0, n_max, exact_layers=True), rtol=1e-14, atol=0)
    # the left-to-right loop adds rounding errors of its own, up to |S_n|
    # ulp (1.0e-14 relative on Z^d:3 with the quot: weight)
    loop_rtol = max(w.group.sphere_sizes(n_max)) * 2.0**-52
    assert np.allclose(rep.partial_sums, psi_series_layer_loop(w, pair, 1.0, n_max), rtol=loop_rtol, atol=0)


def test_psi_series_on_the_lattice_builds_no_bfs():
    group = integer_lattice(1)
    rep = psi_membership_series(make_poly_weight(group, 1.0), lp_pair(2.0), 1.0, 4096)
    assert rep.converges and len(rep.partial_sums) == 4097
    assert "bfs" not in group._cache


def _never(s):
    raise AssertionError(f"the weight was called at {s}")


@pytest.mark.parametrize("group_spec", ["Z^d:2", "H3", "Zn:4x6"])
@pytest.mark.parametrize("weight_spec", ["poly:2", "subexp:0.5:1", "subexp2:1:1", "quot:subexp:0.5:1/poly:25", "const"])
def test_pointwise_weights_go_by_length(group_spec, weight_spec):
    group = parse_group(group_spec)
    w = parse_weight(group, weight_spec)
    f = random_supported_function(group, np.random.default_rng(7), max_support=40, radius=6)
    by_length = dataclasses.replace(w, fn=_never)  # only of_tau may run
    per_element = dataclasses.replace(w, of_tau=None)
    for op in (SupportedFunction.mul_pointwise, SupportedFunction.div_pointwise):
        got, expected = op(f, by_length).values, op(f, per_element).values
        assert list(got) == list(expected)
        assert _float_bits([(v.real, v.imag) for v in got.values()]) == _float_bits(
            [(v.real, v.imag) for v in expected.values()]
        )


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
# The array forms in the norms against the mapped scalar evals


ARRAY_PAIRS = builtin_pairs() + [
    piecewise_pair([[0, 0], [0.5, 0.1], [1, 0.5], [2, 2.0], [3, 6.0]], name="pw")
]
# Young functions whose array form uses the scalar eval's IEEE operations
BIT_EXACT_PAIRS = {"L1", "pw"}
EPS = np.finfo(float).eps


def _scalar(phi):
    """phi without its array form: ``many`` maps the ``math``-based scalar
    eval, the oracle for the numpy forms."""
    return dataclasses.replace(phi, array_fn=None)


def _on_both_paths(fn, f, fun):
    """fn(f, fun) with the scalar eval of Phi mapped, then with its array
    form; fun is a Young function or a pair."""
    scalar = dataclasses.replace(fun, phi=_scalar(fun.phi)) if isinstance(fun, YoungPair) else _scalar(fun)
    return [fn(f, scalar), fn(f, fun)]


def _oriented(idx: int, dual: bool) -> YoungPair:
    pair = ARRAY_PAIRS[idx]
    return YoungPair(name=pair.name, phi=pair.psi, psi=pair.phi) if dual else pair


def _feasible_at(f, phi, k) -> bool:
    scaled = SupportedFunction(f.group, {s: abs(v) / k for s, v in f.values.items()})
    return modular(scaled, phi) <= 1.0


@pytest.mark.parametrize("form", ["scalar", "array"])
def test_luxemburg_bracket_moves_down_when_max_is_feasible(form):
    # Phi(2) < 1, so k = max|f| = 1 is feasible and the bracket halves downward
    phi = piecewise_pair([[0, 0], [1, 0.01], [100, 10]]).phi
    if form == "scalar":
        phi = _scalar(phi)
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
    assert _feasible_at(f, _scalar(phi), lux_loop) and _feasible_at(f, phi, lux_array)


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
    """phi without its exponent: the norms fall back to their root searches
    on Phi' and on the modular."""
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
    _, scan = scan_amemiya(f, phi)
    searched = orlicz_norm(f, YoungPair(name="searched", phi=_searched(phi), psi=pair.psi))
    assert 0.0 < orl <= scan * (1.0 + 1e-12) and searched <= scan * (1.0 + 1e-12)
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


@pytest.mark.parametrize("size", [1e-6, 1e-9, 1e-300])
def test_luxemburg_bisection_stops_at_a_relative_width(size):
    # cosh(x) - 1 = 1 at x = acosh(2), so a point mass a has N_Phi = a / acosh(2)
    phi = parse_pair("cosh").phi
    f = delta(Z1, value=size)
    n = luxemburg_norm(f, phi)
    assert n == pytest.approx(size / math.acosh(2.0), rel=1e-12, abs=0.0)
    assert _feasible_at(f, phi, n)


def test_luxemburg_bisection_near_the_float_maximum():
    # 2 (cosh(x) - 1) = 1 at x = acosh(1.5); unscaled, the bracket doubled to inf
    f = SupportedFunction(Z1, {(0,): 1.7e308, (1,): 1.7e308})
    n = luxemburg_norm(f, parse_pair("cosh").phi)
    assert n == pytest.approx(1.7e308 / math.acosh(1.5), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [2, 70])
def test_norms_of_subnormal_functions_are_finite(n):
    f = SupportedFunction(Z1, {(i,): 1e-310 for i in range(n)})
    for pair in builtin_pairs():
        lux, orl = luxemburg_norm(f, pair.phi), orlicz_norm(f, pair)
        assert math.isfinite(orl) and 0.0 < lux <= orl * (1 + 1e-8)
        assert orl <= 2 * lux * (1 + 1e-8)


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


# ---------------------------------------------------------------------------
# The root searches and the kink points against the scan and the pairing


def _pairing_lower_bound(f, pair, k) -> float:
    """sum |f v| / N_Psi(v) for v = Phi'(k |f|), a lower bound of ||f||_Phi
    for any v, and within rounding of it at the minimiser k; Phi' is the
    left difference quotient where Phi carries no derivative.  0 where v
    is zero or not finite."""
    mags = np.array([abs(x) for x in f.values.values()])
    x = k * mags
    with np.errstate(all="ignore"):
        if pair.phi.derivative is not None:
            slope = pair.phi.derivative(x)
        else:
            slope = (pair.phi.many(x) - pair.phi.many(x * (1.0 - 1e-9))) / (x * 1e-9)
    slope = np.where(x > 0.0, slope, 0.0)
    if not np.all(np.isfinite(slope)) or not np.any(slope > 0.0):
        return 0.0
    v = SupportedFunction(f.group, dict(zip(f.values, slope.tolist())))
    return float(np.dot(mags, slope)) / luxemburg_norm(v, pair.psi)


@settings(max_examples=80, deadline=None)
@given(
    idx=st.integers(0, len(ARRAY_PAIRS) - 1),
    dual=st.booleans(),
    n=st.integers(1, 300),
    log_scale=st.floats(-200.0, 200.0),
    spread=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(idx=0, dual=True, n=70, log_scale=0.0, spread=1.0, seed=0)
@example(idx=len(ARRAY_PAIRS) - 1, dual=True, n=300, log_scale=-200.0, spread=3.0, seed=1)
@example(idx=len(ARRAY_PAIRS) - 1, dual=False, n=1, log_scale=200.0, spread=0.0, seed=2)
def test_exact_minimisers_against_the_scan_and_the_pairing(idx, dual, n, log_scale, spread, seed):
    pair = _oriented(idx, dual)
    # the x^p/p pairs without their exponent take the root search as well
    pair = YoungPair(name=pair.name, phi=_searched(pair.phi), psi=_searched(pair.psi))
    rng = np.random.default_rng(seed)
    sizes = 10.0 ** (log_scale + rng.uniform(-spread, spread, n))
    vals = sizes * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    f = SupportedFunction(Z1, {(i,): complex(v) for i, v in enumerate(vals)})

    orl = orlicz_norm(f, pair)
    k_scan, scan = scan_amemiya(f, pair.phi)
    assert 0.0 < orl <= scan * (1.0 + 1e-12)
    assert _pairing_lower_bound(f, pair, k_scan) <= orl * (1.0 + FLOAT_GUARD)

    lux = luxemburg_norm(f, pair.phi)
    assert _feasible_at(f, pair.phi, lux) and not _feasible_at(f, pair.phi, lux * (1.0 - BISECT_TOL))


@pytest.mark.parametrize("idx", [i for i, pair in enumerate(ARRAY_PAIRS) if pair.phi.kinks is None])
def test_the_pairing_lower_bound_is_tight_at_smooth_minimisers(idx):
    # Young's equality: v = Phi'(k* |f|) has modular(v, Psi) = 1 and
    # sum |f v| = ||f||_Phi, so the gate's lower bound is not vacuous
    pair = ARRAY_PAIRS[idx]
    f = random_supported_function(Z2, np.random.default_rng(idx), max_support=12)
    k_scan, _ = scan_amemiya(f, pair.phi)
    assert _pairing_lower_bound(f, pair, k_scan) == pytest.approx(orlicz_norm(f, pair), rel=1e-9)


def test_orlicz_norm_of_a_user_eval_needs_a_derivative():
    phi = young_function("x^2", lambda x: x * x)
    pair = YoungPair(name="user", phi=phi, psi=phi)
    with pytest.raises(ValueError, match="derivative"):
        orlicz_norm(delta(Z1), pair)
    with_slope = dataclasses.replace(phi, derivative=lambda x: 2.0 * x)
    # Phi = x^2: 1/k + k |a|^2 is smallest at k = 1/|a|, where it is 2|a|
    f = delta(Z1, value=3.0)
    assert orlicz_norm(f, YoungPair(name="user", phi=with_slope, psi=phi)) == pytest.approx(6.0, rel=1e-14)


def test_a_kink_point_does_not_round_past_an_infinite_jump():
    # Psi of this table is finite up to its last slope 0.4 and +inf beyond;
    # the jump of G at y = 0.1 is 0.01, so the dual norm of a point mass a
    # sits at k = 0.4 / a, on the edge of the infinity: (1 + Psi(0.4)) a / 0.4
    pair = piecewise_pair([[0, 0], [0.1, 0.01], [0.2, 0.05]])
    dual = YoungPair(name="dual", phi=pair.psi, psi=pair.phi)
    for a in np.linspace(1.0, 2.0, 400):
        assert orlicz_norm(delta(Z1, value=a), dual) == pytest.approx(1.03 * a / 0.4, rel=1e-14)


# ---------------------------------------------------------------------------
# Batched norms: one norm per FunctionBatch row, each the scalar norm's bits


def _batch_rows(group, rng, rows):
    """Functions with 0 to 8 points, magnitudes between 1e-200 and 1e200:
    per row all near one size, a few decades apart, or spread over the whole
    range (so some scale to subnormals or underflow next to the maximum)."""
    points = ball_elements(group, 3)
    fs = []
    for _ in range(rows):
        n = min(int(rng.integers(0, 9)), len(points))
        spread = rng.choice([0.0, 3.0, 400.0])
        exps = np.clip(rng.uniform(-200.0, 200.0) + rng.uniform(-spread, spread, n), -200.0, 200.0)
        vals = 10.0**exps * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
        fs.append(SupportedFunction(group, {s: complex(v) for s, v in zip(points, vals)}))
    return fs


@settings(max_examples=120, deadline=None)
@given(
    group_spec=st.sampled_from(("Z^d:1", "Z^d:2", "Zn:4")),
    pair_name=st.sampled_from(("Lp:1.1", "Lp:1.5", "Lp:2", "Lp:3", "Lp:7.3", "cosh", "L1")),
    dual=st.booleans(),
    rows=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_norms_equal_the_scalar_norms_bit_for_bit(group_spec, pair_name, dual, rows, seed):
    """orlicz_norms and luxemburg_norms against orlicz_norm and
    luxemburg_norm row by row, and for x^p/p against the closed forms run
    one function at a time (Python's ** for the power sums, the nextafter
    steps per function).  cosh and L1 take the row-by-row searches."""
    group = parse_group(group_spec)
    pair = parse_pair(pair_name)
    if dual and pair.psi.power is not None:
        pair = YoungPair(name=f"dual({pair.name})", phi=pair.psi, psi=pair.phi)
    fs = _batch_rows(group, np.random.default_rng(seed), rows)
    batch = FunctionBatch.of(group, fs)
    got = list(zip(orlicz_norms(batch, pair).tolist(), luxemburg_norms(batch, pair.phi).tolist()))
    scalar = [(orlicz_norm(f, pair), luxemburg_norm(f, pair.phi)) for f in fs]
    assert [tuple(map(float.hex, x)) for x in got] == [tuple(map(float.hex, x)) for x in scalar]
    if pair.phi.power is not None:
        assert [lp_norms_one_at_a_time(f, pair.phi) for f in fs] == scalar


def test_batched_luxemburg_steps_only_the_rows_not_yet_accepted():
    """Rows whose rounded closed form is already feasible keep it while
    other rows of the batch step up past theirs."""
    group = parse_group("Z^d:1")
    phi = lp_pair(3.0).phi
    fs = _batch_rows(group, np.random.default_rng(5), 200)
    steps = []
    for f in fs:
        if f.is_zero():
            continue
        mags = [abs(v) for v in f.values.values()]
        top = max(mags)
        first = top * (math.fsum((m / top) ** 3.0 for m in mags) / 3.0) ** (1.0 / 3.0)
        steps.append(luxemburg_norm(f, phi) != first)
    assert any(steps) and not all(steps)
    norms = luxemburg_norms(FunctionBatch.of(group, fs), phi)
    assert norms.tolist() == [luxemburg_norm(f, phi) for f in fs]


@pytest.mark.parametrize("p", [1.5, 3.0, 7.3])
def test_batched_lp_norms_are_the_closed_forms_run_one_function_at_a_time(p):
    """300 functions of 8 points of one size, where the power sums carry
    every term: numpy's power in place of Python's ** moves some norms."""
    rng = np.random.default_rng(2)
    points = ball_elements(Z1, 4)
    fs = [SupportedFunction(Z1, dict(zip(points, rng.random(8) + 1j * rng.random(8)))) for _ in range(300)]
    pair = lp_pair(p)
    batch = FunctionBatch.of(Z1, fs)
    got = list(zip(orlicz_norms(batch, pair).tolist(), luxemburg_norms(batch, pair.phi).tolist()))
    assert got == [lp_norms_one_at_a_time(f, pair.phi) for f in fs]
