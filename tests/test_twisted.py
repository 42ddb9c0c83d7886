import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import torlicz.twisted as twisted_mod
from torlicz.cocycles import (
    Cocycle,
    bicharacter_cocycle,
    coboundary_from_weight,
    domination_from_subadditive,
    one_cocycle,
    polar,
    product_cocycle,
)
from torlicz.groups import BudgetError, ball_elements, cyclic_group, cyclic_product_group, integer_lattice
from torlicz.orlicz import (
    FunctionBatch,
    SupportedFunction,
    delta,
    l1_norm,
    orlicz_norm,
    random_supported_function,
)
from torlicz.twisted import (
    AlgebraContext,
    check_algebra_bound,
    check_associativity,
    check_differential_bound,
    check_intertwining,
    check_module_bound,
    convolution_matrix,
    convolution_powers,
    finite_symmetry_check,
    involution,
    spectral_radius_estimate,
    twisted_convolve,
    weight_growth_rate,
)
from torlicz.weights import (
    constant_weight,
    make_poly_weight,
    make_subexp_weight,
    parse_weight,
)
from torlicz.young import l1_pair, lp_pair

from oracles import first_trial, singletons

Z1 = integer_lattice(1)
Z2 = integer_lattice(2)
P2 = lp_pair(2.0)


def test_identity_point_mass_is_neutral():
    om = bicharacter_cocycle(Z2, 0.8)
    rng = np.random.default_rng(1)
    f = random_supported_function(Z2, rng)
    e = delta(Z2)
    assert twisted_convolve(e, f, om).values == f.values
    assert twisted_convolve(f, e, om).values == f.values


def test_untwisted_point_masses_translate():
    om = one_cocycle(Z1)
    out = twisted_convolve(delta(Z1, (1,)), delta(Z1, (2,)), om)
    assert out.values == {(3,): 1.0}


def test_bicharacter_point_mass_phase():
    theta = 0.37
    om = bicharacter_cocycle(Z2, theta)
    out = twisted_convolve(delta(Z2, (0, 1)), delta(Z2, (1, 0)), om)
    assert out.values[(1, 1)] == pytest.approx(cmath.exp(1j * theta))


def test_point_mass_pair_general_rule():
    om = product_cocycle(
        coboundary_from_weight(make_poly_weight(Z1, 1.0)), bicharacter_cocycle(Z1, 0.4)
    )
    s, t = (2,), (-3,)
    out = twisted_convolve(delta(Z1, s), delta(Z1, t), om)
    assert out.values[(-1,)] == pytest.approx(om(s, t))


def test_point_mass_module_bound():
    w = make_poly_weight(Z2, 2.0)
    om = coboundary_from_weight(w)
    rng = np.random.default_rng(5)
    f = random_supported_function(Z2, rng)
    s = (2, 1)
    rep = first_trial(check_module_bound(*singletons(delta(Z2, s), f), AlgebraContext(cocycle=om, pair=P2)))
    assert rep["pass"]
    # ||delta_s||_1 = 1, and C covers the pairs (s, u) of the left action
    assert rep["left_lhs"] == orlicz_norm(twisted_convolve(delta(Z2, s), f, om), P2)
    assert rep["c_sup"] >= max(abs(om(s, u)) for u in f.support)
    assert rep["rhs"] == rep["c_sup"] * orlicz_norm(f, P2)


def test_involution_real_even_untwisted():
    om = one_cocycle(Z1)
    f = SupportedFunction(Z1, {(-1,): 2.0, (0,): 1.0, (1,): 2.0})
    assert involution(f, om).values == f.values


def test_involution_point_mass_formula():
    om = bicharacter_cocycle(Z1, 0.9)
    s = (3,)
    out = involution(delta(Z1, s, 2.0 + 1.0j), om)
    si = Z1.inv(s)
    assert out.values[si] == pytest.approx((2.0 - 1.0j) * om(si, s).conjugate())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_involution_is_involutive(seed):
    om = bicharacter_cocycle(Z2, 1.3)
    f = random_supported_function(Z2, np.random.default_rng(seed))
    back = involution(involution(f, om), om)
    assert l1_norm(back.sub(f)) <= 1e-12 * max(1.0, l1_norm(f))


def test_involution_rejects_non_unimodular_phase():
    om = coboundary_from_weight(make_poly_weight(Z1, 1.0))
    with pytest.raises(ValueError):
        involution(delta(Z1, (2,)), om)


def test_involution_antihomomorphism():
    om = bicharacter_cocycle(Z2, 0.61)
    rng = np.random.default_rng(11)
    for _ in range(25):
        f = random_supported_function(Z2, rng)
        g = random_supported_function(Z2, rng)
        lhs = involution(twisted_convolve(f, g, om), om)
        rhs = twisted_convolve(involution(g, om), involution(f, om), om)
        assert l1_norm(lhs.sub(rhs)) <= 1e-10 * max(1.0, l1_norm(lhs))


def test_involution_preserves_weighted_norm():
    om = bicharacter_cocycle(Z2, 0.61)
    sigma = make_poly_weight(Z2, 2.0)
    rng = np.random.default_rng(13)
    for _ in range(10):
        f = random_supported_function(Z2, rng)
        a = orlicz_norm(f.mul_pointwise(sigma), P2)
        b = orlicz_norm(involution(f, om).mul_pointwise(sigma), P2)
        assert a == pytest.approx(b, rel=1e-12)


def test_associativity_point_masses_exact():
    om = bicharacter_cocycle(Z2, 0.7)
    f, g, h = (delta(Z2, s) for s in [(1, 0), (0, 1), (1, 1)])
    assert first_trial(check_associativity(*singletons(f, g, h), om)).value <= 1e-15


def test_associativity_random_triples():
    om = product_cocycle(
        coboundary_from_weight(make_poly_weight(Z2, 2.0)), bicharacter_cocycle(Z2, 1.0)
    )
    rng = np.random.default_rng(17)
    for _ in range(25):
        f, g, h = (random_supported_function(Z2, rng) for _ in range(3))
        assert first_trial(check_associativity(*singletons(f, g, h), om)).value <= 1e-10


def test_associativity_fails_for_corrupted_cocycle():
    base = bicharacter_cocycle(Z1, 0.5)

    # corrupt a pair only one side of the identity evaluates: (1, 2) shows
    # up in f*(f*f) but never in (f*f)*f for support {1, 2}
    def fn(s, t):
        return 2.0 * base(s, t) if (s, t) == ((1,), (2,)) else base(s, t)

    bad = Cocycle(Z1, fn, "corrupt")
    f = SupportedFunction(Z1, {(1,): 1.0, (2,): 1.0})
    rep = first_trial(check_associativity(*singletons(f, f, f), bad))
    assert rep.value > 0.1
    assert rep.witness is not None


def test_module_bound_random_and_trivial():
    om = coboundary_from_weight(make_poly_weight(Z2, 2.0))
    ctx = AlgebraContext(cocycle=om, pair=P2)
    rng = np.random.default_rng(19)
    for _ in range(50):
        f = random_supported_function(Z2, rng)
        g = random_supported_function(Z2, rng)
        assert first_trial(check_module_bound(*singletons(f, g), ctx))["pass"]
    rep = first_trial(check_module_bound(*singletons(delta(Z2), g), ctx))
    assert rep["pass"]  # equality direction for the identity point mass


def test_module_bound_linear_case_is_l1_inequality():
    om = coboundary_from_weight(make_poly_weight(Z1, 1.0))
    ctx = AlgebraContext(cocycle=om, pair=l1_pair())
    rng = np.random.default_rng(23)
    for _ in range(20):
        f = random_supported_function(Z1, rng)
        g = random_supported_function(Z1, rng)
        rep = first_trial(check_module_bound(*singletons(f, g), ctx))
        assert rep["pass"]
        assert l1_norm(twisted_convolve(f, g, om)) <= rep["c_sup"] * l1_norm(f) * l1_norm(
            g
        ) * (1 + 1e-12)


def test_algebra_bound_random_pairs():
    beta = 2.0
    w = make_poly_weight(Z1, beta)
    om = coboundary_from_weight(w)
    ctx = AlgebraContext(cocycle=om, pair=P2)
    dom = domination_from_subadditive(om, w, 2.0**beta, P2, 20)
    rng = np.random.default_rng(29)
    for _ in range(50):
        f = random_supported_function(Z1, rng, radius=4)
        g = random_supported_function(Z1, rng, radius=4)
        rep = first_trial(check_algebra_bound(*singletons(f, g), ctx, dom))
        assert rep["pass"], rep
        assert rep["rhs_split"] <= rep["rhs_submult"] * (1 + 1e-9)


def test_algebra_bound_zero_function():
    w = make_poly_weight(Z1, 2.0)
    om = coboundary_from_weight(w)
    ctx = AlgebraContext(cocycle=om, pair=P2)
    dom = domination_from_subadditive(om, w, 4.0, P2, 8)
    rep = first_trial(check_algebra_bound(*singletons(SupportedFunction(Z1, {}), delta(Z1)), ctx, dom))
    assert rep["lhs"] == 0.0 and rep["pass"]


def test_algebra_bound_point_mass_closed_form():
    w = make_poly_weight(Z1, 2.0)
    om = coboundary_from_weight(w)
    ctx = AlgebraContext(cocycle=om, pair=P2)
    dom = domination_from_subadditive(om, w, 4.0, P2, 10)
    s, t = (2,), (3,)
    lhs = orlicz_norm(twisted_convolve(delta(Z1, s), delta(Z1, t), om), P2)
    assert lhs == pytest.approx(abs(om(s, t)) * math.sqrt(2), rel=1e-10)
    assert abs(om(s, t)) <= dom.u[s] + dom.v[t]


def test_algebra_bound_requires_coverage():
    w = make_poly_weight(Z1, 2.0)
    om = coboundary_from_weight(w)
    ctx = AlgebraContext(cocycle=om, pair=P2)
    dom = domination_from_subadditive(om, w, 4.0, P2, 2)
    with pytest.raises(ValueError):
        check_algebra_bound(*singletons(delta(Z1, (5,)), delta(Z1)), ctx, dom)


def test_intertwining_residuals():
    w = make_poly_weight(Z2, 2.0)
    om = product_cocycle(coboundary_from_weight(w), bicharacter_cocycle(Z2, 0.8))
    rng = np.random.default_rng(31)
    for _ in range(25):
        f = random_supported_function(Z2, rng)
        g = random_supported_function(Z2, rng)
        assert first_trial(check_intertwining(*singletons(f, g), w, om)).value <= 1e-10
    # trivial weight: both convolutions coincide
    om1 = bicharacter_cocycle(Z2, 0.8)
    assert first_trial(check_intertwining(*singletons(f, g), constant_weight(Z2), om1)).value <= 1e-12


def test_intertwining_rejects_wrong_weight():
    om = coboundary_from_weight(make_poly_weight(Z1, 2.0))
    with pytest.raises(ValueError):
        check_intertwining(*singletons(delta(Z1, (1,)), delta(Z1, (2,))), make_poly_weight(Z1, 1.0), om)


def test_differential_bound_cases():
    sigma = make_subexp_weight(Z1, 0.5, 1.0)
    omega = make_poly_weight(Z1, 25.0)
    ctx = AlgebraContext(
        cocycle=bicharacter_cocycle(Z1, 0.9), pair=P2, weight=sigma, aux_weight=omega
    )
    rng = np.random.default_rng(37)
    for _ in range(15):
        f = random_supported_function(Z1, rng, radius=3)
        g = random_supported_function(Z1, rng, radius=3)
        rep = first_trial(check_differential_bound(*singletons(f, g), ctx, radius=8))
        assert rep["pass"], rep
        assert rep["containment_ok"]
    # identity point masses keep both sides comparable
    rep = first_trial(check_differential_bound(*singletons(delta(Z1), delta(Z1)), ctx, radius=4))
    assert rep["pass"]
    # omega == 1 degenerates toward the module bound shape
    ctx0 = AlgebraContext(cocycle=bicharacter_cocycle(Z1, 0.9), pair=P2, weight=sigma)
    rep0 = first_trial(check_differential_bound(*singletons(delta(Z1, (1,)), delta(Z1, (2,))), ctx0, radius=4))
    assert rep0["pass"]
    with pytest.raises(ValueError, match=r"radius 2 does not cover the supports \(need 3\)"):
        check_differential_bound(*singletons(delta(Z1, (3,)), delta(Z1)), ctx, radius=2)


def test_spectral_radius_point_mass_cyclic_shift():
    group = cyclic_group(6)
    ctx = AlgebraContext(cocycle=one_cocycle(group), pair=l1_pair())
    seq = spectral_radius_estimate(delta(group, (1,)), ctx, norm="l1", n_max=12)
    assert np.allclose(seq, 1.0)


def test_spectral_radius_scaled_identity():
    group = cyclic_group(5)
    ctx = AlgebraContext(cocycle=one_cocycle(group), pair=P2)
    seq = spectral_radius_estimate(delta(group, value=-2.5j), ctx, norm="l1", n_max=8)
    assert np.allclose(seq, 2.5)


def test_spectral_radius_matches_dense_eigen_oracle():
    group = cyclic_group(8)
    om = bicharacter_cocycle(group)
    ctx = AlgebraContext(cocycle=om, pair=P2)
    rng = np.random.default_rng(41)
    f = random_supported_function(group, rng, max_support=8, radius=4)
    # independent oracle: eigenvalues of the left regular matrix of f
    n = 8
    mat = np.zeros((n, n), complex)
    for t in range(n):
        for x in range(n):
            v = f.values.get(((t - x) % n,))
            if v is not None:
                mat[t, x] = v * om(((t - x) % n,), (x,))
    r = float(np.abs(np.linalg.eigvals(mat)).max())
    tail_phi = spectral_radius_estimate(f, ctx, norm="phi", n_max=48)[-1]
    tail_l1 = spectral_radius_estimate(f, ctx, norm="l1", n_max=48)[-1]
    assert abs(tail_phi - r) / r <= 0.05
    assert abs(tail_l1 - r) / r <= 0.05


def test_spectral_radius_support_budget(monkeypatch):
    monkeypatch.setattr(twisted_mod, "SUPPORT_CAP", 100)
    ctx = AlgebraContext(cocycle=one_cocycle(Z2), pair=P2)
    f = SupportedFunction(Z2, {(i, j): 1.0 for i in range(-2, 3) for j in range(-2, 3)})
    with pytest.raises(BudgetError):
        spectral_radius_estimate(f, ctx, norm="l1", n_max=40)


@pytest.mark.parametrize("c", [0.05, 0.3, 1.0])
def test_weight_growth_rate_of_a_point_mass_is_the_exponential_rate(c):
    # ||delta_1^n||_{1,w} / ||delta_1^n||_1 = w(n) = exp(c n): L_n = c n exactly
    ctx = AlgebraContext(cocycle=one_cocycle(Z1), pair=P2, weight=make_subexp_weight(Z1, 1.0, c))
    assert weight_growth_rate(convolution_powers(delta(Z1, (1,)), ctx.cocycle, 24), ctx) == pytest.approx(c, rel=1e-9)


def test_weight_growth_rate_separates_grs_from_exponential_weights():
    f = SupportedFunction(Z2, {(0, 0): 1.0, (1, 0): 0.5j, (0, -1): -0.25, (1, 1): 0.3})
    rates = {
        spec: weight_growth_rate(
            convolution_powers(f, one_cocycle(Z2), 24),
            AlgebraContext(cocycle=one_cocycle(Z2), pair=P2, weight=parse_weight(Z2, spec)),
        )
        for spec in ("const", "poly:3", "subexp:0.5:1", "subexp:1:1")
    }
    assert rates["const"] == 0.0
    assert 0.0 < rates["poly:3"] < rates["subexp:0.5:1"] < 0.1 < rates["subexp:1:1"]


def test_finite_symmetry_identity_point_mass():
    group = cyclic_group(4)
    ctx = AlgebraContext(cocycle=bicharacter_cocycle(group), pair=P2)
    rep = finite_symmetry_check(FunctionBatch.of(group, [delta(group)]), ctx)
    assert rep.passed[0]
    assert rep.min_real[0] == pytest.approx(1.0)
    assert rep.max_imag[0] <= 1e-12


def test_finite_symmetry_random_z4():
    group = cyclic_group(4)
    ctx = AlgebraContext(cocycle=bicharacter_cocycle(group), pair=P2)
    rng = np.random.default_rng(43)
    fs = [random_supported_function(group, rng) for _ in range(50)]
    rep = finite_symmetry_check(FunctionBatch.of(group, fs), ctx, tol=1e-10)
    assert rep.passed.all(), rep


def test_finite_symmetry_klein_real_untwisted():
    group = cyclic_product_group((2, 2))
    ctx = AlgebraContext(cocycle=one_cocycle(group), pair=P2)
    rng = np.random.default_rng(47)
    fs = [random_supported_function(group, rng, real=True) for _ in range(20)]
    rep = finite_symmetry_check(FunctionBatch.of(group, fs), ctx, tol=1e-10)
    assert rep.passed.all()
    assert (rep.max_imag <= 1e-10 * rep.scale).all()


def test_finite_symmetry_memory_is_bounded_by_the_matrix_budget(monkeypatch):
    """The trials' (|G|, |G|) matrices go to eigvals in stacks of at most
    SYMMETRY_MATRIX_BYTES, so memory does not grow with the trials: on
    Zn:64 with a budget of four matrices, 48 trials peak below half of the
    3 MB their matrices take stacked (about 6 MB in one stack), with the
    one stack's report bit for bit."""
    group = cyclic_group(64)
    ctx = AlgebraContext(cocycle=bicharacter_cocycle(group), pair=P2)
    rng = np.random.default_rng(61)
    f = FunctionBatch.of(group, [random_supported_function(group, rng) for _ in range(48)])
    whole = finite_symmetry_check(f, ctx)
    matrix = 16 * 64**2
    monkeypatch.setattr(twisted_mod, "SYMMETRY_MATRIX_BYTES", 4 * matrix)
    tracemalloc.start()
    try:
        stacked = finite_symmetry_check(f, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * matrix / 2
    for a, b in zip(dataclasses.astuple(whole), dataclasses.astuple(stacked)):
        assert a.tobytes() == b.tobytes()


def test_finite_symmetry_rejects_infinite_groups():
    ctx = AlgebraContext(cocycle=one_cocycle(Z1), pair=P2)
    with pytest.raises(ValueError):
        finite_symmetry_check(FunctionBatch.of(Z1, [delta(Z1)]), ctx)


def test_convolution_matrix_against_direct_convolution():
    group = cyclic_group(4)
    om = bicharacter_cocycle(group)
    rng = np.random.default_rng(53)
    h = random_supported_function(group, rng)
    mat, elems = convolution_matrix(h, om)
    for j, x in enumerate(elems):
        out = twisted_convolve(h, delta(group, x), om)
        for i, t in enumerate(elems):
            assert mat[i, j] == pytest.approx(out.values.get(t, 0.0), abs=1e-14)


def test_context_group_consistency():
    with pytest.raises(ValueError):
        AlgebraContext(
            cocycle=one_cocycle(Z1), pair=P2, weight=make_poly_weight(Z2, 1.0)
        )


# ---------------------------------------------------------------------------
# Table path against the exact loop


import torlicz.groups as groups_mod  # noqa: E402
from torlicz.cocycles import central_extension_embed, central_extension_group, parse_cocycle  # noqa: E402
from torlicz.groups import parse_group  # noqa: E402
from torlicz.twisted import (  # noqa: E402
    TABLE_MIN_PAIRS,
    _twisted_convolve_exact,
    _twisted_convolve_table,
)

TABLE_GROUPS = ("Z^d:1", "Z^d:2", "Z^d:3", "H3", "Zn:8", "Zn:4x6", "Zn:3x5x6", "Block:5")
TABLE_COCYCLES = (
    "one",
    "bichar",
    "cobound:poly:1.5",
    "cobound:subexp:0.5:1",
    "prod",
    "abs(prod)",
    "phase(prod)",
)


def _cocycle_family(group, kind):
    """A fresh cocycle plus every cocycle it evaluates, none of which the
    table path may call scalar-wise."""
    theta = "" if group.name.startswith("Zn:") else "0.7"
    if kind == "bichar":
        om = parse_cocycle(group, f"bichar:{theta}")
        return om, [om]
    if kind in ("prod", "abs(prod)", "phase(prod)"):
        c1 = coboundary_from_weight(parse_weight(group, "poly:1.2"))
        c2 = parse_cocycle(group, f"bichar:{theta}")
        om = product_cocycle(c1, c2)
        if kind == "prod":
            return om, [om, c1, c2]
        modulus, phase = polar(om)
        part = modulus if kind == "abs(prod)" else phase
        return part, [part, om, c1, c2]
    om = parse_cocycle(group, kind)
    return om, [om]


def _bits(h):
    """Keys in order with the exact bits of both components (-0.0 included)."""
    return [(t, v.real.hex(), v.imag.hex()) for t, v in h.values.items()]


DYADIC = (1.0, -1.0, 2.0, -0.5, 1j, -1j, 1.0 - 1.0j)


@st.composite
def _table_case(draw):
    group = parse_group(draw(st.sampled_from(TABLE_GROUPS)))
    kind = draw(st.sampled_from(TABLE_COCYCLES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # points from a small ball give colliding products, wide coordinates
    # sparse supports; weights on H3 need BFS word lengths, so stay in the ball
    weighted_h3 = group.name == "H3" and kind not in ("one", "bichar")
    sparse = draw(st.booleans()) and not weighted_h3
    radius = 1
    while len(ball_elements(group, radius)) < 24 and radius < 12:
        radius += 1
    ball = ball_elements(group, radius)

    def function(size):
        if sparse:
            pts = map(tuple, rng.integers(-40, 41, (size, len(group.identity))).tolist())
        else:
            pts = (ball[k] for k in rng.integers(0, len(ball), size))
        # dyadic values make exact cancellations likely, gaussian ones rounding
        return SupportedFunction(
            group,
            {
                p: DYADIC[rng.integers(len(DYADIC))] if rng.random() < 0.5 else complex(*rng.normal(size=2))
                for p in pts
            },
        )

    return group, kind, function(draw(st.integers(1, 24))), function(draw(st.integers(1, 24)))


@settings(max_examples=120, deadline=None)
@given(_table_case())
def test_table_path_matches_exact_loop_bit_for_bit(count_scalar_calls, case):
    group, kind, f, g = case
    assume(f.values and g.values)  # canonical keys can cancel on Zn and Block
    om, family = _cocycle_family(group, kind)
    calls = count_scalar_calls(family)
    fast = _twisted_convolve_table(f, g, om)
    assert fast is not None
    assert calls == [0]
    oracle, _ = _cocycle_family(group, kind)
    exact = _twisted_convolve_exact(f, g, oracle)
    assert _bits(fast) == _bits(exact)
    # the public dispatch agrees on both sides of the cutover
    assert _bits(twisted_convolve(f, g, om)) == _bits(exact)


def test_table_path_drops_exact_cancellations(count_scalar_calls):
    group = integer_lattice(2)
    om = one_cocycle(group)
    calls = count_scalar_calls([om])
    f = SupportedFunction(group, {(i, 0): 1.0 for i in range(16)})
    g = SupportedFunction(group, {(0, 0): 1.0, (1, 0): -1.0, **{(0, j): 1.0 for j in range(1, 9)}})
    assert len(f.values) * len(g.values) >= TABLE_MIN_PAIRS
    fast = _twisted_convolve_table(f, g, om)
    exact = _twisted_convolve_exact(f, g, one_cocycle(group))
    # (delta_0 - delta_1) telescopes over the row: only its two ends survive
    assert (1, 0) not in fast.values and (16, 0) in fast.values
    assert _bits(fast) == _bits(exact)
    assert calls == [0]


@pytest.mark.parametrize("kind", ["one", "bichar", "cobound:poly:1.5", "prod"])
def test_table_path_on_far_apart_points_sorts_its_keys(kind, monkeypatch):
    dense = []
    classify = groups_mod._dense
    monkeypatch.setattr(groups_mod, "_dense", lambda span, n: dense.append(classify(span, n)) or dense[-1])
    rng = np.random.default_rng(11)
    step = 10**6
    f = SupportedFunction(Z2, {(i * step, (i % 5) * step): complex(*rng.normal(size=2)) for i in range(16)})
    g = SupportedFunction(Z2, {(-i * step, 3 * i * step): complex(*rng.normal(size=2)) for i in range(9)})
    assert len(f.values) * len(g.values) >= TABLE_MIN_PAIRS
    om, _ = _cocycle_family(Z2, kind)
    fast = twisted_convolve(f, g, om)
    assert dense and not any(dense)  # every key span was classed by the sort
    oracle, _ = _cocycle_family(Z2, kind)
    assert _bits(fast) == _bits(_twisted_convolve_exact(f, g, oracle))


def test_table_path_declines_and_dispatch_falls_back():
    z3 = integer_lattice(3)
    om = one_cocycle(z3)
    big = 2**40
    wide = SupportedFunction(z3, {(i * big, -i * big, i * big): 1.0 + i for i in range(12)})
    assert _twisted_convolve_table(wide, wide, om) is None  # coordinates past the limit
    spread = 2**22  # fits int64 per coordinate, but the packed key range does not: rows are sorted
    sparse = SupportedFunction(z3, {(i * spread, -i * spread, i * spread): 1.0 + i for i in range(12)})
    assert _bits(_twisted_convolve_table(sparse, sparse, om)) == _bits(
        _twisted_convolve_exact(sparse, sparse, one_cocycle(z3))
    )
    assert _bits(twisted_convolve(sparse, sparse, om)) == _bits(
        _twisted_convolve_exact(sparse, sparse, one_cocycle(z3))
    )
    scalar_only = Cocycle(Z2, lambda s, t: 1.0, "scalar-only")
    box = SupportedFunction(Z2, {(i, j): 1.0 for i in range(12) for j in range(12)})
    assert _bits(_twisted_convolve_table(box, box, scalar_only)) == _bits(
        _twisted_convolve_exact(box, box, one_cocycle(Z2))
    )
    assert _bits(twisted_convolve(box, box, scalar_only)) == _bits(
        _twisted_convolve_exact(box, box, one_cocycle(Z2))
    )
    # the central extension model takes the table path like every other group
    base = cyclic_group(4)
    phase = bicharacter_cocycle(base)
    ext_f = central_extension_embed(
        SupportedFunction(base, {(k,): 1.0 + k for k in range(4)}), central_extension_group(base, phase, 4)
    )
    ext = ext_f.group
    for om in (one_cocycle(ext), parse_cocycle(ext, "cobound:poly:1.5"), bicharacter_cocycle(ext, 0.8)):
        table = _twisted_convolve_table(ext_f, ext_f, om)
        assert table is not None and _bits(table) == _bits(_twisted_convolve_exact(ext_f, ext_f, om))
        assert _bits(twisted_convolve(ext_f, ext_f, om)) == _bits(table)


def test_table_path_raises_the_loops_error_on_a_vanishing_factor():
    # the first factor vanishes at a later pair than the second, and its
    # table is built first; the loop meets the second factor's pair first
    def vanishing(name, where):
        def tabulate(S, T, _):
            return np.where((S[..., 0] == where[0]) & (T[..., 0] == where[1]), 0.0, 1.0).astype(complex)

        return Cocycle(Z1, lambda s, t: 0.0 if (s[0], t[0]) == where else 1.0, name, tabulate)

    omega = product_cocycle(vanishing("late", (5, 5)), vanishing("early", (0, 1)))
    f = SupportedFunction(Z1, {(k,): 1.0 + k for k in range(12)})
    assert len(f.values) ** 2 >= TABLE_MIN_PAIRS
    with pytest.raises(ValueError) as loop:
        _twisted_convolve_exact(f, f, omega)
    with pytest.raises(ValueError) as table:
        _twisted_convolve_table(f, f, omega)
    assert str(table.value) == str(loop.value) == "cocycle early vanishes at ((0,), (1,))"


# ---------------------------------------------------------------------------
# SupportedFunction.from_canonical: the constructor the convolutions, the
# JSON reader and the pointwise maps use, checked against the
# re-canonicalising constructor on the values dicts they hand it.

import contextlib  # noqa: E402
from unittest import mock  # noqa: E402

from torlicz.orlicz import function_from_json  # noqa: E402


@contextlib.contextmanager
def _trusted_inputs():
    """Record (group, values) of every SupportedFunction.from_canonical call."""
    seen = []
    trusted = SupportedFunction.from_canonical.__func__

    def spy(cls, group, values):
        seen.append((group, dict(values)))
        return trusted(cls, group, values)

    with mock.patch.object(SupportedFunction, "from_canonical", classmethod(spy)):
        yield seen


def _assert_same_parts(a, b):
    """Same keys in the same order and every part the same float, its sign
    read with copysign (== does not tell -0.0 from +0.0)."""
    assert list(a.values) == list(b.values)
    for x, y in zip(a.values.values(), b.values.values()):
        for p, q in ((x.real, y.real), (x.imag, y.imag)):
            assert math.copysign(1.0, p) == math.copysign(1.0, q)
            assert p == q or math.isnan(p) and math.isnan(q)


def _assert_trusted_matches_oracle(seen):
    assert seen
    for group, values in seen:
        _assert_same_parts(SupportedFunction.from_canonical(group, values), SupportedFunction(group, values))


@settings(max_examples=80, deadline=None)
@given(_table_case())
def test_trusted_constructor_matches_oracle_on_convolutions(case):
    group, kind, f, g = case
    om, _ = _cocycle_family(group, kind)
    with _trusted_inputs() as seen:
        _twisted_convolve_table(f, g, om)
        _twisted_convolve_exact(f, g, om)
    assert len(seen) == 2
    _assert_trusted_matches_oracle(seen)


def test_trusted_constructor_drops_exact_cancellations():
    om = one_cocycle(Z2)
    f = SupportedFunction(Z2, {(i, 0): 1.0 for i in range(16)})
    g = SupportedFunction(Z2, {(0, 0): 1.0, (1, 0): -1.0, **{(0, j): 1.0 for j in range(1, 9)}})
    for path in (_twisted_convolve_table, _twisted_convolve_exact):
        with _trusted_inputs() as seen:
            h = path(f, g, om)
        (_, raw), = seen
        if path is _twisted_convolve_exact:
            assert raw[(1, 0)] == 0  # the loop hands the cancelled sum to the constructor
        else:
            assert (1, 0) not in raw  # the table path's keyed sum has already dropped it
        assert (1, 0) not in h.values
        _assert_trusted_matches_oracle(seen)


def test_trusted_constructor_on_cyclic_products_has_reduced_keys():
    group = parse_group("Zn:4x6")
    om = parse_cocycle(group, "bichar:")
    f = SupportedFunction(group, {(a, b): complex(a + 1, -b) for a in range(4) for b in range(6)})
    g = SupportedFunction(group, {(3, 5): 1.5, (2, 4): -0.5j, (1, 1): 2.0})
    for path in (_twisted_convolve_table, _twisted_convolve_exact):
        with _trusted_inputs() as seen:
            h = path(f, g, om)
        assert all(0 <= a < 4 and 0 <= b < 6 for a, b in h.values)
        _assert_trusted_matches_oracle(seen)
    ext = central_extension_group(group, om, 2)
    e = central_extension_embed(g, ext)
    with _trusted_inputs() as seen:
        _twisted_convolve_exact(e, e, one_cocycle(ext))
    _assert_trusted_matches_oracle(seen)


def test_trusted_constructor_turns_negative_zero_parts_positive():
    raw = {(0,): complex(-0.0, 1.0), (1,): complex(2.0, -0.0), (2,): complex(-0.0, -0.0), (3,): 0j}
    h = SupportedFunction.from_canonical(Z1, raw)
    _assert_same_parts(h, SupportedFunction(Z1, raw))
    assert list(h.values) == [(0,), (1,)]
    assert all(math.copysign(1.0, p) == 1.0 for p in (h.values[(0,)].real, h.values[(1,)].imag))
    # the JSON reader and the pointwise maps hand their values to the same constructor
    doc = {"group": "Z^d:1", "support": [{"elt": [4], "re": -0.0, "im": 1.5}, {"elt": [-2], "re": 3.0, "im": -0.0}]}
    f = function_from_json(doc)
    weight = parse_weight(Z1, "poly:1")
    with _trusted_inputs() as seen:
        g = function_from_json(doc)
        f.scale(-1.0)
        f.scale(0)
        f.mul_pointwise(weight)
        f.div_pointwise(weight)
    assert math.copysign(1.0, seen[0][1][(4,)].real) == -1.0 and math.copysign(1.0, g.values[(4,)].real) == 1.0
    assert len(seen) == 5
    _assert_trusted_matches_oracle(seen)
