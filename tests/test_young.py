import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torlicz.young import (
    YoungFunctionError,
    builtin_pairs,
    conjugate,
    cosh_pair,
    entropy_pair,
    expm_pair,
    l1_pair,
    lp_pair,
    parse_pair,
    piecewise_pair,
    xlog_pair,
    young_function,
)

EXPM_CONJ_AT_1 = 2.0 * math.log(2.0) - 1.0  # (1+y)ln(1+y)-y at y=1

# slopes 0.2, 0.8, 1.5, 4: the complement is +inf above y = 4
PW_POINTS = [[0, 0], [0.5, 0.1], [1, 0.5], [2, 2.0], [3, 6.0]]
PW_LAST_SLOPE = 4.0


def pw_pair():
    return piecewise_pair(PW_POINTS, name="pw")


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_conjugate_of_power_matches_dual_power(p):
    pair = lp_pair(p)
    q = p / (p - 1.0)
    for y in np.linspace(0.01, 20.0, 40):
        expected = y**q / q
        got = conjugate(pair.phi, float(y))
        assert abs(got - expected) <= 1e-8 * (1.0 + expected)


def test_conjugate_of_linear_jumps_to_infinity():
    pair = l1_pair()
    assert conjugate(pair.phi, 0.5) == 0.0
    assert conjugate(pair.phi, 1.0) == 0.0
    assert conjugate(pair.phi, 2.0) == math.inf
    # and the analytic complement stored on the pair agrees
    assert pair.psi(0.7) == 0.0
    assert pair.psi(1.0) == 0.0
    assert math.isinf(pair.psi(1.2))


def test_conjugate_of_exponential_pair_value():
    pair = expm_pair()
    assert conjugate(pair.phi, 1.0) == pytest.approx(EXPM_CONJ_AT_1, rel=1e-9)
    assert pair.psi(1.0) == pytest.approx(EXPM_CONJ_AT_1, rel=1e-12)


@pytest.mark.parametrize(
    "pair_fn", [expm_pair, entropy_pair, l1_pair, xlog_pair, cosh_pair, pw_pair]
)
def test_numeric_conjugate_matches_analytic_complement(pair_fn):
    pair = pair_fn()
    for y in np.geomspace(0.05, 8.0, 25):
        expected = conjugate(pair.phi, float(y))
        got = pair.psi(float(y))
        if math.isfinite(expected):
            assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))
        else:
            assert got == math.inf


def test_conjugate_rejects_bad_input():
    pair = lp_pair(2.0)
    with pytest.raises(ValueError):
        conjugate(pair.phi, float("nan"))
    with pytest.raises(ValueError):
        conjugate(pair.phi, -1.0)
    assert conjugate(pair.phi, 0.0) == 0.0


def test_double_conjugation_recovers_phi():
    # the numeric conjugate of the exact complement gives Phi back
    for pair in (lp_pair(2.0), xlog_pair(), cosh_pair()):
        for x in np.geomspace(0.05, 8.0, 12):
            back = conjugate(pair.psi, float(x))
            assert back == pytest.approx(pair.phi(float(x)), rel=1e-7, abs=1e-10)


def test_double_conjugation_through_infinite_complement():
    pair = l1_pair()
    # conjugating the 0/inf step function gives back the identity map
    for x in (0.25, 1.0, 3.0):
        assert conjugate(pair.psi, x) == pytest.approx(x, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 7),
    st.floats(0.0, 30.0),
    st.floats(0.0, 30.0),
)
def test_young_inequality_all_builtin_pairs(idx, x, y):
    pair = builtin_pairs()[idx]
    lhs = x * y
    rhs = pair.phi(x) + pair.psi(y)
    assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs) if math.isfinite(rhs) else 0.0) or rhs == math.inf


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_young_equality_at_gradient(p):
    pair = lp_pair(p)
    for x in (0.3, 1.0, 2.7):
        y = x ** (p - 1.0)  # derivative of x^p/p
        gap = pair.phi(x) + pair.psi(y) - x * y
        assert -1e-12 <= gap <= 1e-9


def test_numeric_conjugate_is_young_on_samples():
    # the numeric conjugate of x ln(1+x) and the exact complement alike
    phi = xlog_pair().phi
    for psi in (xlog_pair().psi, lambda y: conjugate(phi, y)):
        assert psi(0.0) == 0.0
        ys = np.geomspace(1e-3, 10.0, 15)
        vals = [psi(float(y)) for y in ys]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for a, c in zip(ys, ys[2:]):
            mid = 0.5 * (a + c)
            assert psi(float(mid)) <= 0.5 * (psi(float(a)) + psi(float(c))) + 1e-9


EXACT_PAIRS = builtin_pairs() + [pw_pair()]
X_GRID = [0.0] + [float(x) for x in np.geomspace(1e-6, 1e6, 241)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(EXACT_PAIRS) - 1),
    st.floats(0.0, 50.0),
    st.floats(0.0, 1e6),
)
def test_exact_complement_dominates_the_young_objective(idx, y, x_drawn):
    pair = EXACT_PAIRS[idx]
    psi = pair.psi(y)
    for x in X_GRID + [x_drawn]:
        objective = x * y - pair.phi(x)
        assert psi >= objective - 1e-12 * (1.0 + abs(objective))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 2.0 * PW_LAST_SLOPE))
def test_piecewise_complement_is_infinite_exactly_above_the_last_slope(y):
    psi = pw_pair().psi
    assert math.isinf(psi(y)) == (y > PW_LAST_SLOPE)
    assert math.isfinite(psi(PW_LAST_SLOPE))
    assert psi(math.nextafter(PW_LAST_SLOPE, math.inf)) == math.inf


def test_xlog_complement_is_finite_and_increasing_up_to_700():
    pair = xlog_pair()
    psi = pair.psi
    # equality in Young's inequality at y = Phi'(x), for maximisers past the
    # numeric conjugate's 1e6 bracket cap
    for x in (math.expm1(15.0), 1e12, 1e200):
        y = math.log1p(x) + x / (1.0 + x)
        assert psi(y) == pytest.approx(x * y - pair.phi(x), rel=1e-12)
    vals = [psi(float(y)) for y in np.linspace(0.0, 700.0, 1401)]
    assert all(map(math.isfinite, vals))
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# Array forms against the scalar evals

ARRAY_GRID = np.geomspace(1e-6, 1e3, 2001)
YOUNG_FUNCTIONS = [f for pair in EXACT_PAIRS for f in (pair.phi, pair.psi)]
# forms that subtract nearly equal terms near 0: one ulp of the larger
# operand is many ulp of the result there, so the tolerance is taken on
# |value| + the subtracted term
SUBTRAHEND = {
    "e^x - x - 1": lambda x: x,
    "e^y - y - 1": lambda y: y,
    "(1+x)ln(1+x) - x": lambda x: x,
    "(1+y)ln(1+y) - y": lambda y: y,
    "y asinh y - sqrt(1+y^2) + 1": lambda y: y * (y / (1.0 + np.hypot(1.0, y))),
}
# +inf on the grid: overflow of exp and cosh past 709.8 (in xlog's
# complement through its bracket expm1(y)), L1's complement above 1, the
# table's complement above its last slope
INFINITE_ON_GRID = {
    "e^x - x - 1", "e^y - y - 1", "cosh x - 1", "conj(x ln(1+x))",
    "0 on [0,1], inf beyond", "conj(pw)",
}
BIT_EXACT = [l1_pair().phi, l1_pair().psi, pw_pair().phi, pw_pair().psi]


def _scalar_map(f, x):
    return np.array([f(float(v)) for v in x])


@pytest.mark.parametrize("f", YOUNG_FUNCTIONS, ids=lambda f: f.name)
def test_array_form_matches_the_scalar_eval(f):
    got, want = f.many(ARRAY_GRID), _scalar_map(f, ARRAY_GRID)
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.isinf(want).any() == (f.name in INFINITE_ON_GRID)
    finite = np.isfinite(want)
    x = ARRAY_GRID[finite]
    scale = np.abs(want[finite]) + SUBTRAHEND.get(f.name, np.zeros_like)(x)
    assert np.all(np.abs(got[finite] - want[finite]) <= 4.0 * np.spacing(scale))


@pytest.mark.parametrize("f", BIT_EXACT, ids=lambda f: f.name)
def test_l1_and_table_array_forms_are_bit_identical(f):
    assert f.many(ARRAY_GRID).tobytes() == _scalar_map(f, ARRAY_GRID).tobytes()


def test_array_forms_overflow_to_infinity_without_a_warning():
    big = np.array([1.0, 1e20, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lp_pair(30.0).phi.many(big)[1:].tolist() == [math.inf, math.inf]
        for pair in (expm_pair(), cosh_pair(), entropy_pair(), xlog_pair(), pw_pair()):
            assert pair.phi.many(big)[-1] == math.inf
        assert cosh_pair().psi.many(big)[-1] == cosh_pair().psi(1e308) == math.inf


def test_a_user_eval_maps_its_scalar_form():
    phi = young_function("x^2", lambda x: x * x)
    x = np.array([0.0, 0.5, 3.0])
    assert phi.many(x).tolist() == [0.0, 0.25, 9.0]


def test_power_pair_overflows_to_infinity():
    pair = lp_pair(30.0)
    assert pair.phi(1e20) == math.inf
    assert lp_pair(1.05).psi(1e20) == math.inf  # dual exponent 21
    assert pair.phi(2.0) == 2.0**30 / 30.0


def test_piecewise_linear_young():
    phi = piecewise_pair([(0, 0), (1, 0.5), (2, 2.0), (3, 4.5)]).phi
    assert phi(0.0) == 0.0
    assert phi(1.5) == pytest.approx(1.25)
    assert phi(5.0) == pytest.approx(4.5 + 2.5 * 2)  # last slope extrapolation
    with pytest.raises(YoungFunctionError):
        piecewise_pair([(0, 0), (1, 2.0), (2, 3.0)])  # slopes decrease
    with pytest.raises(YoungFunctionError):
        piecewise_pair([(0, 1), (1, 2)])  # does not start at 0
    with pytest.raises(YoungFunctionError):
        piecewise_pair([(0, 0), (1, 0.0)])  # flat tail never reaches inf


def test_young_validation_rejects_nonconvex():
    with pytest.raises(YoungFunctionError):
        young_function("sqrt", math.sqrt)
    with pytest.raises(YoungFunctionError):
        young_function("shift", lambda x: x + 1.0)


def test_parse_pair_specs():
    assert parse_pair("Lp:2.5").name == "Lp:2.5"
    assert parse_pair("L1").name == "L1"
    for name in ("xlog", "cosh", "expm", "entropy"):
        assert parse_pair(name).name == name
    with pytest.raises(ValueError):
        parse_pair("L0")


def test_parse_pair_piecewise_table(tmp_path):
    import json

    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"name": "hinge", "points": [[0, 0], [1, 0.5], [2, 2.0]]}))
    pair = parse_pair(f"pw:{path}")
    assert pair.phi(1.0) == pytest.approx(0.5)
    # the complement of a piecewise-linear function is finite up to the top slope
    assert pair.psi(1.0) == pytest.approx(0.5)
    assert pair.psi(1.5) == pytest.approx(1.0)
    assert pair.psi(1.6) == math.inf
    assert pair.phi(0.5) + pair.psi(0.5) >= 0.25 - 1e-12  # Young inequality spot check
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[0, 0], [1, 2.0], [2, 3.0]]))
    with pytest.raises(YoungFunctionError):
        parse_pair(f"pw:{bad}")
