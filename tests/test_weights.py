import dataclasses
import math

import numpy as np
import pytest

import torlicz.weights as weights_mod
from torlicz import cli
from torlicz.groups import block_group, integer_lattice, pair_table, parse_group
from torlicz.weights import (
    PFunctionError,
    Weight,
    WeightParameterError,
    analyze_p_function,
    check_grs,
    check_lss_domination,
    check_submultiplicative,
    check_symmetric,
    check_weak_subadditive,
    constant_weight,
    make_block_weight,
    make_poly_weight,
    make_subexp2_weight,
    make_subexp_weight,
    parse_weight,
    quotient_weight,
)

Z1 = integer_lattice(1)
Z2 = integer_lattice(2)


def test_poly_weight_values():
    w = make_poly_weight(Z2, 2.0)
    assert w((3, -2)) == pytest.approx(16.0)  # tau = 3
    assert w(Z2.identity) == 1.0
    assert make_poly_weight(Z2, 0.0)((5, 1)) == 1.0


def test_subexp_weight_values():
    w = make_subexp_weight(Z1, 0.5, 1.0)
    assert w((4,)) == pytest.approx(math.exp(2.0))
    assert w(Z1.identity) == 1.0
    doubling = make_subexp_weight(Z1, 1.0, math.log(2.0))
    assert doubling((10,)) == pytest.approx(2.0**10)


def test_subexp2_weight_values():
    w = make_subexp2_weight(Z1, 1.0, 1.0)
    assert w(Z1.identity) == 1.0  # 0/0 at the identity resolves to 1
    assert w((2,)) == pytest.approx(math.exp(2.0 / math.log(3.0)))
    tame = make_subexp2_weight(Z1, 10.0, 1.0)
    assert tame((2,)) == pytest.approx(math.exp(2.0 / math.log(3.0) ** 10))


def test_weight_parameter_validation():
    with pytest.raises(WeightParameterError):
        make_subexp_weight(Z1, 1.5, 1.0)
    with pytest.raises(WeightParameterError):
        make_subexp_weight(Z1, 0.5, 0.0)
    with pytest.raises(WeightParameterError):
        make_subexp2_weight(Z1, 0.0, 1.0)
    with pytest.raises(WeightParameterError):
        make_poly_weight(Z1, -1.0)


def test_quotient_weight_trivial_cases():
    w = make_poly_weight(Z1, 2.0)
    assert quotient_weight(w, w)((7,)) == pytest.approx(1.0)
    q = quotient_weight(make_subexp_weight(Z1, 0.5, 1.0), w)
    assert q(Z1.identity) == 1.0


def test_submultiplicative_constants():
    sigma = make_subexp_weight(Z2, 0.5, 1.0)
    assert check_submultiplicative(sigma, 8).constant == pytest.approx(1.0, abs=1e-12)
    poly = make_poly_weight(Z1, 2.0)
    assert check_submultiplicative(poly, 16).constant == pytest.approx(1.0, abs=1e-12)
    assert check_submultiplicative(constant_weight(Z1), 8).constant == 1.0


def test_weak_subadditive_constants():
    poly = make_poly_weight(Z1, 2.0)
    rep = check_weak_subadditive(poly, 24)
    assert rep.constant <= 4.0  # 2^beta
    assert rep.constant > 1.5
    assert check_weak_subadditive(constant_weight(Z1), 8).constant == pytest.approx(0.5)


def test_subexp_not_weakly_subadditive():
    sigma = make_subexp_weight(Z1, 0.5, 3.0)
    c10 = check_weak_subadditive(sigma, 10).constant
    c30 = check_weak_subadditive(sigma, 30).constant
    assert c30 > 5.0 * c10  # the constant keeps growing with the radius


def test_symmetry_checks():
    assert check_symmetric(make_poly_weight(Z1, 2.0), 16)
    assert check_symmetric(make_subexp_weight(Z1, 0.5, 1.0), 16)
    lopsided = Weight(group=Z1, fn=lambda s: 2.0 ** s[0], name="2^s")
    assert not check_symmetric(lopsided, 4)


def test_grs_trends():
    w = make_poly_weight(Z2, 2.0)
    seq = check_grs(w, (1, 0), 1000)
    assert seq[-1] == pytest.approx(1001.0 ** (2.0 / 1000.0), rel=1e-12)
    assert seq[-1] < 1.02
    const = check_grs(constant_weight(Z1), (1,), 50)
    assert np.all(const == 1.0)
    expw = Weight(group=Z1, fn=lambda s: 2.0 ** abs(s[0]), name="2^|s|")
    assert np.all(check_grs(expw, (1,), 60) == pytest.approx(2.0))


def test_lss_domination_trivial_and_scaled():
    w = make_poly_weight(Z1, 2.0)
    assert check_lss_domination(w, w, 10).constant == pytest.approx(1.0)
    sigma = make_subexp_weight(Z1, 0.5, 1.0)
    omega = make_poly_weight(Z1, 25.0)
    rep = check_lss_domination(sigma, omega, 30)
    assert math.isfinite(rep.constant)
    assert rep.constant >= 1.0  # identity pairs force M >= 1


def _counted(w: Weight):
    calls = [0]

    def fn(s):
        calls[0] += 1
        return w(s)

    return Weight(group=w.group, fn=fn, name=w.name), calls


@pytest.mark.parametrize("check", ["submult", "weak-subadditive", "lss"])
def test_pair_checks_evaluate_each_weight_once_per_element(check):
    # the radius ball is the BFS prefix of the doubled ball, so its values are sliced out
    n2 = len(pair_table(Z2, 5)[1])
    sigma, sigma_calls = _counted(make_subexp_weight(Z2, 0.5, 1.0))
    omega, omega_calls = _counted(make_poly_weight(Z2, 2.0))
    if check == "submult":
        check_submultiplicative(sigma, 5)
    elif check == "weak-subadditive":
        check_weak_subadditive(sigma, 5)
    else:
        check_lss_domination(sigma, omega, 5)
    assert sigma_calls[0] == n2
    assert omega_calls[0] == (n2 if check == "lss" else 0)


def test_block_weight_check_evaluates_the_weight_once_per_element(monkeypatch):
    group = parse_group("Block:6")
    block, calls = _counted(make_block_weight(group, [1, 3, 9, 27, 81]))
    monkeypatch.setattr(cli, "parse_weight", lambda g, spec: block)
    assert cli.run_check(cli.CheckSpec(check="block-weight", group="Block:6"))["pass"]
    assert calls[0] == len(pair_table(group, len(group.identity))[1])


GATHER_GROUPS = [("Z^d:1", 30), ("Z^d:2", 5), ("H3", 3), ("Zn:8", 6)]


def _per_element(w: Weight) -> Weight:
    return dataclasses.replace(w, of_tau=None)


def test_of_tau_is_the_weight_at_each_length():
    # subexp2 is defined as 1 at tau = 0, where its formula is 0/0
    for spec in ("poly:1.5", "subexp:0.5:1", "subexp2:1:1", "quot:subexp:0.5:1/poly:25", "const"):
        w = parse_weight(Z2, spec)
        assert [w.of_tau(t) for t in range(4)] == [w((t, -t)) for t in range(4)]
    assert parse_weight(Z1, "subexp2:1:1").of_tau(0) == 1.0
    assert make_block_weight(block_group(4), [1, 3, 9]).of_tau is None
    assert quotient_weight(make_block_weight(block_group(4), [1, 3, 9]), constant_weight(block_group(4))).of_tau is None


@pytest.mark.parametrize("group_spec, radius", GATHER_GROUPS)
@pytest.mark.parametrize(
    "spec", ["poly:1.5", "subexp:0.5:1", "subexp2:1:1", "quot:subexp:0.5:1/poly:25", "quot:subexp2:1:1/poly:1"]
)
def test_gathered_pair_checks_match_the_per_element_values(group_spec, radius, spec):
    group = parse_group(group_spec)
    w = parse_weight(group, spec)
    for check in (check_submultiplicative, check_weak_subadditive):
        assert check(w, radius) == check(_per_element(w), radius)


@pytest.mark.parametrize("group_spec, radius", GATHER_GROUPS)
@pytest.mark.parametrize("sigma_spec, omega_spec", [("subexp:0.5:1", "poly:25"), ("subexp2:1:1", "poly:1")])
def test_gathered_lss_matches_the_per_element_values(group_spec, radius, sigma_spec, omega_spec):
    group = parse_group(group_spec)
    sigma, omega = parse_weight(group, sigma_spec), parse_weight(group, omega_spec)
    expected = check_lss_domination(_per_element(sigma), _per_element(omega), radius)
    assert check_lss_domination(sigma, omega, radius) == expected
    assert check_lss_domination(sigma, _per_element(omega), radius) == expected


def test_lss_equals_quotient_submultiplicativity():
    sigma = make_subexp_weight(Z1, 0.5, 1.0)
    omega = make_poly_weight(Z1, 25.0)
    lss = check_lss_domination(sigma, omega, 12)
    quot = check_submultiplicative(quotient_weight(sigma, omega), 12)
    assert lss.constant == pytest.approx(quot.constant, rel=1e-9)


def test_p_function_analysis():
    res = analyze_p_function(1.0, 1.0, 1.0)
    assert res.violations == 0
    assert res.x0 > 0 and res.m_const >= 0

    def p(x):
        return x / math.log(math.e + x) - math.log1p(x)

    assert p(0.0) == 0.0
    assert p(res.x0 + 1.0) > p(res.x0) > 0


def test_p_function_rejects_bad_params():
    with pytest.raises(WeightParameterError):
        analyze_p_function(0.0, 1.0, 1.0)


def test_p_function_x0_bound(monkeypatch):
    monkeypatch.setattr(weights_mod, "P_X0_BOUND", 1.0)
    with pytest.raises(PFunctionError):
        analyze_p_function(2.0, 2.0, 1.0)


def test_block_weight_values():
    group = block_group(4)
    w = make_block_weight(group, [3, 9, 27])
    assert w(group.identity) == 1.0
    assert w((1, 0, 0, 0)) == 1.0  # first chain member
    assert w((0, 1, 0, 0)) == 4.0  # gap G_2 minus G_1 with n_1 = 3
    assert w((0, 0, 1, 0)) == 10.0
    with pytest.raises(WeightParameterError):
        make_block_weight(group, [3, 2, 27])
    with pytest.raises(WeightParameterError):
        make_block_weight(group, [3])


def test_block_weight_max_bound_exhaustive():
    group = block_group(6)
    w = make_block_weight(group, [2, 4, 8, 16, 32])
    elems = [tuple(int(b) for b in format(k, "06b")) for k in range(64)]
    for s in elems:
        for t in elems:
            assert w(group.op(s, t)) <= max(w(s), w(t)) + 1e-12


def test_weight_positivity_and_identity_normalization():
    from torlicz.groups import ball_elements

    for spec in ("poly:2", "subexp:0.5:1", "subexp2:1:1", "quot:subexp2:1:1/poly:1", "const"):
        w = parse_weight(Z1, spec)
        assert w(Z1.identity) == 1.0
        assert min(w(g) for g in ball_elements(Z1, 12)) > 0


def test_parse_weight_specs():
    assert parse_weight(Z1, "poly:2.5").name == "poly:2.5"
    assert parse_weight(Z1, "subexp:0.5:2").name == "subexp:0.5:2"
    assert parse_weight(Z1, "subexp2:1:1").name == "subexp2:1:1"
    assert parse_weight(Z1, "quot:poly:2/poly:1").name == "quot:poly:2/poly:1"
    assert parse_weight(block_group(4), "block:1,3,9").name == "block"
    with pytest.raises(ValueError):
        parse_weight(Z1, "exp:1")


@pytest.mark.parametrize("group_spec, spec", [
    ("Z^d:2", "poly:1.5"), ("H3", "poly:2"), ("Z^d:2", "subexp2:1:1"), ("H3", "subexp2:0.5:2"),
    ("Z^d:2", "quot:subexp:0.5:1/poly:2"), ("Block:5", "block:1,3,9,27"), ("Z^d:2", "lambda"),
])
def test_weight_values_and_weighted_l1_norm_equal_the_scalar_calls(group_spec, spec):
    from torlicz.groups import ball_elements
    from torlicz.orlicz import SupportedFunction, weighted_l1_norm

    group = parse_group(group_spec)
    if spec == "lambda":
        w = lambda s: 1.0 + 0.1 * sum(map(abs, s)) ** 1.3  # noqa: E731  no of_tau, no group
    else:
        w = parse_weight(group, spec)
        assert (getattr(w, "of_tau", None) is None) == spec.startswith("block")
    rng = np.random.default_rng(9)
    ball = ball_elements(group, 3)
    elements = [ball[k] for k in rng.integers(0, len(ball), 300)]  # repeats, in no length order
    assert [x.hex() for x in weights_mod.weight_values(w, elements)] == [float(w(s)).hex() for s in elements]
    f = SupportedFunction(group, {s: complex(*rng.standard_normal(2)) for s in elements})
    expected = float(sum(abs(v) * w(s) for s, v in f.values.items()))
    assert weighted_l1_norm(f, w).hex() == expected.hex()


def test_weight_values_calls_of_tau_once_per_distinct_length():
    lengths = []
    w = weights_mod._tau_weight(Z2, "logged", lambda t: lengths.append(t) or 1.0 + t)
    elements = [(0, 0), (3, -1), (1, 1), (-3, 2), (0, 1), (2, 3)]
    assert weights_mod.weight_values(w, elements) == [1.0, 4.0, 2.0, 4.0, 2.0, 4.0]
    assert sorted(lengths) == [0, 1, 3]
