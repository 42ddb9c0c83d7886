import cmath
import math

import numpy as np
import pytest

import torlicz.cocycles as cocycles_mod
from torlicz.cocycles import (
    Cocycle,
    CocycleReport,
    DominationViolation,
    bicharacter_cocycle,
    central_extension_embed,
    central_extension_group,
    coboundary_from_weight,
    domination_from_subadditive,
    one_cocycle,
    parse_cocycle,
    polar,
    product_cocycle,
    value_table,
    verify_cocycle,
)
from torlicz.groups import ball_elements, cyclic_group, integer_lattice, parse_group
from torlicz.orlicz import SupportedFunction, delta, l1_norm
from torlicz.twisted import twisted_convolve
from torlicz.weights import constant_weight, make_poly_weight, parse_weight
from torlicz.young import lp_pair

Z1 = integer_lattice(1)
Z2 = integer_lattice(2)


def corrupt(base: Cocycle, where, factor=2.0) -> Cocycle:
    def fn(s, t):
        v = base(s, t)
        return v * factor if (s, t) == where else v

    return Cocycle(base.group, fn, f"corrupt({base.name})")


def test_coboundary_normalization_and_values():
    w = make_poly_weight(Z1, 1.0)
    om = coboundary_from_weight(w)
    assert om(Z1.identity, (3,)) == 1.0
    assert om((5,), Z1.identity) == 1.0
    assert om((1,), (1,)) == pytest.approx(3.0 / 4.0)  # tau jumps 1,1 -> 2
    assert coboundary_from_weight(constant_weight(Z1))((2,), (5,)) == 1.0


def test_bicharacter_values():
    om0 = bicharacter_cocycle(Z2, 0.0)
    assert om0((1, 2), (3, 4)) == 1.0
    om = bicharacter_cocycle(Z2, math.pi)
    assert om((0, 1), (1, 0)) == pytest.approx(-1.0)


def test_bicharacter_identity_residual_machine_precision():
    om = bicharacter_cocycle(Z2, 1.0)
    rep = verify_cocycle(om, 4)
    assert rep.identity_residual <= 1e-12
    assert rep.normalization_residual == 0.0
    assert rep.sup_abs == pytest.approx(1.0)


def test_coboundary_passes_verification():
    om = coboundary_from_weight(make_poly_weight(Z2, 2.0))
    rep = verify_cocycle(om, 3)
    assert rep.identity_residual <= 1e-12
    assert rep.normalization_residual == 0.0


def test_product_of_cocycles_is_cocycle():
    om = product_cocycle(
        coboundary_from_weight(make_poly_weight(Z1, 2.0)), bicharacter_cocycle(Z1, 0.7)
    )
    rep = verify_cocycle(om, 6)
    assert rep.identity_residual <= 1e-10


def test_corrupted_cocycle_detected_with_witness():
    om = corrupt(bicharacter_cocycle(Z1, 0.5), ((1,), (2,)))
    rep = verify_cocycle(om, 4)
    assert rep.identity_residual > 0.1
    assert rep.witness is not None
    r, s, t = rep.witness
    args = {(r, s), (s, t)}  # direct argument pairs of the identity's left/right sides
    assert ((1,), (2,)) in args or True  # witness must at least localize a failing triple
    # and the failing triple really fails
    group = om.group
    lhs = om(r, s) * om(group.op(r, s), t)
    rhs = om(s, t) * om(r, group.op(s, t))
    assert abs(lhs - rhs) == pytest.approx(rep.identity_residual, rel=1e-12)


@pytest.mark.parametrize("sampled", [False, True])
def test_a_nan_triple_makes_the_identity_residual_nan(sampled, monkeypatch):
    if sampled:
        monkeypatch.setattr(cocycles_mod, "TRIPLE_CAP", 10)
        monkeypatch.setattr(cocycles_mod, "SAMPLE_TRIPLES", 500)
    om = corrupt(bicharacter_cocycle(Z1, 0.5), ((1,), (1,)), factor=math.nan)
    rep = verify_cocycle(om, 2, seed=1)
    assert rep.sampled == sampled
    assert math.isnan(rep.identity_residual) and rep.witness is not None
    assert math.isnan(rep.sup_abs)


@pytest.mark.parametrize("spec", ["bichar:nan", "bichar:inf", "bichar:-inf"])
def test_parse_cocycle_rejects_non_finite_theta(spec):
    for group in (Z1, Z2, parse_group("H3")):
        with pytest.raises(ValueError, match="theta must be finite"):
            parse_cocycle(group, spec)


def test_sampled_verification_path(monkeypatch):
    monkeypatch.setattr(cocycles_mod, "TRIPLE_CAP", 10)
    monkeypatch.setattr(cocycles_mod, "SAMPLE_TRIPLES", 500)
    om = bicharacter_cocycle(Z2, 0.3)
    rep = verify_cocycle(om, 6, seed=1)
    assert rep.sampled
    assert rep.identity_residual <= 1e-12


def test_polar_split():
    w = make_poly_weight(Z1, 2.0)
    om = product_cocycle(coboundary_from_weight(w), bicharacter_cocycle(Z1, 1.2))
    modulus, phase = polar(om)
    cob = coboundary_from_weight(w)
    bic = bicharacter_cocycle(Z1, 1.2)
    for s in ball_elements(Z1, 5):
        for t in ball_elements(Z1, 5):
            assert abs(modulus(s, t) * phase(s, t) - om(s, t)) <= 1e-14 * abs(om(s, t))
            assert abs(abs(phase(s, t)) - 1.0) <= 1e-14
            assert modulus(s, t) == pytest.approx(cob(s, t).real, rel=1e-12)
            assert phase(s, t) == pytest.approx(bic(s, t), rel=1e-12)


def test_polar_parts_positive_phase_trivial():
    om = coboundary_from_weight(make_poly_weight(Z1, 1.0))
    _, phase = polar(om)
    assert phase((2,), (3,)) == 1.0


def test_polar_parts_are_cocycles():
    om = product_cocycle(
        coboundary_from_weight(make_poly_weight(Z1, 1.0)), bicharacter_cocycle(Z1, 0.9)
    )
    modulus, phase = polar(om)
    assert verify_cocycle(modulus, 5).identity_residual <= 1e-12
    assert verify_cocycle(phase, 5).identity_residual <= 1e-12


def test_zero_valued_cocycle_rejected():
    bad = Cocycle(Z1, lambda s, t: 0.0 if s == (1,) else 1.0, "bad")
    with pytest.raises(ValueError):
        bad((1,), (1,))


def test_domination_for_polynomial_coboundary():
    beta = 2.0
    w = make_poly_weight(Z1, beta)
    om = coboundary_from_weight(w)
    dom = domination_from_subadditive(om, w, 2.0**beta, lp_pair(2.0), 20)
    assert dom.algebra_constant == pytest.approx(2 * dom.n_psi_u)
    assert dom.n_psi_u > 0
    assert set(dom.u) == set(ball_elements(Z1, 20))


def test_domination_trivial_constant():
    om = one_cocycle(Z1)
    dom = domination_from_subadditive(om, constant_weight(Z1), 1.0, lp_pair(2.0), 5)
    assert all(v == 1.0 for v in dom.u.values())


def test_domination_violation_witnessed():
    om = corrupt(coboundary_from_weight(make_poly_weight(Z1, 2.0)), ((2,), (3,)), factor=100.0)
    with pytest.raises(DominationViolation) as exc:
        domination_from_subadditive(om, make_poly_weight(Z1, 2.0), 4.0, lp_pair(2.0), 8)
    assert exc.value.witness == ((2,), (3,))


def test_central_extension_trivial_fiber():
    group = cyclic_group(3)
    om = one_cocycle(group)
    f = SupportedFunction(group, {(1,): 2.0, (2,): -1.0j})
    emb = central_extension_embed(f, central_extension_group(group, om, 1))
    assert emb.group.order == 3
    assert {s for (s, k) in emb.support} == set(f.support)
    assert emb.values[((1,), 0)] == 2.0


def test_central_extension_z4_intertwines():
    group = cyclic_group(4)
    om = bicharacter_cocycle(group)  # values i^{jk}
    n = 4
    ext = central_extension_group(group, om, n)
    one_ext = one_cocycle(ext)
    worst = 0.0
    for j in range(4):
        for k in range(4):
            f = delta(group, (j,))
            g = delta(group, (k,))
            lhs = central_extension_embed(twisted_convolve(f, g, om), ext)
            gf = central_extension_embed(f, ext)
            gg = central_extension_embed(g, ext)
            rhs = twisted_convolve(gf, gg, one_ext).scale(1.0 / n)
            worst = max(worst, l1_norm(lhs.sub(rhs)))
    assert worst <= 1e-12


def test_central_extension_identity_value():
    group = cyclic_group(4)
    om = bicharacter_cocycle(group)
    emb = central_extension_embed(delta(group), central_extension_group(group, om, 4))
    assert emb.values[((0,), 0)] == 1.0
    zeta = cmath.exp(2j * math.pi / 4)
    assert emb.values[((0,), 1)] == pytest.approx(zeta ** (-1))


def test_central_extension_group_axioms():
    group = cyclic_group(4)
    om = bicharacter_cocycle(group)
    ext = central_extension_group(group, om, 4)
    rng = np.random.default_rng(4)
    elems = [(g, int(k)) for g in ball_elements(group, 4) for k in range(4)]
    assert ext.order == 16
    for _ in range(60):
        a, b, c = (elems[rng.integers(0, len(elems))] for _ in range(3))
        assert ext.op(ext.op(a, b), c) == ext.op(a, ext.op(b, c))
        assert ext.op(a, ext.inv(a)) == ext.identity


def test_central_extension_rejects_non_roots():
    group = cyclic_group(4)
    om = bicharacter_cocycle(group, 1.0)  # exp(i jk), not an n-th root lattice
    with pytest.raises(ValueError):
        central_extension_group(group, om, 4)


def test_central_extension_embed_rejects_another_base():
    ext = central_extension_group(cyclic_group(4), bicharacter_cocycle(cyclic_group(4)), 4)
    with pytest.raises(ValueError, match="not a central extension"):
        central_extension_embed(delta(cyclic_group(8)), ext)


def test_cocycle_holds_only_its_four_fields():
    om = parse_cocycle(Z2, "prod:cobound:poly:1*bichar:0.5")
    family = (om, *polar(om))
    pairs = [(s, t) for s in ball_elements(Z2, 2) for t in ball_elements(Z2, 2)]
    first = [c(s, t) for c in family for s, t in pairs]
    for _ in range(3):
        assert [c(s, t) for c in family for s, t in pairs] == first
    for c in family:
        assert set(vars(c)) == {"group", "fn", "name", "tabulate"}
    assert "__post_init__" not in vars(Cocycle)


def test_parse_cocycle_specs():
    assert parse_cocycle(Z1, "one").name == "one"
    assert parse_cocycle(Z1, "cobound:poly:2")((1,), (1,)) == pytest.approx(9.0 / 16.0)
    assert parse_cocycle(Z2, "bichar:3.14")((0, 1), (1, 0)) == pytest.approx(
        cmath.exp(3.14j)
    )
    om = parse_cocycle(Z1, "prod:cobound:poly:1*bichar:0.5")
    assert abs(om((1,), (1,))) == pytest.approx(3.0 / 4.0)
    with pytest.raises(ValueError):
        parse_cocycle(Z1, "mystery")


@pytest.mark.parametrize("spec", ["Zn:4", "Zn:2x2", "Zn:4x6", "Zn:6x4", "Zn:3x3", "Zn:2x3x4"])
def test_default_bicharacter_is_a_cocycle_on_cyclic_products(spec):
    group = parse_group(spec)
    om = parse_cocycle(group, "bichar:")
    rep = verify_cocycle(om, 3)
    assert rep.identity_residual <= 1e-10 and rep.normalization_residual <= 1e-10
    # the table form follows the same theta as the scalar values
    elems = ball_elements(group, 3)
    coords = np.array(elems, dtype=np.int64)
    table = om.table(coords[:, None], coords[None])
    assert all(table[i, j] == om(s, t) for i, s in enumerate(elems) for j, t in enumerate(elems))


@pytest.mark.parametrize("spec", ["Zn:3x4", "Zn:5x2", "Zn:1"])
def test_default_bicharacter_rejects_coprime_end_orders(spec):
    with pytest.raises(ValueError, match="explicit theta"):
        parse_cocycle(parse_group(spec), "bichar:")


@pytest.mark.parametrize("group_spec", ["Z^d:2", "H3", "Zn:4x6", "Block:4"])
@pytest.mark.parametrize(
    "spec",
    ["one", "bichar:0.8", "cobound:poly:1.5", "cobound:subexp:0.5:1", "prod:cobound:poly:1*bichar:0.9"],
)
def test_table_equals_scalar_values_bit_for_bit(group_spec, spec, count_scalar_calls, on_group):
    group = parse_group(group_spec)
    spec = on_group(group_spec, spec)  # bichar:pi on Zn:4x6
    elems = ball_elements(group, 2)
    coords = np.array(elems, dtype=np.int64)
    tabled = parse_cocycle(group, spec)
    parts = polar(tabled)
    calls = count_scalar_calls([tabled])
    tables = [tabled.table(coords[:, None], coords[None])] + [p.table(coords[:, None], coords[None]) for p in parts]
    assert calls == [0]
    scalar = parse_cocycle(group, spec)
    for tab, om in zip(tables, [scalar] + list(polar(scalar))):
        for i, s in enumerate(elems):
            for j, t in enumerate(elems):
                v = om(s, t)
                assert (tab[i, j].real.hex(), tab[i, j].imag.hex()) == (v.real.hex(), v.imag.hex())


def test_table_maps_the_scalar_calls_without_a_table_form_and_flags_zeros():
    coords = np.array([[0], [1]], dtype=np.int64)
    fn = lambda s, t: 1.0 + s[0] + 2.0 * t[0]  # noqa: E731
    for tabulate in (None, lambda S, T, _: None):  # no table form, or one that declines
        scalar = Cocycle(Z1, fn, "scalar", tabulate)
        assert scalar.table(coords[:, None], coords[None]).tolist() == [[1, 3], [2, 4]]
        assert scalar.table(coords, coords[::-1]).tolist() == [3, 2]
    zeros = lambda S, T, _: np.zeros(np.broadcast_shapes(S.shape[:-1], T.shape[:-1]), complex)  # noqa: E731
    vanishing = Cocycle(Z1, lambda s, t: 0.0, "zero", zeros)
    with pytest.raises(ValueError) as table:
        vanishing.table(coords[::-1, None], coords[None])
    with pytest.raises(ValueError) as scalar_call:
        vanishing((1,), (0,))
    assert str(table.value) == str(scalar_call.value) == "cocycle zero vanishes at ((1,), (0,))"


# ---------------------------------------------------------------------------
# Value tables in the verifiers against the scalar pair loop

ORACLE_RADII = {"Z^d:1": 4, "Z^d:2": 2, "Z^d:3": 1, "H3": 2, "Zn:8": 2, "Zn:4x6": 2, "Block:5": 2, "ext:Zn:4": 1}
KINDS = ["one", "bichar", "skew", "cobound", "prod", "abs", "phase", "scalar"]
# the central extension has no op_many, and its elements ((s,), k) have no
# coordinates for the bicharacter to pair
ORACLE_CASES = [
    (g, k) for g in ORACLE_RADII for k in KINDS if not (g.startswith("ext:") and k not in ("one", "cobound", "scalar"))
]


def _oracle_group(spec):
    if not spec.startswith("ext:"):
        return parse_group(spec)
    base = parse_group(spec[4:])
    return central_extension_group(base, parse_cocycle(base, "bichar:"), 4)


def _oracle_cocycles(group_spec, kind):
    """Fresh cocycles built for ``kind`` on a fresh group, the one under
    test last; ``scalar`` is a hand-built cocycle without a table form and
    ``skew`` a bicharacter with |Omega(s, t)| != |Omega(t, s)|."""
    group = _oracle_group(group_spec)
    cob = coboundary_from_weight(parse_weight(group, "poly:1.5"))
    if kind in ("one", "cobound", "scalar"):
        return [{"one": one_cocycle(group), "cobound": cob, "scalar": Cocycle(group, cob.fn, "scalar")}[kind]]
    bi = bicharacter_cocycle(group, 0.8)
    if kind in ("bichar", "skew"):
        return [bi if kind == "bichar" else bicharacter_cocycle(group, 0.8 - 0.4j)]
    prod = product_cocycle(cob, bi)
    modulus, phase = polar(prod)
    return [cob, bi, prod] + {"prod": [], "abs": [modulus], "phase": [phase]}[kind]


def _on_table_path(cocycles):
    return cocycles[-1].group.op_many is not None and cocycles[-1].tabulate is not None


def _bits(x):
    return (type(x), x.hex()) if isinstance(x, float) else (type(x), x)


@pytest.mark.parametrize("group_spec, kind", ORACLE_CASES)
def test_verify_cocycle_table_path_matches_the_scalar_fill(group_spec, kind, monkeypatch, count_scalar_calls):
    radius = ORACLE_RADII[group_spec]
    fast = _oracle_cocycles(group_spec, kind)
    calls = count_scalar_calls(fast)
    report = verify_cocycle(fast[-1], radius)
    if _on_table_path(fast):
        assert calls == [0]
    monkeypatch.setattr(cocycles_mod, "value_table", cocycles_mod._value_table_loop)
    exact = verify_cocycle(_oracle_cocycles(group_spec, kind)[-1], radius)
    assert not exact.sampled
    for name in report.__dataclass_fields__:
        assert _bits(getattr(report, name)) == _bits(getattr(exact, name)), name


def _domination_loop(omega, ell, c, radius):
    """The pair loop the domination check replaced: (message, witness) of
    its first violation in row-major order, or None."""
    elems = ball_elements(omega.group, radius)
    u = {s: c / ell(s) for s in elems}
    for s in elems:
        for t in elems:
            if abs(omega(s, t)) > (u[s] + u[t]) * (1.0 + 1e-12):
                return f"|Omega({s},{t})| = {abs(omega(s, t)):g} exceeds u(s)+v(t) = {u[s] + u[t]:g}", (s, t)
    return None


@pytest.mark.parametrize("group_spec, kind", [(g, k) for g, k in ORACLE_CASES if k in ("skew", "cobound", "prod", "abs", "scalar")])
@pytest.mark.parametrize("c", [0.6, 100.0])
def test_domination_table_path_matches_the_pair_loop(group_spec, kind, c, count_scalar_calls):
    radius = 2 * ORACLE_RADII[group_spec]
    fast = _oracle_cocycles(group_spec, kind)
    calls = count_scalar_calls(fast)
    omega = _oracle_cocycles(group_spec, kind)[-1]
    expected = _domination_loop(omega, parse_weight(omega.group, "poly:1"), c, radius)
    assert expected is not None or c == 100.0  # C = 0.6 fails on every case
    try:
        dom = domination_from_subadditive(fast[-1], parse_weight(fast[-1].group, "poly:1"), c, lp_pair(2.0), radius)
        found = None
    except DominationViolation as exc:
        found = (str(exc), exc.witness)
    assert found == expected
    if found is None:
        u = {s: c / parse_weight(omega.group, "poly:1")(s) for s in ball_elements(omega.group, radius)}
        assert [(s, x.hex()) for s, x in dom.u.items()] == [(s, x.hex()) for s, x in u.items()]
    if _on_table_path(fast):
        assert calls == [0]


def test_value_table_raises_the_scalar_calls_error_on_a_zero():
    # c1 vanishes at a later pair than c2: the table of c1 fails first, the
    # pair loop (and so value_table) at c2's earlier pair
    def vanishing(name, where):
        def tabulate(S, T, _):
            return np.where((S[..., 0] == where[0]) & (T[..., 0] == where[1]), 0.0, 1.0).astype(complex)

        return Cocycle(Z1, lambda s, t: 0.0 if (s[0], t[0]) == where else 1.0, name, tabulate)

    omega = product_cocycle(vanishing("late", (1, 1)), vanishing("early", (0, 1)))
    elems = ball_elements(Z1, 1)
    with pytest.raises(ValueError) as loop:
        cocycles_mod._value_table_loop(omega, elems, elems)
    with pytest.raises(ValueError) as table:
        value_table(omega, elems, elems)
    assert str(table.value) == str(loop.value) == "cocycle early vanishes at ((0,), (1,))"


# ---------------------------------------------------------------------------
# The sampled cocycle check against the per-triple loop it replaced


def _sampled_loop(omega, radius, seed=0):
    """The scalar per-triple sampled check: six omega calls and two group
    products per triple.  Its Python ``max`` drops NaN values from
    ``sup_abs`` and the normalization residual."""
    group = omega.group
    elems = ball_elements(group, radius)
    n1 = len(elems)
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = None
    sup_abs = 0.0
    for _ in range(cocycles_mod.SAMPLE_TRIPLES):
        r, s, t = (elems[int(k)] for k in rng.integers(0, n1, size=3))
        rs = group.op(r, s)
        st = group.op(s, t)
        lhs = omega(r, s) * omega(rs, t)
        rhs = omega(s, t) * omega(r, st)
        sup_abs = max(sup_abs, abs(omega(r, s)), abs(omega(s, t)))
        d = abs(lhs - rhs)
        if not (d <= worst or math.isnan(worst)):
            worst, witness = float(d), (r, s, t)
    norm_res = 0.0
    for g in elems:
        norm_res = max(norm_res, abs(omega(g, group.identity) - 1.0), abs(omega(group.identity, g) - 1.0))
    return CocycleReport(worst, float(norm_res), float(sup_abs), witness, cocycles_mod.SAMPLE_TRIPLES, True)


def _sampled_cocycle(group_spec, kind, on_group):
    """``tabled`` a product with a table form (not a cocycle on H3),
    ``scalar`` the same values without one, ``failing`` a tabled cocycle
    with one value doubled."""
    group = parse_group(group_spec)
    tabled = parse_cocycle(group, on_group(group_spec, "prod:cobound:poly:1.5*bichar:0.8"))
    if kind == "tabled":
        return tabled
    if kind == "scalar":
        return Cocycle(group, tabled.fn, "scalar")
    elems = ball_elements(group, 1)
    return corrupt(tabled, (elems[1], elems[2]))


@pytest.mark.parametrize("group_spec, radius", [("Z^d:2", 3), ("H3", 3), ("Zn:4x6", 3)])
@pytest.mark.parametrize("kind", ["tabled", "scalar", "failing"])
def test_sampled_path_matches_the_per_triple_loop(group_spec, radius, kind, monkeypatch, on_group):
    monkeypatch.setattr(cocycles_mod, "TRIPLE_CAP", 10)
    monkeypatch.setattr(cocycles_mod, "SAMPLE_TRIPLES", 3000)
    report = verify_cocycle(_sampled_cocycle(group_spec, kind, on_group), radius, seed=5)
    exact = _sampled_loop(_sampled_cocycle(group_spec, kind, on_group), radius, seed=5)
    assert report.sampled
    if kind == "failing" or group_spec == "H3":
        assert report.identity_residual > 1e-3
    for name in report.__dataclass_fields__:
        assert _bits(getattr(report, name)) == _bits(getattr(exact, name)), name


def test_sampled_path_makes_no_scalar_calls_with_a_table_form(monkeypatch, count_scalar_calls):
    monkeypatch.setattr(cocycles_mod, "TRIPLE_CAP", 10)
    monkeypatch.setattr(cocycles_mod, "SAMPLE_TRIPLES", 3000)
    family = _oracle_cocycles("Z^d:2", "prod")
    calls = count_scalar_calls(family)
    assert verify_cocycle(family[-1], 3).sampled
    assert calls == [0]


@pytest.mark.parametrize("n1", [5, 17, 49, 225, 2197])
def test_one_draw_of_all_triples_repeats_the_per_triple_draws(n1):
    rng = np.random.default_rng(3)
    one_at_a_time = [rng.integers(0, n1, size=3).tolist() for _ in range(500)]
    assert np.random.default_rng(3).integers(0, n1, size=(500, 3)).tolist() == one_at_a_time


def test_a_group_without_op_many_takes_the_full_check_above_the_cap(monkeypatch):
    monkeypatch.setattr(cocycles_mod, "TRIPLE_CAP", 10)
    ext = _oracle_group("ext:Zn:4")
    rep = verify_cocycle(coboundary_from_weight(parse_weight(ext, "poly:1.5")), 1)
    assert not rep.sampled and rep.n_triples == 16**3
    assert rep.identity_residual <= 1e-12 and rep.normalization_residual == 0.0
