import dataclasses
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torlicz.groups as groups_mod
from torlicz.groups import (
    BudgetError,
    ball_elements,
    ball_sizes,
    ball_table,
    block_group,
    block_index,
    cyclic_group,
    cyclic_product_group,
    element_from_list,
    element_to_list,
    growth_degree_estimate,
    heisenberg_group,
    integer_lattice,
    pair_table,
    parse_group,
    word_length,
)


def bfs_oracle(group, radius):
    """Independent BFS over the Cayley graph; returns {element: distance}."""
    dist = {group.identity: 0}
    queue = deque([group.identity])
    while queue:
        g = queue.popleft()
        if dist[g] >= radius:
            continue
        for u in group.generators:
            h = group.op(g, u)
            if h not in dist:
                dist[h] = dist[g] + 1
                queue.append(h)
    return dist


def test_identity_has_length_zero():
    assert word_length(integer_lattice(2), (0, 0)) == 0


def test_z2_word_length_against_bfs_oracle():
    group = integer_lattice(2)
    oracle = bfs_oracle(group, 4)
    for g, d in oracle.items():
        assert word_length(group, g) == d
    assert word_length(group, (3, -2)) == 3  # sup norm for this generating set


def test_h3_commutator_length():
    group = heisenberg_group()
    commutator = group.op(
        group.op((1, 0, 0), (0, 1, 0)), group.op((-1, 0, 0), (0, -1, 0))
    )
    assert commutator == (0, 0, 1)
    oracle = bfs_oracle(group, 6)
    assert oracle[commutator] == 4
    assert word_length(group, commutator) == 4


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lattice_ball_sizes_closed_form(d):
    # ball_sizes sums the closed-form spheres; ball_table counts the BFS
    group = integer_lattice(d)
    sizes = ball_sizes(group, 12)
    assert sizes == list(ball_table(group, 12).sizes[1:]) == [(2 * n + 1) ** d for n in range(1, 13)]


@pytest.mark.parametrize(
    "spec, radius",
    [
        ("Z^d:1", 12),
        ("Z^d:2", 12),
        ("Z^d:3", 12),
        ("Z^d:4", 6),  # radius 12 would hold 390,625 elements and 7M products in one array layer
        ("H3", 12),
        ("Zn:8", 12),  # exhausted at radius 4: zeros after
        ("Block:6", 12),  # exhausted at radius 6
    ],
)
def test_sphere_sizes_count_the_bfs_layers(spec, radius):
    group = parse_group(spec)
    sizes = group.sphere_sizes(radius)
    assert sizes == [len(layer) for layer in ball_table(group, radius).layers]
    assert len(sizes) == radius + 1 and all(type(k) is int for k in sizes)


def test_lattice_sphere_sizes_need_no_bfs():
    group = integer_lattice(3)
    assert group.sphere_sizes(3) == [1, 26, 98, 218]
    assert ball_sizes(group, 1000)[-1] == 2001**3
    assert "bfs" not in group._cache


def test_finite_group_sizes_saturate():
    sizes = ball_sizes(cyclic_group(5), 6)
    assert sizes == [3, 5, 5, 5, 5, 5]


def test_layers_partition_and_match_word_length():
    group = integer_lattice(2)
    table = ball_table(group, 8)
    seen = set()
    for n, layer in enumerate(table.layers):
        for g in layer:
            assert g not in seen
            seen.add(g)
            assert word_length(group, g) == n


def test_heisenberg_layers_match_hintless_bfs():
    group = heisenberg_group()
    table = ball_table(group, 6)
    oracle = bfs_oracle(group, 6)
    assert sum(len(l) for l in table.layers) == len(oracle)
    for n, layer in enumerate(table.layers):
        for g in layer:
            assert oracle[g] == n


def test_growth_degree_z2():
    fit = growth_degree_estimate(ball_sizes(integer_lattice(2), 64))
    assert abs(fit.degree - 2.0) <= 0.1
    assert fit.residual < 0.05


def test_growth_degree_constant_sizes():
    fit = growth_degree_estimate([5] * 12)
    assert fit.degree == pytest.approx(0.0, abs=1e-12)


def test_growth_degree_h3():
    fit = growth_degree_estimate(ball_sizes(heisenberg_group(), 12))
    assert abs(fit.degree - 4.0) <= 0.3


def test_growth_degree_needs_three_points():
    with pytest.raises(ValueError):
        growth_degree_estimate([3, 9])


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
    st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
)
def test_tau_subadditive_and_symmetric_on_z2(a, b):
    group = integer_lattice(2)
    tau = lambda g: word_length(group, g)
    assert tau(group.op(a, b)) <= tau(a) + tau(b)
    assert tau(a) == tau(group.inv(a))


def test_tau_subadditive_on_h3():
    group = heisenberg_group()
    rng = np.random.default_rng(2)
    elems = ball_elements(group, 4)
    for _ in range(100):
        a = elems[rng.integers(0, len(elems))]
        b = elems[rng.integers(0, len(elems))]
        assert word_length(group, group.op(a, b)) <= word_length(group, a) + word_length(group, b)
        assert word_length(group, a) == word_length(group, group.inv(a))


@pytest.mark.parametrize(
    "group",
    [integer_lattice(2), heisenberg_group(), cyclic_group(4), cyclic_product_group((2, 2)), block_group(5)],
    ids=lambda g: g.name,
)
def test_group_axioms_sampled(group):
    rng = np.random.default_rng(7)
    elems = ball_elements(group, 3)
    e = group.identity
    for _ in range(50):
        a, b, c = (elems[rng.integers(0, len(elems))] for _ in range(3))
        assert group.op(group.op(a, b), c) == group.op(a, group.op(b, c))
        assert group.op(a, e) == a and group.op(e, a) == a
        assert group.op(a, group.inv(a)) == e


def test_generators_symmetry_enforced():
    from torlicz.groups import Group

    with pytest.raises(ValueError):
        Group(
            name="bad",
            op=lambda a, b: (a[0] + b[0],),
            inv=lambda a: (-a[0],),
            identity=(0,),
            generators=((1,),),  # missing the inverse
            op_many=np.add,
        )


def test_word_length_budget_error(monkeypatch):
    monkeypatch.setattr(groups_mod, "DEFAULT_MAX_RADIUS", 5)
    group = heisenberg_group()
    with pytest.raises(BudgetError):
        word_length(group, (50, 0, 0))


def test_ball_sizes_element_budget(monkeypatch):
    # H3 counts its spheres by BFS; Z^d's closed form needs no ball at all
    monkeypatch.setattr(groups_mod, "DEFAULT_MAX_ELEMENTS", 100)
    with pytest.raises(BudgetError):
        ball_sizes(heisenberg_group(), 12)
    assert ball_sizes(integer_lattice(3), 12)[-1] == 25**3


def test_integer_lattice_rejects_more_generators_than_the_budget(monkeypatch, capsys):
    """Z^d:30 would build 3^30 generator tuples (the CLI was killed for
    memory); it is a budget error before any is built, exit 2 from the CLI."""
    from torlicz.cli import main

    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=r"3\^30 generators"):
            parse_group("Z^d:30")
        assert main(["check", "assoc", "--group", "Z^d:30"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24
    assert "budget error: Z^d:30 has 3^30 generators" in capsys.readouterr().err
    monkeypatch.setattr(groups_mod, "DEFAULT_MAX_ELEMENTS", 27)
    assert len(integer_lattice(3).generators) == 27
    with pytest.raises(BudgetError):
        integer_lattice(4)


def test_parse_group_round_trip():
    for spec in ["Z^d:2", "H3", "Zn:5", "Zn:2x2", "Block:4"]:
        assert parse_group(spec).name == spec
    with pytest.raises(ValueError):
        parse_group("F2")


def test_element_serialization():
    group = cyclic_group(4)
    assert element_from_list(group, [7]) == (3,)  # canonical mod 4
    assert element_to_list((3,)) == [3]
    with pytest.raises(ValueError):
        element_from_list(group, [1, 2])


def test_block_group_chain():
    group = block_group(4)
    assert block_index(group, group.identity) == 0
    assert block_index(group, (1, 0, 0, 0)) == 1
    assert block_index(group, (1, 0, 1, 0)) == 3
    assert group.order == 16
    # word length is the Hamming weight
    assert word_length(group, (1, 1, 0, 1)) == 3


def test_cyclic_product_word_length():
    group = cyclic_product_group((4, 4))
    oracle = bfs_oracle(group, 8)
    for g, d in oracle.items():
        assert word_length(group, g) == d


@pytest.mark.parametrize("spec, radius", [("Z^d:1", 9), ("Z^d:3", 3), ("Zn:7", 4), ("Zn:4x6x5", 8)])
def test_length_many_is_the_bfs_length_of_every_row(spec, radius):
    group = parse_group(spec)
    oracle = bfs_oracle(group, radius)
    coords = np.array(list(oracle), dtype=np.int64)
    lengths = group.length_many(coords)
    assert lengths.dtype == np.int64 and lengths.tolist() == list(oracle.values())
    # any leading shape: (2, m, k) rows give (2, m) lengths
    assert group.length_many(np.stack([coords, coords[::-1]])).tolist() == [lengths.tolist(), lengths[::-1].tolist()]


def test_length_many_only_where_the_lengths_stay_in_int64():
    assert parse_group("H3").length_many is None and parse_group("Block:4").length_many is None
    assert parse_group(f"Zn:{5 * 10**18}").length_many(np.array([[3 * 10**18]])).tolist() == [2 * 10**18]
    assert parse_group("Zn:" + "x".join([str(5 * 10**18)] * 4)).length_many is None


def _make(spec):
    """A group from its spec; ``ext:{spec}`` is the central extension of the
    ``Zn:`` group by its default bicharacter, with fiber Z_4."""
    if not spec.startswith("ext:"):
        return parse_group(spec)
    from torlicz.cocycles import central_extension_group, parse_cocycle

    base = parse_group(spec[4:])
    return central_extension_group(base, parse_cocycle(base, "bichar:"), 4)


# the last Zn: orders where u + v leaves int64 before the reduction
OP_MANY_GROUPS = ["Z^d:1", "Z^d:3", "H3", "Zn:7", "Zn:4x6", "Block:5", "ext:Zn:4", "ext:Zn:2x2",
                  f"Zn:{2**63 - 1}x{5 * 10**18}"]


@pytest.mark.parametrize("spec", OP_MANY_GROUPS)
def test_op_many_agrees_with_op(spec):
    group = _make(spec)
    elems = ball_elements(group, 3)
    rng = np.random.default_rng(2)
    left = [elems[k] for k in rng.integers(0, len(elems), 20)]
    right = [elems[k] for k in rng.integers(0, len(elems), 15)]
    prods = group.op_many(np.array(left, dtype=np.int64)[:, None], np.array(right, dtype=np.int64)[None])
    assert prods.shape == (20, 15, len(group.identity))
    for i, s in enumerate(left):
        for j, t in enumerate(right):
            assert tuple(prods[i, j].tolist()) == group.op(s, t)


@pytest.mark.parametrize("spec", OP_MANY_GROUPS)
def test_op_many_on_paired_rows_agrees_with_op(spec):
    group = _make(spec)
    elems = ball_elements(group, 3)
    rng = np.random.default_rng(4)
    pairs = [(elems[i], elems[j]) for i, j in rng.integers(0, len(elems), (40, 2))]
    left, right = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    prods = group.op_many(left, right)
    assert prods.shape == (40, len(group.identity))
    assert [tuple(p) for p in prods.tolist()] == [group.op(s, t) for s, t in pairs]


@pytest.mark.parametrize("spec", ["Z^d:2", "H3", "Zn:7", "Zn:4x6", f"Zn:{2**62}", f"Zn:{2**63 - 1}x{5 * 10**18}",
                                  "Block:3"])
def test_op_many_with_the_identity_reduces_like_op(spec):
    # the function-file reader reduces the coordinates it reads this way
    group = parse_group(spec)
    rng = np.random.default_rng(5)
    coords = rng.integers(-(2**62), 2**62, size=(60, len(group.identity)))
    coords[:30] = rng.integers(-9, 10, size=(30, len(group.identity)))
    reduced = group.op_many(coords, np.array(group.identity, dtype=np.int64))
    assert [tuple(r) for r in reduced.tolist()] == [group.op(tuple(c), group.identity) for c in coords.tolist()]


def test_row_classes_of_products_group_equal_products_and_guard_key_overflow():
    z3 = integer_lattice(3)
    rows = np.array([(a, b, c) for a in (-3, 0, 5) for b in (-1, 2) for c in (0, 9, -7)], dtype=np.int64)
    zero = np.zeros((1, 3), dtype=np.int64)
    prods, first, inverse = groups_mod.row_classes(z3.op_many(np.concatenate([rows, rows[::-1]]), zero))
    assert len(first) == len(rows)
    assert inverse[: len(rows)].tolist() == inverse[len(rows):][::-1].tolist()
    assert sorted(map(tuple, prods[first].tolist())) == sorted(map(tuple, rows.tolist()))
    # keys past int64: the rows themselves are sorted, lead first
    wide = np.array([(0, 0, 0), (2**22, 2**22, 2**22), (0, 0, 0), (-2**40, 5, 2**50)], dtype=np.int64)
    assert groups_mod._element_keys(wide) is None
    for lead, classes in ((None, [1, 2, 1, 0]), (np.array([1, 0, 0, 0]), [3, 2, 1, 0])):
        rows, first, inverse = groups_mod.row_classes(z3.op_many(wide, zero), lead)
        assert np.array_equal(rows, wide) and inverse.tolist() == classes
        assert sorted(first.tolist()) == sorted(set(first.tolist())) and inverse[first].tolist() == list(range(len(first)))


@st.composite
def _coordinate_rows(draw):
    """Int64 coordinate rows with repeats: a few distinct rows drawn from a
    narrow box (dense keys) or a wide one (sparse keys), then sampled."""
    k = draw(st.integers(1, 3))
    width = draw(st.sampled_from([1, 3, 40, 10**6]))
    coord = st.integers(-width, width)
    distinct = draw(st.lists(st.tuples(*[coord] * k), min_size=1, max_size=30))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=120))
    return np.array([distinct[i] for i in picks], dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(_coordinate_rows())
def test_key_classes_equal_np_unique(rows):
    keys, span = groups_mod._element_keys(rows)
    assert keys.min() >= 0 and keys.max() < span
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # the span decides the path; a span past every key forces the sort
    for path_span in (span, max(span, 2**62)):
        got_first, got_inverse = groups_mod._key_classes(keys, path_span)
        assert got_first.dtype == first.dtype and got_inverse.dtype == inverse.dtype
        assert np.array_equal(got_first, first) and np.array_equal(got_inverse, inverse.reshape(-1))
    got_rows, got_first, got_inverse = groups_mod.row_classes(rows[None])
    assert np.array_equal(got_rows, rows) and np.array_equal(got_first, first)
    assert np.array_equal(got_inverse, inverse.reshape(1, -1))


def test_key_classes_take_the_table_only_for_dense_spans():
    assert groups_mod._dense(4 * 1000 + 2**16, 1000) and not groups_mod._dense(4 * 1000 + 2**16 + 1, 1000)
    points = np.array([(i * 10**6, -i * 10**6) for i in range(50)] * 2, dtype=np.int64)
    keys, span = groups_mod._element_keys(points)
    assert not groups_mod._dense(span, len(keys))
    first, inverse = groups_mod._key_classes(keys, span)
    assert first.tolist() == list(range(50)) and inverse.tolist() == list(range(50)) * 2


def _force_path(path, monkeypatch):
    """Pin the keying of pair tables and BFS layers: ``dense`` and ``sorted``
    for every key span, ``overflow`` as if no key packed into int64."""
    if path in ("dense", "sorted"):
        monkeypatch.setattr(groups_mod, "_dense", lambda span, n_keys: path == "dense")
    if path == "overflow":
        monkeypatch.setattr(groups_mod, "_element_keys", lambda coords: None)


@pytest.mark.parametrize(
    "spec, radius",
    [("Z^d:1", 5), ("Z^d:2", 3), ("Z^d:3", 2), ("H3", 3), ("Zn:8", 3), ("Zn:4x6", 3), ("Block:5", 5),
     ("ext:Zn:4", 1)],
)
@pytest.mark.parametrize("keys", ["packed", "dense", "sorted", "overflow"])
def test_pair_table_matches_exact_loop(spec, radius, keys, monkeypatch):
    _force_path(keys, monkeypatch)
    group = _make(spec)
    elems, elems2, prod = pair_table(group, radius)
    oracle = _make(spec)  # a fresh group: no BFS state shared with the table
    assert elems == ball_elements(oracle, radius)
    assert elems2 == ball_elements(oracle, 2 * radius)
    exact = groups_mod._pair_index_loop(oracle, elems, elems2)
    assert prod.dtype == exact.dtype and np.array_equal(prod, exact)
    for i, s in enumerate(elems):
        for j, t in enumerate(elems):
            assert elems2[prod[i, j]] == group.op(s, t)


@pytest.mark.parametrize("spec", ["Z^d:2", "H3", "Zn:4x6"])
@pytest.mark.parametrize("keys", ["packed", "dense", "sorted"])
def test_pair_index_array_declines_a_product_outside_elems2(spec, keys, monkeypatch):
    _force_path(keys, monkeypatch)
    group = parse_group(spec)
    elems, elems2 = ball_elements(group, 2), ball_elements(group, 3)
    assert groups_mod._pair_index_array(group, elems, elems2) is None
    with pytest.raises(KeyError):
        groups_mod._pair_index_loop(group, elems, elems2)


def _bfs_group(spec):
    """A fresh group whose word length comes from BFS even where a closed
    form exists."""
    return dataclasses.replace(parse_group(spec), length_hint=None, length_many=None, _cache={})


def _bfs_run(spec, radius, far):
    """Word length of ``far`` first (BFS grows one layer per query step),
    then the ball table and the BFS index."""
    group = _bfs_group(spec)
    far_length = word_length(group, far)
    table = ball_table(group, radius)
    index = list(groups_mod._bfs_state(group)["index"].items())
    lengths = [word_length(group, g) for g in table.elements()]
    return far_length, table.layers, table.sizes, index, lengths


@pytest.mark.parametrize(
    "spec, radius, far",
    [
        ("Z^d:1", 300, (50,)),
        ("Z^d:2", 12, (5, -3)),
        ("Z^d:3", 6, (2, 4, -1)),
        ("H3", 9, (1, 2, 6)),
        ("Zn:8", 6, (3,)),
        ("Zn:4x6", 8, (2, 3)),
        ("Zn:40x40", 45, (17, 25)),  # exhausted at radius 40, big layers on the way
        ("Block:5", 7, (1, 0, 1, 1, 0)),
        ("Block:10", 12, (1,) * 7 + (0,) * 3),  # exhausted at radius 10
    ],
)
@pytest.mark.parametrize("path", ["cutover", "array", "dense", "sorted", "overflow"])
def test_array_bfs_matches_the_loop(spec, radius, far, path, monkeypatch):
    monkeypatch.setattr(groups_mod, "BFS_ARRAY_MIN_PRODUCTS", float("inf"))
    expected = _bfs_run(spec, radius, far)
    monkeypatch.setattr(groups_mod, "BFS_ARRAY_MIN_PRODUCTS", 256 if path in ("cutover", "overflow") else 0)
    _force_path(path, monkeypatch)
    assert _bfs_run(spec, radius, far) == expected


@pytest.mark.parametrize("cutover", [float("inf"), 256, 0])
def test_bfs_element_budget_leaves_the_layers_intact(cutover, monkeypatch):
    monkeypatch.setattr(groups_mod, "BFS_ARRAY_MIN_PRODUCTS", cutover)
    budget = groups_mod.DEFAULT_MAX_ELEMENTS
    monkeypatch.setattr(groups_mod, "DEFAULT_MAX_ELEMENTS", 1000)
    group = integer_lattice(3)
    with pytest.raises(BudgetError, match=r"^ball of radius 5 on Z\^d:3 exceeds the element budget \(1331 > 1000\)$"):
        ball_table(group, 8)
    st = groups_mod._bfs_state(group)
    assert len(st["layers"]) == 5 and len(st["index"]) == 729
    # a retry with a larger budget continues from the last complete layer
    monkeypatch.setattr(groups_mod, "DEFAULT_MAX_ELEMENTS", budget)
    assert list(ball_table(group, 8).sizes[1:]) == [(2 * n + 1) ** 3 for n in range(1, 9)]


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_growth_survey_script_runs():
    proc = _run_script("growth_survey.py", "--nmax", "6")
    matches = [line.split("match=")[1] for line in proc.stdout.splitlines() if "match=" in line]
    assert matches == ["True"] * 3
    assert "H3: degree" in proc.stdout


@pytest.mark.parametrize("name, args, expected", [
    ("symmetry_scan.py", ("--trials", "3"), "overall worst excursion"),
    ("weight_constants.py", ("--radii", "10", "20"), "quot:subexp:0.5:1/poly:25 (submult):\n  r=   10"),
])
def test_scripts_run(name, args, expected):
    assert expected in _run_script(name, *args).stdout
