import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torlicz import cli, twisted
from torlicz.cli import (
    CHECK_PARAMS,
    CHECK_RUNNERS,
    REQUIRED_WEIGHTS,
    CheckSpec,
    SUITES,
    TRIAL_CHECKS,
    _dumps,
    _jsonable,
    emit_report,
    function_file_text,
    main,
    parse_function_file,
    run_check,
    run_suite,
    save_function_file,
)
from torlicz.cocycles import parse_cocycle, polar
from torlicz.groups import ball_elements, integer_lattice, parse_group
from torlicz.orlicz import SupportedFunction, function_to_json, random_supported_function
from torlicz.twisted import ResidualReport
from torlicz.weights import check_weak_subadditive, parse_weight


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


DELTA_DOC = {"group": "Z^d:2", "support": [{"elt": [0, 0], "re": 1.0, "im": 0.0}]}


def test_parse_function_file_point_mass(tmp_path):
    f = parse_function_file(write_json(tmp_path, "f.json", DELTA_DOC))
    assert f.values == {(0, 0): 1.0 + 0.0j}
    assert f.group.name == "Z^d:2"


def test_parse_function_file_empty_support(tmp_path):
    f = parse_function_file(write_json(tmp_path, "z.json", {"group": "Z^d:1", "support": []}))
    assert f.is_zero()


def test_parse_function_file_duplicate_rejected(tmp_path):
    doc = {
        "group": "Z^d:1",
        "support": [
            {"elt": [2], "re": 1.0, "im": 0.0},
            {"elt": [2], "re": 0.5, "im": 0.0},
        ],
    }
    with pytest.raises(ValueError, match="indices 0 and 1"):
        parse_function_file(write_json(tmp_path, "d.json", doc))


def test_parse_function_file_zero_entry_rejected(tmp_path):
    doc = {"group": "Z^d:1", "support": [{"elt": [1], "re": 0.0, "im": 0.0}]}
    with pytest.raises(ValueError, match="zero-value"):
        parse_function_file(write_json(tmp_path, "z.json", doc))


def test_parse_function_file_group_mismatch(tmp_path):
    path = write_json(tmp_path, "f.json", DELTA_DOC)
    with pytest.raises(ValueError, match="mismatch"):
        parse_function_file(path, integer_lattice(1))


def test_parse_function_file_bad_json_line_context(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"group": "Z^d:1",\n  "support": [}')
    with pytest.raises(ValueError, match="line 2"):
        parse_function_file(str(path))


def test_save_and_reload(tmp_path):
    f = SupportedFunction(integer_lattice(2), {(1, -2): 0.5 - 1.5j})
    path = str(tmp_path / "g.json")
    save_function_file(f, path)
    assert parse_function_file(path).values == f.values


def test_cmd_norm(tmp_path, capsys):
    path = write_json(tmp_path, "f.json", DELTA_DOC)
    assert main(["norm", "--pair", "Lp:2", "--weight", "poly:2", "--in", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["luxemburg"] == pytest.approx(0.7071067811865476, rel=1e-9)
    assert out["orlicz"] == pytest.approx(1.4142135623730951, rel=1e-9)
    assert out["weighted_orlicz"] == pytest.approx(out["orlicz"], rel=1e-9)


def test_cmd_conv(tmp_path, capsys):
    f = write_json(
        tmp_path, "f.json", {"group": "Z^d:2", "support": [{"elt": [0, 1], "re": 1.0, "im": 0.0}]}
    )
    g = write_json(
        tmp_path, "g.json", {"group": "Z^d:2", "support": [{"elt": [1, 0], "re": 1.0, "im": 0.0}]}
    )
    out_path = str(tmp_path / "h.json")
    assert main(["conv", "--cocycle", "bichar:3.141592653589793", "--in", f, g, "--out", out_path]) == 0
    h = parse_function_file(out_path)
    assert h.values[(1, 1)] == pytest.approx(-1.0)


def _main_outputs(argvs, capsys, fresh):
    """(exit code, stdout, stderr) of ``main`` on each argv; with ``fresh``
    the parser is rebuilt before every call."""
    outs = []
    for argv in argvs:
        if fresh:
            cli.build_parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        outs.append((code, *capsys.readouterr()))
    return outs


def test_main_reuses_one_parser_with_a_fresh_parsers_outputs(tmp_path, capsys):
    f = write_json(tmp_path, "f.json", {"group": "Z^d:2", "support": [
        {"elt": [i, j], "re": 1.0 + i, "im": 0.5 * j} for i in range(3) for j in range(3)]})
    argvs = [
        ["conv", "--cocycle", "bichar:0.5", "--in", f, f],
        ["norm", "--pair", "Lp:3", "--weight", "poly:2", "--in", f],
        ["growth", "--group", "H3", "--nmax", "5"],
        ["norm", "--in"],  # a usage error
        ["conv", "--cocycle", "cobound:poly:1", "--in", f, f],
        ["growth", "--group", "Z^d:2", "--nmax", "4"],
    ]
    fresh = _main_outputs(argvs, capsys, fresh=True)
    cli.build_parser.cache_clear()
    reused = _main_outputs(argvs, capsys, fresh=False)
    assert cli.build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0, 0]
    assert "expected one argument" in reused[3][2]


def test_conv_with_non_finite_values_is_silent_on_the_table_path(tmp_path):
    # 144 x 9 pairs take the table path; inf and nan parts meet in its products
    box = [[i, j] for i in range(12) for j in range(12)]
    f = write_json(tmp_path, "f.json", {"group": "Z^d:2", "support": [
        {"elt": e, "re": "inf" if e == [3, 4] else 1.0 + 0.1 * e[0], "im": 0.5 * e[1] - 1.0} for e in box]})
    g = write_json(tmp_path, "g.json", {"group": "Z^d:2", "support": [
        {"elt": e, "re": "nan" if e == [1, 1] else 0.25 * e[1] + 1.0, "im": -0.5} for e in box if max(e) < 3]})
    out_path = tmp_path / "h.json"
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "torlicz", "conv", "--cocycle", "bichar:0.5", "--in", f, g,
                           "--out", str(out_path)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    ff, gg = parse_function_file(f), parse_function_file(g)
    assert len(ff.values) * len(gg.values) >= twisted.TABLE_MIN_PAIRS
    exact = twisted._twisted_convolve_exact(ff, gg, parse_cocycle(ff.group, "bichar:0.5"))
    assert out_path.read_text() == function_file_text(exact) + "\n"


def test_cmd_growth(capsys):
    assert main(["growth", "--group", "Z^d:2", "--nmax", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sizes"] == [(2 * n + 1) ** 2 for n in range(1, 9)]


@pytest.mark.parametrize("nmax", [1, 2, 3])
def test_cmd_growth_below_the_fit_window_prints_the_sizes(nmax, capsys):
    assert main(["growth", "--group", "Z^d:2", "--nmax", str(nmax)]) == 0
    out = _strict_loads(capsys.readouterr().out)
    assert out == {"group": "Z^d:2", "sizes": [(2 * n + 1) ** 2 for n in range(1, nmax + 1)],
                   "degree": None, "residual": None, "window": None}


def test_cmd_plemma(capsys):
    assert main(["plemma", "--beta", "1", "--gamma", "1", "--C", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == 0 and out["x0"] > 0


def test_cmd_check_pass_and_fail(capsys):
    assert main(["check", "submult", "--weight", "poly:2", "--radius", "10"]) == 0
    capsys.readouterr()
    # expecting divergence from a convergent series must fail with exit 1
    rc = main(
        [
            "check",
            "psi-series",
            "--group",
            "Z^d:1",
            "--pair",
            "Lp:2",
            "--weight",
            "poly:1",
            "--params",
            '{"expect": "divergent", "n_max": 512}',
        ]
    )
    assert rc == 1


def test_cmd_check_unknown_name():
    assert main(["check", "nonsense"]) == 2


def test_cmd_suite_preset_and_report_formats(tmp_path, capsys):
    out_path = str(tmp_path / "report.json")
    assert main(["suite", "central-ext", "--out", out_path]) == 0
    doc = json.loads(pathlib.Path(out_path).read_text())
    assert doc["pass"] is True
    capsys.readouterr()
    assert main(["report", "--in", out_path, "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    lines = [l for l in csv_text.strip().splitlines() if l]
    assert lines[0].startswith("suite,check,pass")
    assert len(lines) == 1 + len(doc["results"])


def test_cmd_suite_from_file(tmp_path):
    spec = {
        "checks": [
            {"check": "submult", "group": "Z^d:1", "weight": "poly:1", "radius": 8},
            {"check": "symmetric", "group": "Z^d:1", "weight": "poly:1", "radius": 8},
        ]
    }
    path = write_json(tmp_path, "suite.json", spec)
    assert main(["suite", path, "--format", "text"]) == 0


def test_suite_gate_short_circuits():
    specs = [
        CheckSpec(
            check="domination",
            group="Z^d:1",
            cocycle="cobound:poly:2",
            weight="poly:2",
            radius=8,
            params={"C": 0.01},  # far too small, the bound must fail
        ),
        CheckSpec(check="sandwich", group="Z^d:1", trials=5),
    ]
    report = run_suite(specs)
    assert not report.passed
    assert report.results[0]["pass"] is False
    assert report.results[1].get("skipped")


def test_suite_fails_when_weight_decays_too_slowly():
    # on Z with a quadratic Young complement the membership series needs
    # beta > 1/2; beta = 0.2 must be flagged divergent and fail the suite
    spec = CheckSpec(
        check="psi-series",
        group="Z^d:1",
        pair="Lp:2",
        weight="poly:0.2",
        params={"expect": "convergent", "n_max": 2048},
    )
    report = run_suite([spec])
    assert not report.passed
    assert report.results[0]["verdict"] == "divergent"


def test_empty_suite_is_rejected():
    # a suite without checks would pass without checking anything
    with pytest.raises(ValueError, match="suite has no checks"):
        run_suite([])


def test_text_report_includes_witness_on_failure():
    spec = CheckSpec(
        check="psi-series",
        group="Z^d:1",
        pair="Lp:2",
        weight="poly:1",
        params={"expect": "divergent", "n_max": 512},
    )
    report = run_suite([spec])
    text = emit_report(report, "text")
    assert "FAIL" in text
    assert "verdict" in text
    json_text = emit_report(report, "json")
    assert json.loads(json_text)["pass"] is False


def test_all_presets_pass():
    for name in SUITES:
        report = run_suite(name)
        assert report.passed, emit_report(report, "text")


def test_report_json_round_trip_eq():
    report = run_suite("lem-p-function")
    doc = json.loads(emit_report(report, "json"))
    assert doc["suite"] == "lem-p-function"
    assert all(r["pass"] for r in doc["results"])


# Map from checker callables in the library modules to the CLI check names
# that exercise them; the registry test keeps this complete.
CHECKER_COVERAGE = {
    "weights.check_submultiplicative": ("submult", "submult-stable"),
    "weights.check_weak_subadditive": ("weak-subadd",),
    "weights.check_symmetric": ("symmetric",),
    "weights.check_grs": ("grs",),
    "weights.check_lss_domination": ("lss",),
    "weights.analyze_p_function": ("plemma",),
    "cocycles.verify_cocycle": ("cocycle-verify",),
    "cocycles.polar": ("cocycle-polar",),
    "cocycles.domination_from_subadditive": ("domination",),
    "cocycles.central_extension_embed": ("central-ext",),
    "orlicz.dual_pairing_bound": ("holder",),
    "orlicz.psi_membership_series": ("psi-series",),
    "orlicz.lambda_map": ("lambda-isometry",),
    "twisted.check_associativity": ("assoc",),
    "twisted.check_module_bound": ("module-bound",),
    "twisted.check_algebra_bound": ("algebra-bound",),
    "twisted.check_intertwining": ("intertwine",),
    "twisted.check_differential_bound": ("differential",),
    "twisted.spectral_radius_estimate": ("spectral",),
    "twisted.finite_symmetry_check": ("symmetry-finite",),
}


def test_registry_every_checker_reachable_from_a_suite():
    import torlicz.cocycles as cocycles
    import torlicz.orlicz as orlicz
    import torlicz.twisted as twisted
    import torlicz.weights as weights

    modules = {"weights": weights, "cocycles": cocycles, "orlicz": orlicz, "twisted": twisted}
    used_checks = {d["check"] for suite in SUITES.values() for d in suite}
    for qualname, check_names in CHECKER_COVERAGE.items():
        mod_name, fn_name = qualname.split(".")
        assert hasattr(modules[mod_name], fn_name), qualname
        assert any(c in used_checks for c in check_names), f"{qualname} unreachable"
        for c in check_names:
            assert c in CHECK_RUNNERS
    # and the coverage table itself lists every public checker-style callable
    expected = {
        f"{m}.{n}"
        for m, mod in modules.items()
        for n in dir(mod)
        if n.startswith(("check_", "verify_", "analyze_"))
        and getattr(getattr(mod, n), "__module__", "") == f"torlicz.{m}"
    }
    assert expected <= set(CHECKER_COVERAGE)


def test_domination_without_c_takes_the_weak_subadditivity_constant():
    spec = dict(check="domination", group="Z^d:1", cocycle="cobound:poly:2", weight="poly:2", radius=8)
    c = check_weak_subadditive(parse_weight(integer_lattice(1), "poly:2"), 8).constant
    derived = run_check(CheckSpec(**spec))
    given = run_check(CheckSpec(**spec, params={"C": c}))
    assert derived["pass"] and derived["algebra_constant"] == given["algebra_constant"]


@pytest.mark.parametrize("argv, doc", [
    (["suite", "IN"], {"foo": 1}),
    (["suite", "IN"], [1]),
    (["suite", "IN"], {"checks": 5}),
    (["suite", "IN"], [{"check": "submult", "weight": "poly:2", "radius": "x"}]),
    (["suite", "IN"], {"checks": [{"check": "holder", "trials": "3"}]}),
    (["suite", "IN"], []),
    (["suite", "IN"], {"checks": []}),
    (["report", "--in", "IN"], {"suite": "x"}),
    (["check", "cocycle-verify", "--params", "[1]"], None),
    (["check", "submult", "--weight", "poly:2", "--radius", "-1"], None),
], ids=["suite-without-checks", "suite-entry-not-object", "suite-checks-not-list", "suite-radius-string",
        "suite-trials-string", "suite-empty-list", "suite-empty-checks", "report-without-spec",
        "check-params-list", "check-negative-radius"])
def test_malformed_input_exits_2_with_one_error_line(argv, doc, tmp_path, capsys):
    path = write_json(tmp_path, "in.json", doc)
    assert main([path if a == "IN" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


ZN46 = {"group": "Zn:4x6", "support": [{"elt": [1, 2], "re": 1.0, "im": 0.5}, {"elt": [3, 5], "re": -2.0, "im": 0.0}]}


@pytest.mark.parametrize("cocycle", ["bichar:0.7", "prod:cobound:poly:1*bichar:0.7", "bichar:nan", "bichar:inf"])
def test_non_cocycle_bicharacter_on_cyclic_groups_exits_2(cocycle, tmp_path, capsys):
    f = write_json(tmp_path, "f.json", ZN46)
    bichar = cocycle.split("*")[-1]
    for argv in (["check", "cocycle-verify", "--group", "Zn:4x6", "--cocycle", cocycle, "--radius", "6"],
                 ["conv", "--cocycle", cocycle, "--in", f, f]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {bichar} is not a cocycle on Zn:4x6") and err.count("\n") == 1


@pytest.mark.parametrize("cocycle", ["bichar:nan", "bichar:inf"])
@pytest.mark.parametrize("group", ["Z^d:1", "Z^d:2", "H3"])
def test_non_finite_bicharacters_exit_2_on_every_group(group, cocycle, capsys):
    assert main(["check", "cocycle-verify", "--group", group, "--cocycle", cocycle, "--radius", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {cocycle} is not a cocycle on {group}") and err.count("\n") == 1


@pytest.mark.parametrize("cocycle", ["bichar:", "bichar:3.141592653589793"])
def test_root_of_unity_bicharacters_on_cyclic_groups_pass(cocycle, tmp_path, capsys):
    assert main(["check", "cocycle-verify", "--group", "Zn:4x6", "--cocycle", cocycle, "--radius", "6"]) == 0
    assert _strict_loads(capsys.readouterr().out)["identity_residual"] <= 1e-12
    f = write_json(tmp_path, "f.json", ZN46)
    assert main(["conv", "--cocycle", cocycle, "--in", f, f]) == 0


def test_checkspec_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown CheckSpec fields"):
        CheckSpec.from_dict({"check": "sandwich", "tolerance": 1})


def test_run_check_unknown():
    with pytest.raises(ValueError):
        run_check(CheckSpec(check="nope"))


def test_suite_determinism_modulo_timestamp():
    docs = []
    for _ in range(2):
        report = run_suite("thm-subexp")
        doc = json.loads(emit_report(report, "json"))
        doc["environment"].pop("timestamp")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def _strict_loads(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cmd_check_rejects_nonpositive_trials(trials, capsys):
    assert main(["check", "holder", "--trials", trials]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "trials must be >= 1" in err
    with pytest.raises(ValueError):
        run_check(CheckSpec(check="holder", trials=0))


def test_json_output_encodes_non_finite_floats(tmp_path, capsys):
    assert _jsonable([math.inf, -math.inf, complex(math.nan, 1.0)]) == ["inf", "-inf", ["nan", 1.0]]
    f = SupportedFunction(integer_lattice(1), {(0,): complex(math.inf, -1.0)})
    path = str(tmp_path / "inf.json")
    save_function_file(f, path)
    with open(path, encoding="utf-8") as fh:
        doc = _strict_loads(fh.read())
    assert doc["support"][0]["re"] == "inf"
    assert parse_function_file(path).values == f.values
    # complex products of infinities give nan components, also printed as strings
    assert main(["conv", "--cocycle", "one", "--in", path, path]) == 0
    assert _strict_loads(capsys.readouterr().out)["support"][0]["re"] == "nan"


GROUP_SPECS = ("Z^d:1", "Z^d:2", "Z^d:3", "H3", "Zn:8", "Zn:4x6", "Zn:3x5x6", "Block:5")
# signed zeros, non-finite values, subnormals and wide exponents
PARTS = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e300]), st.floats())


@st.composite
def _function_values(draw):
    group = parse_group(draw(st.sampled_from(GROUP_SPECS)))
    points = st.tuples(*[st.integers(-(2**70), 2**70)] * len(group.identity))
    values = draw(st.dictionaries(points, st.builds(complex, PARTS, PARTS), max_size=10))
    return group, values


@settings(max_examples=200, deadline=None)
@given(_function_values())
def test_function_file_text_matches_the_json_encoder(case):
    group, values = case
    f = SupportedFunction(group, values)  # empty when every value is 0
    assert function_file_text(f) == _dumps(function_to_json(f), indent=2)
    # the constructor turns -0.0 parts into +0.0; the writer keeps whatever sign it is given
    object.__setattr__(f, "values", {s: complex(-0.0, -v.imag) for s, v in f.values.items()})
    assert function_file_text(f) == _dumps(function_to_json(f), indent=2)


def test_python_dash_m_runs_the_cli():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "torlicz", *argv], env=env, capture_output=True,
                              text=True, timeout=120)

    done = run("growth", "--group", "Z^d:1", "--nmax", "4")
    assert done.returncode == 0 and json.loads(done.stdout)["sizes"] == [3, 5, 7, 9]
    # three radii leave two points for the growth fit: the sizes without a fit
    done = run("growth", "--group", "Z^d:1", "--nmax", "3")
    assert done.returncode == 0 and json.loads(done.stdout)["sizes"] == [3, 5, 7] and done.stderr == ""


def test_cmd_check_output_is_strict_json(capsys):
    assert main(["check", "holder", "--trials", "2"]) == 0
    _strict_loads(capsys.readouterr().out)


def test_cmd_check_spectral_support_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(twisted, "SUPPORT_CAP", 200)
    assert main(["check", "spectral", "--group", "Z^d:2", "--params", '{"n_max": 40}']) == 2
    assert "budget error" in capsys.readouterr().err


def test_algebra_bound_domination_violation_is_a_failed_result(capsys):
    argv = ["check", "algebra-bound", "--group", "Z^d:1", "--cocycle", "cobound:poly:2",
            "--weight", "poly:2", "--radius", "8", "--trials", "2", "--params", '{"C": 0.5}']
    assert main(argv) == 1
    res = _strict_loads(capsys.readouterr().out)
    assert res["pass"] is False and "exceeds u(s)+v(t)" in res["error"]
    assert len(res["witness"]) == 2
    # the same report as the domination check on that spec
    dom = run_check(CheckSpec(check="domination", group="Z^d:1", cocycle="cobound:poly:2",
                              weight="poly:2", radius=8, params={"C": 0.5}))
    assert (dom["pass"], dom["witness"], dom["error"]) == (False, res["witness"], res["error"])


@pytest.mark.parametrize("argv", [
    ["plemma", "--beta", "8", "--gamma", "50", "--C", "0.01"],
    ["check", "plemma", "--params", '{"beta": 8, "gamma": 50, "C": 0.01}'],
])
def test_plemma_without_x0_exits_2(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: no x0 below") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_cmd_norm_rejects_non_finite_values(value, tmp_path, capsys):
    doc = {"group": "Z^d:1", "support": [{"elt": [0], "re": value, "im": 0.0}]}
    assert main(["norm", "--in", write_json(tmp_path, "f.json", doc)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ({"support": [{"elt": [0], "re": 1.0}]}, 'no group spec'),
    ({"group": "Z^d:1", "support": [{"re": 1.0, "im": 0.0}]}, "index 0"),
    ([{"elt": [0], "re": 1.0}], "JSON object"),
    ({"group": "Z^d:1", "support": [{"elt": [0], "re": 1.0}, [1, 2.0]]}, "index 1"),
    ({"group": "Z^d:1", "support": {"elt": [0]}}, '"support" must be a list'),
    ({"group": "Z^d:1", "support": [{"elt": [0], "re": None}]}, "must be numbers"),
])
def test_cmd_norm_malformed_function_file_exits_2(doc, message, tmp_path, capsys):
    path = write_json(tmp_path, "f.json", doc)
    assert main(["norm", "--in", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err and err.count("\n") == 1


def test_cmd_norm_large_power_overflows_to_infinity(tmp_path, capsys):
    # the Amemiya scan reaches k m near 2^50, where x^30 overflows a float
    doc = {"group": "Z^d:2", "support": [
        {"elt": [0, 0], "re": 1.0, "im": 0.0},
        {"elt": [1, 0], "re": 0.5, "im": -0.25},
        {"elt": [0, 3], "re": 2.0, "im": 0.0},
    ]}
    assert main(["norm", "--pair", "Lp:30", "--in", write_json(tmp_path, "f.json", doc)]) == 0
    out = json.loads(capsys.readouterr().out)
    lux, orl = out["luxemburg"], out["orlicz"]
    assert lux * (1 - 1e-8) <= orl <= 2 * lux * (1 + 1e-8)


def test_cmd_check_holder_with_large_dual_exponent(capsys):
    # Lp:1.05 has dual exponent 21, whose powers overflow in the norms of v
    assert main(["check", "holder", "--group", "Z^d:2", "--pair", "Lp:1.05"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


@pytest.mark.parametrize("doc", [
    {"name": "no-points", "table": [[0, 0], [1, 1]]},
    {"points": {"x": 1}},
])
def test_cmd_norm_malformed_piecewise_table_exits_2(doc, tmp_path, capsys):
    table = write_json(tmp_path, "phi.json", doc)
    f = write_json(tmp_path, "f.json", DELTA_DOC)
    assert main(["norm", "--pair", f"pw:{table}", "--in", f]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and table in err and "breakpoints" in err


# a checker each sampled-trial check must call once for all its trials, by
# its name in cli
TRIAL_CHECKERS = {
    "algebra-bound": "check_algebra_bound",
    "module-bound": "check_module_bound",
    "differential": "check_differential_bound",
    "assoc": "check_associativity",
    "intertwine": "check_intertwining",
    "sandwich": "luxemburg_norms",
    "holder": "dual_pairing_bounds",
    "lambda-isometry": "_divided",
    "symmetry-finite": "finite_symmetry_check",
}


@pytest.mark.parametrize("check", sorted(TRIAL_CHECKS))
def test_trial_checks_call_checkers_through_module_globals(check, monkeypatch):
    assert set(TRIAL_CHECKERS) == set(TRIAL_CHECKS)
    name = TRIAL_CHECKERS[check]
    calls = []
    original = getattr(cli, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    doc = next(d for suite in SUITES.values() for d in suite if d["check"] == check)
    res = run_check(CheckSpec.from_dict({**doc, "trials": 3}))
    assert res["pass"] and res["trials"] == 3 and len(calls) == 1


def test_nan_residual_fails_the_trial(monkeypatch):
    # trial 2 is NaN, trial 3 NaN again, trial 4 worse than trial 1
    values = np.array([0.5, math.nan, math.nan, 2.0])
    witnesses = [(1,), (2,), (3,), (4,)]
    monkeypatch.setattr(cli, "check_associativity", lambda f, g, h, omega: ResidualReport(values, witnesses))
    res = run_check(CheckSpec(check="assoc", trials=4))
    assert res["pass"] is False
    assert res["worst_residual"] == "nan" and res["witness"] == [2]
    # a NaN margin is the worst margin too (reports encode it as "nan")
    monkeypatch.setattr(
        cli, "check_module_bound", lambda f, g, ctx: {"margin": np.full(len(f), math.nan), "pass": np.zeros(len(f), bool)}
    )
    res = run_check(CheckSpec(check="module-bound", trials=2))
    assert res["pass"] is False and res["worst_margin"] == "nan" and res["witness"] is not None


def test_trial_witness_comes_from_the_first_strictly_worse_trial(monkeypatch):
    # a residual that never exceeds 0 reports no witness
    monkeypatch.setattr(
        cli, "check_associativity", lambda f, g, h, omega: ResidualReport(np.zeros(len(f)), [(1,)] * len(f))
    )
    res = run_check(CheckSpec(check="assoc", trials=3))
    assert res["pass"] and res["worst_residual"] == 0.0 and res["witness"] is None
    # tied margins keep the first trial's functions
    seen = []

    def margin(f, g, ctx):
        seen.extend(_jsonable(function_to_json(x)) for x in f.functions())
        return {"margin": np.ones(len(f)), "pass": np.ones(len(f), bool)}

    monkeypatch.setattr(cli, "check_module_bound", margin)
    res = run_check(CheckSpec(check="module-bound", trials=3))
    assert len(seen) == 3 and res["worst_margin"] == 1.0 and res["witness"]["f"] == seen[0]


@pytest.mark.parametrize("check, draws", [("module-bound", 2), ("holder", 2), ("assoc", 0)])
def test_trial_witness_is_serialised_only_for_the_kept_trial(check, draws, monkeypatch):
    calls = []

    def spy(f):
        calls.append(1)
        return function_to_json(f)

    monkeypatch.setattr(cli, "function_to_json", spy)
    doc = next(d for suite in SUITES.values() for d in suite if d["check"] == check)
    res = run_check(CheckSpec.from_dict({**doc, "trials": 6}))
    assert res["trials"] == 6 and len(calls) == draws
    if draws:
        assert sorted(res["witness"]) == (["f", "v"] if check == "holder" else ["f", "g"])


@pytest.mark.parametrize("group", ["Z^d:1", "Z^d:2", "Z^d:3", "H3", "Zn:8", "Zn:4x6", "Block:5"])
@pytest.mark.parametrize(
    "cocycle",
    # the two products reconstruct with nonzero residuals (about 1e-17) on Z^2 and H3
    ["one", "bichar:0.8", "cobound:poly:1.5", "prod:cobound:poly:1.37*bichar:0.61", "prod:cobound:poly:2.7*bichar:1.3"],
)
def test_cocycle_polar_residuals_match_the_pair_loop(group, cocycle, on_group):
    radius = 1 if group == "Z^d:3" else 3
    cocycle = on_group(group, cocycle)  # thetas in multiples of pi / 4 on Zn:8, of pi on Zn:4x6
    res = cli._run_cocycle_polar(CheckSpec(check="cocycle-polar", group=group, cocycle=cocycle, radius=radius))
    # the scalar pair loop the value tables replaced
    omega = parse_cocycle(parse_group(group), cocycle)
    modulus, phase = polar(omega)
    recon = unimod = 0.0
    elems = ball_elements(omega.group, radius)
    for s in elems:
        for t in elems:
            recon = max(recon, abs(modulus(s, t) * phase(s, t) - omega(s, t)))
            unimod = max(unimod, abs(abs(phase(s, t)) - 1.0))
    assert type(res["reconstruction_residual"]) is float and type(res["unimodularity_residual"]) is float
    assert res["reconstruction_residual"].hex() == recon.hex()
    assert res["unimodularity_residual"].hex() == unimod.hex()


# ---------------------------------------------------------------------------
# Spec validation before any runner starts


WEIGHTED_CHECKS = (
    "submult", "submult-stable", "weak-subadd", "symmetric", "grs", "psi-series", "lss",
    "domination", "algebra-bound", "intertwine", "lambda-isometry", "differential",
)


def test_required_weights_table_names_every_weighted_check():
    assert set(REQUIRED_WEIGHTS) == set(WEIGHTED_CHECKS) and set(REQUIRED_WEIGHTS) <= set(CHECK_RUNNERS)
    assert REQUIRED_WEIGHTS["lss"] == ("weight", "weight2")


@pytest.mark.parametrize("name", WEIGHTED_CHECKS)
def test_check_without_its_weight_exits_2(name, capsys, monkeypatch):
    monkeypatch.setitem(CHECK_RUNNERS, name, lambda spec: pytest.fail("the runner started"))
    argv = ["check", name, "--group", "Z^d:1"]
    if name == "lss":
        assert main(argv + ["--weight", "poly:1"]) == 2  # weight2 alone is missing too
        capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "weight" in err


def test_checks_without_a_weight_entry_run_without_one():
    assert run_check(CheckSpec(check="module-bound", group="Z^d:1", trials=1))["pass"]


@pytest.mark.parametrize(
    "group, element, message",
    [("Z^d:1", [1, 2], "arity"), ("Z^d:2", [], "arity"), ("Z^d:2", [1], "arity"), ("Z^d:1", 1, "integer array")],
)
def test_grs_malformed_element_exits_2(group, element, message, capsys):
    params = json.dumps({"element": element, "n_max": 8})
    assert main(["check", "grs", "--group", group, "--weight", "poly:1", "--params", params]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_grs_element_is_canonical():
    res = run_check(CheckSpec(check="grs", group="Zn:4", weight="poly:1", params={"element": [5], "n_max": 8}))
    assert res["element"] == [1]


# ---------------------------------------------------------------------------
# Check params: each check accepts exactly the keys its runner reads


@pytest.mark.parametrize("argv, message", [
    (["check", "sandwich", "--params", '{"slak": 0.5}'], "unknown param 'slak'"),
    (["check", "holder", "--params", '{"sample_radius": 9}'], "unknown param 'sample_radius'"),
    (["check", "cocycle-verify", "--params", '{"tol": "abc"}'], "param 'tol' must be a number, got 'abc'"),
    (["check", "assoc", "--params", '{"tol": null}'], "param 'tol' must be a number, got None"),
    (["check", "grs", "--weight", "poly:1", "--params", '{"n_max": 2.5}'], "param 'n_max' must be an int"),
    (["check", "psi-series", "--weight", "poly:1", "--params", '{"expect": "converges"}'],
     "param 'expect' must be \"convergent\" or \"divergent\""),
    (["check", "cocycle-verify", "--params", '{"tol": true}'], "param 'tol' must be a number, got True"),
], ids=["unknown-key", "unread-key", "string-number", "null-number", "float-int", "unknown-expect", "bool-number"])
def test_check_params_are_rejected_before_the_runner_starts(argv, message, capsys, monkeypatch):
    monkeypatch.setitem(cli.CHECK_RUNNERS, argv[1], lambda spec: pytest.fail("the runner started"))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: check {argv[1]}: {message}") and "its params: " in err


@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
@pytest.mark.parametrize("expect", ["convergent", "divergent"])
def test_psi_series_below_one_block_ratio_exits_2(n_max, expect, capsys):
    # below n_max = 4 there is no dyadic block ratio, so any verdict would be vacuous
    params = json.dumps({"n_max": n_max, "expect": expect})
    assert main(["check", "psi-series", "--group", "Z^d:1", "--weight", "poly:1", "--params", params]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: psi-series needs n_max >= 4") and "Traceback" not in err


def test_psi_series_runs_from_n_max_4():
    for expect, passed in (("convergent", True), ("divergent", False)):
        spec = CheckSpec(check="psi-series", group="Z^d:1", weight="poly:1", params={"n_max": 4, "expect": expect})
        res = run_check(spec)
        assert res["pass"] is passed and len(res["block_ratios_tail"]) == 1


@pytest.mark.parametrize("argv, message", [
    # 1/w = 1 is not in l^Psi; with N = 0 every term is Psi(0) = 0 and the series "converged"
    (["check", "psi-series", "--group", "Z^d:1", "--weight", "const", "--params", '{"N": 0, "n_max": 64}'],
     "psi-series needs N > 0, got 0"),
    (["check", "psi-series", "--group", "Z^d:1", "--weight", "const", "--params", '{"N": -1.5}'],
     "psi-series needs N > 0, got -1.5"),
    # Gamma(f) over range(-4) made both sides the zero function
    (["check", "central-ext", "--group", "Zn:4", "--cocycle", "bichar:", "--params", '{"n": -4}'],
     "central extension model needs a fiber order n >= 1, got -4"),
    (["check", "central-ext", "--group", "Zn:4", "--cocycle", "bichar:", "--params", '{"n": 0}'],
     "central extension model needs a fiber order n >= 1, got 0"),
    # fewer than three points for the growth-rate fit of spectral on Z
    (["check", "spectral", "--group", "Z^d:1", "--weight", "poly:2", "--params", '{"n_max": 3}'],
     "the growth-rate fit needs n_max >= 4, got 3"),
], ids=["psi-N-0", "psi-N-negative", "ext-n-negative", "ext-n-0", "spectral-n_max-3"])
def test_degenerate_params_exit_2(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("weight, code", [("poly:2", 0), ("subexp:0.5:1", 0), ("subexp:1:1", 1)])
def test_spectral_decides_on_infinite_groups(weight, code, capsys):
    assert main(["check", "spectral", "--group", "Z^d:1", "--weight", weight]) == code
    res = _strict_loads(capsys.readouterr().out)
    assert res["trend_only"] is False and res["growth_rate_tol"] == cli.GROWTH_RATE_TOL
    assert res["pass"] is (res["weight_growth_rate"] <= cli.GROWTH_RATE_TOL) is (code == 0)


PW_TABLE = {"name": "pw", "points": [[0, 0], [0.5, 0.1], [1, 0.5], [2, 2.0], [3, 6.0]]}


@pytest.mark.parametrize("pair", ["L1", "Lp:1.5", "Lp:2", "Lp:3", "xlog", "cosh", "expm", "entropy", "pw"])
def test_sandwich_passes_every_pair_at_the_float_guard(pair, tmp_path):
    if pair == "pw":
        pair = "pw:" + write_json(tmp_path, "pw.json", PW_TABLE)
    res = run_check(CheckSpec(check="sandwich", group="Z^d:2", pair=pair, trials=200, seed=5))
    assert res["spec"]["params"] == {} and res["pass"], res["worst_margin"]
    assert res["worst_margin"] >= 0.0


def test_every_check_declares_its_params():
    assert set(CHECK_PARAMS) == set(CHECK_RUNNERS)


def test_null_params_take_their_defaults_and_specs_keep_params_as_given():
    given = {"element": None, "n_max": 8, "max_final": None}
    res = run_check(CheckSpec(check="grs", weight="poly:1", params=given))
    assert res["spec"]["params"] == given and res["element"] == [1]
    res = run_check(CheckSpec(check="central-ext", group="Zn:4", cocycle="bichar:", params={"n": None, "tol": 1}))
    assert res["n"] == 4 and res["pass"] and res["spec"]["params"] == {"n": None, "tol": 1}
    assert run_check(CheckSpec(check="domination", cocycle="cobound:poly:2", weight="poly:2", params={"C": None}))["pass"]


SPECTRAL_POINT_MASS_SEEDS = (11, 12, 14, 21, 23, 24, 30, 34, 37)


@pytest.mark.parametrize("seed", SPECTRAL_POINT_MASS_SEEDS)
def test_spectral_redraws_a_point_mass_at_the_identity(seed, capsys):
    # the first draw is a multiple of delta_e, whose powers have equal
    # weighted and plain norms for every weight: an exponential weight passed
    first = random_supported_function(parse_group("Z^d:1"), np.random.default_rng(seed), radius=2)
    assert first.values.keys() == {(0,)}
    argv = ["check", "spectral", "--group", "Z^d:1", "--seed", str(seed), "--weight"]
    assert main(argv + ["subexp:1:1"]) == 1
    assert main(argv + ["poly:2"]) == 0 and main(argv + ["subexp:0.5:1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("group, params", [("Z^d:1", '{"sample_radius": 0}'), ("Zn:1", "{}")])
def test_spectral_without_other_draws_exits_2(group, params, capsys):
    assert main(["check", "spectral", "--group", group, "--cocycle", "one", "--weight", "poly:2",
                 "--params", params]) == 2
    assert "draws only point masses at the identity" in capsys.readouterr().err


def test_spectral_forms_the_powers_once(monkeypatch):
    calls = []
    convolve = twisted.twisted_convolve
    monkeypatch.setattr(twisted, "twisted_convolve", lambda *a: calls.append(1) or convolve(*a))
    res = run_check(CheckSpec(check="spectral", group="Z^d:1", weight="poly:2", params={"n_max": 12}))
    assert res["pass"] and len(calls) == 11
