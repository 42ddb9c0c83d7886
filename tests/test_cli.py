import functools
import json
import math

import pytest

from torlicz import cli, twisted
from torlicz.cli import (
    CHECK_RUNNERS,
    CHECKER_COVERAGE,
    CheckSpec,
    SUITES,
    TRIAL_CHECKS,
    _jsonable,
    emit_report,
    main,
    parse_function_file,
    run_check,
    run_suite,
    save_function_file,
)
from torlicz.cocycles import parse_cocycle, polar
from torlicz.groups import ball_elements, integer_lattice, parse_group
from torlicz.orlicz import SupportedFunction, function_to_json
from torlicz.twisted import ResidualReport


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


def test_cmd_growth(capsys):
    assert main(["growth", "--group", "Z^d:2", "--nmax", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sizes"] == [(2 * n + 1) ** 2 for n in range(1, 9)]


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
    doc = json.loads(open(out_path).read())
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


def test_empty_suite_trivially_passes():
    report = run_suite([])
    assert report.passed
    assert report.results == ()


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


def test_cmd_check_output_is_strict_json(capsys):
    assert main(["check", "holder", "--trials", "2"]) == 0
    _strict_loads(capsys.readouterr().out)


def test_cmd_check_spectral_support_budget_exits_2(capsys, monkeypatch):
    small_budget = functools.partial(twisted.spectral_radius_estimate, support_cap=200)
    monkeypatch.setattr(cli, "spectral_radius_estimate", small_budget)
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


# a checker each sampled-trial check must call, by its name in cli
TRIAL_CHECKERS = {
    "algebra-bound": "check_algebra_bound",
    "module-bound": "check_module_bound",
    "differential": "check_differential_bound",
    "assoc": "check_associativity",
    "intertwine": "check_intertwining",
    "sandwich": "luxemburg_norm",
    "holder": "dual_pairing_bound",
    "lambda-isometry": "weighted_norm",
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
    assert res["pass"] and res["trials"] == 3 and len(calls) == 3


def test_nan_residual_fails_the_trial(monkeypatch):
    # trial 2 is NaN, trial 3 NaN again, trial 4 worse than trial 1
    values = iter([0.5, math.nan, math.nan, 2.0])
    witnesses = iter([(1,), (2,), (3,), (4,)])
    monkeypatch.setattr(
        cli, "check_associativity", lambda f, g, h, omega: ResidualReport(next(values), next(witnesses))
    )
    res = run_check(CheckSpec(check="assoc", trials=4))
    assert res["pass"] is False
    assert res["worst_residual"] == "nan" and res["witness"] == [2]
    # a NaN margin is the worst margin too (reports encode it as "nan")
    monkeypatch.setattr(cli, "check_module_bound", lambda f, g, ctx: {"margin": math.nan, "pass": False})
    res = run_check(CheckSpec(check="module-bound", trials=2))
    assert res["pass"] is False and res["worst_margin"] == "nan" and res["witness"] is not None


def test_trial_witness_comes_from_the_first_strictly_worse_trial(monkeypatch):
    # a residual that never exceeds 0 reports no witness
    monkeypatch.setattr(cli, "check_associativity", lambda f, g, h, omega: ResidualReport(0.0, (1,)))
    res = run_check(CheckSpec(check="assoc", trials=3))
    assert res["pass"] and res["worst_residual"] == 0.0 and res["witness"] is None
    # tied margins keep the first trial's functions
    seen = []

    def margin(f, g, ctx):
        seen.append(_jsonable(function_to_json(f)))
        return {"margin": 1.0, "pass": True}

    monkeypatch.setattr(cli, "check_module_bound", margin)
    res = run_check(CheckSpec(check="module-bound", trials=3))
    assert len(seen) == 3 and res["worst_margin"] == 1.0 and res["witness"]["f"] == seen[0]


@pytest.mark.parametrize("group", ["Z^d:1", "Z^d:2", "Z^d:3", "H3", "Zn:8", "Zn:4x6", "Block:5"])
@pytest.mark.parametrize(
    "cocycle",
    # the two products reconstruct with nonzero residuals (about 1e-17) on Z^2 and H3
    ["one", "bichar:0.8", "cobound:poly:1.5", "prod:cobound:poly:1.37*bichar:0.61", "prod:cobound:poly:2.7*bichar:1.3"],
)
def test_cocycle_polar_residuals_match_the_pair_loop(group, cocycle):
    radius = 1 if group == "Z^d:3" else 3
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
