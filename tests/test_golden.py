"""Byte-for-byte pins of the preset suite reports.

Every preset's json, csv and text report is compared with the copy under
``tests/golden/``, the timestamp (the one field allowed to differ between
runs) removed.  A refactor that moves any number, witness or key fails
here.  After a deliberate change of a report, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

The ``conv-*`` files pin the function-file layout that ``torlicz conv``
writes: inputs ``-f``/``-g`` and result ``-h``, all written by the
``json.dumps(..., indent=2)`` encoder that the function-file writer
replaced.  They are inputs as much as expectations and are never
regenerated.

The ``pin-*.out`` files pin ``torlicz norm`` and ``torlicz conv`` on the
``fn-*.json`` inputs (``PINS``), and the text a read file is written back
as (``ROUND_TRIPS``): lenient entries, coordinates that reduce, and
coordinates past the batch bound of 2^31 and past int64 among them.  Like
the conv files they were written once and are never regenerated.
"""

import contextlib
import dataclasses
import io
import pathlib

import pytest

from torlicz.cli import (
    SUITES,
    emit_report,
    function_file_text,
    main,
    parse_function_file,
    run_suite,
    save_function_file,
)

GOLDEN = pathlib.Path(__file__).with_name("golden")
FORMATS = {"json": "json", "csv": "csv", "text": "txt"}


def render(suite: str) -> dict:
    """File name -> report text for every format of one preset."""
    report = run_suite(suite)
    env = {k: v for k, v in report.environment.items() if k != "timestamp"}
    report = dataclasses.replace(report, environment=env)
    return {f"{suite}.{ext}": emit_report(report, fmt) for fmt, ext in FORMATS.items()}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_preset_reports_match_golden(suite):
    for name, text in render(suite).items():
        assert text.encode() == (GOLDEN / name).read_bytes(), name


# name -> cocycle spec of the conv goldens
CONV_CASES = {
    "z2-bichar": "bichar:1.2345",  # 900 support pairs
    "h3-cobound": "cobound:poly:1",  # 85 pairs: conv runs convolve_batch at any size within the batch bound
    "zn": "bichar:",  # keys reduced mod (4, 6)
    "nonfinite": "bichar:0.9",  # inf, -inf and nan parts
}


@pytest.mark.parametrize("case", sorted(CONV_CASES))
def test_conv_files_match_golden(case, tmp_path, capsys):
    f, g, h = (GOLDEN / f"conv-{case}-{x}.json" for x in "fgh")
    argv = ["conv", "--cocycle", CONV_CASES[case], "--in", str(f), str(g)]
    out = tmp_path / "h.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == h.read_bytes()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == h.read_bytes()
    # the inputs were written by the same encoder: reading and saving them again is the identity
    for src in (f, g):
        save_function_file(parse_function_file(str(src)), str(out))
        assert out.read_bytes() == src.read_bytes(), src.name


# name -> argv of a norm or conv pin, its input files named under tests/golden/
PINS = {
    "norm-box-expm": ["norm", "--pair", "expm", "--weight", "poly:2", "--in", "fn-box.json"],
    "norm-box-xlog": ["norm", "--pair", "xlog", "--weight", "poly:2", "--in", "fn-box.json"],
    "norm-zn-reduced": ["norm", "--pair", "Lp:3", "--weight", "poly:1", "--in", "fn-zn-unreduced.json"],
    "norm-h3": ["norm", "--weight", "poly:1", "--in", "fn-h3.json"],
    "norm-lenient": ["norm", "--pair", "Lp:1.5", "--weight", "poly:2", "--in", "fn-lenient.json"],
    "norm-2e40": ["norm", "--pair", "cosh", "--weight", "poly:1", "--in", "fn-2e40.json"],
    "norm-1e20": ["norm", "--pair", "Lp:3", "--weight", "poly:1", "--in", "fn-1e20.json"],
    "norm-block": ["norm", "--pair", "Lp:2", "--weight", "poly:1", "--in", "fn-block.json"],
    "norm-zn-huge": ["norm", "--pair", "Lp:2", "--weight", "poly:1", "--in", "fn-zn-huge.json"],
    "conv-zn-reduced": ["conv", "--cocycle", "bichar:", "--in", "fn-zn-unreduced.json", "fn-zn-unreduced.json"],
    "conv-lenient": ["conv", "--cocycle", "bichar:0.5", "--in", "fn-lenient.json", "fn-small-z2.json"],
    "conv-past-bound-f": ["conv", "--cocycle", "bichar:0.7", "--in", "fn-past-bound-f.json", "fn-small-z2.json"],
    "conv-past-bound-g": ["conv", "--cocycle", "one", "--in", "fn-h3-small.json", "fn-h3-past-bound.json"],
    "conv-1e20": ["conv", "--cocycle", "cobound:poly:1", "--in", "fn-1e20.json", "fn-1e20.json"],
    "conv-zn2-empty": ["conv", "--cocycle", "one", "--in", "fn-zn2-sum.json", "fn-zn2-diff.json"],
    "conv-block": ["conv", "--cocycle", "one", "--in", "fn-block.json", "fn-block.json"],
    "conv-zn-huge": ["conv", "--cocycle", "one", "--in", "fn-zn-huge.json", "fn-zn-huge.json"],
}
# name -> input that is read and written back
ROUND_TRIPS = {"write-signed-zero": "fn-signed-zero.json", "write-lenient": "fn-lenient.json"}


def run_pin(name: str) -> tuple:
    """(exit code, stdout, stderr) of ``main`` on the pin's argv."""
    argv = [str(GOLDEN / a) if a.startswith("fn-") else a for a in PINS[name]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def round_trip(name: str) -> str:
    """The text of the round trip's input read and written back."""
    return function_file_text(parse_function_file(str(GOLDEN / ROUND_TRIPS[name]))) + "\n"


@pytest.mark.parametrize("name", sorted(PINS))
def test_norm_and_conv_outputs_match_their_pins(name):
    assert run_pin(name) == (0, (GOLDEN / f"pin-{name}.out").read_text(encoding="utf-8"), "")


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
def test_read_and_written_files_match_their_pins(name):
    assert round_trip(name) == (GOLDEN / f"pin-{name}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for suite in sorted(SUITES):
        for name, text in render(suite).items():
            (GOLDEN / name).write_bytes(text.encode())
