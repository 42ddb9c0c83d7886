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
"""

import dataclasses
import pathlib

import pytest

from torlicz.cli import SUITES, emit_report, main, parse_function_file, run_suite, save_function_file

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
    "z2-bichar": "bichar:1.2345",  # 900 support pairs: the table path
    "h3-cobound": "cobound:poly:1",  # 85 pairs: the scalar loop
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for suite in sorted(SUITES):
        for name, text in render(suite).items():
            (GOLDEN / name).write_bytes(text.encode())
