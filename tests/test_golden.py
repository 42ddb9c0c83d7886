"""Byte-for-byte pins of the preset suite reports.

Every preset's json, csv and text report is compared with the copy under
``tests/golden/``, the timestamp (the one field allowed to differ between
runs) removed.  A refactor that moves any number, witness or key fails
here.  After a deliberate change of a report, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import pathlib

import pytest

from torlicz.cli import SUITES, emit_report, run_suite

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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for suite in sorted(SUITES):
        for name, text in render(suite).items():
            (GOLDEN / name).write_bytes(text.encode())
