"""The mutation catalogue stays applicable: each mutant's ``old`` text
occurs exactly once in its file under src/, so scripts/mutants.py (which
runs the catalogue) mutates the code it names; and a failing hypothesis
test, which is how most mutants are killed, is reported as a failure."""

import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = tomllib.loads((ROOT / "tests" / "mutants.toml").read_text(encoding="utf-8"))["mutant"]


def test_catalogue_entries_are_complete_and_distinct():
    assert len(MUTANTS) >= 8
    assert len({m["name"] for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert {"name", "why", "file", "old", "new", "tests"} <= set(m), m.get("name")
        assert m["file"].startswith("src/") and m["old"] != m["new"] and m["tests"], m["name"]
        assert all((ROOT / node.split("::")[0]).is_file() for node in m["tests"]), m["name"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_mutant_old_text_occurs_once(mutant):
    assert (ROOT / mutant["file"]).read_text(encoding="utf-8").count(mutant["old"]) == 1


def test_a_failing_hypothesis_example_is_a_plain_failure(tmp_path):
    """Reporting a failing example imports libcst, whose import warns; the
    pyproject's filterwarnings must not turn that into an error, which ends
    pytest with INTERNALERROR (exit 3) instead of a failure (exit 1)."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 0\n",
        encoding="utf-8",
    )
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), "test_fails.py"]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout[-2000:] + run.stderr[-2000:]
    assert "1 failed" in run.stdout
