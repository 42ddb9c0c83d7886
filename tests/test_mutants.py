"""The mutation catalogue stays applicable: each mutant's ``old`` text
occurs exactly once in its file under src/, so scripts/mutants.py (which
runs the catalogue) mutates the code it names."""

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
