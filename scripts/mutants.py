#!/usr/bin/env python3
"""Mutation check of the tests: each mutant of tests/mutants.toml must make
at least one of its tests fail.

For every mutant the script copies src/ to a temporary directory, replaces
the mutant's ``old`` text, which must occur exactly once in its file, by
``new``, and runs the mutant's test node ids with pytest against the copy
(``PYTHONPATH`` set to it).  A mutant whose tests all pass survives.  Run
from the root of a checkout:

    python3 scripts/mutants.py             # every mutant
    python3 scripts/mutants.py NAME ...    # the named mutants

Prints one line per mutant and exits 1 if any survives.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tests" / "mutants.toml"


def killed(mutant: dict, workdir: Path) -> bool:
    """Whether one of the mutant's tests fails on a mutated copy of src/
    (pytest exit code 1); any other outcome, such as a collection error, is
    a SystemExit."""
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = workdir / mutant["file"]
    text = path.read_text(encoding="utf-8")
    if text.count(mutant["old"]) != 1:
        raise SystemExit(f"{mutant['name']}: its old text occurs {text.count(mutant['old'])} times in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *mutant["tests"]]
    run = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1):
        raise SystemExit(f"{mutant['name']}: pytest exited {run.returncode}\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
    return run.returncode == 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = ap.parse_args()
    mutants = tomllib.loads(CATALOGUE.read_text(encoding="utf-8"))["mutant"]
    unknown = set(args.names) - {m["name"] for m in mutants}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    survivors = 0
    for mutant in mutants:
        if args.names and mutant["name"] not in args.names:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            ok = killed(mutant, Path(tmp))
        survivors += not ok
        print(f"{'killed  ' if ok else 'SURVIVED'} {mutant['name']}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
