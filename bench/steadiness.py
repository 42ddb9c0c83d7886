#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark, and the baseline record.

Runs ``bench/run.py`` once per seed for each workload (each run a fresh
set of processes), then reports for every end-to-end metric the median and
the spread: the distance between the first and third quartiles of the runs
(``statistics.quantiles(values, n=4)``) as a share of the median.  That
spread, not a single run, is what a metric's regression bound in
BENCHMARK.json is set against.

    python3 bench/steadiness.py --seeds 1-10 --trace-seed 1 --heldout-seed 1000 \
        --out bench/baseline.json
    python3 bench/steadiness.py --seeds 11-20 --out bench/baseline-repeat.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import RUN_SECONDS, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_SECONDS + 300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="a range of seeds, e.g. 1-10")
    ap.add_argument("--trace-seed", type=int, default=None,
                    help="also record one traced run per workload at this seed")
    ap.add_argument("--heldout-seed", type=int, default=None,
                    help="also record one untraced run per workload at this seed")
    ap.add_argument("--out", default=None, help="write the summary as JSON here")
    args = ap.parse_args()

    lo, hi = args.seeds.split("-")
    seeds = list(range(int(lo), int(hi) + 1))
    summary = {"seeds": seeds, "seconds": RUN_SECONDS, "workloads": {}}
    for workload in WORKLOADS:
        runs = [one_run(workload, seed, 0) for seed in seeds]
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(unit=first["unit"], runs=values, **spread(values))
            print(f"{workload:8s} {name:12s} median {metrics[name]['median']:10.4f} {first['unit']:4s} "
                  f"spread {metrics[name]['iqr_over_median']:.4f}", flush=True)
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": metrics}
        if args.heldout_seed is not None:
            heldout = one_run(workload, args.heldout_seed, 0)
            entry["heldout_seed"] = args.heldout_seed
            entry["heldout"] = {k: v["value"] for k, v in heldout["metrics"].items()}
        if args.trace_seed is not None:
            traced = one_run(workload, args.trace_seed, 1)
            entry["per_layer_seed"] = args.trace_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
