#!/usr/bin/env python3
"""torlicz benchmark: four workloads, end-to-end metrics and layer traces.

Run from the root of a checkout:

    python3 bench/run.py                              # all four workloads, a table
    python3 bench/run.py --workload conv --seed 7     # one workload, a table row
                                                      # and a JSON line
    python3 bench/run.py --workload conv --trace 1    # per-layer metrics

Each workload runs in its own fresh, single-threaded worker process
(``TORLICZ_THREADS`` unset, BLAS pinned to one thread) with one closed-loop
client for ``--seconds`` (default RUN_SECONDS, the ``run_seconds`` of
BENCHMARK.json, which is also what the benchmark's callers pass).  Set-up
time is timed once per invocation on separate probe processes that only
start the interpreter and import torlicz.  Every op's output is checked; any
failed op makes the run fail (exit 1, ``"correct": false``).

With ``--workload NAME`` the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  README.md says what each workload and metric is for.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKDIR = ROOT / ".bench_work"
WORKLOADS = ("suites", "conv", "certify", "norms")
RUN_SECONDS = 20
SETUP_PROBES = 15
# beyond --seconds: warm-up cycle, input generation, checks and one slow op
WORKER_GRACE_S = 120.0
TAIL_BEYOND = 10

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("TORLICZ_THREADS", None)
    env.pop("PYTHONPATH", None)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _start(argv: list) -> tuple:
    """Start a worker; return (process, seconds until it printed ready)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)] + argv,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc, ready


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def measure_setup() -> float:
    """Median time from process start to ``import torlicz`` done."""
    samples = []
    for k in range(SETUP_PROBES + 1):
        proc, ready = _start(["--probe"])
        proc.communicate(timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited with {proc.returncode}")
        if k:  # the first probe compiles bytecode and fills the file cache
            samples.append(ready)
    return statistics.median(samples)


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", str(WORKDIR)]
    proc, _ = _start(argv)
    try:
        out, _ = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past {seconds + WORKER_GRACE_S:.0f} s")
    finally:
        _stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least TAIL_BEYOND samples
    beyond it: (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:  # a run too short for that percentile reports its maximum
        k = len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def end_to_end(raw: dict, setup_s: float) -> tuple:
    """The end-to-end metrics as {name: value}, and the tail's note."""
    lat = raw["latencies"]
    if not lat:
        raise BenchError("no op completed in the timed phase")
    tail_s, pct, beyond = tail(lat)
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_ms.p50": 1000.0 * statistics.median(lat),
        "op_ms.tail": 1000.0 * tail_s,
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": setup_s,
    }
    return metrics, f"p{pct:.1f}, {beyond} of {len(lat)} beyond"


def run_workload(workload: str, seed: int, seconds: float, setup_s) -> dict:
    """Run one workload, traced when ``setup_s`` is None; metrics map
    name -> {"value", "unit"}."""
    if setup_s is None:
        raw = run_worker(workload, seed, seconds, 1)
        return {"workload": workload, "raw": raw, "metrics": raw["layers"]}
    raw = run_worker(workload, seed, seconds, 0)
    values, note = end_to_end(raw, setup_s)
    metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
    return {"workload": workload, "raw": raw, "metrics": metrics, "tail_note": note}


def print_table(rows: list, trace: int) -> None:
    if trace:
        for row in rows:
            print(f"== {row['workload']}: per cycle of {row['raw']['cycle_ops']} ops, "
                  f"median of {row['raw']['traced_cycles']} traced cycles")
            for name, m in row["metrics"].items():
                print(f"  {name:40s} {m['value']:<14.6g} {m['unit']}")
        return
    header = ["workload"] + [f"{m}[{u}]" for m, u in E2E_UNITS.items()] + ["error_rate"]
    lines = [header]
    for row in rows:
        m, raw = row["metrics"], row["raw"]
        failed = len(raw["failures"])
        lines.append([
            row["workload"],
            f"{m['ops_per_s']['value']:.3f}",
            f"{m['op_ms.p50']['value']:.2f}",
            f"{m['op_ms.tail']['value']:.2f} ({row['tail_note']})",
            f"{m['peak_rss_mb']['value']:.1f}",
            f"{m['setup_s']['value']:.4f}",
            f"{failed / raw['attempted']:.4g} ({failed} of {raw['attempted']} ops)",
        ])
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())


def print_failures(rows: list) -> None:
    for row in rows:
        for failure in row["raw"]["failures"][:20]:
            print(f"FAILED {row['workload']} {failure['op']}: {failure['reason']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "torlicz" / "__init__.py").is_file():
        print(f"error: no torlicz source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        setup_s = None if args.trace else measure_setup()
        rows = [run_workload(w, args.seed, args.seconds, setup_s) for w in names]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print_table(rows, args.trace)
    print_failures(rows)
    attempted = sum(r["raw"]["attempted"] for r in rows)
    failed = sum(len(r["raw"]["failures"]) for r in rows)
    if args.workload != "all":
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": rows[0]["metrics"]}
        print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
