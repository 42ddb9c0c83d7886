"""Run one workload in this (fresh) process and print its raw results.

Started by run.py, never by hand.  The first line on stdout is ``ready``,
written as soon as ``import torlicz`` is done, so the parent can time
set-up; with ``--probe`` the worker exits there.  Otherwise the last line is
one JSON object with the op latencies, failures, peak RSS and, with
``--trace 1``, the per-layer metrics.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int)
    ap.add_argument("--workdir")
    return ap.parse_args()


class Runner:
    """Runs ops one after another and records latency and failures."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failures: list = []

    def attempt(self, op) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            elapsed = time.perf_counter() - start
            self.failures.append({"op": op.kind, "reason": f"raised {type(exc).__name__}: {exc}"})
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            op.check(out)
        except Exception as exc:  # a failed check, or a check that cannot read the output
            self.failures.append({"op": op.kind, "reason": f"{type(exc).__name__}: {exc}"})
        return elapsed

    def cycle(self) -> float:
        return sum(self.attempt(op) for op in self.ops)


def timed(runner: Runner, seconds: float) -> dict:
    runner.cycle()  # warm-up: lazy imports and first-call costs
    latencies, kinds = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        op = runner.ops[i % len(runner.ops)]
        latencies.append(runner.attempt(op))
        kinds.append(op.kind)
        i += 1
    return {"latencies": latencies, "kinds": kinds}


def traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """One cycle with the counters installed, then untraced and span-traced
    cycles of the same ops in turn until the time is up (at least one pair).
    Counts repeat exactly, so one counted cycle gives them; self times are
    medians over the span-traced cycles.  Values are per cycle."""
    from tracer import LAYER_METRICS, Tracer

    runner.cycle()
    tracer = Tracer()
    tracer.install_counters()
    try:
        runner.cycle()
    finally:
        tracer.uninstall()
    counted = dict(tracer.counts)

    plain_s, traced_s, per_cycle = [], [], []
    deadline = time.perf_counter() + seconds
    while not per_cycle or time.perf_counter() < deadline:
        plain_s.append(runner.cycle())
        tracer.counts.clear()
        first = len(tracer.spans)
        tracer.install_spans()
        try:
            total = 0.0
            for k, op in enumerate(runner.ops):
                tracer.op_id = len(per_cycle) * len(runner.ops) + k
                total += runner.attempt(op)
        finally:
            tracer.uninstall()
        traced_s.append(total)
        per_cycle.append(tracer.layer_totals(first))

    layers = {
        name: {"value": statistics.median(c.get(name, 0.0) for c in per_cycle), "unit": unit}
        for name, unit in LAYER_METRICS.items()
    }
    for name, n in counted.items():
        if name in layers:
            layers[name]["value"] = float(n)
    numeric = counted.get("young.numeric_psi_evals", 0)
    conjugates = layers["young.conjugate.calls"]["value"]
    layers["young.psi_memo_hit_ratio"]["value"] = 1.0 - conjugates / numeric if numeric else 0.0
    layers["trace.overhead_frac"]["value"] = (sum(traced_s) - sum(plain_s)) / sum(plain_s)
    spans_path.write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}),
        encoding="utf-8",
    )
    return {"layers": layers, "traced_cycles": len(per_cycle)}


def main() -> int:
    args = _args()
    sys.path.insert(0, str(ROOT / "src"))
    import torlicz
    import torlicz.cli  # noqa: F401  the ops need it, so it is part of set-up

    if Path(torlicz.__file__).resolve().parent != ROOT / "src" / "torlicz":
        sys.exit(f"imported torlicz from {torlicz.__file__}, not from this checkout")
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.probe:
        return 0

    import workloads

    workdir = Path(args.workdir)
    runner = Runner(workloads.build(args.workload, args.seed, workdir / args.workload))
    if args.trace:
        out = traced(runner, args.seconds, workdir / f"spans-{args.workload}-{args.seed}.json")
    else:
        out = timed(runner, args.seconds)
    out.update(
        attempted=runner.attempted,
        failures=runner.failures,
        cycle_ops=len(runner.ops),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
