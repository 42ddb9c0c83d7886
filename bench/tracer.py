"""Layer tracing of torlicz from outside the program.

``Tracer.install_spans()`` replaces each coarse public function with a
wrapper that records a span, at every place the function is bound (its own
module and every torlicz module that imported it by name, e.g. ``cli``
binds ``twisted_convolve``).  ``install_counters()`` counts fine-grained
evaluations (cocycle, weight, Young function and group-product calls, word
lengths and BFS elements) instead.  The two are installed in different
cycles, so the counters' wrappers do not inflate the spans' self time.
``uninstall()`` restores every original binding, so untraced runs of the
same process execute the unmodified program.

Spans are kept in memory as (name, start, end, parent, op) and written out
by the caller when the run ends.  A layer's self time is its spans'
durations minus the durations of their direct children.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import torlicz.cocycles as tz_cocycles
import torlicz.groups as tz_groups
import torlicz.weights as tz_weights
import torlicz.young as tz_young

# (module, function) -> span name.  Several functions may share one name.
SPANS = {
    ("cli", "main"): "cli.main",
    ("cli", "run_suite"): "cli.run_suite",
    ("cli", "run_check"): "cli.run_check",
    ("cli", "emit_report"): "cli.emit_report",
    ("groups", "ball_table"): "groups.ball_table",
    ("young", "conjugate"): "young.conjugate",
    ("numeric", "golden_section_min"): "numeric.golden_section_min",
    ("weights", "check_submultiplicative"): "weights.pair_checks",
    ("weights", "check_weak_subadditive"): "weights.pair_checks",
    ("weights", "check_lss_domination"): "weights.pair_checks",
    ("weights", "check_symmetric"): "weights.pair_checks",
    ("cocycles", "verify_cocycle"): "cocycles.verify_cocycle",
    ("cocycles", "domination_from_subadditive"): "cocycles.domination",
    ("orlicz", "orlicz_norm"): "orlicz.orlicz_norm",
    ("orlicz", "luxemburg_norm"): "orlicz.luxemburg_norm",
    ("orlicz", "dual_pairing_bound"): "orlicz.dual_pairing_bound",
    ("orlicz", "psi_membership_series"): "orlicz.psi_membership_series",
    ("twisted", "twisted_convolve"): "twisted.twisted_convolve",
    ("twisted", "check_associativity"): "twisted.checks",
    ("twisted", "check_module_bound"): "twisted.checks",
    ("twisted", "check_algebra_bound"): "twisted.checks",
    ("twisted", "check_intertwining"): "twisted.checks",
    ("twisted", "check_differential_bound"): "twisted.checks",
    ("twisted", "spectral_radius_estimate"): "twisted.checks",
    ("twisted", "finite_symmetry_check"): "twisted.checks",
}

# every per-layer metric, with its unit, in report order
LAYER_METRICS = {
    "cli.run_suite.self_s": "s",
    "cli.run_check.calls": "count",
    "cli.run_check.self_s": "s",
    "cli.main.self_s": "s",
    "cli.emit_report.self_s": "s",
    "groups.ball_table.calls": "count",
    "groups.ball_table.self_s": "s",
    "groups.bfs_elements": "count",
    "groups.word_length.calls": "count",
    "groups.op_calls": "count",
    "young.phi_evals": "count",
    "young.psi_evals": "count",
    "young.conjugate.calls": "count",
    "young.conjugate.self_s": "s",
    "young.psi_memo_hit_ratio": "ratio",
    "numeric.golden_section_min.calls": "count",
    "numeric.golden_section_min.self_s": "s",
    "weights.pair_checks.calls": "count",
    "weights.pair_checks.self_s": "s",
    "weights.weight_evals": "count",
    "cocycles.verify_cocycle.calls": "count",
    "cocycles.verify_cocycle.self_s": "s",
    "cocycles.verify_cocycle.triples": "count",
    "cocycles.verify_cocycle.sampled": "count",
    "cocycles.domination.self_s": "s",
    "cocycles.omega_evals": "count",
    "orlicz.orlicz_norm.calls": "count",
    "orlicz.orlicz_norm.self_s": "s",
    "orlicz.luxemburg_norm.calls": "count",
    "orlicz.luxemburg_norm.self_s": "s",
    "orlicz.norm_points": "count",
    "orlicz.dual_pairing_bound.self_s": "s",
    "orlicz.psi_membership_series.self_s": "s",
    "twisted.twisted_convolve.calls": "count",
    "twisted.twisted_convolve.self_s": "s",
    "twisted.pair_products": "count",
    "twisted.output_points": "count",
    "twisted.checks.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _after_verify(counts, args, kwargs, rep):
    counts["cocycles.verify_cocycle.triples"] += rep.n_triples
    counts["cocycles.verify_cocycle.sampled"] += int(rep.sampled)


def _after_norm(counts, args, kwargs, result):
    counts["orlicz.norm_points"] += len(args[0].values)


def _after_convolve(counts, args, kwargs, h):
    counts["twisted.pair_products"] += len(args[0].values) * len(args[1].values)
    counts["twisted.output_points"] += len(h.values)


AFTER = {
    ("cocycles", "verify_cocycle"): _after_verify,
    ("orlicz", "orlicz_norm"): _after_norm,
    ("orlicz", "luxemburg_norm"): _after_norm,
    ("twisted", "twisted_convolve"): _after_convolve,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list = []
        self._restore: list = []

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn, after):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, replacement) -> None:
        """Bind ``replacement`` wherever a torlicz module binds ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "torlicz" or mod_name.startswith("torlicz.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def _patch_class(self, cls, attr: str, replacement) -> None:
        self._restore.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, replacement)

    # -- install / uninstall -------------------------------------------------

    def install_spans(self) -> None:
        for (mod, fn_name), span_name in SPANS.items():
            original = getattr(sys.modules[f"torlicz.{mod}"], fn_name)
            after = AFTER.get((mod, fn_name))
            self._rebind(original, self._span_wrapper(span_name, original, after))

    def install_counters(self) -> None:
        counts = self.counts
        word_length = tz_groups.word_length
        self._rebind(word_length, self._count_wrapper("groups.word_length.calls", word_length))

        extend = tz_groups._extend_bfs

        def extend_bfs(group, *args, **kwargs):
            before = len(group._cache["bfs"]["index"]) if "bfs" in group._cache else 1
            st = extend(group, *args, **kwargs)
            counts["groups.bfs_elements"] += len(st["index"]) - before
            return st

        self._rebind(extend, extend_bfs)

        cocycle_call = tz_cocycles.Cocycle.__call__

        def omega_call(self_, s, t):
            counts["cocycles.omega_evals"] += 1
            return cocycle_call(self_, s, t)

        self._patch_class(tz_cocycles.Cocycle, "__call__", omega_call)

        weight_call = tz_weights.Weight.__call__

        def weight_eval(self_, s):
            counts["weights.weight_evals"] += 1
            return weight_call(self_, s)

        self._patch_class(tz_weights.Weight, "__call__", weight_eval)

        # A Young function's role is fixed by the first pair that holds it;
        # dual_pairing_bound later builds a pair with the roles swapped.
        young_call = tz_young.YoungFunction.__call__
        pair_init = tz_young.YoungPair.__init__

        def young_eval(self_, x):
            role = self_.__dict__.get("_bench_role")
            if role is not None:
                counts[role] += 1
                if role == "young.psi_evals" and self_.__dict__.get("_bench_numeric"):
                    counts["young.numeric_psi_evals"] += 1
            return young_call(self_, x)

        def tagging_init(self_, *args, **kwargs):
            pair_init(self_, *args, **kwargs)
            for fn, role in ((self_.phi, "young.phi_evals"), (self_.psi, "young.psi_evals")):
                if "_bench_role" not in fn.__dict__:
                    object.__setattr__(fn, "_bench_role", role)
                    object.__setattr__(fn, "_bench_numeric", not self_.analytic_complement)

        self._patch_class(tz_young.YoungFunction, "__call__", young_eval)
        self._patch_class(tz_young.YoungPair, "__init__", tagging_init)

        post_init = tz_groups.Group.__post_init__

        def counting_post_init(self_):
            post_init(self_)
            op = self_.op

            def counted_op(a, b):
                counts["groups.op_calls"] += 1
                return op(a, b)

            object.__setattr__(self_, "op", counted_op)

        self._patch_class(tz_groups.Group, "__post_init__", counting_post_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def layer_totals(self, first_span: int = 0) -> dict:
        """Per-layer calls and self time of the spans recorded since
        ``first_span``, merged with the counts made since they were last
        cleared."""
        spans = self.spans[first_span:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child_time[parent - first_span] += end - start
        calls, self_s = Counter(), Counter()
        for k, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[k]
        out = {f"{name}.calls": float(n) for name, n in calls.items()}
        out.update({f"{name}.self_s": t for name, t in self_s.items()})
        out.update({key: float(n) for key, n in self.counts.items()})
        return out
