"""The batched trial checks against the trial-by-trial oracles of
tests/oracles.py: the same draws, scores, pass flags, witnesses and errors,
bit for bit."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import TRIAL_RUNNERS
from torlicz import cli
from torlicz.cli import CheckSpec, main
from torlicz.cocycles import domination_from_subadditive, parse_cocycle
from torlicz.groups import parse_group
from oracles import build_supported_functions
from torlicz.orlicz import FunctionBatch, draw_functions, random_supported_function
from torlicz.twisted import (
    AlgebraContext,
    ResidualReport,
    check_algebra_bound,
    check_associativity,
    check_differential_bound,
    check_intertwining,
    check_module_bound,
)
from torlicz.weights import check_weak_subadditive, constant_weight, parse_weight
from torlicz.young import lp_pair, parse_pair

GROUPS = ("Z^d:1", "Z^d:2", "H3", "Zn:4")
COCYCLES = ("one", "bichar", "cobound", "prod")
# dyadic values make exact cancellations likely, gaussian ones rounding
DYADIC = (1.0, -1.0, 2.0, -0.5, 1j, -1j, 1.0 - 1.0j)


def _run(spec):
    """The report fields of the spec's sampled-trial check, from its runner
    with the spec's resolved params (run_check adds "check" and "spec")."""
    check = cli.CHECKS[spec.check]
    return check.run(spec, check.resolve(spec))


def _bits(x):
    """A float, complex, tuple or dict with every float read as its bits."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return x


def _function_bits(f):
    return [(s, _bits(v)) for s, v in f.values.items()]


def _context(group, kind):
    """(cocycle, its weight w with |Omega| the coboundary of w)."""
    theta = "" if group.name.startswith("Zn:") else "0.7"
    spec = {
        "one": "one",
        "bichar": f"bichar:{theta}",
        "cobound": "cobound:poly:1.5",
        "prod": f"prod:cobound:poly:1.5*bichar:{theta}",
    }[kind]
    w = constant_weight(group) if kind in ("one", "bichar") else parse_weight(group, "poly:1.5")
    return parse_cocycle(group, spec), w


@st.composite
def _draws(draw, group, n, max_radius=3):
    """n hand-made draws: words of generator indices, and values that are
    dyadic (so repeated points and convolution sums can cancel exactly,
    down to a draw that cancels to zero) or gaussian."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(n):
        points = []
        for _ in range(int(rng.integers(1, 7))):
            word = rng.integers(0, len(group.generators), int(rng.integers(0, max_radius + 1))).tolist()
            v = DYADIC[rng.integers(len(DYADIC))] if rng.random() < 0.6 else complex(*rng.normal(size=2))
            points.append((word, complex(v)))
            if rng.random() < 0.15:  # the same point again with the opposite value
                points.append((word, -complex(v)))
        out.append(points)
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GROUPS), st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(1, 7), st.booleans(),
       st.lists(st.integers(1, 40), min_size=1, max_size=3))
def test_draw_and_build_consume_and_give_what_the_loop_does(group_spec, seed, radius, max_support, real, counts):
    """draw_functions against the loop oracle that makes the same block RNG
    calls and builds each function point by point in a dict: the same bits
    after each call, and the same generator state after all of them."""
    group = parse_group(group_spec)
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in counts:
        batch = draw_functions(group, a, n, max_support, radius, real)
        loop = oracles.draw_functions_loop(group, b, n, max_support, radius, real)
        assert [_function_bits(f) for f in batch.functions()] == [_function_bits(g) for g in loop]
    f = random_supported_function(group, a, max_support, radius, real)
    assert _function_bits(f) == _function_bits(oracles.draw_functions_loop(group, b, 1, max_support, radius, real)[0])
    assert a.bit_generator.state == b.bit_generator.state


# draw_functions(Z^d:2, default_rng(2024), 3, radius=3): each function's
# points in dict order with the hex of the real and imaginary parts
STREAM_PIN = [
    [((0, 0), ("-0x1.4a84fb355e6d9p+0", "-0x1.c65f57f271170p-3")),
     ((-1, 0), ("-0x1.8d25c1aa1012dp-1", "0x1.ac2c846891c05p-2"))],
    [((0, -1), ("0x1.ce5e48a2449a9p-1", "-0x1.b99acad5d71aap-2")),
     ((1, 1), ("-0x1.7b0760b207e00p+0", "0x1.16cb80f276cf5p-2")),
     ((0, 1), ("-0x1.11749d894df0ap-1", "0x1.d1767d4c60c11p-5")),
     ((1, 0), ("0x1.4f7062087e75cp-3", "0x1.b2c2487811340p-2")),
     ((-2, -1), ("-0x1.5641bd63eb284p-1", "0x1.ccaf1e79b4f07p-3"))],
    [((0, 0), ("-0x1.02583f2b2fecfp-2", "0x1.a85dfb742cff4p+0"))],
]


def test_the_draw_stream_is_pinned():
    """The first batch of seed 2024 on Z^d:2, bit for bit: a change of the
    draw's RNG calls moves every sampled-trial report, so it must show here
    and be declared."""
    batch = draw_functions(parse_group("Z^d:2"), np.random.default_rng(2024), 3, radius=3)
    assert [_function_bits(f) for f in batch.functions()] == STREAM_PIN


class _Recorded:
    """A Generator that records the arrays its integers and standard_normal
    calls return (copies, as the caller may write into them)."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def integers(self, *args, **kwargs):
        out = self.rng.integers(*args, **kwargs)
        self.calls.append(("integers", args, out.copy()))
        return out

    def standard_normal(self, *args, **kwargs):
        out = self.rng.standard_normal(*args, **kwargs)
        self.calls.append(("standard_normal", args, out.copy()))
        return out


# chi-square critical values at p = 1e-6 for 2, 4, 5 and 8 degrees of freedom
# (scipy.stats.chi2.isf(1e-6, df)): a draw with the stated law stays below
# them on all but one seed in a million
CHI2_CRITICAL = {2: 27.631, 4: 33.377, 5: 35.888, 8: 42.701}


def _chi2(samples, k):
    """The chi-square statistic of the counts of 0..k-1 in ``samples``
    against the uniform law, and its degrees of freedom."""
    counts = np.bincount(samples, minlength=k)
    expected = len(samples) / k
    return float(((counts - expected) ** 2 / expected).sum()), k - 1


def test_the_draw_has_the_stated_law():
    """Over about 200,000 points of one seed: five block RNG calls (four
    with ``real``); uniform sizes in 1..6, word lengths in 0..radius and
    used generator indices, each within the p = 1e-6 chi-square bound; and
    on Z^d:1 with one point per function, the walked points have the exact
    law of a sum of a uniform number (0..2) of uniform steps in {-1, 0, 1}
    and the values are standard complex Gaussian."""
    group = parse_group("Z^d:2")
    rng = _Recorded(np.random.default_rng(7))
    n, radius = 57_000, 4
    draw_functions(group, rng, n, radius=radius)
    assert [name for name, _, _ in rng.calls] == ["integers"] * 3 + ["standard_normal"] * 2
    (_, _, sizes), (_, _, lengths), (_, _, index), (_, _, re), (_, _, im) = rng.calls
    points = int(sizes.sum())
    assert sizes.shape == (n,) and lengths.shape == (points,) and index.shape == (points, radius) and points > 195_000
    assert re.shape == im.shape == (points,)
    used = index[np.arange(radius) < lengths[:, None]]
    for samples, k in ((sizes - 1, 6), (lengths, radius + 1), (used, len(group.generators))):
        stat, df = _chi2(samples, k)
        assert stat < CHI2_CRITICAL[df], (k, stat)
    rng = _Recorded(np.random.default_rng(7))
    draw_functions(group, rng, 10, real=True)
    assert [name for name, _, _ in rng.calls] == ["integers"] * 3 + ["standard_normal"]
    # one point per function: the points themselves, 200,000 of them
    batch = draw_functions(parse_group("Z^d:1"), np.random.default_rng(8), 200_000, max_support=1, radius=2)
    law = np.array([1, 5, 15, 5, 1]) / 27  # P(-2), ..., P(2)
    counts = np.bincount(batch.coords[:, 0, 0] + 2, minlength=5)
    stat = float(((counts - law * 200_000) ** 2 / (law * 200_000)).sum())
    assert (batch.sizes == 1).all() and stat < CHI2_CRITICAL[4]
    values = batch.values[:, 0]
    for part in (values.real, values.imag):  # mean 0, variance 1, within 6 standard errors
        assert abs(part.mean()) < 6 / math.sqrt(200_000) and abs(part.var() - 1) < 6 * math.sqrt(2 / 200_000)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(GROUPS))
def test_build_of_hand_made_draws_matches_the_loop(data, group_spec):
    group = parse_group(group_spec)
    draws = data.draw(_draws(group, 6))
    # a draw whose values cancel becomes the point mass at the identity
    draws.append([([0], 1.0), ([], 0.5j), ([0], -1.0), ([], -0.5j)])
    built = build_supported_functions(group, draws)
    assert [_function_bits(f) for f in built.functions()] == [
        _function_bits(oracles.function_of_draw_loop(group, d)) for d in draws
    ]
    assert built.function(len(draws) - 1).values == {group.identity: 1.0}


def _batched_and_loop(check, group, kind, draws, trials):
    """(batched report, per-trial loop reports) of one convolution check on
    the functions of ``draws``, trial i holding the draws i*k .. i*k+k-1."""
    k = {"assoc": 3}.get(check, 2)
    built = build_supported_functions(group, draws)
    batches = [built.take(np.arange(j, trials * k, k)) for j in range(k)]
    loops = [[oracles.function_of_draw_loop(group, draws[i * k + j]) for j in range(k)] for i in range(trials)]
    omega, w = _context(group, kind)
    pair = lp_pair(2.0)
    if check == "assoc":
        return check_associativity(*batches, omega), [oracles.check_associativity_loop(*fs, omega) for fs in loops]
    if check == "intertwine":
        return check_intertwining(*batches, w, omega), [oracles.check_intertwining_loop(*fs, w, omega) for fs in loops]
    if check == "module-bound":
        ctx = AlgebraContext(cocycle=omega, pair=pair)
        return check_module_bound(*batches, ctx), [oracles.check_module_bound_loop(*fs, ctx) for fs in loops]
    if check == "algebra-bound":
        ctx = AlgebraContext(cocycle=omega, pair=pair)
        dom = domination_from_subadditive(omega, w, check_weak_subadditive(w, 4).constant, pair, 4)
        return check_algebra_bound(*batches, ctx, dom), [oracles.check_algebra_bound_loop(*fs, ctx, dom) for fs in loops]
    ctx = AlgebraContext(cocycle=omega, pair=pair, weight=parse_weight(group, "subexp:0.5:1"), aux_weight=w)
    return (
        check_differential_bound(*batches, ctx, 4),
        [oracles.check_differential_bound_loop(*fs, ctx, 4) for fs in loops],
    )


def _measured_and_loop(check, group, kind, pair, draws, trials):
    """(batched measure, per-trial loop measures) of a sampled-trial check
    scored without a convolution checker, on the functions of ``draws``."""
    k = TRIAL_RUNNERS[check].draws
    built = build_supported_functions(group, draws)
    batches = [built.take(np.arange(j, trials * k, k)) for j in range(k)]
    omega, w = _context(group, kind)
    spec = CheckSpec(check=check, group=group.name, pair=pair)
    ctx = AlgebraContext(cocycle=omega, pair=parse_pair(pair), weight=w)
    trial = cli.Trial(spec, cli.CHECKS[check].resolve(spec), ctx, None)
    scores, ok, witness = TRIAL_RUNNERS[check].measure(trial, *batches)
    loops = []
    for i in range(trials):
        fs = [oracles.function_of_draw_loop(group, draws[i * k + j]) for j in range(k)]
        loops.append(oracles.MEASURES_LOOP[check](trial, *fs))
    batched = [(tuple(float(x[i]) for x in scores), bool(ok[i]), witness and witness(i)) for i in range(trials)]
    return batched, [(tuple(map(float, sc)), bool(o), found and found()) for sc, o, found in loops]


@settings(max_examples=150, deadline=None)
@given(
    st.data(),
    st.sampled_from(("assoc", "intertwine", "module-bound", "algebra-bound", "differential")),
    st.sampled_from(GROUPS),
    st.sampled_from(COCYCLES),
    st.integers(1, 5),
)
def test_batched_checkers_match_the_loop_bit_for_bit(data, check, group_spec, kind, trials):
    group = parse_group(group_spec)
    draws = data.draw(_draws(group, trials * {"assoc": 3}.get(check, 2)))
    batched, loop = _batched_and_loop(check, group, kind, draws, trials)
    for i, rep in enumerate(loop):
        if isinstance(rep, ResidualReport):
            assert (_bits(float(batched.value[i])), batched.witness[i]) == (_bits(rep.value), rep.witness)
        else:
            got = {k: v[i].item() if isinstance(v, np.ndarray) else v for k, v in batched.items()}
            assert _bits(got) == _bits(rep)


@settings(max_examples=150, deadline=None)
@given(
    st.data(),
    st.sampled_from(("sandwich", "holder", "lambda-isometry", "symmetry-finite")),
    st.sampled_from(GROUPS),
    st.sampled_from(COCYCLES),
    st.integers(1, 5),
    st.sampled_from(("Lp:2", "Lp:1.5", "Lp:7.3", "cosh")),
)
def test_batched_measures_match_the_loop_bit_for_bit(data, check, group_spec, kind, trials, pair):
    """The four checks scored without a convolution checker (their norms,
    pairings, Lambda_w maps and spectra taken over all trials at once)
    against their per-trial loops; symmetry-finite on the finite group."""
    group = parse_group("Zn:4" if check == "symmetry-finite" else group_spec)
    if check == "symmetry-finite":
        kind = data.draw(st.sampled_from(("one", "bichar")))
    draws = data.draw(_draws(group, trials * TRIAL_RUNNERS[check].draws))
    batched, loop = _measured_and_loop(check, group, kind, pair, draws, trials)
    assert _bits(batched) == _bits(loop)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(TRIAL_RUNNERS)),
    st.sampled_from(GROUPS),
    st.sampled_from(COCYCLES),
    st.integers(0, 2**20),
    st.integers(1, 8),
    st.sampled_from((1, 3, cli.TRIAL_CHUNK)),
)
def test_trial_runner_matches_the_loop(check, group_spec, kind, seed, trials, chunk):
    """Whole reports of every sampled-trial check, from seeds and in
    chunks of ``chunk`` trials: worst scores, verdict and the kept trial's
    witness, or the same error."""
    group = parse_group(group_spec)
    if check == "symmetry-finite" and group.order is None:
        group_spec, group = "Zn:4", parse_group("Zn:4")
    theta = "" if group_spec.startswith("Zn:") else "0.7"
    cocycle = {"one": "one", "bichar": f"bichar:{theta}", "cobound": "cobound:poly:1.5",
               "prod": f"prod:cobound:poly:1.5*bichar:{theta}"}[kind]
    if check == "symmetry-finite":
        cocycle = "bichar:"
    weight = "const" if kind in ("one", "bichar") else "poly:1.5"
    spec = CheckSpec(check=check, group=group_spec, cocycle=cocycle, weight=weight, weight2="poly:1",
                     radius=3, trials=trials, seed=seed)
    outcomes = []
    with mock.patch.object(cli, "TRIAL_CHUNK", chunk):
        for run in (lambda: _run(spec), lambda: oracles.run_trials_loop(spec)):
            try:
                outcomes.append(cli._dumps(run()))
            except (ValueError, ArithmeticError) as exc:
                outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


def test_trials_run_in_chunks_of_trial_chunk(monkeypatch):
    """The measure never sees more than TRIAL_CHUNK trials, and the report
    of 10 trials in chunks of 4 is the loop's."""
    monkeypatch.setattr(cli, "TRIAL_CHUNK", 4)
    check = TRIAL_RUNNERS["assoc"]
    sizes = []

    def measure(t, *batches):
        sizes.append(len(batches[0]))
        return check.measure(t, *batches)

    spec = CheckSpec(check="assoc", group="H3", cocycle="bichar:0.7", trials=10, seed=5)
    got = cli._run_trials(spec, cli.CHECKS["assoc"].resolve(spec), dataclasses.replace(check, measure=measure))
    assert sizes == [4, 4, 2]
    assert cli._dumps(got) == cli._dumps(oracles.run_trials_loop(spec))


@pytest.mark.parametrize(
    "check, group",
    [("sandwich", "Block:80"), ("assoc", "Block:80"), ("assoc", "Zn:1000000x1000000x1000000x1000000"),
     ("module-bound", "Zn:1000000x1000000x1000000x1000000"), ("assoc", f"Zn:{5 * 10**18}")],
)
def test_groups_whose_keys_overflow_int64_run_as_the_loop(check, group, capsys):
    """Draws on these groups (80 columns of span 2, four of span 10^6, or
    coordinates near 2^62) do not pack into int64 keys; the batched sums
    sort the rows instead, and the reports are the loop's."""
    spec = CheckSpec(check=check, group=group, trials=12)
    assert cli._dumps(_run(spec)) == cli._dumps(oracles.run_trials_loop(spec))
    assert main(["check", check, "--group", group, "--trials", "12"]) == 0
    capsys.readouterr()


def test_worst_score_rule_matches_the_loop():
    cases = [
        [0.5, math.nan, math.nan, 2.0],
        [0.0, 0.0, 0.0],
        [1.0, 3.0, 3.0, 2.0],
        [math.inf, math.inf],
        [-1.0, -1.0, math.nan],
        [math.nan],
        [2.0, -math.inf, 1.0],
    ]
    for scores in cases:
        for worse in (cli.MIN, cli.MAX):
            whole = _bits(oracles.worst_loop(scores, worse))
            assert _bits(cli._worst(np.array(scores), worse)) == whole
            for cut in range(1, len(scores)):  # two chunks: the second starts from the first's worst
                head, at = cli._worst(np.array(scores[:cut]), worse)
                tail, i = cli._worst(np.array(scores[cut:]), worse, head)
                assert _bits((tail, at if i is None else cut + i)) == whole


def _patched_draws(monkeypatch, group, draws):
    """Make both trial runners draw the hand-made ``draws`` in order, n of
    them for a chunk that draws n functions."""
    cli_draws, loop_draws = iter(draws), iter(draws)

    def take(it, n):
        return [next(it) for _ in range(n)]

    monkeypatch.setattr(cli, "draw_functions", lambda g, rng, n, **k: build_supported_functions(group, take(cli_draws, n)))
    monkeypatch.setattr(oracles, "draw_functions_loop",
                        lambda g, rng, n, **k: [oracles.function_of_draw_loop(group, d) for d in take(loop_draws, n)])


def _raised(run):
    with pytest.raises((ValueError, ArithmeticError)) as info:
        run()
    return type(info.value), str(info.value)


def test_first_failing_trial_raises_its_error(monkeypatch, capsys):
    """Trial 1 leaves the domination ball (radius 2), which the batch checks
    first; trial 0 is covered but its convolution overflows to inf, which
    only its norm notices.  The loop raises trial 0's error, and so must
    the batched check, from the CLI with the same exit code."""
    group = parse_group("Z^d:1")
    draws = [[([2], 1e200)], [([2], 1e200)], [([2, 2, 2], 1.0)], [([], 1.0)]]
    spec = CheckSpec(check="algebra-bound", cocycle="cobound:poly:2", weight="poly:2", radius=2, trials=2,
                     params={"C": 4.0})
    params = cli.CHECKS["algebra-bound"].resolve(spec)
    trial = cli.Trial(spec, params, *cli._domination(spec, params))
    built = build_supported_functions(group, draws)
    f, g = built.take([0, 2]), built.take([1, 3])
    # the batch alone meets trial 1's error first
    assert "does not cover support point (3,)" in _raised(lambda: check_algebra_bound(f, g, trial.ctx, trial.dom))[1]
    _patched_draws(monkeypatch, group, draws)
    batched = _raised(lambda: _run(spec))
    _patched_draws(monkeypatch, group, draws)
    assert batched == _raised(lambda: oracles.run_trials_loop(spec)) == (ValueError, "norms need finite function values")
    _patched_draws(monkeypatch, group, draws)
    argv = ["check", "algebra-bound", "--cocycle", "cobound:poly:2", "--weight", "poly:2", "--radius", "2",
            "--trials", "2", "--params", '{"C": 4.0}']
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: norms need finite function values\n"


def test_sandwich_error_is_the_first_failing_trials(monkeypatch, capsys):
    """Trial 1's two values add up past the largest float, so its norms are
    undefined; trials 0 and 2 are fine.  The batched check, the loop and
    the CLI stop at trial 1 with the same error."""
    group = parse_group("Z^d:2")
    draws = [[([1], 0.5)], [([0], 1e308), ([0], 1e308)], [([2], 1.0)]]
    spec = CheckSpec(check="sandwich", group="Z^d:2", trials=3)
    _patched_draws(monkeypatch, group, draws)
    batched = _raised(lambda: _run(spec))
    _patched_draws(monkeypatch, group, draws)
    assert batched == _raised(lambda: oracles.run_trials_loop(spec)) == (ValueError, "norms need finite function values")
    _patched_draws(monkeypatch, group, draws)
    assert main(["check", "sandwich", "--group", "Z^d:2", "--trials", "3"]) == 2
    assert capsys.readouterr().err == "error: norms need finite function values\n"


def test_intertwining_error_names_the_first_failing_trials_pair(monkeypatch):
    """|Omega| is the coboundary of poly:2, not of poly:1, so the two agree
    only on pairs with the identity: trial 0 passes, trial 1 fails at its
    first pair of two other points."""
    group = parse_group("Z^d:2")
    draws = [[([], 1.0)], [([8], 2.0)], [([], 1.0), ([8], 1.0)], [([8], 1.0)]]
    spec = CheckSpec(check="intertwine", group="Z^d:2", cocycle="cobound:poly:2", weight="poly:1", trials=2)
    _patched_draws(monkeypatch, group, draws)
    batched = _raised(lambda: _run(spec))
    _patched_draws(monkeypatch, group, draws)
    assert batched == _raised(lambda: oracles.run_trials_loop(spec))
    assert batched[1] == "|Omega| is not the coboundary of poly:1 at ((1, 1), (1, 1))"


def test_differential_cover_error_is_the_first_uncovered_trials():
    group = parse_group("Z^d:1")
    draws = [[([2], 1.0)], [([], 1.0)], [([2] * 5, 1.0)], [([2] * 4, 1.0)]]
    built = build_supported_functions(group, draws)
    ctx = AlgebraContext(cocycle=parse_cocycle(group, "bichar:0.9"), pair=lp_pair(2.0),
                         weight=parse_weight(group, "subexp:0.5:1"))
    f, g = built.take([0, 2]), built.take([1, 3])
    batched = _raised(lambda: check_differential_bound(f, g, ctx, 3))
    fs = [oracles.function_of_draw_loop(group, d) for d in draws]
    assert batched == _raised(lambda: oracles.check_differential_bound_loop(fs[2], fs[3], ctx, 3))
    assert batched == (ValueError, "radius 3 does not cover the supports (need 5)")


def test_batch_of_one_matches_the_batch():
    group = parse_group("H3")
    rng = np.random.default_rng(3)
    fs = [random_supported_function(group, rng, radius=2) for _ in range(8)]
    omega, _ = _context(group, "prod")
    whole = check_associativity(FunctionBatch.of(group, fs[:4]), FunctionBatch.of(group, fs[4:]),
                                FunctionBatch.of(group, fs[:4]), omega)
    for i in range(4):
        one = check_associativity(*oracles.singletons(fs[i], fs[4 + i], fs[i]), omega)
        assert (_bits(float(one.value[0])), one.witness[0]) == (_bits(float(whole.value[i])), whole.witness[i])

