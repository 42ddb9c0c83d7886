"""Weight families on discrete groups and their hypothesis checkers.

Weights here are positive functions with w(e) = 1 and 1/w bounded.  The
three length-function families are

    poly      (1 + tau)^beta
    subexp    exp(C tau^alpha),            0 < alpha <= 1
    subexp2   exp(C tau / ln(1 + tau)^gamma)   (value 1 at the identity)

plus quotients, the block weight on the truncated Z_2 sum, and constants.

Every "for all s, t" hypothesis (submultiplicativity, weak subadditivity,
symmetry, domination) is checked over finite balls U^r x U^r and the report
carries the radius; that is the only honest finite-scale semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import Group, ball_elements, block_index, pair_table, row_classes, word_length


class WeightParameterError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Weight:
    """A weight: ``fn`` maps a group element to its value.  ``of_tau``, set
    on the length-function families (and their quotients and ``const``), maps
    a word length tau to the value every element of that length has, so
    callers can evaluate it once per length and gather; block weights and
    user callables have None."""

    group: Group
    fn: object
    name: str
    of_tau: object = None

    def __call__(self, s) -> float:
        return self.fn(s)

    def __repr__(self):  # pragma: no cover
        return f"Weight({self.name} on {self.group.name})"


def weight_values(w, elements) -> list:
    """w(s) at each element, bit for bit: a weight with ``of_tau`` is
    evaluated once per distinct word length and gathered, any other callable
    once per element."""
    of_tau = getattr(w, "of_tau", None)
    if of_tau is None:
        return [w(s) for s in elements]
    lengths = [word_length(w.group, s) for s in elements]
    by_length = {t: of_tau(t) for t in set(lengths)}
    return [by_length[t] for t in lengths]


def class_weights(w, classes) -> np.ndarray:
    """w at every row classed by ``groups.row_classes`` (its ``(rows,
    first, inverse)``), as an array of the shape of ``inverse``:
    ``weight_values`` at the distinct rows, gathered.  A weight with
    ``of_tau`` on a group with ``length_many`` takes the distinct rows'
    lengths as one array and calls ``of_tau`` once per distinct length, on
    a Python int, so the values are ``weight_values``' bit for bit."""
    rows, first, inverse = classes
    of_tau = getattr(w, "of_tau", None)
    if of_tau is None or w.group.length_many is None:
        return np.array(weight_values(w, map(tuple, rows[first].tolist())))[inverse]
    lengths, at = np.unique(w.group.length_many(rows[first]), return_inverse=True)
    return np.array([of_tau(t) for t in lengths.tolist()], dtype=float)[at][inverse]


def weight_table(w, coords: np.ndarray) -> np.ndarray:
    """w (a weight or any callable on elements) at every row of an int64
    coordinate array (..., k), as an array of shape ``coords.shape[:-1]``:
    one evaluation per distinct row."""
    return class_weights(w, row_classes(coords))


def _tau_weight(group: Group, name: str, of_tau) -> Weight:
    return Weight(group=group, fn=lambda s: of_tau(word_length(group, s)), name=name, of_tau=of_tau)


def constant_weight(group: Group) -> Weight:
    return Weight(group=group, fn=lambda s: 1.0, name="const", of_tau=lambda t: 1.0)


def make_poly_weight(group: Group, beta: float) -> Weight:
    if beta < 0:
        raise WeightParameterError("poly weight needs beta >= 0")
    return _tau_weight(group, f"poly:{beta:g}", lambda t: (1.0 + t) ** beta)


def make_subexp_weight(group: Group, alpha: float, c: float) -> Weight:
    if not (0.0 < alpha <= 1.0) or c <= 0:
        raise WeightParameterError("subexp weight needs 0 < alpha <= 1 and C > 0")
    return _tau_weight(
        group, f"subexp:{alpha:g}:{c:g}", lambda t: math.exp(c * t**alpha)
    )


def make_subexp2_weight(group: Group, gamma: float, c: float) -> Weight:
    """exp(C tau / ln(1+tau)^gamma); the formula is 0/0 at the identity,
    where the value is defined to be 1 so that w(e) = 1."""
    if gamma <= 0 or c <= 0:
        raise WeightParameterError("subexp2 weight needs gamma > 0 and C > 0")

    def of_tau(t: int) -> float:
        if t == 0:
            return 1.0
        return math.exp(c * t / math.log1p(t) ** gamma)

    return _tau_weight(group, f"subexp2:{gamma:g}:{c:g}", of_tau)


def quotient_weight(sigma: Weight, omega: Weight) -> Weight:
    """Pointwise sigma/omega.  Submultiplicativity of the quotient is the
    caller's hypothesis to verify via check_submultiplicative."""
    if sigma.group is not omega.group and sigma.group.name != omega.group.name:
        raise ValueError("quotient_weight needs weights on the same group")

    def of_tau(t: int) -> float:
        return sigma.of_tau(t) / omega.of_tau(t)

    return Weight(
        group=sigma.group,
        fn=lambda s: sigma(s) / omega(s),
        name=f"quot:{sigma.name}/{omega.name}",
        of_tau=None if sigma.of_tau is None or omega.of_tau is None else of_tau,
    )


def make_block_weight(group: Group, levels) -> Weight:
    """Block weight 1 + sum_i n_i on the chain gaps G_{i+1} minus G_i of the
    truncated Z_2 sum; requires increasing levels >= 1.

    Construction verifies on samples that w(st) <= max(w(s), w(t)); equality
    can fail (take t = s^{-1}), so only <= is promised.
    """
    levels = [float(x) for x in levels]
    if any(x < 1 for x in levels) or any(b <= a for a, b in zip(levels, levels[1:])):
        raise WeightParameterError("block levels must be increasing and >= 1")
    n_coords = len(group.identity)
    if len(levels) < n_coords - 1:
        raise WeightParameterError(
            f"need at least {n_coords - 1} levels for {group.name}"
        )

    def fn(s) -> float:
        top = block_index(group, s)
        if top <= 1:
            return 1.0
        return 1.0 + levels[top - 2]

    w = Weight(group=group, fn=fn, name="block")
    rng = np.random.default_rng(0xB10C)
    elems = ball_elements(group, n_coords)
    for _ in range(64):
        s = elems[int(rng.integers(0, len(elems)))]
        t = elems[int(rng.integers(0, len(elems)))]
        if w(group.op(s, t)) > max(w(s), w(t)) + 1e-12:
            raise AssertionError("block weight violated w(st) <= max(w(s), w(t))")
    return w


# ---------------------------------------------------------------------------
# Ball-pair checkers


def length_values(w: Weight, n: int) -> tuple:
    """(sizes, values) out to length n: the sphere sizes |S_0|, |S_1|, ...
    of w's group, without the empty spheres past the last layer of a finite
    group, and ``w.of_tau`` at each of those lengths (one call per length,
    so no length beyond the group is evaluated)."""
    sizes = [k for k in w.group.sphere_sizes(n) if k]  # only trailing ones are 0
    return sizes, np.fromiter(map(w.of_tau, range(len(sizes))), dtype=float, count=len(sizes))


def _ball_values(w: Weight, radius: int, elems: list) -> np.ndarray:
    """w at each element of the radius ball ``elems`` (BFS order): the
    per-length values repeated over their spheres when w has ``of_tau``,
    else ``weight_values``.  Both give the same floats."""
    if w.of_tau is None:
        return np.array(weight_values(w, elems))
    sizes, values = length_values(w, radius)
    return np.repeat(values, sizes)


@dataclass(frozen=True)
class PairCheck:
    constant: float
    witness: tuple
    radius: int


def ball_pair_max(weights: tuple, radius: int, table) -> PairCheck:
    """The largest entry of ``table(w1(st), w1(s), w2(st), w2(s), ...)``
    over the radius ball pairs (s, t), given each weight's values at the
    products as a (|U^r|, |U^r|) array and on the ball as a vector, with
    its first argmax pair as the witness."""
    elems, elems2, prod = pair_table(weights[0].group, radius)
    args = []
    for w in weights:
        v2 = _ball_values(w, 2 * radius, elems2)
        args += (v2[prod], v2[: len(elems)])
    ratios = table(*args)
    i, j = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    return PairCheck(float(ratios[i, j]), (elems[i], elems[j]), radius)


def check_submultiplicative(w: Weight, radius: int) -> PairCheck:
    """K = max over ball pairs of w(st) / (w(s) w(t)), with an argmax
    witness pair."""
    return ball_pair_max((w,), radius, lambda wst, v: wst / np.outer(v, v))


def check_weak_subadditive(w: Weight, radius: int) -> PairCheck:
    """Least C with w(st) <= C (w(s) + w(t)) over ball pairs."""
    return ball_pair_max((w,), radius, lambda wst, v: wst / (v[:, None] + v[None, :]))


def check_symmetric(w: Weight, radius: int) -> bool:
    """Exact comparison w(s) == w(s^{-1}) over the ball."""
    for g in ball_elements(w.group, radius):
        if w(g) != w(w.group.inv(g)):
            return False
    return True


def check_grs(w: Weight, s, n_max: int) -> np.ndarray:
    """The sequence w(s^n)^(1/n), n = 1..n_max.  A trend report: the GRS
    condition is a limit statement and is never decided here."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    out = np.empty(n_max)
    g = w.group.identity
    for n in range(1, n_max + 1):
        g = w.group.op(g, s)
        out[n - 1] = w(g) ** (1.0 / n)
    return out


def check_lss_domination(sigma: Weight, omega: Weight, radius: int) -> PairCheck:
    """Least empirical M with

        sigma(st)/(sigma(s)sigma(t)) <= M omega(st)/(omega(s)omega(t))

    over ball pairs; equals the submultiplicative constant of sigma/omega."""
    if sigma.group is not omega.group and sigma.group.name != omega.group.name:
        raise ValueError("check_lss_domination needs weights on one group")
    return ball_pair_max(
        (sigma, omega), radius, lambda sst, sv, ost, ov: (sst * np.outer(ov, ov)) / (np.outer(sv, sv) * ost)
    )


# ---------------------------------------------------------------------------
# The concave-difference analysis backing the subexp2 quotient


@dataclass(frozen=True)
class PFunctionResult:
    x0: float
    m_const: float
    max_defect: float
    violations: int
    params: tuple


class PFunctionError(RuntimeError):
    pass


# analyze_p_function: range end, largest x0, scan and grid-axis points
P_X_MAX = 1.0e6
P_X0_BOUND = 1.0e5
P_SCAN_POINTS = 4000
P_GRID_POINTS = 200


def analyze_p_function(beta: float, gamma: float, c: float) -> PFunctionResult:
    """Analyze p(x) = C x / ln(e + x)^beta - gamma ln(1 + x).

    Locates x0 so that on a dense grid of [x0, P_X_MAX] (P_SCAN_POINTS
    points from 1e-3) the function is positive with positive, decreasing
    finite-difference slope, then computes M = max(0, max p(x+y) - p(x) -
    p(y)) over a log-spaced P_GRID_POINTS x P_GRID_POINTS grid of
    [x0, P_X_MAX] x [0, P_X_MAX] and verifies 0 < p(x+y) <= p(x) + p(y) + M
    on that grid.  Raises PFunctionError when no x0 exists below P_X0_BOUND.
    """
    if beta <= 0 or gamma <= 0 or c <= 0:
        raise WeightParameterError("analyze_p_function needs beta, gamma, C > 0")

    def p(x):
        x = np.asarray(x, dtype=float)
        return c * x / np.log(math.e + x) ** beta - gamma * np.log1p(x)

    xs = np.geomspace(1e-3, P_X_MAX, P_SCAN_POINTS)
    h = 1e-4 * (1.0 + xs)
    slopes = (p(xs + h) - p(xs - h)) / (2.0 * h)
    pv = p(xs)
    good = (pv > 0) & (slopes > 0)
    good[:-1] &= slopes[1:] <= slopes[:-1] * (1.0 + 1e-9)
    # smallest grid index from which every later point is good
    bad = np.nonzero(~good)[0]
    start = 0 if bad.size == 0 else int(bad[-1]) + 1
    if start >= len(xs) or xs[start] > P_X0_BOUND:
        raise PFunctionError(
            f"no x0 below {P_X0_BOUND:g} for (beta, gamma, C) = ({beta:g}, {gamma:g}, {c:g})"
        )
    x0 = float(xs[start])

    xg = np.geomspace(x0, P_X_MAX, P_GRID_POINTS)
    yg = np.concatenate([[0.0], np.geomspace(1e-3, P_X_MAX, P_GRID_POINTS - 1)])
    px = p(xg)[:, None]
    py = p(yg)[None, :]
    pxy = p(xg[:, None] + yg[None, :])
    defect = pxy - px - py
    m_const = max(0.0, float(defect.max()))
    violations = int(np.sum(~((pxy > 0) & (pxy <= px + py + m_const + 1e-12))))
    return PFunctionResult(
        x0=x0,
        m_const=m_const,
        max_defect=float(defect.max()),
        violations=violations,
        params=(beta, gamma, c),
    )


# ---------------------------------------------------------------------------
# Spec strings


def parse_weight(group: Group, spec: str) -> Weight:
    """Weight spec strings: ``poly:{beta}``, ``subexp:{alpha}:{C}``,
    ``subexp2:{gamma}:{C}``, ``quot:{w1}/{w2}``, ``block:{n1,n2,...}``,
    ``const``."""
    spec = spec.strip()
    if spec == "const":
        return constant_weight(group)
    if spec.startswith("poly:"):
        return make_poly_weight(group, float(spec.split(":", 1)[1]))
    if spec.startswith("subexp2:"):
        g, c = spec.split(":")[1:]
        return make_subexp2_weight(group, float(g), float(c))
    if spec.startswith("subexp:"):
        a, c = spec.split(":")[1:]
        return make_subexp_weight(group, float(a), float(c))
    if spec.startswith("quot:"):
        body = spec.split(":", 1)[1]
        num, den = body.split("/", 1)
        return quotient_weight(parse_weight(group, num), parse_weight(group, den))
    if spec.startswith("block:"):
        levels = [float(t) for t in spec.split(":", 1)[1].split(",")]
        return make_block_weight(group, levels)
    raise ValueError(f"unknown weight spec {spec!r}")
