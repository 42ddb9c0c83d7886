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

from .groups import Group, ball_elements, block_index, pair_table, word_length


class WeightParameterError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Weight:
    group: Group
    fn: object
    name: str

    def __call__(self, s) -> float:
        return self.fn(s)

    def __repr__(self):  # pragma: no cover
        return f"Weight({self.name} on {self.group.name})"


def _tau_weight(group: Group, name: str, of_tau) -> Weight:
    memo: dict = {}

    def fn(s) -> float:
        v = memo.get(s)
        if v is None:
            v = of_tau(word_length(group, s))
            memo[s] = v
        return v

    return Weight(group=group, fn=fn, name=name)


def constant_weight(group: Group) -> Weight:
    return Weight(group=group, fn=lambda s: 1.0, name="const")


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
    return Weight(
        group=sigma.group,
        fn=lambda s: sigma(s) / omega(s),
        name=f"quot:{sigma.name}/{omega.name}",
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


@dataclass(frozen=True)
class PairCheck:
    constant: float
    witness: tuple
    radius: int


def check_submultiplicative(w: Weight, radius: int) -> PairCheck:
    """K = max over ball pairs of w(st) / (w(s) w(t)), with an argmax
    witness pair."""
    elems, elems2, prod = pair_table(w.group, radius)
    v2 = np.array([w(g) for g in elems2])
    v = v2[: len(elems)]
    ratios = v2[prod] / np.outer(v, v)
    i, j = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    return PairCheck(float(ratios[i, j]), (elems[i], elems[j]), radius)


def check_weak_subadditive(w: Weight, radius: int) -> PairCheck:
    """Least C with w(st) <= C (w(s) + w(t)) over ball pairs."""
    elems, elems2, prod = pair_table(w.group, radius)
    v2 = np.array([w(g) for g in elems2])
    v = v2[: len(elems)]
    ratios = v2[prod] / (v[:, None] + v[None, :])
    i, j = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    return PairCheck(float(ratios[i, j]), (elems[i], elems[j]), radius)


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
    elems, elems2, prod = pair_table(sigma.group, radius)
    sv2 = np.array([sigma(g) for g in elems2])
    ov2 = np.array([omega(g) for g in elems2])
    sv, ov = sv2[: len(elems)], ov2[: len(elems)]
    ratios = (sv2[prod] * np.outer(ov, ov)) / (np.outer(sv, sv) * ov2[prod])
    i, j = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    return PairCheck(float(ratios[i, j]), (elems[i], elems[j]), radius)


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
