"""Normalized 2-cocycles on discrete groups.

A 2-cocycle is a map Omega: G x G -> C* with

    Omega(r, s) Omega(rs, t) = Omega(s, t) Omega(r, st)
    Omega(r, e) = Omega(e, r) = 1.

A ``Cocycle`` is a frozen record: a scalar function evaluated afresh on
every call (no value is cached) and, for most cocycles, a table form,
``Cocycle.table(S, T)``, that fills the whole |S| x |T| value array at once
with the same bits as the scalar calls; the twisted convolution uses it on
large supports.
The ball-pair checks (the cocycle identity, the domination bound and the
polar split) read dense value tables from ``value_table``: the table form
where the group has ``op_many`` and the cocycle a table, else the scalar
pair loop.  Every cocycle splits uniquely as |Omega| times a unimodular
phase, and both parts are again cocycles.

The finite model of the circle extension realizes G x T as G x Z_n for
cocycles whose phase takes values in the n-th roots of unity.  With
counting measure on the fiber, the embedding Gamma(f)(s, k) = zeta^{-k} f(s)
intertwines the twisted and plain convolutions up to the factor 1/n
(the circle has total mass 1, the fiber has mass n); see
``central_extension_embed``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .groups import Group, ball_elements, pair_table, product_classes
from .orlicz import SupportedFunction
from .weights import Weight

# verify_cocycle checks all triples up to TRIPLE_CAP of them, else a sample
TRIPLE_CAP = 6_000_000
SAMPLE_TRIPLES = 200_000
ROOT_TOL = 1e-9  # distance from an n-th root of unity a value may have to count as one


class DominationViolation(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def complex_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise a * b, broadcast, rounded exactly as Python's complex
    multiply (numpy's own complex multiply may differ in the last bit)."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    # inf and nan parts propagate silently, as in Python's multiply
    with np.errstate(invalid="ignore", over="ignore"):
        out.real = a.real * b.real - a.imag * b.imag
        out.imag = a.real * b.imag + a.imag * b.real
    return out


@dataclass(frozen=True, eq=False)
class Cocycle:
    """``fn`` gives one value; ``tabulate``, when present, maps int64
    coordinate arrays S (m, k) and T (n, k), plus their
    ``groups.product_classes`` when the caller has them (else None), to the
    complex (m, n) array of fn(s, t), equal to the scalar values bit for
    bit, or to None when it cannot (then callers fall back to scalar
    calls).  These four fields are all a cocycle holds."""

    group: Group
    fn: object
    name: str
    tabulate: object = None

    def __call__(self, s, t) -> complex:
        v = complex(self.fn(s, t))
        if v == 0:
            raise ValueError(f"cocycle {self.name} vanishes at {(s, t)}")
        return v

    def table(self, S: np.ndarray, T: np.ndarray, classes=None) -> np.ndarray | None:
        """All values on S x T as a complex array, or None without a table
        form.  ``classes`` is ``product_classes(group, S, T)`` if already
        computed."""
        if self.tabulate is None:
            return None
        tab = self.tabulate(S, T, classes)
        if tab is not None and not tab.all():
            i, j = np.argwhere(tab == 0)[0]
            key = (tuple(S[i].tolist()), tuple(T[j].tolist()))
            raise ValueError(f"cocycle {self.name} vanishes at {key}")
        return tab

    def __repr__(self):  # pragma: no cover
        return f"Cocycle({self.name} on {self.group.name})"


def one_cocycle(group: Group) -> Cocycle:
    return Cocycle(
        group, lambda s, t: 1.0, "one", lambda S, T, _: np.ones((len(S), len(T)), dtype=complex)
    )


def coboundary_from_weight(w: Weight) -> Cocycle:
    """The positive real coboundary (s, t) -> w(st) / (w(s) w(t)); its
    phase part is identically 1."""
    group = w.group

    def fn(s, t):
        return w(group.op(s, t)) / (w(s) * w(t))

    def tabulate(S, T, classes):
        if classes is None:
            classes = product_classes(group, S, T)
        if classes is None:
            return None
        prods, first, inverse = classes
        w_st = np.array([w(tuple(p)) for p in prods[first].tolist()])[inverse]
        w_s = np.array([w(tuple(s)) for s in S.tolist()])
        w_t = np.array([w(tuple(t)) for t in T.tolist()])
        ratio = w_st.reshape(len(S), len(T)) / (w_s[:, None] * w_t[None, :])
        return ratio.astype(complex)

    return Cocycle(group, fn, f"cobound:{w.name}", tabulate)


def _end_orders(group: Group) -> tuple:
    """(n_first, n_last), the orders of the first and last factor of a
    ``Zn:`` group."""
    orders = [int(n) for n in group.name.split(":", 1)[1].split("x")]
    return orders[0], orders[-1]


def bicharacter_cocycle(group: Group, theta: float | None = None) -> Cocycle:
    """Unimodular bicharacter twists.

    On Z^d (d >= 2): Omega(x, y) = exp(i theta x_d y_1); on Z it pairs the
    single coordinates.  On cyclic groups and their products the same
    pairing applies with the default theta = 2 pi / gcd(n_first, n_last):
    the pairing multiplies a last coordinate in Z_{n_last} with a first one
    in Z_{n_first}, so it is well defined only when theta kills both
    orders.  The values are then gcd-th roots of unity; a gcd of 1 leaves
    only the trivial cocycle and is rejected.
    """
    if theta is None:
        if not group.name.startswith("Zn:"):
            raise ValueError("theta is required for infinite groups")
        first, last = _end_orders(group)
        n = math.gcd(first, last)
        if n == 1:
            raise ValueError(
                f"bichar on {group.name} needs an explicit theta: the default "
                f"2 pi / gcd({first}, {last}) is trivial"
            )
        theta = 2.0 * math.pi / n

    def pairing(a, b):
        return cmath.exp(1j * theta * a * b)

    def fn(s, t):
        return pairing(s[-1], t[0])

    def tabulate(S, T, _):
        # one scalar exp per distinct (s_last, t_first) pair, then a gather
        a, ia = np.unique(S[:, -1], return_inverse=True)
        b, ib = np.unique(T[:, 0], return_inverse=True)
        vals = np.array([[pairing(x, y) for y in b.tolist()] for x in a.tolist()], dtype=complex)
        return vals[np.ix_(ia, ib)]

    return Cocycle(group, fn, f"bichar:{theta:g}", tabulate)


def product_cocycle(c1: Cocycle, c2: Cocycle) -> Cocycle:
    if c1.group is not c2.group and c1.group.name != c2.group.name:
        raise ValueError("product of cocycles on different groups")

    # complex() on both factors: a float factor multiplies as (x, 0.0) on
    # every Python version, as it does in the table
    def fn(s, t):
        return complex(c1(s, t)) * complex(c2(s, t))

    def tabulate(S, T, classes):
        t1, t2 = c1.table(S, T, classes), c2.table(S, T, classes)
        return None if t1 is None or t2 is None else complex_product(t1, t2)

    return Cocycle(c1.group, fn, f"prod:{c1.name}*{c2.name}", tabulate)


def polar(omega: Cocycle):
    """The unique split Omega = |Omega| Omega_T into a positive part and a
    unimodular phase; both are cocycles and their product reconstructs
    Omega exactly."""

    def modulus_fn(s, t):
        return abs(omega(s, t))

    # v / |v| divided as by the complex (|v|, 0.0), written out in real
    # arithmetic: Python 3.14 divides a complex by a float componentwise,
    # which differs in the sign of zero, so both forms use this formula
    def phase_fn(s, t):
        v = complex(omega(s, t))
        mod = abs(v)
        return complex((v.real + v.imag * 0.0) / mod, (v.imag - v.real * 0.0) / mod)

    # np.hypot rounds like abs(complex) (np.abs may not)
    def modulus_table(S, T, classes):
        tab = omega.table(S, T, classes)
        return None if tab is None else np.hypot(tab.real, tab.imag).astype(complex)

    def phase_table(S, T, classes):
        tab = omega.table(S, T, classes)
        if tab is None:
            return None
        re, im = tab.real, tab.imag
        mod = np.hypot(re, im)
        out = np.empty_like(tab)
        out.real = (re + im * 0.0) / mod
        out.imag = (im - re * 0.0) / mod
        return out

    return (
        Cocycle(omega.group, modulus_fn, f"abs({omega.name})", modulus_table),
        Cocycle(omega.group, phase_fn, f"phase({omega.name})", phase_table),
    )


# ---------------------------------------------------------------------------
# Verification


def value_table(omega: Cocycle, A: list, B: list) -> np.ndarray:
    """omega(s, t) for s in A, t in B (ball elements) as a complex
    (len(A), len(B)) array.  The cocycle's table form on int64 coordinate
    arrays when the group has ``op_many`` and the cocycle a table; otherwise
    the scalar double loop, which is also the exact form the tables are
    tested against."""
    if omega.group.op_many is not None:
        try:
            tab = omega.table(np.array(A, dtype=np.int64), np.array(B, dtype=np.int64))
        except ValueError:
            tab = None  # a zero value: the loop raises the scalar call's error
        if tab is not None:
            return tab
    return _value_table_loop(omega, A, B)


def _value_table_loop(omega: Cocycle, A: list, B: list) -> np.ndarray:
    w = np.empty((len(A), len(B)), dtype=complex)
    for i, s in enumerate(A):
        for j, t in enumerate(B):
            w[i, j] = omega(s, t)
    return w


@dataclass(frozen=True)
class CocycleReport:
    identity_residual: float
    normalization_residual: float
    sup_abs: float
    witness: tuple | None
    n_triples: int
    sampled: bool


def verify_cocycle(omega: Cocycle, radius: int, seed: int = 0) -> CocycleReport:
    """Max residual of the cocycle identity over all triples from the
    radius ball (arguments of the identity reach the 2*radius ball), plus
    the normalization residual and sup |Omega| over the scanned pairs.  A
    NaN residual at any triple makes the identity residual NaN.

    Above ``TRIPLE_CAP`` total triples, a random sample of
    ``SAMPLE_TRIPLES`` triples drawn with ``seed`` is checked instead and
    the report says so.
    """
    group = omega.group
    elems = ball_elements(group, radius)
    n1 = len(elems)

    if n1**3 <= TRIPLE_CAP:
        _, elems2, prod = pair_table(group, radius)
        w = value_table(omega, elems2, elems2)
        worst = 0.0
        witness = None
        wsub = w[:n1, :n1]
        for r in range(n1):
            lhs = w[r, :n1][:, None] * w[prod[r], :n1]
            rhs = wsub * np.take(w[r], prod)
            diff = np.abs(lhs - rhs)
            k = int(np.argmax(diff))  # the first NaN, if any
            if not (diff.flat[k] <= worst or math.isnan(worst)):
                worst = float(diff.flat[k])
                i, j = np.unravel_index(k, diff.shape)
                witness = (elems[r], elems[i], elems[j])
        # BFS lists the identity first
        norm_res = float(max(np.abs(w[0, :] - 1.0).max(), np.abs(w[:, 0] - 1.0).max()))
        sup_abs = float(np.abs(w).max())
        return CocycleReport(worst, norm_res, sup_abs, witness, n1**3, False)

    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = None
    sup_abs = 0.0
    for _ in range(SAMPLE_TRIPLES):
        r, s, t = (elems[int(k)] for k in rng.integers(0, n1, size=3))
        rs = group.op(r, s)
        st = group.op(s, t)
        lhs = omega(r, s) * omega(rs, t)
        rhs = omega(s, t) * omega(r, st)
        sup_abs = max(sup_abs, abs(omega(r, s)), abs(omega(s, t)))
        d = abs(lhs - rhs)
        if not (d <= worst or math.isnan(worst)):
            worst, witness = float(d), (r, s, t)
    norm_res = 0.0
    for g in elems:
        norm_res = max(
            norm_res, abs(omega(g, group.identity) - 1.0), abs(omega(group.identity, g) - 1.0)
        )
    return CocycleReport(worst, float(norm_res), float(sup_abs), witness, SAMPLE_TRIPLES, True)


# ---------------------------------------------------------------------------
# Domination pairs


@dataclass(frozen=True)
class DominationPair:
    """Nonnegative u, v on a ball with |Omega(s,t)| <= u(s) + v(t) there;
    carries their Luxemburg norms under Psi.  The twisted-algebra constant
    is N_Psi(u) + N_Psi(v)."""

    group: Group
    u: dict
    v: dict
    n_psi_u: float
    n_psi_v: float
    radius: int

    @property
    def algebra_constant(self) -> float:
        return self.n_psi_u + self.n_psi_v


def domination_from_subadditive(omega: Cocycle, ell: Weight, c: float, pair, radius: int) -> DominationPair:
    """Domination u = v = C / ell on the radius ball, verified against
    |Omega| over all ball pairs; raises DominationViolation with a witness
    pair when the bound fails."""
    from .orlicz import luxemburg_norm

    group = omega.group
    elems = ball_elements(group, radius)
    u = {s: c / ell(s) for s in elems}
    tab = value_table(omega, elems, elems)
    u_vals = np.array(list(u.values()))
    # relative guard: when c comes from the empirical weak-subadditivity
    # maximum, the witness pair is a genuine equality case
    bad = np.hypot(tab.real, tab.imag) > (u_vals[:, None] + u_vals[None, :]) * (1.0 + 1e-12)
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)  # the loop's first violation
        s, t = elems[i], elems[j]
        raise DominationViolation(
            f"|Omega({s},{t})| = {abs(complex(tab[i, j])):g} exceeds u(s)+v(t) = {u[s] + u[t]:g}",
            witness=(s, t),
        )
    uf = SupportedFunction(group, {s: complex(x) for s, x in u.items()})
    n_psi = luxemburg_norm(uf, pair.psi)
    return DominationPair(group=group, u=u, v=dict(u), n_psi_u=n_psi, n_psi_v=n_psi, radius=radius)


# ---------------------------------------------------------------------------
# Finite central extension


def _root_exponent(value: complex, n: int) -> int:
    k = round(cmath.phase(value) / (2.0 * math.pi / n)) % n
    if abs(value - cmath.exp(2j * math.pi * k / n)) > ROOT_TOL:
        raise ValueError(f"cocycle value {value!r} is not an {n}-th root of unity")
    return k


def central_extension_group(base: Group, omega_t: Cocycle, n: int) -> Group:
    """G x Z_n with the product (s, a)(t, b) = (st, a + b + c(s, t)) where
    Omega_T(s, t) = zeta^c(s,t); requires a finite base group and phase
    values that are exactly n-th roots of unity.  Build it once and pass it
    to every ``central_extension_embed``."""
    if base.order is None:
        raise ValueError("central extension model needs a finite base group")
    elems = ball_elements(base, base.order)  # exhausts the finite group
    expo = {}
    for s in elems:
        for t in elems:
            expo[(s, t)] = _root_exponent(omega_t(s, t), n)

    def op(x, y):
        (s, a), (t, b) = x, y
        return (base.op(s, t), (a + b + expo[(s, t)]) % n)

    def inv(x):
        s, a = x
        si = base.inv(s)
        return (si, (-a - expo[(s, si)]) % n)

    ident = (base.identity, 0)
    generators = tuple((g, k) for g in elems for k in range(n))
    return Group(
        name=f"{base.name}xZ{n}",
        op=op,
        inv=inv,
        identity=ident,
        generators=generators,
        order=base.order * n,
    )


def central_extension_embed(f: SupportedFunction, ext: Group) -> SupportedFunction:
    """Gamma(f)(s, k) = zeta^{-k} f(s) on the finite extension
    ext = G x Z_n built by ``central_extension_group(f.group, omega_t, n)``.

    Convention: with counting measure on the fiber (each point has mass 1,
    the circle it models has total mass 1), Gamma(f twisted* g) equals
    (1/n) Gamma(f) * Gamma(g).
    """
    n = ext.order // f.group.order if ext.order and f.group.order else 0
    if ext.name != f"{f.group.name}xZ{n}":
        raise ValueError(f"{ext.name} is not a central extension of {f.group.name}")
    zeta = cmath.exp(2j * math.pi / n)
    values = {}
    for s, v in f.values.items():
        for k in range(n):
            values[(s, k)] = zeta ** (-k) * v
    return SupportedFunction(ext, values)


# ---------------------------------------------------------------------------
# Spec strings


def parse_cocycle(group: Group, spec: str) -> Cocycle:
    """Cocycle spec strings: ``cobound:{weight-spec}``, ``bichar:{theta}``
    (``bichar:`` picks the root-of-unity default on cyclic groups, where an
    explicit theta must kill both end orders),
    ``prod:{c1}*{c2}``, ``one``."""
    from .weights import parse_weight

    spec = spec.strip()
    if spec == "one":
        return one_cocycle(group)
    if spec.startswith("cobound:"):
        return coboundary_from_weight(parse_weight(group, spec.split(":", 1)[1]))
    if spec.startswith("bichar"):
        body = spec.split(":", 1)[1] if ":" in spec else ""
        theta = float(body) if body else None
        if theta is not None and not math.isfinite(theta):
            raise ValueError(f"bichar:{body} is not a cocycle on {group.name}: theta must be finite")
        if theta is not None and group.name.startswith("Zn:"):
            # theta kills both end orders iff it is a multiple of 2 pi / gcd
            first, last = _end_orders(group)
            n = math.gcd(first, last)
            if not abs(cmath.exp(1j * theta * n) - 1.0) <= ROOT_TOL:
                raise ValueError(
                    f"bichar:{body} is not a cocycle on {group.name}: theta must be a "
                    f"multiple of 2 pi / gcd({first}, {last}) = {2.0 * math.pi / n!r}"
                )
        return bicharacter_cocycle(group, theta)
    if spec.startswith("prod:"):
        body = spec.split(":", 1)[1]
        left, right = body.split("*", 1)
        return product_cocycle(parse_cocycle(group, left), parse_cocycle(group, right))
    raise ValueError(f"unknown cocycle spec {spec!r}")
