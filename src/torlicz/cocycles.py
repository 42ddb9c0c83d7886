"""Normalized 2-cocycles on discrete groups.

A 2-cocycle is a map Omega: G x G -> C* with

    Omega(r, s) Omega(rs, t) = Omega(s, t) Omega(r, st)
    Omega(r, e) = Omega(e, r) = 1.

A ``Cocycle`` is a frozen record: a scalar function evaluated afresh on
every call (no value is cached) and, for most cocycles, a table form.
``Cocycle.table(S, T)`` gives the values on two broadcast int64 coordinate
arrays (paired rows, or ``S[:, None]`` and ``T[None]`` for all of S x T)
with the same bits as the scalar calls, which it maps itself where the
cocycle has no table form; it never returns None.  The twisted convolution
reads it on large supports, and the sampled cocycle check on paired rows.
The ball-pair checks (the cocycle identity, the domination bound and the
polar split) read dense value tables from ``value_table``: ``table`` where
the group has ``op_many``, else the scalar pair loop.  Every cocycle splits
uniquely as |Omega| times a unimodular phase, and both parts are again
cocycles.

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

from .groups import Group, ball_elements, pair_table, product_classes, row_classes
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
    """``fn`` gives one value; ``tabulate``, when present, maps broadcast
    int64 coordinate arrays S (..., k) and T (..., k), plus their
    ``groups.product_classes`` when the caller has them (else None), to the
    complex array of fn(s, t) over the broadcast shape, equal to the scalar
    values bit for bit, or to None when it cannot (then ``table`` maps the
    scalar calls).  These four fields are all a cocycle holds."""

    group: Group
    fn: object
    name: str
    tabulate: object = None

    def __call__(self, s, t) -> complex:
        v = complex(self.fn(s, t))
        if v == 0:
            raise ValueError(f"cocycle {self.name} vanishes at {(s, t)}")
        return v

    def table(self, S: np.ndarray, T: np.ndarray, classes=None) -> np.ndarray:
        """The values at the row pairs of two broadcast int64 coordinate
        arrays as a complex array of their broadcast shape.  ``classes`` is
        ``product_classes(group, S, T)`` if already computed.  A zero value
        raises the scalar call's error at the first vanishing pair in
        row-major order."""
        tab = None if self.tabulate is None else self.tabulate(S, T, classes)
        S, T = np.broadcast_arrays(S, T)
        if tab is None:  # no table form, or it declined: the scalar calls
            pairs = zip(*(map(tuple, X.reshape(-1, X.shape[-1]).tolist()) for X in (S, T)))
            return np.array([self(s, t) for s, t in pairs], dtype=complex).reshape(S.shape[:-1])
        if not tab.all():
            at = tuple(np.argwhere(tab == 0)[0])
            key = (tuple(S[at].tolist()), tuple(T[at].tolist()))
            raise ValueError(f"cocycle {self.name} vanishes at {key}")
        return tab

    def __repr__(self):  # pragma: no cover
        return f"Cocycle({self.name} on {self.group.name})"


def one_cocycle(group: Group) -> Cocycle:
    def tabulate(S, T, _):
        return np.ones(np.broadcast_shapes(S.shape[:-1], T.shape[:-1]), dtype=complex)

    return Cocycle(group, lambda s, t: 1.0, "one", tabulate)


def coboundary_from_weight(w: Weight) -> Cocycle:
    """The positive real coboundary (s, t) -> w(st) / (w(s) w(t)); its
    phase part is identically 1."""
    group = w.group

    def fn(s, t):
        return w(group.op(s, t)) / (w(s) * w(t))

    def tabulate(S, T, classes):
        if classes is None:
            classes = product_classes(group, S, T)
        parts = (classes, row_classes(S), row_classes(T))
        if None in parts:  # keys overflow int64
            return None
        # one weight call per distinct element, then a gather
        w_st, w_s, w_t = (
            np.array([w(tuple(g)) for g in rows[first].tolist()])[inverse] for rows, first, inverse in parts
        )
        return (w_st / (w_s * w_t)).astype(complex)

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
        a, ia = np.unique(S[..., -1], return_inverse=True)
        b, ib = np.unique(T[..., 0], return_inverse=True)
        vals = np.array([[pairing(x, y) for y in b.tolist()] for x in a.tolist()], dtype=complex)
        return vals[ia.reshape(S.shape[:-1]), ib.reshape(T.shape[:-1])]

    return Cocycle(group, fn, f"bichar:{theta:g}", tabulate)


def product_cocycle(c1: Cocycle, c2: Cocycle) -> Cocycle:
    if c1.group is not c2.group and c1.group.name != c2.group.name:
        raise ValueError("product of cocycles on different groups")

    # complex() on both factors: a float factor multiplies as (x, 0.0) on
    # every Python version, as it does in the table
    def fn(s, t):
        return complex(c1(s, t)) * complex(c2(s, t))

    def tabulate(S, T, classes):
        return complex_product(c1.table(S, T, classes), c2.table(S, T, classes))

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
        return np.hypot(tab.real, tab.imag).astype(complex)

    def phase_table(S, T, classes):
        tab = omega.table(S, T, classes)
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
    (len(A), len(B)) array.  ``Cocycle.table`` on int64 coordinate arrays
    when the group has ``op_many``; otherwise the scalar double loop, which
    is also the exact form the tables are tested against."""
    if omega.group.op_many is not None:
        try:
            return omega.table(np.array(A, dtype=np.int64)[:, None], np.array(B, dtype=np.int64)[None])
        except ValueError:
            pass  # a zero value: the loop raises the scalar call's error
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
    NaN residual at any triple makes the identity residual NaN, and a NaN
    value makes ``sup_abs`` NaN.

    Above ``TRIPLE_CAP`` total triples, a random sample of
    ``SAMPLE_TRIPLES`` triples drawn with ``seed`` is checked instead and
    the report says so.  The sample runs on ``op_many`` and paired-row
    ``Cocycle.table`` arrays, so a group without ``op_many`` (the finite
    central-extension models) takes the full check at any size.
    """
    group = omega.group
    elems = ball_elements(group, radius)
    n1 = len(elems)

    if n1**3 <= TRIPLE_CAP or group.op_many is None:
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

    # one draw of shape (SAMPLE_TRIPLES, 3) repeats the draws of one triple at a time
    idx = np.random.default_rng(seed).integers(0, n1, size=(SAMPLE_TRIPLES, 3))
    r, s, t = np.array(elems, dtype=np.int64)[idx].transpose(1, 0, 2)
    w_rs, w_rs_t = omega.table(r, s), omega.table(group.op_many(r, s), t)
    w_st, w_r_st = omega.table(s, t), omega.table(r, group.op_many(s, t))
    # complex_product and hypot round as Python's complex * and abs
    d = complex_product(w_rs, w_rs_t) - complex_product(w_st, w_r_st)
    diff = np.hypot(d.real, d.imag)
    k = int(np.argmax(diff))  # the first NaN, if any
    worst = float(diff[k])
    witness = None if worst <= 0.0 else tuple(elems[int(x)] for x in idx[k])
    sup_abs = float(np.maximum(np.hypot(w_rs.real, w_rs.imag).max(), np.hypot(w_st.real, w_st.imag).max()))
    e = [group.identity]
    ones = np.concatenate([value_table(omega, elems, e).ravel(), value_table(omega, e, elems).ravel()]) - 1.0
    norm_res = float(np.hypot(ones.real, ones.imag).max())
    return CocycleReport(worst, norm_res, sup_abs, witness, SAMPLE_TRIPLES, True)


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
    expo = {(s, t): _root_exponent(omega_t(s, t), n) for s in elems for t in elems}

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
    values = {(s, k): zeta ** (-k) * v for s, v in f.values.items() for k in range(n)}
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
