"""Discrete groups with word metrics.

A group is described by its operation, inverse, identity, and a finite
symmetric generating set U.  The length function

    tau(g) = least n with g in U^n,   tau(e) = 0,

is computed by breadth-first search over the Cayley graph, one layer at a
time; layers are memoized so repeated queries are cheap.  Groups with an
exact closed form for the word length (``length_hint``) or for the sphere
sizes |S_n| = #{g : tau(g) = n} (``sphere_hint``) answer those queries
without a BFS.  Every group has an array product (``op_many``,
elementwise on broadcast int64 coordinate arrays); a layer with at least
``BFS_ARRAY_MIN_PRODUCTS`` frontier x generator products is one numpy step
with the scalar loop's element order, a shorter one runs the loop.
Elements held as int64 coordinate rows are classed through one packed key
per row in [0, span): by a direct table of the span when it holds at most
a few slots per key (a running count of the keys present ranks them, and
the ball-pair table looks product keys up), by np.unique's sort otherwise;
``row_classes`` sorts the rows themselves where the keys overflow int64.
Ball sizes lambda(U^n) use the counting measure, which is the Haar measure
throughout this package (all provided groups are discrete and unimodular,
so the modular function is identically 1).

Provided constructors: the integer lattices Z^d with the generating set
{-1,0,1}^d, the discrete Heisenberg group H3(Z), finite cyclic groups
Z_n and their direct products, and the truncated direct sum of copies
of Z_2 ("block group") with its nested subgroup chain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

# BFS budgets: the largest radius word_length searches and the most
# elements a BFS index may hold.  Read at call time, so rebinding them
# takes effect at once.
DEFAULT_MAX_RADIUS = 64
DEFAULT_MAX_ELEMENTS = 5_000_000

# Frontier x generator products below which a BFS layer is built by the
# scalar loop: numpy's fixed cost per layer loses on short layers (4,096
# two-element layers of Z^1 took 228 ms as arrays against 43 ms in the
# loop), and the Z^1 balls of the ball-pair checks still walk such layers.
BFS_ARRAY_MIN_PRODUCTS = 256


class BudgetError(RuntimeError):
    """A BFS exceeded its configured radius or element budget."""


@dataclass(frozen=True, eq=False)
class Group:
    """A finitely generated discrete group with canonical hashable elements.

    ``generators`` must be symmetric (closed under inverse; it may contain
    the identity).  ``length_hint``, when present, is an exact closed form
    for the word length, and ``sphere_hint`` one for the sphere sizes
    ``sphere_sizes`` returns; both are validated against BFS layers in the
    test suite.  ``order`` is the group order for finite groups, else None.
    Elements are flat tuples of k integers, and ``op_many`` is ``op`` on
    int64 coordinate arrays of shape (..., k), elementwise under numpy
    broadcasting: paired rows give paired products, ``op_many(S[:, None],
    T[None])`` all of S x T.
    """

    name: str
    op: Callable
    inv: Callable
    identity: tuple
    generators: tuple
    op_many: Callable
    length_hint: Callable | None = None
    order: int | None = None
    sphere_hint: Callable | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        gens = set(self.generators)
        for u in gens:
            if self.inv(u) not in gens:
                raise ValueError(f"generating set of {self.name} is not symmetric at {u}")

    def sphere_sizes(self, n: int) -> list[int]:
        """|S_0|, ..., |S_n|, with S_k the elements of length exactly k: the
        closed form where one is registered, else the BFS layer counts
        (zero past the last layer of a finite group)."""
        if self.sphere_hint is not None:
            return self.sphere_hint(n)
        return list(map(len, ball_table(self, n).layers))

    def __repr__(self):  # pragma: no cover
        return f"Group({self.name})"


@dataclass(frozen=True)
class BallTable:
    """BFS layers of the word metric: ``layers[n]`` holds the elements of
    length exactly n, ``sizes[n]`` the cumulative count lambda(U^n)."""

    group: Group
    layers: tuple
    sizes: tuple

    def elements(self) -> list:
        return list(itertools.chain.from_iterable(self.layers))


# ---------------------------------------------------------------------------
# BFS machinery


def _bfs_state(group: Group) -> dict:
    st = group._cache.get("bfs")
    if st is None:
        st = {
            "layers": [[group.identity]],
            "index": {group.identity: 0},
            "exhausted": False,
        }
        group._cache["bfs"] = st
    return st


def _extend_bfs(group: Group, radius: int) -> dict:
    st = _bfs_state(group)
    layers, index = st["layers"], st["index"]
    while len(layers) - 1 < radius and not st["exhausted"]:
        n = len(layers)
        nxt = None
        if len(layers[-1]) * len(group.generators) >= BFS_ARRAY_MIN_PRODUCTS:
            nxt = _next_layer_array(group, st)
        if nxt is None:
            nxt = []
            for g in layers[-1]:
                for u in group.generators:
                    h = group.op(g, u)
                    if h not in index:
                        index[h] = n
                        nxt.append(h)
        else:
            index.update(dict.fromkeys(nxt, n))
        if len(index) > DEFAULT_MAX_ELEMENTS:
            message = (
                f"ball of radius {n} on {group.name} exceeds the element budget "
                f"({len(index)} > {DEFAULT_MAX_ELEMENTS})"
            )
            for h in nxt:  # leave the state as it was before this layer
                del index[h]
            raise BudgetError(message)
        if nxt:
            layers.append(nxt)
        else:
            st["exhausted"] = True
    return st


def _next_layer_array(group: Group, st: dict) -> list | None:
    """The next BFS layer in numpy, or None when keys overflow int64.

    All products of the frontier with the generators, flattened row-major
    (the scalar loop's discovery order), keep their first occurrences minus
    the elements of the two previous layers.  With symmetric generators a
    product of a layer n-1 element lies in layer n-2, n-1 or n, so no older
    layer can reappear.  ``st["coords"]`` keeps the coordinate arrays of the
    last two layers built here for the next call.
    """
    layers = st["layers"]
    n = len(layers)
    cached = st.get("coords", {})
    frontier, before = (
        cached[k] if k in cached else np.array(layers[k], dtype=np.int64) for k in (n - 1, max(n - 2, 0))
    )
    old = frontier if n == 1 else np.concatenate([frontier, before])
    prods = group.op_many(frontier[:, None], np.array(group.generators, dtype=np.int64)[None])
    prods = prods.reshape(-1, prods.shape[-1])
    packed = _element_keys(np.concatenate([old, prods]))
    if packed is None:
        return None
    first, _ = _key_classes(*packed)
    new = prods[np.sort(first[first >= len(old)]) - len(old)]
    st["coords"] = {n - 1: frontier, n: new}
    return list(map(tuple, new.tolist()))


def word_length(group: Group, g) -> int:
    """Least n with g in U^n.  Uses the group's exact closed form when one
    is registered, otherwise BFS with memoized layers.

    Raises BudgetError if g is not found within ``DEFAULT_MAX_RADIUS``
    layers, or a layer on the way takes the ball past
    ``DEFAULT_MAX_ELEMENTS`` elements.
    """
    if group.length_hint is not None:
        return group.length_hint(g)
    st = _bfs_state(group)
    index = st["index"]  # extended in place
    while g not in index:
        reached = len(st["layers"]) - 1
        if st["exhausted"] or reached >= DEFAULT_MAX_RADIUS:
            raise BudgetError(f"element {g} of {group.name} not reached within radius {DEFAULT_MAX_RADIUS}")
        _extend_bfs(group, reached + 1)
    return index[g]


def ball_table(group: Group, radius: int) -> BallTable:
    """BFS layers and cumulative sizes out to the given radius.

    For a finite group the layer sequence is padded with empty layers once
    the group is exhausted, so ``sizes`` stabilizes at the group order.
    """
    layers = [tuple(layer) for layer in _extend_bfs(group, radius)["layers"][: radius + 1]]
    layers += [()] * (radius + 1 - len(layers))
    sizes = tuple(itertools.accumulate(map(len, layers)))
    return BallTable(group=group, layers=tuple(layers), sizes=sizes)


def ball_elements(group: Group, radius: int) -> list:
    return ball_table(group, radius).elements()


def ball_sizes(group: Group, n_max: int) -> list[int]:
    """lambda(U^1), ..., lambda(U^n_max), summed from ``Group.sphere_sizes``."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return list(itertools.accumulate(group.sphere_sizes(n_max)))[1:]


@dataclass(frozen=True)
class GrowthFit:
    degree: float
    residual: float
    window: tuple


def growth_degree_estimate(sizes: Iterable[int]) -> GrowthFit:
    """Least-squares slope of log lambda(U^n) against log n over the upper
    half of the window, with the RMS residual of the fit."""
    sizes = list(sizes)
    ns = np.arange(1, len(sizes) + 1, dtype=float)
    lo = max(2, (len(sizes) + 1) // 2)
    mask = ns >= lo
    if int(mask.sum()) < 3:
        raise ValueError("growth fit needs at least 3 points in the upper window")
    xs = np.log(ns[mask])
    ys = np.log(np.asarray(sizes, dtype=float)[mask])
    coef = np.polyfit(xs, ys, 1)
    resid = ys - np.polyval(coef, xs)
    return GrowthFit(
        degree=float(coef[0]),
        residual=float(np.sqrt(np.mean(resid**2))),
        window=(int(lo), len(sizes)),
    )


def _element_keys(coords: np.ndarray, lead: np.ndarray | None = None) -> tuple | None:
    """``(keys, span)``: one int64 key in [0, span) per row of an integer
    coordinate array, injective on the rows (mixed radix over the column
    ranges, after the nonnegative ``lead`` of each row if given), or None
    when the key range would overflow int64."""
    cols = coords.T  # per-column reductions: numpy's axis=0 ones are slow here
    lo = [int(c.min()) for c in cols]
    spans = [int(c.max()) - a + 1 for c, a in zip(cols, lo)]
    span = math.prod(spans) * (1 if lead is None else int(lead.max()) + 1)
    if span >= 2**63:
        return None
    keys = np.zeros(len(coords), dtype=np.int64) if lead is None else np.asarray(lead, dtype=np.int64)
    for c, a, width in zip(cols, lo, spans):
        keys = keys * width + (c - a)
    return keys, span


def _dense(span: int, n_keys: int) -> bool:
    """Whether keys in [0, span) are classed by direct address.  At most 4
    slots per key (plus 2**16 for small inputs) keeps the span-sized arrays
    of ``_key_classes`` and ``_pair_index_array`` (at most 9 bytes a slot)
    about as large as the temporaries of the sort they replace (25-40 bytes
    a key), so peak memory does not grow."""
    return span <= 4 * n_keys + 2**16


def _key_classes(keys: np.ndarray, span: int) -> tuple:
    """``np.unique(keys, return_index=True, return_inverse=True)[1:]`` for
    int64 keys in [0, span): ``first``, the index of each distinct key's
    first occurrence in increasing key order, and ``inverse``, the class of
    every key.  Dense keys are marked in a table of the span, which lists
    the distinct keys in order and so ranks them; sparse keys are sorted."""
    if not _dense(span, len(keys)):
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        return first, inverse.reshape(-1)  # the shape of inverse changed across numpy 2.x releases
    present = np.zeros(span, dtype=bool)
    present[keys] = True
    distinct = np.flatnonzero(present)
    rank = np.empty(span, dtype=np.intp)  # read only at the keys present
    rank[distinct] = np.arange(len(distinct))
    inverse = rank[keys]
    first = np.full(len(distinct), len(keys), dtype=np.intp)
    np.minimum.at(first, inverse, np.arange(len(keys)))
    return first, inverse


def row_classes(coords: np.ndarray, lead: np.ndarray | None = None):
    """The rows of an int64 coordinate array (..., k), flattened row-major,
    with np.unique's ``first`` (index of each distinct row's first
    occurrence, in sorted key order) and ``inverse`` (class of every row,
    shaped ``coords.shape[:-1]``), from ``_key_classes``.  A ``lead``, a
    nonnegative integer array of shape ``coords.shape[:-1]``, keys ahead of
    the coordinates, as a first column would: equal rows with different
    leads fall in different classes.  Rows whose keys would overflow int64
    are classed by np.unique's lexicographic sort of the rows (lead first)."""
    rows = coords.reshape(-1, coords.shape[-1])
    packed = _element_keys(rows, None if lead is None else lead.reshape(-1))
    if packed is None:
        cols = rows if lead is None else np.column_stack([lead.reshape(-1), rows])
        _, first, inverse = np.unique(cols, axis=0, return_index=True, return_inverse=True)
    else:
        first, inverse = _key_classes(*packed)
    return rows, first, inverse.reshape(coords.shape[:-1])


def pair_table(group: Group, radius: int):
    """The ball-pair product table: ``(elems, elems2, prod)`` with ``elems``
    the radius ball, ``elems2`` the 2*radius ball (both in BFS order, so
    ``elems`` is a prefix of ``elems2``) and ``prod[i, j]`` the index in
    ``elems2`` of ``elems[i] elems[j]``.

    Built from ``op_many`` and one joint int64 keying of ``elems2`` and the
    products; keys that overflow int64 take the exact double loop,
    ``_pair_index_loop``.
    """
    elems = ball_elements(group, radius)
    elems2 = ball_elements(group, 2 * radius)
    prod = _pair_index_array(group, elems, elems2)
    if prod is None:
        prod = _pair_index_loop(group, elems, elems2)
    return elems, elems2, prod


def _pair_index_array(group: Group, elems: list, elems2: list) -> np.ndarray | None:
    n, n2 = len(elems), len(elems2)
    coords = np.array(elems, dtype=np.int64)
    prods = group.op_many(coords[:, None], coords[None]).reshape(n * n, -1)
    packed = _element_keys(np.concatenate([np.array(elems2, dtype=np.int64), prods]))
    if packed is None:
        return None
    keys, span = packed
    if _dense(span, len(keys)):
        lut = np.full(span, -1, dtype=np.int64)  # key -> index in elems2
        lut[keys[:n2]] = np.arange(n2)
        prod = lut[keys[n2:]]
        if prod.min() < 0:
            return None  # a product outside elems2: the exact loop raises on it
        return prod.reshape(n, n)
    order = np.argsort(keys[:n2])
    sorted2 = keys[:n2][order]
    pos = np.minimum(np.searchsorted(sorted2, keys[n2:]), n2 - 1)
    if not np.array_equal(sorted2[pos], keys[n2:]):
        return None  # a product outside elems2: the exact loop raises on it
    return order[pos].reshape(n, n)


def _pair_index_loop(group: Group, elems: list, elems2: list) -> np.ndarray:
    index2 = {g: i for i, g in enumerate(elems2)}
    prod = np.empty((len(elems), len(elems)), dtype=np.int64)
    for i, s in enumerate(elems):
        for j, t in enumerate(elems):
            prod[i, j] = index2[group.op(s, t)]
    return prod


# ---------------------------------------------------------------------------
# Constructors


def integer_lattice(d: int) -> Group:
    """Z^d with the generating set of all vectors with coordinates in
    {-1,0,1}.  Word length is the sup norm, so U^n is the cube of side
    2n + 1 and |S_n| = (2n + 1)^d - (2n - 1)^d for n >= 1.  BudgetError,
    before any is built, where the 3^d generators are more than
    ``DEFAULT_MAX_ELEMENTS``."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if 3**d > DEFAULT_MAX_ELEMENTS:
        raise BudgetError(f"Z^d:{d} has 3^{d} generators, more than the element budget ({DEFAULT_MAX_ELEMENTS})")
    gens = tuple(g for g in itertools.product((-1, 0, 1), repeat=d))

    def sphere_hint(n):
        return [1] + [(2 * k + 1) ** d - (2 * k - 1) ** d for k in range(1, n + 1)]

    return Group(
        name=f"Z^d:{d}",
        op=lambda a, b: tuple(x + y for x, y in zip(a, b)),
        inv=lambda a: tuple(-x for x in a),
        identity=(0,) * d,
        generators=gens,
        length_hint=lambda a: max(map(abs, a)) if a else 0,
        op_many=np.add,
        sphere_hint=sphere_hint,
    )


def heisenberg_group() -> Group:
    """Discrete Heisenberg group H3(Z), elements (a, b, c) standing for the
    unitriangular matrix [[1,a,c],[0,1,b],[0,0,1]], generated by x, y and
    their inverses."""

    def op(u, v):
        return (u[0] + v[0], u[1] + v[1], u[2] + v[2] + u[0] * v[1])

    def inv(u):
        return (-u[0], -u[1], -u[2] + u[0] * u[1])

    def op_many(u, v):
        out = u + v
        out[..., 2] += u[..., 0] * v[..., 1]
        return out

    gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    return Group(
        name="H3", op=op, inv=inv, identity=(0, 0, 0), generators=gens, op_many=op_many
    )


def cyclic_group(n: int) -> Group:
    if n < 1:
        raise ValueError("n must be >= 1")
    return cyclic_product_group((n,))


def cyclic_product_group(orders: tuple) -> Group:
    """Direct product of cyclic groups Z_{n_1} x ... x Z_{n_m}, generated by
    the signed unit vectors (plus the identity)."""
    orders = tuple(int(n) for n in orders)
    if any(n < 1 for n in orders):
        raise ValueError("all orders must be >= 1")
    m = len(orders)

    def op(a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, orders))

    def inv(a):
        return tuple((-x) % n for x, n in zip(a, orders))

    ident = (0,) * m
    gens = {ident}
    for i, n in enumerate(orders):
        e = tuple(1 if j == i else 0 for j in range(m))
        gens.add(e)
        gens.add(inv(e))

    def hint(a):
        return sum(min(x, n - x) for x, n in zip(a, orders))

    def op_many(u, v):
        n = np.array(orders, dtype=np.int64)
        if max(orders) < 2**62:
            return (u + v) % n
        d = u - (n - v)  # u + v - n for canonical u and v, without leaving int64
        return np.where(d < 0, d + n, d)

    name = "Zn:" + "x".join(str(n) for n in orders)
    order = math.prod(orders)
    return Group(
        name=name,
        op=op,
        inv=inv,
        identity=ident,
        generators=tuple(sorted(gens)),
        length_hint=hint,
        order=order,
        op_many=op_many,
    )


def block_group(n_blocks: int) -> Group:
    """Truncation of the infinite direct sum of copies of Z_2 to the first
    ``n_blocks`` coordinates.  The nested subgroups G_i consist of the
    elements supported on the first i coordinates."""
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")

    def op(a, b):
        return tuple((x + y) % 2 for x, y in zip(a, b))

    ident = (0,) * n_blocks
    gens = tuple(
        tuple(1 if j == i else 0 for j in range(n_blocks)) for i in range(n_blocks)
    )
    return Group(
        name=f"Block:{n_blocks}",
        op=op,
        inv=lambda a: a,
        identity=ident,
        generators=gens,
        length_hint=lambda a: sum(a),
        order=2**n_blocks,
        op_many=np.bitwise_xor,
    )


def block_index(group: Group, g) -> int:
    """Largest 1-based coordinate position supporting g (0 for the identity);
    g lies in the subgroup chain member G_i exactly when block_index <= i."""
    return max((i for i, x in enumerate(g, start=1) if x), default=0)


# ---------------------------------------------------------------------------
# Spec strings and element serialization


def parse_group(spec: str) -> Group:
    """Group spec strings: ``Z^d:{d}``, ``H3``, ``Zn:{n}`` (products as
    ``Zn:{n}x{m}``), ``Block:{N}``."""
    spec = spec.strip()
    if spec == "H3":
        return heisenberg_group()
    if spec.startswith("Z^d:"):
        return integer_lattice(int(spec.split(":", 1)[1]))
    if spec.startswith("Zn:"):
        orders = tuple(int(t) for t in spec.split(":", 1)[1].split("x"))
        return cyclic_product_group(orders)
    if spec.startswith("Block:"):
        return block_group(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown group spec {spec!r}")


def element_from_list(group: Group, values: list) -> tuple:
    """Canonical element from its JSON integer-array form."""
    try:
        elt = tuple(int(v) for v in values)
    except TypeError:
        raise ValueError(f"element {values!r} is not an integer array") from None
    if len(elt) != len(group.identity):
        raise ValueError(
            f"element {values} has arity {len(elt)}, expected {len(group.identity)} for {group.name}"
        )
    # reduce into canonical representatives via op with the identity
    return group.op(elt, group.identity)


def element_to_list(g) -> list:
    return [int(x) for x in g]
