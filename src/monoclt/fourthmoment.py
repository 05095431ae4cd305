"""Exact fourth-moment engine for the standardized monochromatic
triangle count.

Write T = sum of Y_t over triangles t, with Y_t = 1{t monochromatic}.
Its fourth cumulant E(T - ET)^4 - 3 Var(T)^2 is multilinear in the Y_t,
so it expands over ordered 4-tuples of triangles into joint cumulants
kappa(Y_t1, Y_t2, Y_t3, Y_t4). Grouping the tuples by the set of
distinct triangles involved (1 to 4 of them, "the specified triangles")
gives every such set a coefficient, an integer polynomial in x = 1/c
that depends only on the isomorphism class of (union graph, specified
triangle set):

    E(Z^4) - 3 = sum over classes of coefficient(x) * count / Var(T)^2.

A joint cumulant vanishes whenever its variables split into two
independent groups. Under uniform colorings that holds for every
separable set: one whose triangles split into two groups sharing at
most one vertex (Janson 1988). Disconnected sets are separable, so only
vertex-connected sets are counted. The coefficient itself comes from
Moebius inversion over the set partitions of the four positions
(Leonov & Shiryaev 1959; Speed 1983), with E prod Y over a set of
cliques equal to x^(|V(union)| - components(union)); see
cumulant_coefficient.

Class discovery counts the connected sets without visiting them. Single
triangles and connected pairs are counted from the triangles at each
vertex and each edge. Sets of three and four triangles are counted per
connected pair of triangles: the triangles meeting the pair's union are
typed by the union vertices they contain, and numpy counts them, and
ordered pairs of them, by type in small Gram matrices (cells). A cell
fixes the class of its sets and which of their triangles meet, so it
also fixes how often a set is reached: once per dominating pair, an
adjacent pair whose two triangles between them meet all the others.
This is counting induced shapes from local counts, as in ESCAPE (Pinar,
Seshadhri & Vishal 2017); see _count_configurations.

Class identity is decided by an exact canonical form: fixing an order of
the k triangles, each union vertex gets a k-bit incidence pattern, and
the multiset of patterns determines the labeled structure completely;
minimizing over the k! <= 24 triangle orders, each a lookup table on
patterns, gives a canonical key. Discovery never builds concrete
triangles for this: a cell fixes its pattern multiset, so each class is
keyed from patterns once per shape per process, however large the
graph.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import BadParamsError, BudgetExceededError, NoTrianglesError
from .moments import _check_colors, t3_mean_var
from .ratpoly import evaluate, fraction_json

DEFAULT_BUDGET = 10**8

Triangle = tuple[int, int, int]


# ---------------------------------------------------------------------------
# joint cumulants of clique indicators


def _component_count(cliques: Iterable[Iterable[int]]) -> int:
    """Number of vertex-connected components of the union of the cliques."""
    comps: list[set[int]] = []
    for q in cliques:
        merged = set(q)
        rest = []
        for comp in comps:
            if comp & merged:
                merged |= comp
            else:
                rest.append(comp)
        comps = rest + [merged]
    return len(comps)


def _set_partitions(r: int) -> list[list[list[int]]]:
    """Every set partition of range(r), as lists of blocks."""
    if r == 0:
        return [[]]
    out = []
    for p in _set_partitions(r - 1):
        out.append(p + [[r - 1]])
        for i in range(len(p)):
            out.append(p[:i] + [p[i] + [r - 1]] + p[i + 1 :])
    return out


@lru_cache(maxsize=None)
def _mobius_terms(r: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The order-r coefficient of k cliques as (block images, weight) terms.

    For each map f of the r positions onto the k cliques and each set
    partition pi of the positions, the term is the Moebius weight
    (-1)^(|pi| - 1) (|pi| - 1)! times the product, over the blocks of
    pi, of E prod Y over the cliques the block maps to. The product
    depends only on those images (as k-bit masks), so the weights are
    summed per sorted tuple of images.
    """
    terms: Counter = Counter()
    parts = _set_partitions(r)
    for f in itertools.product(range(k), repeat=r):
        if len(set(f)) < k:
            continue
        for pi in parts:
            weight = (-1) ** (len(pi) - 1) * math.factorial(len(pi) - 1)
            images = tuple(sorted(sum({1 << f[i] for i in block}) for block in pi))
            terms[images] += weight
    return tuple((images, w) for images, w in sorted(terms.items()) if w)


def cumulant_coefficient(cliques: Iterable[Iterable[int]], r: int) -> tuple[int, ...]:
    """Order-r coefficient of a set of 1..r distinct cliques (edges or
    triangles) as an integer polynomial in x = 1/c: index i holds the
    coefficient of x**i, trailing zeros stripped.

    It is the sum, over maps of r positions onto the set, of the joint
    cumulant of the clique indicators, i.e. the share of this set in the
    r-th cumulant of the sum of all clique indicators. Each cumulant is
    a Moebius sum over set partitions of the positions of products of
    E prod Y = x^(|V(union)| - components(union)); the exponent is
    computed once per subset of the cliques.
    """
    cl = [frozenset(q) for q in cliques]
    k = len(cl)
    if len(set(cl)) != k or not 1 <= k <= r:
        raise ValueError(f"need 1 to {r} distinct cliques")
    exponent = [0] * (1 << k)
    for mask in range(1, 1 << k):
        chosen = [q for i, q in enumerate(cl) if mask >> i & 1]
        exponent[mask] = len(frozenset().union(*chosen)) - _component_count(chosen)
    coeffs: Counter = Counter()
    for images, w in _mobius_terms(r, k):
        coeffs[sum(exponent[m] for m in images)] += w
    degree = max((d for d, w in coeffs.items() if w), default=-1)
    return tuple(coeffs[d] for d in range(degree + 1))


def class_coefficient(triangles: Iterable[Triangle]) -> tuple[int, ...]:
    """Coefficient polynomial of the class represented by these 1..4
    distinct triangles: its share of the fourth cumulant of T, the sum
    over ordered 4-tuples covering exactly these triangles of the joint
    cumulant of their indicators."""
    return cumulant_coefficient(triangles, 4)


@lru_cache(maxsize=None)
def pyramid_class_coefficient(s: int) -> tuple[int, ...]:
    """Coefficient of the s-pyramid class (s triangles on one shared edge)."""
    if not 1 <= s <= 4:
        raise ValueError("pyramid classes have 1 to 4 triangles")
    return class_coefficient([(0, 1, 2 + i) for i in range(s)])


@lru_cache(maxsize=None)
def bipyramid_quad_coefficient() -> tuple[int, ...]:
    """Coefficient of the class realized by quadruples
    {a,s,.},{b,s,.},{a,t,.},{b,t,.} in the bipyramid chain: four triangles
    meeting pairwise in at most a vertex, hub/spine contacts forming a
    4-cycle a-s-b-t."""
    return class_coefficient([(0, 2, 4), (1, 2, 5), (0, 3, 6), (1, 3, 7)])


# ---------------------------------------------------------------------------
# canonical classing


# for k triangles, one table per order of them, mapping each k-bit
# incidence pattern to the pattern it becomes under that order
_TABLES = {
    k: tuple(
        tuple(sum((pat >> i & 1) << perm[i] for i in range(k)) for pat in range(1 << k))
        for perm in itertools.permutations(range(k))
    )
    for k in (1, 2, 3, 4)
}


@lru_cache(maxsize=None)
def _canonical(k: int, patterns: tuple[int, ...]) -> tuple:
    """Canonical key of k triangles from the sorted incidence patterns of
    their union vertices: the least sorted image over the k! orders."""
    return (k, min(tuple(sorted(m[p] for p in patterns)) for m in _TABLES[k]))


def class_key(triangles: Sequence[Triangle]) -> tuple:
    """Canonical key of a set of distinct triangles under vertex relabeling.

    With the triangle order fixed, each union vertex is described
    completely by its incidence bitmask over the triangles; the sorted
    pattern multiset therefore determines the structure up to vertex
    relabeling, and minimizing over triangle orders removes the remaining
    freedom.
    """
    tris = [frozenset(t) for t in triangles]
    k = len(tris)
    if len(set(tris)) != k or not 1 <= k <= 4:
        raise ValueError("need 1 to 4 distinct triangles")
    verts = set().union(*tris)
    return _canonical(k, tuple(sorted(sum(1 << i for i, t in enumerate(tris) if v in t) for v in verts)))


# the class key of a single triangle
_ONE = (1, (1, 1, 1))


@lru_cache(maxsize=None)
def _cell_key(share: int, types: tuple[int, ...] = (), k: int = 0) -> tuple:
    """Class key of a cell: a connected pair {a, b} sharing `share`
    vertices, with no, one or two further triangles meeting its union in
    the slots of the bitmasks in types, the two sharing k vertices outside
    it. The slots are the a-only vertices, then the b-only ones, then the
    shared ones; bit 4 marks the vertices of the first further triangle,
    bit 8 those of the second."""
    slots = (1,) * (3 - share) + (2,) * (3 - share) + (3,) * share
    patterns = [p | sum((t >> i & 1) << 2 + j for j, t in enumerate(types)) for i, p in enumerate(slots)]
    patterns += [12] * k + [4 << j for j, t in enumerate(types) for _ in range(3 - t.bit_count() - k)]
    return _canonical(2 + len(types), tuple(sorted(patterns)))


def key_representative(key: tuple) -> tuple[Triangle, ...]:
    """Rebuild a concrete representative (on vertices 0..v-1) from a key."""
    k, patterns = key
    tris = []
    for i in range(k):
        tri = tuple(v for v, pat in enumerate(patterns) if (pat >> i) & 1)
        if len(tri) != 3:
            raise ValueError(f"invalid class key {key!r}")
        tris.append(tri)
    return tuple(tris)


@dataclass(frozen=True)
class ClassRecord:
    """One configuration class: canonical key, a representative on small
    vertex labels, and its integer coefficient polynomial."""

    key: tuple
    representative: tuple[Triangle, ...]
    coefficient: tuple[int, ...]

    @property
    def specified_triangles(self) -> int:
        return self.key[0]

    @property
    def vertex_count(self) -> int:
        return len(self.key[1])

    def union_edges(self) -> tuple[tuple[int, int], ...]:
        edges = set()
        for a, b, c in self.representative:
            edges.update(((a, b), (a, c), (b, c)))
        return tuple(sorted(edges))

    def degree_multiset(self) -> tuple[int, ...]:
        deg: dict[int, int] = {}
        for u, v in self.union_edges():
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        return tuple(sorted(deg.values()))

    def is_connected(self) -> bool:
        return _component_count(self.representative) == 1


@lru_cache(maxsize=None)
def _record_for_key(key: tuple) -> ClassRecord:
    rep = key_representative(key)
    return ClassRecord(key=key, representative=rep, coefficient=class_coefficient(rep))


# ---------------------------------------------------------------------------
# counting connected triangle sets per connected pair


# incidences per numpy pass, and rows per dense block of a Gram matrix:
# together they bound the arrays of a pass to a few MB whatever the graph
_CHUNK = 1 << 12
_BLOCK = 1 << 11


def _dominating(adj):
    """Dominating pairs of a graph on len(adj) members with adjacency
    adj[i][j] (booleans, or boolean arrays read elementwise): adjacent
    pairs whose two members, between them, meet every other member."""
    count = 0
    for i, j in itertools.combinations(range(len(adj)), 2):
        hit = adj[i][j]
        for o in range(len(adj)):
            if o != i and o != j:
                hit = hit & (adj[i][o] | adj[j][o])
        count = count + hit
    return count


@lru_cache(maxsize=None)
def _reach(share: int) -> tuple[np.ndarray, np.ndarray]:
    """How often a set is reached through a cell of pairs sharing `share`
    vertices: by type t of the third triangle, its dominating pairs, and
    by cell (k, t1, t2) of the fourth level, twice those (both orders of
    the last two). Each cell fixes which members meet: c meets a iff t1
    holds an a-only or shared slot, and w iff they share a slot or k > 0.
    Cells no triangle falls in (t = 0) get 1."""
    a_only, shared = (1 << 3 - share) - 1, ((1 << share) - 1) << 6 - 2 * share
    at_a, at_b = a_only | shared, a_only << 3 - share | shared
    t = np.arange(1 << 6 - share)
    ta, tb = (t & at_a) > 0, (t & at_b) > 0
    third = _dominating([[None, True, ta], [True, None, tb], [ta, tb, None]])
    ca, cb, wa, wb = ta[:, None], tb[:, None], ta[None, :], tb[None, :]
    cw = ((t[:, None] & t[None, :]) > 0) | (np.arange(3)[:, None, None] > 0)
    fourth = 2 * _dominating([[None, True, ca, wa], [True, None, cb, wb], [ca, cb, None, cw], [wa, wb, cw, None]])
    return np.maximum(third, 1), np.maximum(fourth, 1)


def _gram(rows: np.ndarray, types: np.ndarray, width: int) -> np.ndarray:
    """M^T M in float64 for the row-by-type count matrix M holding one
    count per entry (rows[i], types[i]), rows ascending; M is built a
    block of rows at a time."""
    gram = np.zeros((width, width))
    if len(rows):
        cut = np.searchsorted(rows, np.arange(0, rows[-1] + _BLOCK + 1, _BLOCK))
        for lo, hi in zip(cut, cut[1:]):
            if lo < hi:
                base = rows[lo]
                m = np.bincount((rows[lo:hi] - base) * width + types[lo:hi], np.ones(hi - lo),
                                (rows[hi - 1] - base + 1) * width).reshape(-1, width)
                gram += m.T @ m
    return gram


def _rows_by(pair: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts entries by (pair, key), and ascending row ids
    in that order, one row per distinct (pair, key)."""
    joint = pair * (int(key.max(initial=0)) + 1) + key
    order = np.argsort(joint)
    joint = joint[order]
    return order, np.cumsum(np.r_[False, joint[1:] != joint[:-1]])


def _runs(weights: np.ndarray, bound: int):
    """Consecutive ranges (lo, hi) of the items, each of weight at most
    bound in all or of a single item."""
    cut = np.r_[0, np.cumsum(weights)]
    lo = 0
    while lo < len(weights):
        hi = max(lo + 1, int(np.searchsorted(cut, cut[lo] + bound, "right")) - 1)
        yield lo, hi
        lo = hi


def _at(graph, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, triangle) for every triangle at every vertex verts[i], by i."""
    _, deg, at_start, at_tri, _ = graph
    cnt = deg[verts]
    i = np.repeat(np.arange(len(verts)), cnt)
    return i, at_tri[np.arange(len(i)) - np.repeat(np.cumsum(cnt) - cnt - at_start[verts], cnt)]


def _pairs(graph, lo: int, hi: int):
    """The connected pairs a < b with lo <= a < hi, by overlap: yields the
    share, each pair's slots (see _cell_key) and the pairs (a, b)."""
    tv = graph[0]
    i, b = _at(graph, tv[lo:hi].ravel())
    a = lo + i // 3
    va, vb = tv[a], tv[b]
    a_in_b = (va[:, :, None] == vb[:, None, :]).any(2)
    # each pair once, at the first vertex of a that b contains
    keep = (b > a) & (a_in_b.argmax(1) == i % 3)
    a, b, va, vb, a_in_b = a[keep], b[keep], va[keep], vb[keep], a_in_b[keep]
    b_in_a = (vb[:, :, None] == va[:, None, :]).any(2)
    share = a_in_b.sum(1)
    for sh in (1, 2):
        sel = share == sh
        slots = np.hstack([va[sel][~a_in_b[sel]].reshape(-1, 3 - sh),
                           vb[sel][~b_in_a[sel]].reshape(-1, 3 - sh),
                           va[sel][a_in_b[sel]].reshape(-1, sh)])
        yield sh, slots, np.stack([a[sel], b[sel]], 1)


def _choose_sum(counts: np.ndarray, k: int) -> int:
    vals, mult = np.unique(counts, return_counts=True)
    return sum(math.comb(int(v), k) * int(m) for v, m in zip(vals, mult))


def _count_configurations(triangles: Sequence[Triangle], budget: int) -> Counter:
    """The connected sets of 1 to 4 triangles, counted by class key; the
    sets of 3 or 4 triangles whose class has a zero coefficient are
    counted together under (3, ()) and (4, ()).

    Single triangles are counted as given, and connected pairs by overlap
    from the triangles at each vertex and at each edge (two distinct
    triangles share at most an edge). Sets of 3 and 4 triangles are
    counted per connected pair P = {a, b} (a < b): its candidates are the
    triangles other than a and b meeting the union U(P), typed by the
    bitmask of the slots of U(P) they contain (see _cell_key). A candidate
    c falls in the cell (share, t) of its type, and an ordered pair (c, w)
    of distinct candidates in the cell (share, t1, t2, k), k the number of
    vertices c and w share outside U(P). Each cell fixes the class of
    {a, b, c(, w)}, and which of its members meet. The fourth-level cells
    are Gram matrices of candidate type counts, summed over P (all pairs),
    over (P, x) for outside vertices x (pairs sharing x, counted once per
    shared vertex) and over (P, xy) for outside edges (pairs sharing two
    outside vertices).

    A connected set is reached from each of its dominating pairs, once
    per order of its candidates (see _reach), so a class's count is its
    cell sum divided by that. A non-separable set has every connected
    pair dominating: a member missing U(P) would share two vertices with
    the fourth, which has at most one outside U(P). A class of nonzero
    coefficient is non-separable, so no member meets the rest in a single
    vertex, and its cells are the only ones keyed.

    The budget caps the total: it is checked against sets at a common
    vertex before any pass, and against the cells counted so far after
    each pass of at most _CHUNK (pair, triangle) incidences.
    """
    over = f"connected configuration count exceeded budget {budget}"
    if not triangles:
        return Counter()
    tv = np.sort(np.array(triangles, dtype=np.int64), axis=1)
    n = int(tv.max()) + 1
    deg = np.bincount(tv.ravel(), minlength=n)
    # each triangle's edges, numbered, opposite its vertices 0, 1 and 2
    opposite = np.unique(tv[:, [1, 0, 0]] * n + tv[:, [2, 2, 1]], return_inverse=True)[1].reshape(-1, 3)
    graph = (tv, deg, np.cumsum(deg) - deg, np.argsort(tv.ravel(), kind="stable") // 3, opposite)
    at_edge = np.bincount(opposite.ravel())

    def stars(k):  # sets of k >= 2 triangles with a common vertex
        return _choose_sum(deg, k) - _choose_sum(at_edge, k)

    pairs, edge_pairs = stars(2), _choose_sum(at_edge, 2)
    base = len(triangles) + pairs
    if base + stars(3) + stars(4) > budget:
        raise BudgetExceededError(over)
    counts = Counter({_ONE: len(triangles)})
    for sh, cnt in ((1, pairs - edge_pairs), (2, edge_pairs)):
        if cnt:
            counts[_cell_key(sh)] = cnt

    # cell sums by overlap: by type t of the third triangle, and by
    # (k, t1, t2) of the other two
    reached = {sh: (np.zeros(1 << 6 - sh, np.int64), np.zeros((3, 1 << 6 - sh, 1 << 6 - sh), np.int64))
               for sh in (1, 2)}

    def lower():  # each cell's sets, at least
        return base + sum(int((x // d).sum()) for sh in (1, 2) for x, d in zip(reached[sh], _reach(sh)))

    for lo, hi in _runs(deg[tv].sum(1), _CHUNK):
        for sh, slots, own in _pairs(graph, lo, hi):
            third, fourth = reached[sh]
            for p, q in _runs(deg[slots].sum(1), _CHUNK):
                total, cells = _count_chunk(graph, slots[p:q], own[p:q], len(third))
                third += total
                fourth += cells
                if lower() > budget:
                    raise BudgetExceededError(over)

    sums: Counter = Counter()

    def add(level, key, div, value):
        if key is None or not _record_for_key(key).coefficient:
            key = (level, ())
        sums[key, int(div)] += int(value)

    for sh in (1, 2):
        (third, fourth), (div3, div4) = reached[sh], _reach(sh)
        for t in np.flatnonzero(third).tolist():
            # c meeting a and b in a single vertex: separable
            add(3, _cell_key(sh, (t,)) if t.bit_count() > 1 else None, div3[t], third[t])
        for k, t1, t2 in np.argwhere(fourth).tolist():
            # c or w meeting the rest in a single vertex: separable
            key = _cell_key(sh, (t1, t2), k) if k or min(t1.bit_count(), t2.bit_count()) > 1 else None
            add(4, key, div4[k, t1, t2], fourth[k, t1, t2])
    for (key, div), total in sums.items():
        count, rest = divmod(total, div)
        assert not rest, f"uneven cell sum for {key}"
        counts[key] += count
    if sum(counts.values()) > budget:
        raise BudgetExceededError(over)
    return counts


def _count_chunk(graph, slots, own, width) -> tuple[np.ndarray, np.ndarray]:
    """The cells of one run of pairs with the same overlap: candidates by
    type, and ordered pairs of distinct candidates by (k, t1, t2)."""
    tv, opposite = graph[0], graph[4]
    # every triangle at every slot vertex, then typed by its slots and
    # kept at its lowest one, unless it is a or b
    s = slots.shape[1]
    i, c = _at(graph, slots.ravel())
    p, slot = np.divmod(i, s)
    x = tv[c].T
    types = np.zeros(len(c), dtype=np.int64)
    inside = np.zeros(x.shape, dtype=bool)
    for j in range(s):
        hit = x == slots[p, j]
        inside |= hit
        types |= (hit[0] | hit[1] | hit[2]) << j
    keep = ((types & -types) == 1 << slot) & (c != own[p, 0]) & (c != own[p, 1])
    p, c, types, x, inside = p[keep], c[keep], types[keep], x[:, keep].T, inside[:, keep].T
    total = np.bincount(types, minlength=width)
    every = _gram(p, types, width)
    outside = 3 - inside.sum(1)
    order, rows = _rows_by(np.repeat(p, outside), x[~inside])
    by_vertex = _gram(rows, np.repeat(types, outside)[order], width)
    two = outside == 2
    order, rows = _rows_by(p[two], opposite[c[two], inside[two].argmax(1)])
    by_edge = _gram(rows, types[two][order], width)
    cells = np.stack([every - by_vertex + by_edge, by_vertex - 2 * by_edge, by_edge])
    # summed over k the cells count every ordered pair once, and no
    # partial sum is more than twice that, so float64 was exact
    assert cells.sum(0).max(initial=0) < 2**52
    cells = cells.astype(np.int64)
    t = np.flatnonzero(total)
    cells[3 - np.bitwise_count(t), t, t] -= total[t]  # the pairs c = w
    return total, cells


@dataclass(frozen=True)
class Discovery:
    """Classes found in one graph: entries pair each nonzero-coefficient
    class with its embedded-copy count, in key order; enumerated is the
    number of connected configurations of 1 to 4 triangles."""

    entries: tuple[tuple[ClassRecord, int], ...]
    enumerated: int


def discover_classes(triangles: Sequence[Triangle], *, budget: int = DEFAULT_BUDGET) -> Discovery:
    """Count all connected 1..4-triangle configurations, grouped into
    canonical classes with exact counts.

    No set is visited: every count comes from the triangles at each
    vertex and edge, and from the cells of candidate triangles around
    each connected pair (see _count_configurations). The budget bounds
    the number of connected configurations; a graph with more is refused
    as soon as a lower bound on that number passes it.
    """
    if budget < 0:
        raise BadParamsError(f"budget must be >= 0, got {budget}")
    counts = _count_configurations(triangles, budget)
    entries = []
    for key in sorted(counts):
        if key[1]:  # not the zero-coefficient sets counted together
            rec = _record_for_key(key)
            # only connected sets are counted; anything else slipping
            # through would signal broken counting
            assert rec.is_connected(), f"disconnected class emitted: {key}"
            if rec.coefficient:
                entries.append((rec, counts[key]))
    return Discovery(entries=tuple(entries), enumerated=sum(counts.values()))


# ---------------------------------------------------------------------------
# the exact fourth moment


@dataclass(frozen=True)
class Decomposition:
    """E(Z^4) - 3 for one graph and color count, split over classes."""

    c: int
    sigma2: Fraction
    entries: tuple[tuple[ClassRecord, int], ...]
    excess4: Fraction
    enumerated: int

    def to_json_dict(self) -> dict:
        classes = []
        for rec, cnt in self.entries:
            classes.append(
                {
                    "signature": {
                        "specified_triangles": rec.specified_triangles,
                        "vertices": rec.vertex_count,
                        "edges": len(rec.union_edges()),
                        "degrees": list(rec.degree_multiset()),
                    },
                    "representative_triangles": [list(t) for t in rec.representative],
                    "representative_edges": [list(e) for e in rec.union_edges()],
                    "coefficient": [str(a) for a in rec.coefficient],
                    "count": str(cnt),
                }
            )
        return {
            "c": self.c,
            "classes": classes,
            "sigma2": fraction_json(self.sigma2),
            "excess4": fraction_json(self.excess4),
            "enumerated_configurations": self.enumerated,
        }


def fourth_moment_exact(
    tc,
    pc,
    c: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Decomposition:
    """Exact E(Z^4) - 3 for the monochromatic triangle count of the graph
    behind the census tc (pyramid counts pc feed the variance)."""
    x = _check_colors(c)
    if pc.n1 < 1:
        raise NoTrianglesError("fourth moment needs at least one triangle")
    disc = discover_classes(tc.triangles, budget=budget)
    sigma2 = t3_mean_var(pc, c).variance
    total = Fraction(0)
    for rec, cnt in disc.entries:
        total += evaluate(rec.coefficient, x) * cnt
    return Decomposition(
        c=c,
        sigma2=sigma2,
        entries=disc.entries,
        excess4=total / sigma2**2,
        enumerated=disc.enumerated,
    )
