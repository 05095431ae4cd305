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

Class discovery counts the connected sets without visiting them, and
keys only those whose class has a nonzero coefficient (see
_count_configurations):

- the connected sets of each size, which the budget caps, are the
  connected induced subgraphs of the triangles' intersection graph, got
  from its graphlet counts as in ESCAPE (Pinar, Seshadhri & Vishal 2017);
- a nonzero class of three or four triangles but two has a connected
  pair whose union holds two or more vertices of every other member.
  Per connected pair, the triangles holding two vertices of its union,
  gathered from the edges between them, are typed by the union vertices
  they contain, and numpy counts them, and ordered pairs of them, by
  type in small Gram matrices (cells). A cell fixes the class of its
  sets, whose count is the cell sum over the class's qualifying pairs;
- the other two are triangles on the four edges of a 4-cycle, counted
  per 4-cycle listed in degree order (Chiba & Nishizeki 1985).

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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .census import _choose_sum, _edge_counts, _exact_sum, _expand, _rank, _runs, _wedges
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
# counting connected triangle sets


# elements per numpy pass, and rows per dense block of a Gram matrix:
# together they bound the arrays of a pass to a few MB whatever the graph
_CHUNK = 1 << 12
_BLOCK = 1 << 11

# the two classes no pair reaches: triangles on the four edges of a 4-cycle
# with four distinct third vertices, and with the last two equal
_CYCLE8 = class_key([(0, 1, 4), (1, 2, 5), (2, 3, 6), (3, 0, 7)])
_CYCLE7 = class_key([(0, 1, 4), (1, 2, 5), (2, 3, 6), (3, 0, 6)])


class _Index(NamedTuple):
    """The triangles of a graph on n vertices as rows of ascending
    vertices, listed at each vertex and on each edge they cover (start,
    count and the triangles in order), with those edges as ascending keys
    u * n + v, u < v, from the census's own edge counts."""

    tv: np.ndarray
    n: int
    at_start: np.ndarray
    at_count: np.ndarray
    at_tri: np.ndarray
    edges: np.ndarray
    on_start: np.ndarray
    on_count: np.ndarray
    on_tri: np.ndarray


def _index(triangles: Sequence[Triangle]) -> _Index:
    tv = np.sort(np.array(triangles, dtype=np.int64), axis=1)
    n = int(tv.max()) + 1
    edges, on, edge = _edge_counts(tv, n)
    at = np.bincount(tv.ravel(), minlength=n)
    return _Index(tv, n, np.cumsum(at) - at, at, np.argsort(tv.ravel(), kind="stable") // 3,
                  edges, np.cumsum(on) - on, on, np.argsort(edge.ravel(), kind="stable") // 3)


def _edge_ids(index: _Index, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The ids of the edges uv, or -1 where no triangle covers uv."""
    key = np.minimum(u, v) * index.n + np.maximum(u, v)
    e = np.minimum(np.searchsorted(index.edges, key), len(index.edges) - 1)
    return np.where(index.edges[e] == key, e, -1)


def _pairs(index: _Index):
    """The connected pairs a < b of triangles, as arrays a and b, a run of
    triangles a at a time."""
    tv = index.tv
    for lo, hi in _runs(index.at_count[tv].sum(1), _CHUNK):
        verts = tv[lo:hi].ravel()
        i, pos = _expand(index.at_start[verts], index.at_count[verts])
        a, b = lo + i // 3, index.at_tri[pos]
        a_in_b = (tv[a][:, :, None] == tv[b][:, None, :]).any(2)
        # each pair once, at the first vertex of a that b contains
        keep = (b > a) & (a_in_b.argmax(1) == i % 3)
        yield a[keep], b[keep]


def _connected_sets(index: _Index) -> tuple[int, int, int, int]:
    """The connected sets of 1, 2, 3 and 4 triangles.

    They are the connected induced subgraphs of H, the graph with a node
    per triangle and an edge per connected pair, so they follow from
    graphlet counts of H (ESCAPE: Pinar, Seshadhri & Vishal 2017). Three
    nodes: the wedges, less twice the triangles T. Four: the induced
    counts of the six connected graphlets, got from the non-induced
    counts of 3-stars, 3-paths, tailed triangles, 4-cycles, diamonds and
    K4s by inverting the table of copies of each in the others.

    H is relabelled by (degree, id) and each edge runs up from its lower
    end (Chiba & Nishizeki 1985). A node u with k upper neighbours holds
    the triangles and K4s of H whose lowest node it is, as the edges and
    triangles of the k x k adjacency B among those neighbours; nodes of
    equal k are stacked a run at a time. A 4-cycle is charged to its top
    node u, as a pair of wedges u - v - w with v and w below u. A pass
    holds about _CHUNK entries, or those of one node, and the sums are
    exact integers.
    """
    tv = index.tv
    n1 = len(tv)
    # a triangle meets the others at its vertices, twice those on its edges
    deg = index.at_count[tv].sum(1) - index.on_count[_edge_ids(index, tv[:, [0, 0, 1]], tv[:, [1, 2, 2]])].sum(1)
    m = int(deg.sum()) // 2
    rank = _rank(deg)
    deg = np.sort(deg)
    # each edge as lo * n1 + hi, up from its lower end, ascending
    key = np.empty(m, np.int64)
    filled = 0
    for a, b in _pairs(index):
        a, b = rank[a], rank[b]
        key[filled:filled + len(a)] = np.minimum(a, b) * n1 + np.maximum(a, b)
        filled += len(a)
    assert filled == m
    key.sort()
    up_start = np.searchsorted(key, np.arange(n1 + 1) * n1)
    ups = np.diff(up_start)
    downs = deg - ups
    down_start = np.cumsum(downs) - downs
    # the lower end of each edge, by upper end
    mid = key % n1
    mid *= n1
    mid += key // n1
    mid.sort()
    mid %= n1

    # a 4-cycle is charged to its top node u, as two wedges u - v - w with
    # v and w below u: w is any neighbour of v below v, or one above v and
    # below u (up_to of them); deg[v] bounds both together. The same pass
    # sums (d_u - 1)(d_v - 1) over the edges for the 3-paths.
    c4 = path = 0
    bound = np.zeros(n1, np.int64)
    bound[downs > 0] = np.add.reduceat(deg[mid], down_start[downs > 0])
    for a, b in _runs(bound, _CHUNK):
        lo, hi = down_start[a], down_start[b - 1] + downs[b - 1]
        # a pass of one top takes its edges a piece at a time, tallying
        # the wedges by bottom node
        single = b - a == 1
        tally = np.zeros(a if single else 0, np.int64)
        for p, q in _runs(deg[mid[lo:hi]], _CHUNK) if single else [(0, hi - lo)]:
            v = mid[lo + p:lo + q]
            u = np.repeat(np.arange(a, b), downs[a:b])[p:q]
            path += _exact_sum((deg[u] - 1) * (deg[v] - 1))
            up_to = np.searchsorted(key, v * n1 + u) - up_start[v]
            i, below = _expand(down_start[v], downs[v])
            j, above = _expand(up_start[v], up_to)
            ends = np.r_[u[i] * n1 + mid[below], u[j] * n1 + key[above] % n1]
            if single:
                np.add.at(tally, ends % n1, 1)
            else:
                ends.sort()
                wedges = np.diff(np.flatnonzero(np.r_[True, ends[1:] != ends[:-1], True]))
                c4 += _exact_sum(wedges * (wedges - 1) // 2)
        c4 += _exact_sum(tally * (tally - 1) // 2)
    del mid, bound

    te = np.zeros(m, np.int64)  # the triangles of H on each edge
    at = np.zeros(n1, np.int64)  # and at each node
    tri = k4 = 0
    by_ups = np.argsort(ups, kind="stable")
    cut = np.searchsorted(ups[by_ups], np.arange(ups.max(initial=0) + 2))
    for k in range(2, len(cut) - 1):
        nodes = by_ups[cut[k]:cut[k + 1]]
        r, uv = _expand(up_start[nodes], ups[nodes])
        gather = np.bincount(r, ups[key[uv] % n1], len(nodes)).astype(np.int64)
        for a, b in _runs(k * k + gather, _CHUNK):
            u = nodes[a:b]
            # the edges (u, v) up from these nodes, then the edges (v, w)
            # up from those, kept where (u, w) is an edge too
            r, uv = _expand(up_start[u], ups[u])
            v = key[uv] % n1
            f, vw = _expand(up_start[v], ups[v])
            w_key = u[r[f]] * n1 + key[vw] % n1
            uw = np.minimum(np.searchsorted(key, w_key), m - 1)
            hit = key[uw] == w_key
            f, vw, uw = f[hit], vw[hit], uw[hit]
            start = up_start[u][r]
            B = np.zeros((len(u), k, k))
            B[r[f], uv[f] - start[f], uw - start[f]] = 1
            tri += len(f)
            np.add.at(te, vw, 1)
            te[uv] += (B.sum(1) + B.sum(2))[r, uv - start].astype(np.int64)
            for ends in (u[r[f]], v[f], key[vw] % n1):
                np.add.at(at, ends, 1)
            cliques = (B @ B * B).sum()
            # at most k^3 per node and a few thousand nodes: float64 was exact
            assert cliques < 2**52
            k4 += int(cliques)

    three = _choose_sum(deg, 2) - 2 * tri
    diamond = _choose_sum(te, 2) - 6 * k4
    cycle = c4 - diamond - 3 * k4
    paw = _exact_sum(at * (deg - 2)) - 4 * diamond - 12 * k4
    path -= 3 * tri + 2 * paw + 4 * cycle + 6 * diamond + 12 * k4
    star = _choose_sum(deg, 3) - paw - 2 * diamond - 4 * k4
    induced = (star, path, paw, cycle, diamond, k4)
    assert min(induced) >= 0, induced
    return n1, m, three, sum(induced)


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
    rows = np.zeros(len(joint), np.int64)
    rows[1:] = np.cumsum(joint[1:] != joint[:-1])
    return order, rows


def _slots(tv: np.ndarray, own: np.ndarray, sh: int) -> np.ndarray:
    """The slots of each pair (a, b) sharing sh vertices: its a-only
    vertices, then its b-only ones, then the shared ones (see _cell_key)."""
    va, vb = tv[own[:, 0]], tv[own[:, 1]]
    a_in_b = (va[:, :, None] == vb[:, None, :]).any(2)
    b_in_a = (vb[:, :, None] == va[:, None, :]).any(2)
    return np.hstack([va[~a_in_b].reshape(-1, 3 - sh), vb[~b_in_a].reshape(-1, 3 - sh),
                      va[a_in_b].reshape(-1, sh)])


def _cells(index: _Index) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The cells of the connected pairs, summed over them by the number of
    vertices they share: third triangles by type, and ordered pairs of
    them by (k, t1, t2). A run of pairs at a time finds the edges between
    their slots, then passes of at most _CHUNK triangles on those edges
    are counted."""
    tv = index.tv
    cells = {sh: (np.zeros(1 << 6 - sh, np.int64), np.zeros((2, 1 << 6 - sh, 1 << 6 - sh), np.int64))
             for sh in (1, 2)}
    for a, b in _pairs(index):
        share = (tv[a][:, :, None] == tv[b][:, None, :]).any(2).sum(1)
        for sh, (third, fourth) in cells.items():
            own = np.stack([a[share == sh], b[share == sh]], 1)
            slots = _slots(tv, own, sh)
            first, second = np.triu_indices(6 - sh, 1)
            eid = _edge_ids(index, slots[:, first], slots[:, second])
            for p, q in _runs(np.where(eid < 0, 0, index.on_count[eid]).sum(1), _CHUNK):
                total, counted = _count_chunk(index, slots[p:q], own[p:q], eid[p:q])
                third += total
                fourth += counted
    return cells


def _count_chunk(index: _Index, slots: np.ndarray, own: np.ndarray,
                 eid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells of one run of pairs with the same overlap, given the ids
    of the edges between their slots (eid, one column per two slots, -1
    where there is none): candidates by type, and ordered pairs of
    distinct candidates by (k, t1, t2)."""
    s = slots.shape[1]
    width = 1 << s
    first, second = np.triu_indices(s, 1)
    # every triangle on an edge between two slots but a and b, typed by
    # its slots; one inside U(P) is on three such edges, and is kept at
    # the one between its lowest two slots
    p, col = np.nonzero(eid >= 0)
    i, pos = _expand(index.on_start[eid[p, col]], index.on_count[eid[p, col]])
    p, col, c = p[i], col[i], index.on_tri[pos]
    x = index.tv[c].sum(1) - slots[p, first[col]] - slots[p, second[col]]
    slot = np.argmax(slots[p] == x[:, None], 1)
    inside = slots[p, slot] == x
    keep = (c != own[p, 0]) & (c != own[p, 1]) & (~inside | (slot > second[col]))
    p, x, inside = p[keep], x[keep], inside[keep]
    types = (1 << first[col[keep]]) | (1 << second[col[keep]]) | np.where(inside, 1 << slot[keep], 0)
    total = np.bincount(types, minlength=width)
    every = _gram(p, types, width)
    # c and w share a vertex outside U(P) when it is the third vertex of both
    out = ~inside
    order, rows = _rows_by(p[out], x[out])
    shared = _gram(rows, types[out][order], width)
    # every counts each ordered pair once, and no partial sum is more:
    # float64 was exact
    assert every.max(initial=0) < 2**52
    cells = np.stack([every - shared, shared]).astype(np.int64)
    # less the pairs c = w: k = 0 inside U(P), 1 outside it
    cells[0] -= np.diag(np.bincount(types[inside], minlength=width))
    cells[1] -= np.diag(np.bincount(types[out], minlength=width))
    return total, cells


@lru_cache(maxsize=None)
def _divisor(key: tuple) -> int:
    """How often the cells reach a set of the class: once per qualifying
    pair, a connected pair whose union holds at least two vertices of
    every other member, and for four triangles once per order of the
    other two."""
    rep = [set(t) for t in key_representative(key)]
    pairs = sum(
        bool(rep[i] & rep[j])
        and all(len(t & (rep[i] | rep[j])) >= 2 for o, t in enumerate(rep) if o not in (i, j))
        for i, j in itertools.combinations(range(len(rep)), 2)
    )
    return pairs * math.factorial(len(rep) - 2)


def _injective(size: np.ndarray, masks: Sequence[int]) -> np.ndarray:
    """Per cycle, the choices of distinct vertices, one from X_S for each
    S in masks, where size[S] is |X_S| and X of a union of sets of edges
    is the intersection of theirs: a Moebius sum over the set partitions
    of the choices, each block weighted (-1)^(|block| - 1) (|block| - 1)!."""
    total = 0
    for blocks in _set_partitions(len(masks)):
        term = 1
        for block in blocks:
            union = 0
            for i in block:
                union |= masks[i]
            term = term * (-1) ** (len(block) - 1) * math.factorial(len(block) - 1) * size[union]
        total = total + term
    return total


def _cycle_counts(index: _Index, thirds: np.ndarray, e: np.ndarray) -> tuple[int, int]:
    """Sets of _CYCLE8, and twice those of _CYCLE7, on the 4-cycles whose
    edges as, sb, bt and ta are the rows of edge ids e, given the ascending
    keys e * n + x of every edge e of a triangle and its third vertex x.

    X_1..X_4 are the third vertices of the triangles on as, sb, bt and ta,
    less a, s, b and t. Each vertex of their union is taken from the
    first X holding it, with the mask of the X's that hold it: |X_S| for a
    set S of the four edges counts the vertices whose mask holds S."""
    c = len(e)
    # the cycle's vertices are the ends of its edges as and bt
    cycle = np.hstack(np.divmod(index.edges[e[:, [0, 2]]], index.n))
    tally = []
    for i in range(4):
        k, pos = _expand(index.on_start[e[:, i]], index.on_count[e[:, i]])
        x = thirds[pos] % index.n
        mask = np.zeros(len(x), np.int64)
        for j in range(4):
            key = e[k, j] * index.n + x
            at = np.minimum(np.searchsorted(thirds, key), len(thirds) - 1)
            mask |= (thirds[at] == key).astype(np.int64) << j
        keep = (cycle[k] != x[:, None]).all(1) & (mask & (1 << i) - 1 == 0)
        tally.append(k[keep] * 16 + mask[keep])
    size = np.bincount(np.concatenate(tally), minlength=16 * c).reshape(c, 16).T.copy()
    for bit in (1, 2, 4, 8):
        for mask in range(16):
            if not mask & bit:
                size[mask] += size[mask | bit]
    # |X| below 2^14 keeps every term of the sums below 2^62
    assert size.max(initial=0) < 1 << 14
    eight = _injective(size, (1, 2, 4, 8))
    # z in two adjacent X_i, then one vertex from each of the other two
    seven = sum(_injective(size, masks) for masks in ((3, 4, 8), (6, 8, 1), (12, 1, 2), (9, 2, 4)))
    return sum(eight.tolist()), sum(seven.tolist())


def _contact_cycles(index: _Index) -> tuple[int, int]:
    """The sets of the classes _CYCLE8 and _CYCLE7, which no pair reaches.

    Both hang on a 4-cycle a - s - b - t of edges that triangles cover,
    with a triangle on each of its edges. Per such cycle, _CYCLE8 sets are
    the choices of distinct x_i in X_i, and _CYCLE7 sets the choices of
    distinct z in two adjacent X_i and x_j, x_k in the other two; each
    _CYCLE7 set hangs on two cycles, through z or through the vertex the
    two adjacent edges share. The census's wedge kernel lists each cycle
    once, as a pair of wedges a - s - b and a - t - b of one (top, bottom)
    group, and a pass counts cycles whose edges carry about _CHUNK
    triangles; every cycle adds at least one to the census's b statistic.
    """
    n = index.n
    on = np.repeat(np.arange(len(index.edges)), index.on_count)
    # the triangles on each edge e as keys e * n + x of their third vertices
    # x, ascending: those on e start at on_start[e]
    thirds = np.sort(on * n + index.tv[index.on_tri].sum(1) - index.edges[on] // n - index.edges[on] % n)
    eight = twice_seven = 0
    for tm, mw, group in _wedges(n, index.edges):
        # each wedge pairs with the later ones of its group, and a cycle
        # costs the triangles on its four edges
        size = np.diff(np.r_[group, len(tm)])
        end = np.repeat(group + size, size)
        later = end - np.arange(len(tm)) - 1
        half = index.on_count[tm] + index.on_count[mw]
        cum = np.r_[0, np.cumsum(half)]
        for p, q in _runs(later * half + cum[end] - cum[1:], _CHUNK):
            j, other = _expand(np.arange(p, q) + 1, later[p:q])
            j += p
            got = _cycle_counts(index, thirds, np.stack([tm[j], mw[j], mw[other], tm[other]], 1))
            eight += got[0]
            twice_seven += got[1]
    assert twice_seven % 2 == 0
    return eight, twice_seven // 2


def _count_configurations(triangles: Sequence[Triangle], budget: int) -> Counter:
    """The connected sets of 1 to 4 triangles, counted by class key for
    the classes of nonzero coefficient; the other sets of 3 or 4
    triangles are counted together under (3, ()) and (4, ()).

    Single triangles are counted as given, and connected pairs by
    overlap. The sets of each size are counted in all as connected
    subgraphs of the triangles' intersection graph (_connected_sets),
    which is what the budget caps: it is checked first against the sets
    at a common vertex, before that graph is built, then exactly.

    A class of 3 or 4 triangles with a nonzero coefficient is counted per
    connected pair P = {a, b} (a < b) whose union U(P) holds two or more
    vertices of every other member (a qualifying pair). P's candidates
    are the triangles other than a and b holding two or more vertices of
    U(P), gathered from the edges between them; each is typed by the
    bitmask of the slots of U(P) it contains (see _cell_key) and has at
    most one vertex outside U(P). A candidate c falls in the cell (share,
    t) of its type, and an ordered pair (c, w) of distinct candidates in
    the cell (share, t1, t2, k), k = 1 if c and w share their outside
    vertex and 0 if not. Each cell fixes the class of {a, b, c(, w)}, so
    a class's count is its cell sum over _divisor. The two classes with
    no qualifying pair are counted per 4-cycle (_contact_cycles).
    """
    over = f"connected configuration count exceeded budget {budget}"
    if len(triangles) == 0:
        return Counter()
    index = _index(triangles)
    n1 = len(index.tv)

    def stars(k):  # sets of k >= 2 triangles with a common vertex
        return _choose_sum(index.at_count, k) - _choose_sum(index.on_count, k)

    if n1 + stars(2) + stars(3) + stars(4) > budget:
        raise BudgetExceededError(over)
    levels = _connected_sets(index)
    if sum(levels) > budget:
        raise BudgetExceededError(over)

    edge_pairs = _choose_sum(index.on_count, 2)
    counts = Counter({_ONE: n1})
    for sh, cnt in ((1, levels[1] - edge_pairs), (2, edge_pairs)):
        if cnt:
            counts[_cell_key(sh)] = cnt
    sums: Counter = Counter()
    for sh, (third, fourth) in _cells(index).items():
        for t in np.flatnonzero(third).tolist():
            sums[_cell_key(sh, (t,))] += int(third[t])
        for k, t1, t2 in np.argwhere(fourth).tolist():
            sums[_cell_key(sh, (t1, t2), k)] += int(fourth[k, t1, t2])
    for key, total in sums.items():
        if _record_for_key(key).coefficient:
            counts[key], rest = divmod(total, _divisor(key))
            assert not rest, f"uneven cell sum for {key}"
    counts[_CYCLE8], counts[_CYCLE7] = _contact_cycles(index)
    for level in (3, 4):
        rest = levels[level - 1] - sum(cnt for (k, _), cnt in counts.items() if k == level)
        assert rest >= 0, f"more keyed sets of {level} triangles than connected ones"
        counts[level, ()] = rest
    return +counts  # without the classes found no time


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

    No set is visited: the number of connected configurations comes from
    graphlet counts of the triangles' intersection graph, and the count
    of each nonzero class from the cells of candidate triangles around
    each connected pair or from the 4-cycles (see _count_configurations).
    The budget bounds the number of connected configurations: a graph
    with more sets of up to four triangles at a common vertex is refused
    before the intersection graph is built, and any other with more is
    refused before a class is counted.
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
