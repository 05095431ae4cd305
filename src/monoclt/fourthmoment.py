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
Moebius inversion over the set partitions of the four positions, with
E prod Y over a set of cliques equal to x^(|V(union)| - components(union)):
it is moments.cumulant_coefficient at order 4, and the excess is
moments.cumulant over the discovered classes and their counts.

Class discovery reads the graph's triangle census alone: its triangles,
and the triangles at each vertex and on each edge. It counts the
connected sets whose class has a nonzero coefficient without visiting
them (see _count_configurations), and the budget caps W, a closed-form
bound on the rows its passes read (see _work):

- a nonzero class of three or four triangles but two has a connected
  pair whose union holds two or more vertices of every other member.
  Per connected pair, the triangles holding two vertices of its union
  are typed by the union vertices they contain. Numpy counts them, and
  ordered pairs of them, by type in small Gram matrices (cells) of the
  per-pair counts that edge_d and the listed triples of union vertices
  give; only ordered pairs sharing an outside vertex read triangles. A
  cell fixes the class of its sets, whose count is the cell sum over its
  qualifying pairs;
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
from typing import Iterable, Sequence

import numpy as np

from .census import TriangleCensus, _choose_sum, _exact, _expand, _find, _runs, _wedges, pyramid_counts
from .errors import BadParamsError, BudgetExceededError, NoTrianglesError
from .moments import _check_colors, _component_count, _set_partitions, cumulant, cumulant_coefficient, t3_mean_var
from .ratpoly import fraction_json

DEFAULT_BUDGET = 10**7

Triangle = tuple[int, int, int]


# ---------------------------------------------------------------------------
# class coefficients


def class_coefficient(triangles: Iterable[Triangle]) -> tuple[int, ...]:
    """Coefficient polynomial of the class represented by these 1..4
    distinct triangles: its share of the fourth cumulant of T."""
    return cumulant_coefficient(triangles, 4)


def pyramid_class_coefficient(s: int) -> tuple[int, ...]:
    """Coefficient of the s-pyramid class (s triangles on one shared edge)."""
    if not 1 <= s <= 4:
        raise ValueError("pyramid classes have 1 to 4 triangles")
    return class_coefficient([(0, 1, 2 + i) for i in range(s)])


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
        return tuple(sorted(Counter(v for edge in self.union_edges() for v in edge).values()))

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


def _pairs(tc: TriangleCensus):
    """The connected pairs a < b of triangles, a run of triangles a at a
    time, as (sh, slots) for the pairs sharing sh = 1 and 2 vertices: the
    rows of slots are their a-only vertices, then their b-only ones, then
    the shared ones (see _cell_key)."""
    tv = tc.triangles
    start, count, tri = tc.at
    for lo, hi in _runs(count[tv].sum(1), _CHUNK):
        verts = tv[lo:hi].ravel()
        i, pos = _expand(start[verts], count[verts])
        a, b = lo + i // 3, tri[pos]
        a_in_b = (tv[a][:, :, None] == tv[b][:, None, :]).any(2)
        # each pair once, at the first vertex of a that b contains
        keep = (b > a) & (a_in_b.argmax(1) == i % 3)
        va, vb, a_in_b = tv[a[keep]], tv[b[keep]], a_in_b[keep]
        b_in_a = (vb[:, :, None] == va[:, None, :]).any(2)
        # sorted stably by the masks, a's and b's vertices fall in the order
        # a-only, b-only, shared in a, shared in b; the last are cut
        order = np.argsort(np.hstack([a_in_b, b_in_a]), 1, kind="stable")
        slots = np.take_along_axis(np.hstack([va, vb]), order, 1)
        share = a_in_b.sum(1)
        for sh in (1, 2):
            yield sh, slots[share == sh, :6 - sh]


def _gram(rows: np.ndarray, types: np.ndarray, width: int) -> np.ndarray:
    """M^T M in float64 for the row-by-type count matrix M of the entries
    (rows[i], types[i]), rows ascending from 0 with no gaps, _BLOCK at a time."""
    gram = np.zeros((width, width))
    cut = np.searchsorted(rows, np.arange(0, rows.max(initial=-1) + _BLOCK + 1, _BLOCK))
    for lo, hi in zip(cut, cut[1:]):
        m = np.bincount((rows[lo:hi] - rows[lo]) * width + types[lo:hi], np.ones(hi - lo),
                        (rows[hi - 1] - rows[lo] + 1) * width).reshape(-1, width)
        gram += m.T @ m
    return gram


def _by_third(tc: TriangleCensus, owner: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, ...]:
    """The triangles on the edges e (ids into edge_keys) of owners owner >= 0,
    in groups by (owner, third vertex x) in that order: per triangle, the
    index into e of its edge and its group; per group, its owner and x."""
    k, pos = _expand(tc.on[0][e], tc.edge_d[e])
    key = owner[k] * tc.n + tc.thirds[pos] % tc.n
    order = np.argsort(key, kind="stable")
    new = np.diff(key[order], prepend=-1) != 0
    return k[order], np.cumsum(new) - 1, *np.divmod(key[order[new]], tc.n)


def _cells(tc: TriangleCensus) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The cells of the connected pairs, summed over them by the number of
    vertices they share: third triangles by type, and ordered pairs of
    them by (k, t1, t2). A run of pairs at a time finds the edges between
    their slots, then runs of pairs whose slot edges carry at most _CHUNK
    triangles are counted."""
    cells = {sh: (np.zeros(1 << 6 - sh, np.int64), np.zeros((2, 1 << 6 - sh, 1 << 6 - sh), np.int64))
             for sh in (1, 2)}
    for sh, slots in _pairs(tc):
        first, second = np.triu_indices(6 - sh, 1)
        eid = tc.edge_ids(slots[:, first], slots[:, second])
        for p, q in _runs(np.where(eid < 0, 0, tc.edge_d[eid]).sum(1), _CHUNK):
            for acc, got in zip(cells[sh], _count_chunk(tc, slots[p:q], eid[p:q])):
                acc += got
    return cells


@lru_cache(maxsize=None)
def _layout(s: int) -> tuple[np.ndarray, ...]:
    """For s slots: the types of eid's columns; per slot triple ijk, its
    type, the columns of its edges ij, ik and jk (as indices and as a 0/1
    row), slot k and whether it is neither a nor b."""
    first, second = np.triu_indices(s, 1)
    types = (1 << first) | (1 << second)
    trip = np.array(list(itertools.combinations(range(s), 3)))
    kinds = (1 << trip).sum(1)
    on_side = types & kinds[:, None] == types
    sides = np.nonzero(on_side)[1].reshape(-1, 3)
    # a is the a-only and shared slots, b the b-only and shared ones
    one = (1 << s - 3) - 1
    other = (kinds & one > 0) & (kinds & one << s - 3 > 0)
    return types, kinds, sides, on_side * 1.0, trip[:, 2], other


def _count_chunk(tc: TriangleCensus, slots: np.ndarray, eid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells of one run of pairs with the same overlap, given the ids
    of the edges between their slots (eid, a column per two slots, -1
    where none): candidates by type, and ordered pairs of distinct
    candidates by (k, t1, t2). Listed slot triples but a and b are
    candidates inside U(P), edge_d less them those outside, and H^T H of
    these counts H gives the cells but k = 1 and c = w. Only k = 1 reads
    rows: on the slot edges with outside candidates of pairs with two such,
    the groups of two or more by (pair, third vertex x) with x no slot."""
    width = 1 << slots.shape[1]
    types, kinds, sides, on_side, third, other = _layout(slots.shape[1])
    # look up the slot triples but a and b whose three edges carry triangles
    e = eid[:, sides]
    listed = (e >= 0).all(2) & other
    p, t = np.nonzero(listed)
    listed[p, t] = _find(tc.thirds, e[p, t, 0] * tc.n + slots[p, third[t]])[1]
    hist = np.zeros((len(eid), width))
    hist[:, kinds] = listed
    listed = (listed | ~other) * 1.0
    hist[:, types] = np.where(eid < 0, 0, tc.edge_d[eid]) - listed @ on_side
    total, every = hist.sum(0), hist.T @ hist
    read = (hist[:, types] > 0) & ((hist[:, types] > 0).sum(1) > 1)[:, None]
    p, c = np.nonzero(read)
    k, group, pair, x = _by_third(tc, p, eid[p, c])
    big = np.flatnonzero(np.bincount(group) > 1)
    outside = np.zeros(len(x), bool)
    outside[big] = (slots[pair[big]] != x[big, None]).all(1)
    keep = outside[group]
    shared = _gram((np.cumsum(outside) - 1)[group[keep]], types[c[k[keep]]], width)
    # each Gram counts ordered pairs, so float64 is exact below 2^52
    assert max(every.max(initial=0), shared.max(initial=0)) < 2**52
    shared *= 1 - np.eye(width)
    return total.astype(np.int64), np.stack([every - shared - np.diag(total), shared]).astype(np.int64)


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


def _cycle_counts(tc: TriangleCensus, e: np.ndarray) -> tuple[int, int]:
    """Sets of _CYCLE8, and twice those of _CYCLE7, on the 4-cycles whose
    edges as, sb, bt and ta are the rows of edge ids e.

    X_1..X_4 are the third vertices of the triangles on as, sb, bt and ta,
    less a, s, b and t. Grouped by (cycle, third vertex), each vertex of
    their union comes once, with the mask of the X's that hold it: |X_S|
    for a set S of the four edges counts the vertices whose mask holds S."""
    c = len(e)
    # the cycle's vertices are the ends of its edges as and bt
    cycle = np.hstack(np.divmod(tc.edge_keys[e[:, [0, 2]]], tc.n))
    i, group, owner, x = _by_third(tc, np.tile(np.arange(c), 4), e.T.ravel())
    # a group holds each edge of its cycle at most once
    mask = np.bincount(group, 1 << i // c, len(x)).astype(np.int64)
    keep = (cycle[owner] != x[:, None]).all(1)
    size = np.bincount(owner[keep] * 16 + mask[keep], minlength=16 * c).reshape(c, 16).T.copy()
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


def _contact_cycles(tc: TriangleCensus) -> tuple[int, int]:
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
    eight = twice_seven = 0
    for tm, mw, group in _wedges(tc.n, tc.edge_keys):
        # each wedge pairs with the later ones of its group, and a cycle
        # costs the triangles on its four edges
        size = np.diff(np.r_[group, len(tm)])
        end = np.repeat(group + size, size)
        later = end - np.arange(len(tm)) - 1
        half = tc.edge_d[tm] + tc.edge_d[mw]
        cum = np.r_[0, np.cumsum(half)]
        for p, q in _runs(later * half + cum[end] - cum[1:], _CHUNK):
            j, other = _expand(np.arange(p, q) + 1, later[p:q])
            j += p
            got = _cycle_counts(tc, np.stack([tm[j], mw[j], mw[other], tm[other]], 1))
            eight += got[0]
            twice_seven += got[1]
    assert twice_seven % 2 == 0
    return eight, twice_seven // 2


def _work(tc: TriangleCensus) -> int:
    """W, a bound on the rows the passes of _cells and _contact_cycles
    read, from O(triangles + edges) work before any of them.

    Per connected pair {a, b}, _cells reads the triangles on each edge
    between its slots. Over the pairs, the edges of a and b carry each
    triangle's connected partners times the triangles on its own three
    edges, less those on the edge that a pair sharing one counts twice.
    Any other such edge xy, x in a and y in b, closes a triangle vxy with
    a vertex v that a and b share; per triangle vxy and apex v, at most
    (d(vx) - 1)(d(vy) - 1) pairs reach it, with d(xy) rows each.
    _contact_cycles reads the triangles on the four edges of each 4-cycle
    of covered edges. A cycle u - v - w - z through an edge uv is fixed by
    w and z, so at most (deg(u) - 1)(deg(v) - 1) of them pass through uv,
    and at most the sum of deg(w) - 1 over the neighbours w of v but u
    (or of u but v), deg counting the covered edges at a vertex.
    """
    tv, n = tc.triangles, tc.n
    most = int(tc.at[1].max(initial=0))
    u, v = np.divmod(tc.edge_keys, n)
    ends = np.r_[u, v]
    deg = np.bincount(ends, minlength=n)
    # the degrees of each vertex's neighbours, summed: at most twice the
    # edges, so float64 was exact
    around = np.bincount(ends, deg[np.r_[v, u]], n).astype(np.int64)
    # a triangle's terms come to at most 12 most^3, an edge's to d n^2
    d = _exact(tc.edge_d, 12 * len(tv) * most**3 + len(u) * most * n**2)
    # the edges 01, 02 and 12 of each triangle, opposite its vertices 2, 1 and 0
    te = d[tc.edge_ids(tv[:, [0, 0, 1]], tv[:, [1, 2, 2]])]
    own = (tc.at[1][tv].sum(1) - te.sum(1)) * te.sum(1)
    p = te - 1
    cross = p[:, 0] * p[:, 1] * te[:, 2] + p[:, 0] * p[:, 2] * te[:, 1] + p[:, 1] * p[:, 2] * te[:, 0]
    shared = d * (d - 1) // 2 * d
    cycles = d * np.minimum((deg[u] - 1) * (deg[v] - 1), np.minimum(around[u], around[v]) - deg[u] - deg[v] + 1)
    return int(own.sum() + cross.sum() - shared.sum() + cycles.sum())


def _count_configurations(tc: TriangleCensus) -> Counter:
    """The connected sets of 1 to 4 triangles whose class has a nonzero
    coefficient, counted by class key.

    Single triangles are counted as given, and pairs on an edge as
    sum_e C(d(e), 2); pairs sharing one vertex are separable. A class of 3
    or 4 triangles with a nonzero coefficient is counted per connected
    pair P = {a, b} (a < b) whose union U(P) holds two or more vertices of
    every other member (a qualifying pair). P's candidates are the
    triangles other than a and b holding two or more vertices of U(P),
    counted by type (the slots of U(P) they hold, see _cell_key) from the
    edges between those and their listed triples; each has at most one
    vertex outside U(P). A candidate c falls in the cell (share, t) of its
    type, and an ordered pair (c, w) of distinct candidates in the cell
    (share, t1, t2, k), k = 1 if c and w share their outside vertex and 0
    if not. Each cell fixes the class of {a, b, c(, w)}, so a class's
    count is its cell sum over _divisor. The two classes with no
    qualifying pair are counted per 4-cycle (_contact_cycles).
    """
    counts = Counter({_ONE: len(tc.triangles)})
    if pairs := _choose_sum(tc.edge_d, 2):
        counts[_cell_key(2)] = pairs
    sums: Counter = Counter()
    for sh, (third, fourth) in _cells(tc).items():
        for t in np.flatnonzero(third).tolist():
            sums[_cell_key(sh, (t,))] += int(third[t])
        for k, t1, t2 in np.argwhere(fourth).tolist():
            sums[_cell_key(sh, (t1, t2), k)] += int(fourth[k, t1, t2])
    for key, total in sums.items():
        if _record_for_key(key).coefficient:
            counts[key], rest = divmod(total, _divisor(key))
            assert not rest, f"uneven cell sum for {key}"
    counts[_CYCLE8], counts[_CYCLE7] = _contact_cycles(tc)
    return +counts  # without the classes found no time


@dataclass(frozen=True)
class Discovery:
    """Classes found in one graph: entries pair each nonzero-coefficient
    class with its embedded-copy count, in key order; enumerated is W, the
    bound on the rows discovery reads that the budget caps (see _work)."""

    entries: tuple[tuple[ClassRecord, int], ...]
    enumerated: int


def discover_classes(tc: TriangleCensus, *, budget: int = DEFAULT_BUDGET) -> Discovery:
    """Count the connected 1..4-triangle configurations of the census tc
    whose class has a nonzero coefficient, grouped into canonical classes
    with exact counts.

    No set is visited: the count of each class comes from the cells of
    candidate triangles around each connected pair or from the 4-cycles
    (see _count_configurations). The budget caps W, a bound on the rows
    those passes read (see _work), and a graph past it is refused before
    any pass.
    """
    if budget < 0:
        raise BadParamsError(f"budget must be >= 0, got {budget}")
    work = _work(tc)
    if work > budget:
        raise BudgetExceededError(f"class discovery reads up to {work} rows, past budget {budget}")
    counts = _count_configurations(tc)
    entries = []
    for key in sorted(counts):
        rec = _record_for_key(key)
        # only connected sets are counted; anything else slipping through
        # would signal broken counting
        assert rec.is_connected(), f"disconnected class emitted: {key}"
        entries.append((rec, counts[key]))
    return Discovery(entries=tuple(entries), enumerated=work)


# ---------------------------------------------------------------------------
# the exact fourth moment


@dataclass(frozen=True)
class Decomposition:
    """E(Z^4) - 3 for one graph and color count, split over classes."""

    c: int
    sigma2: Fraction
    entries: tuple[tuple[ClassRecord, int], ...]
    excess4: Fraction

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
        }


def fourth_moment_exact(tc: TriangleCensus, c: int, *, budget: int = DEFAULT_BUDGET) -> Decomposition:
    """Exact E(Z^4) - 3 for the monochromatic triangle count of the graph
    behind the census tc."""
    x = _check_colors(c)
    if len(tc.triangles) < 1:
        raise NoTrianglesError("fourth moment needs at least one triangle")
    disc = discover_classes(tc, budget=budget)
    sigma2 = t3_mean_var(pyramid_counts(tc), c).variance
    kappa4 = cumulant(((rec.representative, cnt) for rec, cnt in disc.entries), 4, x)
    return Decomposition(c=c, sigma2=sigma2, entries=disc.entries, excess4=kappa4 / sigma2**2)
