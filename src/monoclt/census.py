"""Exact subgraph statistics built on a triangle census.

The census records every triangle once plus, for each edge e, the number
d(e) of triangles containing e; on first use it also lists the triangles
at each vertex and on each edge, which class discovery and the fourth
moment read. Everything downstream is a function of the graph and these
d-values:

    pyramid counts   n_s = sum_e C(d(e), s); s triangles on a common edge
    N(C4)            number of 4-cycles
    b statistic      weighted 4-cycle count over triangle-supported edges
    s statistic      sum over vertex triples (under a given ordering) of
                     d(first, last)^2 * d(second, last)^2
    score ordering   vertices sorted by triangles-through-v plus
                     edge-sharing pairs at v, descending

Everything is computed in numpy passes over arrays: triangles as rows of
ascending vertices, edges as ascending keys u * n + v (u < v). Vertices
are ranked by (degree, id) (Chiba & Nishizeki 1985). Triangles come from
closing each edge, oriented up, against the forward neighbours of its
upper end; N(C4) and b from one wedge kernel that charges each 4-cycle to
its top vertex (unit weights for N(C4), d(e) on triangle-supported edges
for b), which class discovery's contact 4-cycles read too. Both take
O(sum_e min-degree) time. A pass holds at most _PASS candidate triangles
or wedges, or those of one edge or of one (top, bottom) pair when it
alone has more; a top with more wedges takes passes of up to as many as
it has edges down, so that its cost stays linear. Working memory follows
that bound, the number of vertices and the maximum degree, not the
number of wedges.

Every sum is exact: int64 is used only where a bound checked beforehand
keeps it below 2^63, and Python integers (object arrays) past it; n_4 =
sum C(d, 4) alone is quartic in the d-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .graph import Graph

# candidate triangles or wedges per numpy pass
_PASS = 1 << 14

# Every sort here is a stable argsort: each other numpy sort kernel is more
# machine code, and touching one adds 0.25 to 0.4 MB to the peak RSS of a
# short run.

_INT64 = 2**63


def _expand(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, position) for the count[i] positions from start[i], by i."""
    i = np.repeat(np.arange(len(count)), count)
    return i, np.arange(len(i)) - np.repeat(np.cumsum(count) - count - start, count)


def _runs(weights: np.ndarray, bound: int):
    """Consecutive ranges (lo, hi) of the items, each of weight at most
    bound in all or of a single item."""
    cut = np.concatenate(([0], np.cumsum(weights)))
    lo = 0
    while lo < len(weights):
        hi = max(lo + 1, int(np.searchsorted(cut, cut[lo] + bound, "right")) - 1)
        yield lo, hi
        lo = hi


def _choose_sum(counts: np.ndarray, k: int) -> int:
    """The sum of C(c, k) over the nonnegative counts c, in Python integers."""
    mult = np.bincount(counts)
    return sum(math.comb(v, k) * int(mult[v]) for v in np.flatnonzero(mult).tolist())


def _exact(values: np.ndarray, bound: int) -> np.ndarray:
    """values as they are while bound, a bound on every sum and product
    the caller forms of them, stays below 2^63; as Python integers past it."""
    return values if bound < _INT64 else values.astype(object)


def _find(keys: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each query sits in the ascending keys (clipped to the last
    place), and whether it is there."""
    if not len(keys):
        return np.zeros(np.shape(query), np.int64), np.zeros(np.shape(query), bool)
    at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return at, keys[at] == query


def _edge_counts(tv: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges of the triangles (rows of ascending vertices below n) as
    ascending keys u * n + v, and the number d of triangles on each."""
    # column by column: the first column is already in order
    keys = (tv[:, [0, 0, 1]] * n + tv[:, [1, 2, 2]]).T.ravel()
    keys = keys[np.argsort(keys, kind="stable")]
    new = np.ones(len(keys), bool)
    new[1:] = keys[1:] != keys[:-1]
    return keys[new], np.diff(np.flatnonzero(np.r_[new, True]))


def _rank(deg: np.ndarray) -> np.ndarray:
    """Each vertex's place in the order by (degree, id)."""
    rank = np.empty(len(deg), np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(len(deg))
    return rank


@dataclass(frozen=True, eq=False)
class TriangleCensus:
    """The triangles of a graph on n vertices, as an (m, 3) int64 array of
    ascending rows in lexicographic order, and the edges they cover, as
    ascending keys u * n + v (u < v) with the number edge_d of triangles
    on each. The triangles at each vertex and on each edge are built on
    first use."""

    n: int
    triangles: np.ndarray
    edge_keys: np.ndarray
    edge_d: np.ndarray

    def edge_ids(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The ids into edge_keys of the edges uv, or -1 where no triangle covers uv."""
        at, hit = _find(self.edge_keys, np.minimum(u, v) * self.n + np.maximum(u, v))
        return np.where(hit, at, -1)

    @cached_property
    def at(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The triangles at each vertex: its start and count in the ids of
        the triangles listed vertex by vertex, and those ids."""
        count = np.bincount(self.triangles.ravel(), minlength=self.n)
        return np.cumsum(count) - count, count, np.argsort(self.triangles.ravel(), kind="stable") // 3

    @cached_property
    def on(self) -> tuple[np.ndarray, np.ndarray]:
        """The triangles on each edge: its start in the ids of the triangles
        listed edge by edge, and those ids; edge_d counts them."""
        tv = self.triangles
        edge = self.edge_ids(tv[:, [0, 0, 1]], tv[:, [1, 2, 2]])
        return np.cumsum(self.edge_d) - self.edge_d, np.argsort(edge.ravel(), kind="stable") // 3

    @cached_property
    def thirds(self) -> np.ndarray:
        """The triangles that on lists, as keys e * n + x of their edge e and
        third vertex x; ascending, as lexicographic order lists them so."""
        e = np.repeat(np.arange(len(self.edge_keys)), self.edge_d)
        return e * self.n + self.triangles[self.on[1]].sum(1) - sum(np.divmod(self.edge_keys[e], self.n))


@dataclass(frozen=True)
class PyramidCounts:
    """n_s = number of s-pyramids (s distinct triangles sharing one edge)."""

    n1: int
    n2: int
    n3: int
    n4: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n1, self.n2, self.n3, self.n4)


def triangle_census(g: Graph) -> TriangleCensus:
    """Every triangle once, by degree-ordered closing of oriented edges.

    Each edge runs up from its endpoint lower by (degree, id), as a key
    a * n + b. A triangle is found once, at the edge a -> b from its
    lowest vertex to its middle one, as a forward neighbour w of b with
    a -> w an edge too, looked up in the sorted keys; a pass closes a run
    of edges with at most _PASS candidates w.
    """
    n = g.n
    e = g.edge_array
    rank = _rank(np.bincount(e.ravel(), minlength=n))
    up = rank[e[:, 0]] < rank[e[:, 1]]
    fwd = np.where(up, e[:, 0], e[:, 1]) * n + np.where(up, e[:, 1], e[:, 0])
    fwd = fwd[np.argsort(fwd, kind="stable")]
    a, b = np.divmod(fwd, n)
    start = np.searchsorted(fwd, np.arange(n + 1) * n)
    out = np.diff(start)
    found = [np.empty((3, 0), np.int64)]
    for lo, hi in _runs(out[b], _PASS):
        i, pos = _expand(start[b[lo:hi]], out[b[lo:hi]])
        i += lo
        w = fwd[pos] % n
        key = a[i] * n + w
        hit = _find(fwd, key)[1]
        found.append(np.array([a[i[hit]], b[i[hit]], w[hit]]))
    return index_triangles(np.concatenate(found, 1).T, n)


def index_triangles(rows, n: int | None = None) -> TriangleCensus:
    """The census of the triangles given as rows of three distinct
    vertices below n (by default, one more than the largest), each
    triangle once in any vertex order; any other row is a ValueError."""
    rows = np.asarray(rows, np.int64).reshape(-1, 3)
    n = int(rows.max(initial=-1)) + 1 if n is None else n
    low, high = rows.min(1), rows.max(1)
    mid = rows.sum(1) - low - high
    if n * n >= 1 << 63:  # so that every edge key u * n + v fits in int64
        raise ValueError(f"vertex count {n} is over 3 * 10^9")
    if not (low.min(initial=0) >= 0 and high.max(initial=-1) < n and np.all((low < mid) & (mid < high))):
        raise ValueError(f"a triangle is not three distinct vertices in [0, {n})")
    # lexicographic order: by the last vertex, then stably by the first two
    order = high.argsort(kind="stable")
    order = order[(low[order] * n + mid[order]).argsort(kind="stable")]
    tv = np.stack([low, mid, high], 1)[order]
    if (tv[1:] == tv[:-1]).all(1).any():
        raise ValueError("a triangle is listed twice")
    return TriangleCensus(n, tv, *_edge_counts(tv, n))


def pyramid_counts(tc: TriangleCensus) -> PyramidCounts:
    ends = _choose_sum(tc.edge_d, 1)
    assert ends % 3 == 0
    return PyramidCounts(ends // 3, *(_choose_sum(tc.edge_d, s) for s in (2, 3, 4)))


def _grouped(ends: np.ndarray, tm: np.ndarray, mw: np.ndarray):
    """The wedges with edge ids tm and mw sorted by their group keys ends,
    and the start of each group."""
    g = np.argsort(ends, kind="stable")
    ends = ends[g]
    return tm[g], mw[g], np.flatnonzero(np.r_[True, ends[1:] != ends[:-1]])


def _wedges(n: int, edges: np.ndarray):
    """The wedges t - m - w with m and w ranked below t, by (degree, id),
    of the edges given as keys u * n + v (u < v), a pass at a time: the
    ids into edges of each wedge's edges t - m and m - w, sorted so that
    each (t, w) group is contiguous, and the start of each group.

    Chiba & Nishizeki (1985): the midpoint m is ranked below t, so its
    neighbours below t cost the smaller endpoint degree of the edge tm,
    and every 4-cycle is a pair of wedges of one group at its top-ranked
    vertex. A pass holds a run of tops with at most _PASS wedges; for a
    top with more, its wedges whose bottoms lie in a range of ranks
    holding at most _PASS of them, or as many as the top has edges down
    if that is more; or one (t, w) group when it alone has more.
    """
    u, v = np.divmod(edges, n)
    # each edge both ways, as sorted keys x * n + y of the ranks
    tails = np.concatenate((u, v))
    rank = _rank(np.bincount(tails, minlength=n))
    key = rank[tails] * n + rank[np.concatenate((v, u))]
    s = np.argsort(key, kind="stable")
    key = key[s]
    eid = s % len(edges)
    y = key % n
    start = np.searchsorted(key, np.arange(n) * n)
    # the edges down from each top, and how many neighbours of their lower
    # end lie below the top
    down = np.flatnonzero(y < key // n)
    top, mid = key[down] // n, y[down]
    below = np.searchsorted(key, mid * n + top) - start[mid]
    by_top = np.searchsorted(top, np.arange(n + 1))
    cum = np.concatenate(([0], np.cumsum(below)))
    for lo, hi in _runs(cum[by_top[1:]] - cum[by_top[:-1]], _PASS):
        a, b = by_top[lo], by_top[hi]
        if cum[b] - cum[a] <= _PASS:
            i, pos = _expand(start[mid[a:b]], below[a:b])
            i += a
            if len(i):
                yield _grouped(top[i] * n + y[pos], eid[down[i]], eid[pos])
            continue
        # one top (rank lo) with more: tally its bottoms a piece at a time,
        # then take its wedges a range of bottom ranks at a time. A piece
        # costs a length-lo tally and a range a search of the b - a edges
        # down, so each grows with those, and the top's cost stays linear.
        tally = np.zeros(lo, np.int64)
        for p, q in _runs(below[a:b], max(_PASS, lo)):
            tally += np.bincount(y[_expand(start[mid[a + p:a + q]], below[a + p:a + q])[1]], minlength=lo)
        first = start[mid[a:b]]
        for _, t in _runs(tally, max(_PASS, b - a)):
            end = np.searchsorted(key, mid[a:b] * n + t) if t < lo else start[mid[a:b]] + below[a:b]
            i, pos = _expand(first, end - first)
            first = end
            i += a
            if len(i):
                yield _grouped(y[pos], eid[down[i]], eid[pos])


def _wedge_c4(n: int, edges: np.ndarray, weights: np.ndarray) -> int:
    """Sum over 4-cycles (on distinct vertices, up to rotation/reflection)
    of the product of the four edge weights, for the edges given as keys
    u * n + v (u < v) with nonnegative int64 weights.

    Each wedge t - m - w of the kernel has the weight product
    p = w(tm) w(mw); per (t, w), P = sum p and Q = sum p^2, and P^2 - Q
    counts the cycles through t and its opposite vertex w once per
    ordering of the two midpoints.
    """
    most = int(weights.max(initial=0)) ** 2
    total = 0
    for tm, mw, group in _wedges(n, edges):
        # a pass's P, and the sum of its P^2, are at most its wedges times
        # the largest product, squared
        prod = _exact(weights[tm], (len(tm) * most) ** 2) * weights[mw]
        P, Q = np.add.reduceat(prod, group), np.add.reduceat(prod * prod, group)
        total += int((P * P - Q).sum())
    assert total % 2 == 0
    return total // 2


def count_c4(g: Graph) -> int:
    """Number of distinct 4-cycle subgraphs: the wedge kernel with unit weights."""
    e = g.edge_array
    return _wedge_c4(g.n, e[:, 0] * g.n + e[:, 1], np.ones(len(e), np.int64))


def b_statistic(tc: TriangleCensus) -> int:
    """Weighted 4-cycle count: sum over 4-cycles (on distinct vertices,
    up to rotation/reflection) of the product of the four edge d-values.

    The wedge kernel on the triangle-supported edges, weighted by d(e);
    cycles through an edge with d = 0 contribute nothing.
    """
    return _wedge_c4(tc.n, tc.edge_keys, tc.edge_d)


def score_ordering(tc: TriangleCensus) -> list[int]:
    """Vertices sorted by score descending, ties by ascending id.

    score(v) = (# triangles containing v)
             + (# edge-sharing triangle pairs whose shared edge meets v)
             = tri(v) + sum_{u in adj(v)} C(d(u, v), 2)
    """
    # every score, and twice every C(d, 2), is at most 3 n1 + 2 n2
    d = _exact(tc.edge_d, 3 * len(tc.triangles) + 2 * _choose_sum(tc.edge_d, 2))
    pairs = d * (d - 1) // 2
    score = np.bincount(tc.triangles.ravel(), minlength=tc.n).astype(d.dtype)
    for end in np.divmod(tc.edge_keys, tc.n):
        np.add.at(score, end, pairs)
    return np.argsort(-score, kind="stable").tolist()


def s_statistic(tc: TriangleCensus, order: Sequence[int]) -> int:
    """sum over position triples p1 < p2 < p3 of
    d(order[p1], order[p3])^2 * d(order[p2], order[p3])^2.

    The value is labeling-relative by design: the ordering is an explicit
    argument so its effect is testable. Computed per last-position vertex
    w as (S1^2 - S2)/2 with S1 = sum d^2, S2 = sum d^4 over supported
    neighbors of w that appear earlier in the ordering.
    """
    if sorted(order) != list(range(tc.n)):
        raise ValueError("order must be a permutation of all vertices")
    pos = np.empty(tc.n, np.int64)
    pos[np.asarray(order, dtype=np.int64)] = np.arange(tc.n)
    u, v = np.divmod(tc.edge_keys, tc.n)
    last = np.where(pos[u] > pos[v], u, v)
    # each S1 is at most the sum of all d^2, so each S1^2 and S2, and
    # their sums, are at most its square
    squares = 2 * _choose_sum(tc.edge_d, 2) + _choose_sum(tc.edge_d, 1)
    d2 = _exact(tc.edge_d, squares * squares) ** 2
    s1, s2 = np.zeros(tc.n, d2.dtype), np.zeros(tc.n, d2.dtype)
    np.add.at(s1, last, d2)
    np.add.at(s2, last, d2 * d2)
    return int(((s1 * s1 - s2) // 2).sum())
