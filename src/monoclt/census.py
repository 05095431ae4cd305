"""Exact subgraph statistics built on a triangle census.

The census records every triangle once plus, for each edge e, the number
d(e) of triangles containing e. Everything downstream is a function of
the graph and these d-values:

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

import itertools
import math
from dataclasses import dataclass
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


def _exact_sum(values: np.ndarray) -> int:
    """The sum of nonnegative int64 values, asserted free of overflow."""
    assert values.max(initial=0) <= (_INT64 - 1) // max(len(values), 1)
    return int(values.sum())


def _exact(values: np.ndarray, bound: int) -> np.ndarray:
    """values as they are while bound, a bound on every sum and product
    the caller forms of them, stays below 2^63; as Python integers past it."""
    return values if bound < _INT64 else values.astype(object)


def _edge_counts(tv: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of the triangles (rows of ascending vertices below n) as
    ascending keys u * n + v, the number d of triangles on each, and the
    ids of each triangle's edges uv, uw and vw."""
    # column by column: the first column is already in order
    keys = (tv[:, [0, 0, 1]] * n + tv[:, [1, 2, 2]]).T.ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.ones(len(keys), bool)
    new[1:] = keys[1:] != keys[:-1]
    edge = np.empty(len(keys), np.int64)
    edge[order] = np.cumsum(new) - 1
    return keys[new], np.bincount(edge, minlength=int(new.sum())), edge.reshape(3, -1).T


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
    on each; d(u, v) looks one edge up, 0 if no triangle covers it."""

    n: int
    triangles: np.ndarray
    edge_keys: np.ndarray
    edge_d: np.ndarray

    def d(self, u: int, v: int) -> int:
        key = min(u, v) * self.n + max(u, v)
        i = int(np.searchsorted(self.edge_keys, key))
        return int(self.edge_d[i]) if i < len(self.edge_keys) and self.edge_keys[i] == key else 0


@dataclass(frozen=True)
class PyramidCounts:
    """n_s = number of s-pyramids (s distinct triangles sharing one edge)."""

    n1: int
    n2: int
    n3: int
    n4: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n1, self.n2, self.n3, self.n4)


def _edge_array(g: Graph) -> np.ndarray:
    return np.fromiter(itertools.chain.from_iterable(g.edges), np.int64, 2 * len(g.edges)).reshape(-1, 2)


def triangle_census(g: Graph) -> TriangleCensus:
    """Every triangle once, by degree-ordered closing of oriented edges.

    Each edge runs up from its endpoint lower by (degree, id), as a key
    a * n + b. A triangle is found once, at the edge a -> b from its
    lowest vertex to its middle one, as a forward neighbour w of b with
    a -> w an edge too, looked up in the sorted keys; a pass closes a run
    of edges with at most _PASS candidates w.
    """
    n = g.n
    e = _edge_array(g)
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
        at = np.minimum(np.searchsorted(fwd, key), len(fwd) - 1)
        hit = fwd[at] == key
        found.append(np.array([a[i[hit]], b[i[hit]], w[hit]]))
    found = np.concatenate(found, 1)
    low, high = found.min(0), found.max(0)
    mid = found.sum(0) - low - high
    # lexicographic order: by the last vertex, then stably by the first two
    order = high.argsort(kind="stable")
    order = order[(low[order] * n + mid[order]).argsort(kind="stable")]
    tv = np.stack([low, mid, high], 1)[order]
    edge_keys, edge_d, _ = _edge_counts(tv, n)
    return TriangleCensus(n=n, triangles=tv, edge_keys=edge_keys, edge_d=edge_d)


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
    e = _edge_array(g)
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
