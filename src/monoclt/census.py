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

N(C4) and b come from one degree-ordered wedge kernel over a weighted
adjacency (unit weights for N(C4), d(e) on triangle-supported edges for
b): O(sum_e min-degree) time and O(n + m) memory, so hubs cost no more
than their edges.

All counts are exact Python integers (they overflow 64 bits quickly:
n_4 = sum C(d, 4) is quartic in the d-values).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import comb
from typing import Mapping, Sequence

from .graph import Graph


@dataclass(frozen=True)
class TriangleCensus:
    """Triangle list (sorted triples, ascending) and per-edge triangle counts.

    edge_tri holds only edges with d > 0; use d(u, v) for a defaulted lookup.
    """

    n: int
    triangles: tuple[tuple[int, int, int], ...]
    edge_tri: Mapping[tuple[int, int], int]

    def d(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self.edge_tri.get((u, v), 0)


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
    """Enumerate all triangles by degree-ordered neighbor intersection.

    Each triangle is reported once with ascending vertices; work is
    O(sum_e min-degree-endpoint) after ranking vertices by degree.
    """
    rank = {v: r for r, v in enumerate(sorted(range(g.n), key=lambda v: (g.degree(v), v)))}
    fwd = [frozenset(w for w in g.adj[v] if rank[w] > rank[v]) for v in range(g.n)]
    triangles = []
    edge_tri: dict[tuple[int, int], int] = defaultdict(int)
    for u, v in g.edges:
        a, b = (u, v) if rank[u] < rank[v] else (v, u)
        for w in fwd[a] & fwd[b]:
            tri = tuple(sorted((u, v, w)))
            triangles.append(tri)
            x, y, z = tri
            edge_tri[(x, y)] += 1
            edge_tri[(x, z)] += 1
            edge_tri[(y, z)] += 1
    triangles.sort()
    return TriangleCensus(n=g.n, triangles=tuple(triangles), edge_tri=dict(edge_tri))


def pyramid_counts(tc: TriangleCensus) -> PyramidCounts:
    ns = [0, 0, 0, 0]
    for d in tc.edge_tri.values():
        ns[0] += d
        ns[1] += comb(d, 2)
        ns[2] += comb(d, 3)
        ns[3] += comb(d, 4)
    assert ns[0] % 3 == 0
    return PyramidCounts(ns[0] // 3, ns[1], ns[2], ns[3])


def _weighted_c4(adj: Sequence[Sequence[tuple[int, int]]]) -> int:
    """Sum over 4-cycles (on distinct vertices, up to rotation/reflection)
    of the product of the four edge weights; adj[v] lists (neighbor, weight).

    Degree-ordered wedge count (Chiba & Nishizeki 1985): rank vertices by
    (degree, id) and charge each cycle to its top-ranked vertex v. For each
    v, walk the wedges v-u-w with u and w ranked below v, accumulating
    P[w] = sum_u w(vu) w(uw) and Q[w] = sum_u (w(vu) w(uw))^2; then
    P[w]^2 - Q[w] counts the cycles through v and its opposite vertex w
    once per ordering of the two midpoints. The middle vertex u is ranked
    below v, so scanning its neighbors costs the smaller endpoint degree
    of the edge vu: O(sum_e min-degree) time, O(n + m) memory.
    """
    rank = [0] * len(adj)
    for r, v in enumerate(sorted(range(len(adj)), key=lambda v: (len(adj[v]), v))):
        rank[v] = r
    total = 0
    for v, nbrs in enumerate(adj):
        top = rank[v]
        P: dict[int, int] = {}
        Q: dict[int, int] = {}
        for u, a in nbrs:
            if rank[u] < top:
                for w, b in adj[u]:
                    if rank[w] < top:
                        prod = a * b
                        P[w] = P.get(w, 0) + prod
                        Q[w] = Q.get(w, 0) + prod * prod
        total += sum(p * p - Q[w] for w, p in P.items())
    assert total % 2 == 0
    return total // 2


def count_c4(g: Graph) -> int:
    """Number of distinct 4-cycle subgraphs: the weighted 4-cycle kernel
    with unit weights, O(sum_e min-degree) time and O(n + m) memory."""
    return _weighted_c4([[(u, 1) for u in nbrs] for nbrs in g.adj])


def _support_adjacency(tc: TriangleCensus) -> list[list[tuple[int, int]]]:
    """vertex -> [(neighbor, d(edge))] over triangle-supported edges."""
    supp: list[list[tuple[int, int]]] = [[] for _ in range(tc.n)]
    for (u, v), d in tc.edge_tri.items():
        supp[u].append((v, d))
        supp[v].append((u, d))
    return supp


def b_statistic(tc: TriangleCensus) -> int:
    """Weighted 4-cycle count: sum over 4-cycles (on distinct vertices,
    up to rotation/reflection) of the product of the four edge d-values.

    The weighted 4-cycle kernel on the triangle-supported edges, weighted
    by d(e); cycles through an edge with d = 0 contribute nothing. Takes
    O(sum_e min-degree) time and O(n + m) memory.
    """
    return _weighted_c4(_support_adjacency(tc))


def score_ordering(g: Graph, tc: TriangleCensus) -> list[int]:
    """Vertices sorted by score descending, ties by ascending id.

    score(v) = (# triangles containing v)
             + (# edge-sharing triangle pairs whose shared edge meets v)
             = tri(v) + sum_{u in adj(v)} C(d(u, v), 2)
    """
    tri_at = [0] * g.n
    for a, b, c in tc.triangles:
        tri_at[a] += 1
        tri_at[b] += 1
        tri_at[c] += 1
    score = list(tri_at)
    for (u, v), d in tc.edge_tri.items():
        pairs = comb(d, 2)
        score[u] += pairs
        score[v] += pairs
    return sorted(range(g.n), key=lambda v: (-score[v], v))


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
    pos = [0] * tc.n
    for p, v in enumerate(order):
        pos[v] = p
    supp = _support_adjacency(tc)
    total = 0
    for w, nbrs in enumerate(supp):
        s1 = 0
        s2 = 0
        for u, d in nbrs:
            if pos[u] < pos[w]:
                d2 = d * d
                s1 += d2
                s2 += d2 * d2
        total += (s1 * s1 - s2) // 2
    return total
