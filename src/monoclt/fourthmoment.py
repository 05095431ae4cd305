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

Class discovery walks the sets of 1 to 3 triangles one at a time and
counts the 4-sets locally per connected pair of triangles: a
non-separable 4-set is reached from each of its connected pairs as two
further triangles meeting the pair's union, so Gram matrices of those
triangles' counts by type, built with numpy, give every nonzero class
count (see _count_fourth).

Class identity is decided by an exact canonical form: fixing an order of
the k triangles, each union vertex gets a k-bit incidence pattern, and
the multiset of patterns determines the labeled structure completely;
minimizing over the k! <= 24 triangle orders, each a lookup table on
patterns, gives a canonical key. Discovery never builds concrete
triangles for this: a set's fingerprint of intersection sizes fixes its
pattern multiset, and so does a fourth-level cell, so each class is
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


@lru_cache(maxsize=None)
def _fp_key(fp: tuple) -> tuple:
    """Class key of a 1..3-set of the walk from its fingerprint fp: the
    intersection sizes fix the Venn counts of the triangles and so their
    pattern multiset."""
    if fp[0] == 1:
        venn = {1: 3}
    elif fp[0] == 2:
        venn = {3: fp[1], 1: 3 - fp[1], 2: 3 - fp[1]}
    else:
        _, ab, ac, bc, abc = fp
        venn = {7: abc, 3: ab - abc, 5: ac - abc, 6: bc - abc,
                1: 3 - ab - ac + abc, 2: 3 - ab - bc + abc, 4: 3 - ac - bc + abc}
    return _canonical(fp[0], tuple(sorted(p for p, n in venn.items() for _ in range(n))))


@lru_cache(maxsize=None)
def _cell_key(share: int, t1: int, t2: int, k: int) -> tuple:
    """Class key of a fourth-level cell: a connected pair {a, b} sharing
    `share` vertices, and triangles c and w meeting its union in the slots
    of bitmasks t1 and t2 and sharing k vertices outside it. The slots
    are the a-only vertices, then the b-only ones, then the shared ones;
    bit 4 marks the vertices of c, bit 8 those of w."""
    slots = (1,) * (3 - share) + (2,) * (3 - share) + (3,) * share
    patterns = [p | (t1 >> i & 1) << 2 | (t2 >> i & 1) << 3 for i, p in enumerate(slots)]
    patterns += [12] * k + [4] * (3 - t1.bit_count() - k) + [8] * (3 - t2.bit_count() - k)
    return _canonical(4, tuple(sorted(patterns)))


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
# enumeration of connected triangle sets


def _triangle_masks(triangles: Sequence[Triangle]) -> tuple[list[int], list[int]]:
    """Bitmasks over vertices and triangle indices: each triangle's vertex
    set, and its adjacent triangles (those sharing at least one vertex)."""
    vm = [(1 << a) | (1 << b) | (1 << c) for a, b, c in triangles]
    at = [0] * (max(map(max, triangles), default=-1) + 1)
    for i, t in enumerate(triangles):
        for v in t:
            at[v] |= 1 << i
    adjm = [(at[a] | at[b] | at[c]) & ~(1 << i) for i, (a, b, c) in enumerate(triangles)]
    return vm, adjm


# (pair, triangle) incidences per numpy pass of the fourth level, and rows
# per dense block of a Gram matrix: together they bound the level's arrays
# to a few MB whatever the graph
_CHUNK = 1 << 12
_BLOCK = 1 << 11


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
                m = np.bincount((rows[lo:hi] - base) * width + types[lo:hi],
                                minlength=(rows[hi - 1] - base + 1) * width)
                m = m.reshape(-1, width).astype(np.float64)
                gram += m.T @ m
    return gram


def _rows_by(pair: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts entries by (pair, key), and ascending row ids
    in that order, one row per distinct (pair, key)."""
    joint = pair * (int(key.max(initial=0)) + 1) + key
    order = np.argsort(joint)
    joint = joint[order]
    return order, np.cumsum(np.r_[False, joint[1:] != joint[:-1]])


def _count_fourth(triangles: Sequence[Triangle], pairs: np.ndarray) -> Counter:
    """Cell sums of the fourth level, by class key.

    For each connected pair P = {a, b} (the rows of pairs, a < b), the
    candidate triangles are those other than a and b meeting the union
    U(P), typed by the bitmask of the slots of U(P) they contain (see
    _cell_key). An ordered pair (c, w) of distinct candidates falls
    in the cell (share, t1, t2, k), k the number of vertices c and w share
    outside U(P); the cell fixes the class of {a, b, c, w} (_cell_key).
    The cells are Gram matrices of candidate type counts, summed over P
    (all pairs), over (P, x) for outside vertices x (pairs sharing x,
    counted once per shared vertex) and over (P, xy) for outside edges
    (pairs sharing two outside vertices).

    A non-separable 4-set Q is reached from every connected pair P in Q:
    a member missing U(P) would share two vertices with the fourth, which
    has at most one outside U(P). So its class sums its count times 2
    (the orders of c and w) times the connected 2-subsets of Q.
    """
    tv = np.sort(np.array(triangles, dtype=np.int64), axis=1)
    n = int(tv.max()) + 1
    deg = np.bincount(tv.ravel(), minlength=n)
    # each triangle's edges, numbered, opposite its vertices 0, 1 and 2
    opposite = np.unique(tv[:, [1, 0, 0]] * n + tv[:, [2, 2, 1]], return_inverse=True)[1].reshape(-1, 3)
    graph = (tv, deg, np.cumsum(deg) - deg, np.argsort(tv.ravel(), kind="stable") // 3, opposite)
    va, vb = tv[pairs[:, 0]], tv[pairs[:, 1]]
    a_in_b = (va[:, :, None] == vb[:, None, :]).any(2)
    b_in_a = (vb[:, :, None] == va[:, None, :]).any(2)
    share = a_in_b.sum(1)
    sums: Counter = Counter()
    for sh in (1, 2):
        sel = share == sh
        slots = np.hstack([va[sel][~a_in_b[sel]].reshape(-1, 3 - sh),
                           vb[sel][~b_in_a[sel]].reshape(-1, 3 - sh),
                           va[sel][a_in_b[sel]].reshape(-1, sh)])
        own = pairs[sel]
        width = 1 << slots.shape[1]
        total = np.zeros(width, dtype=np.int64)
        cells = np.zeros((3, width, width))  # by k; float64 sums of counts
        cut = np.r_[0, np.cumsum(deg[slots].sum(1))]  # incidences before each pair
        lo = 0
        while lo < len(slots):
            hi = max(lo + 1, int(np.searchsorted(cut, cut[lo] + _CHUNK, "right")) - 1)
            _count_chunk(graph, slots[lo:hi], own[lo:hi], width, total, cells)
            lo = hi
        # summed over k the cells count every ordered pair once, and no
        # partial sum is more than twice that, so float64 was exact
        assert cells.sum(0).max(initial=0) < 2**52
        cells = cells.astype(np.int64)
        for t in range(1, width):
            if t.bit_count() <= 3:
                cells[3 - t.bit_count(), t, t] -= total[t]  # the pairs c = w
        for k, t1, t2 in zip(*np.nonzero(cells)):
            t1, t2, k = int(t1), int(t2), int(k)
            # skip c or w meeting the rest in a single vertex: separable
            if k or min(t1.bit_count(), t2.bit_count()) > 1:
                sums[_cell_key(sh, t1, t2, k)] += int(cells[k, t1, t2])
    return sums


def _count_chunk(graph, slots, own, width, total, cells) -> None:
    """Adds one run of pairs with the same overlap to cells, and their
    candidates by type to total."""
    tv, deg, at_start, at_tri, opposite = graph
    # every triangle at every slot vertex, then typed by its slots and
    # kept at its lowest one, unless it is a or b
    s = slots.shape[1]
    flat = slots.ravel()
    cnt = deg[flat]
    p, slot = np.divmod(np.repeat(np.arange(len(flat)), cnt), s)
    c = at_tri[np.arange(len(p)) - np.repeat(np.cumsum(cnt) - cnt - at_start[flat], cnt)]
    x = tv[c].T
    types = np.zeros(len(c), dtype=np.int64)
    inside = np.zeros(x.shape, dtype=bool)
    for j in range(s):
        hit = x == slots[p, j]
        inside |= hit
        types |= (hit[0] | hit[1] | hit[2]) << j
    keep = ((types & -types) == 1 << slot) & (c != own[p, 0]) & (c != own[p, 1])
    p, c, types, x, inside = p[keep], c[keep], types[keep], x[:, keep].T, inside[:, keep].T
    total += np.bincount(types, minlength=width)
    every = _gram(p, types, width)
    outside = 3 - inside.sum(1)
    order, rows = _rows_by(np.repeat(p, outside), x[~inside])
    by_vertex = _gram(rows, np.repeat(types, outside)[order], width)
    two = outside == 2
    order, rows = _rows_by(p[two], opposite[c[two], inside[two].argmax(1)])
    by_edge = _gram(rows, types[two][order], width)
    cells[0] += every - by_vertex + by_edge
    cells[1] += by_vertex - 2 * by_edge
    cells[2] += by_edge


def _connected_pairs(tris: Sequence[Triangle]) -> int:
    return sum(bool(set(t) & set(u)) for t, u in itertools.combinations(tris, 2))


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

    Sets of 1 to 3 triangles are walked one at a time by extension
    enumeration on the triangle-adjacency graph (Wernicke 2006): a set
    whose minimum index is a only grows through indices > a, and each
    candidate is offered exactly once, so every connected set appears
    exactly once. At each 3-set the extension mask holds exactly its
    4-set extensions, so the walk adds them to the configuration total
    by popcount; the budget bounds that running total. The 4-sets
    themselves are counted per connected pair of triangles (see
    _count_fourth): a nonzero class's count is its cell sum divided by
    twice the connected pairs of its representative.
    """
    if budget < 0:
        raise BadParamsError(f"budget must be >= 0, got {budget}")
    vm, adjm = _triangle_masks(triangles)
    # fingerprint of a set of 1..3 triangles in walk order: popcounts of
    # the intersections of their vertex masks, which fix the incidence
    # patterns and hence the class (see _fp_key)
    counts: dict[tuple, int] = {}
    pairs: list[int] = []
    emitted = 0
    over = f"connected configuration count exceeded budget {budget}"

    for a, va in enumerate(vm):
        counts[(1,)] = counts.get((1,), 0) + 1
        emitted += 1
        gt = -1 << (a + 1)
        nb1 = adjm[a] | 1 << a
        ext1 = adjm[a] & gt
        while ext1:
            bbit = ext1 & -ext1
            ext1 ^= bbit
            b = bbit.bit_length() - 1
            pairs += (a, b)
            vb = vm[b]
            ab = va & vb
            fp = (2, ab.bit_count())
            counts[fp] = counts.get(fp, 0) + 1
            emitted += 1
            nb2 = nb1 | adjm[b]
            ext2 = ext1 | (adjm[b] & ~nb1 & gt)
            while ext2:
                cbit = ext2 & -ext2
                ext2 ^= cbit
                c = cbit.bit_length() - 1
                vc = vm[c]
                ac, bc = va & vc, vb & vc
                fp = (3, ab.bit_count(), ac.bit_count(), bc.bit_count(), (ab & vc).bit_count())
                counts[fp] = counts.get(fp, 0) + 1
                emitted += 1 + (ext2 | (adjm[c] & ~nb2 & gt)).bit_count()
                if emitted > budget:
                    raise BudgetExceededError(over)
    if emitted > budget:
        raise BudgetExceededError(over)

    class_counts: dict[tuple, int] = {}
    for fp, cnt in counts.items():
        key = _fp_key(fp)
        class_counts[key] = class_counts.get(key, 0) + cnt
    if pairs:
        for key, total in _count_fourth(triangles, np.array(pairs).reshape(-1, 2)).items():
            rec = _record_for_key(key)
            if rec.coefficient:  # a separable class is not reached evenly; it counts zero anyway
                count, rest = divmod(total, 2 * _connected_pairs(rec.representative))
                assert not rest, f"uneven fourth-level sum for {key}"
                class_counts[key] = count

    entries = []
    for key in sorted(class_counts):
        rec = _record_for_key(key)
        # enumeration is over vertex-connected sets only; anything else
        # slipping through would signal a broken walker
        assert rec.is_connected(), f"disconnected class emitted: {key}"
        if rec.coefficient:
            entries.append((rec, class_counts[key]))
    return Discovery(entries=tuple(entries), enumerated=emitted)


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
