"""Independent brute-force oracles for the statistics under test.

Everything here is written straight from the definitions with naive
loops, deliberately sharing no code with the package implementations, so
the two routes can be compared on small graphs. The exact laws and
moments of T3 further down use the structure of the graph instead of
enumerating colourings, so they also reach graphs far too large to
enumerate; tests/test_brute.py checks them against enumeration.
"""

import math
import re
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np

from helpers import has_edge
from monoclt.errors import MalformedLineError, SelfLoopError, TooLargeError
from monoclt.graph import MAX_EDGES, Graph, ParseResult


def brute_triangles(g: Graph) -> list[tuple[int, int, int]]:
    out = []
    for a, b, c in combinations(range(g.n), 3):
        if has_edge(g, a, b) and has_edge(g, b, c) and has_edge(g, a, c):
            out.append((a, b, c))
    return out


def brute_d(g: Graph) -> dict[tuple[int, int], int]:
    d = {}
    for u, v in g.edges:
        d[(u, v)] = sum(
            1 for w in range(g.n) if w not in (u, v) and has_edge(g, u, w) and has_edge(g, v, w)
        )
    return d


def brute_pyramids(g: Graph, s: int) -> int:
    """Number of s-subsets of triangles all containing a common edge."""
    tris = [frozenset(t) for t in brute_triangles(g)]
    count = 0
    for subset in combinations(tris, s):
        common = frozenset.intersection(*subset)
        if len(common) >= 2:
            count += 1
    return count


def brute_c4(g: Graph) -> int:
    count = 0
    for quad in combinations(range(g.n), 4):
        for a, b, c, d in ((quad[0], quad[1], quad[2], quad[3]),
                           (quad[0], quad[1], quad[3], quad[2]),
                           (quad[0], quad[2], quad[1], quad[3])):
            if has_edge(g, a, b) and has_edge(g, b, c) and has_edge(g, c, d) and has_edge(g, d, a):
                count += 1
    return count


def brute_weighted_c4(n: int, weight: dict) -> int:
    """Sum over the 4-cycles on vertices 0..n-1 of the product of their
    four edge weights, in Python integers; weight maps (u, v), u < v, to
    a weight, and a missing pair weighs 0."""

    def dd(u, v):
        return weight.get((u, v) if u < v else (v, u), 0)

    total = 0
    for s1, s2, s3, s4 in combinations(range(n), 4):
        total += dd(s1, s2) * dd(s2, s3) * dd(s3, s4) * dd(s4, s1)
        total += dd(s1, s2) * dd(s2, s4) * dd(s4, s3) * dd(s3, s1)
        total += dd(s1, s3) * dd(s3, s2) * dd(s2, s4) * dd(s4, s1)
    return total


def brute_b(g: Graph) -> int:
    return brute_weighted_c4(g.n, brute_d(g))


def brute_pyramid_sums(ds) -> list[int]:
    """[sum of C(d, s) for s = 1..4] over the d-values, in Python integers."""
    return [sum(comb(d, s) for d in ds) for s in (1, 2, 3, 4)]


def brute_s(g: Graph, order) -> int:
    return brute_s_of(brute_d(g), order)


def brute_s_of(d: dict, order) -> int:
    """The s statistic of the d-values d, a map (u, v) -> d with u < v,
    under the vertex order."""

    def dd(u, v):
        return d.get((u, v) if u < v else (v, u), 0)

    total = 0
    n = len(order)
    for p1 in range(n):
        for p2 in range(p1 + 1, n):
            for p3 in range(p2 + 1, n):
                total += dd(order[p1], order[p3]) ** 2 * dd(order[p2], order[p3]) ** 2
    return total


def brute_scores(g: Graph) -> list[int]:
    tris = brute_triangles(g)
    d = brute_d(g)
    scores = []
    for v in range(g.n):
        tri_v = sum(1 for t in tris if v in t)
        pair_v = sum(comb(cnt, 2) for (a, b), cnt in d.items() if v in (a, b))
        scores.append(tri_v + pair_v)
    return scores


def relabeled(g: Graph, perm) -> Graph:
    """Graph with vertex i renamed perm[i]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def all_small_graph_stats(g: Graph, c: int):
    """(mean, variance) pairs of (T2, T3) by direct coloring enumeration
    in pure Python (independent of the numpy enumeration path)."""
    from fractions import Fraction
    from itertools import product

    tris = brute_triangles(g)
    total = c**g.n
    s_t2 = s_t2sq = s_t3 = s_t3sq = 0
    for coloring in product(range(c), repeat=g.n):
        t2 = sum(1 for u, v in g.edges if coloring[u] == coloring[v])
        t3 = sum(1 for a, b, cc in tris if coloring[a] == coloring[b] == coloring[cc])
        s_t2 += t2
        s_t2sq += t2 * t2
        s_t3 += t3
        s_t3sq += t3 * t3
    mean2 = Fraction(s_t2, total)
    mean3 = Fraction(s_t3, total)
    return (
        (mean2, Fraction(s_t2sq, total) - mean2**2),
        (mean3, Fraction(s_t3sq, total) - mean3**2),
    )


def brute_joint_law(g: Graph, c: int) -> Counter:
    """Number of colorings with each (T2, T3), visiting all c^n colorings
    in pure Python (independent of the numpy enumeration path)."""
    from itertools import product

    tris = brute_triangles(g)
    law = Counter()
    for coloring in product(range(c), repeat=g.n):
        t2 = sum(1 for u, v in g.edges if coloring[u] == coloring[v])
        t3 = sum(1 for a, b, cc in tris if coloring[a] == coloring[b] == coloring[cc])
        law[(t2, t3)] += 1
    return law


# ---------------------------------------------------------------------------
# class discovery by visiting every configuration


def brute_class_key(triangles) -> tuple:
    """Canonical key of a set of 1 to 4 distinct triangles under vertex
    relabeling, (k, least sorted pattern tuple): with the triangle order
    fixed, each union vertex gets its k-bit incidence pattern, and every
    one of the k! orders is tried in turn."""
    tris = [frozenset(t) for t in triangles]
    k = len(tris)
    if len(set(tris)) != k or not 1 <= k <= 4:
        raise ValueError("need 1 to 4 distinct triangles")
    verts = sorted(set().union(*tris))
    base = [sum(1 << i for i, t in enumerate(tris) if v in t) for v in verts]
    best = None
    for perm in permutations(range(k)):
        mapped = tuple(sorted(sum(((pat >> i) & 1) << perm[i] for i in range(k)) for pat in base))
        if best is None or mapped < best:
            best = mapped
    return (k, best)


def _subset_key0(vm, members) -> tuple:
    # Popcounts of all intersections of the member vertex masks. For the
    # (ordered) members this determines the incidence-pattern multiset
    # exactly, so the map to classes is well-defined.
    if len(members) == 1:
        return (1,)
    if len(members) == 2:
        a, b = members
        return (2, (vm[a] & vm[b]).bit_count())
    if len(members) == 3:
        a, b, c = members
        va, vb, vc = vm[a], vm[b], vm[c]
        ab = va & vb
        ac, bc = va & vc, vb & vc
        return (3, ab.bit_count(), ac.bit_count(), bc.bit_count(), (ab & vc).bit_count())
    a, b, c, d = members
    va, vb, vc, vd = vm[a], vm[b], vm[c], vm[d]
    ab, ac, bc, cd = va & vb, va & vc, vb & vc, vc & vd
    return (
        4,
        ab.bit_count(),
        ac.bit_count(),
        (va & vd).bit_count(),
        bc.bit_count(),
        (vb & vd).bit_count(),
        cd.bit_count(),
        (ab & vc).bit_count(),
        (ab & vd).bit_count(),
        (ac & vd).bit_count(),
        (bc & vd).bit_count(),
        (ab & cd).bit_count(),
    )


def brute_discover_classes(triangles) -> tuple[dict, int]:
    """({class key: count}, configurations visited) over every vertex-
    connected set of 1 to 4 triangles, zero-coefficient classes included.

    Extension enumeration on the triangle-adjacency graph, one set at a
    time: a set whose minimum index is a seed only grows through larger
    indices, and each candidate is offered once, so every connected set
    is visited exactly once.
    """
    vm = [(1 << a) | (1 << b) | (1 << c) for a, b, c in triangles]
    adjm = [
        sum(1 << j for j, u in enumerate(triangles) if j != i and set(t) & set(u))
        for i, t in enumerate(triangles)
    ]
    counts: dict[tuple, int] = {}
    reps: dict[tuple, tuple[int, ...]] = {}
    visited = 0

    def tally(members):
        key0 = _subset_key0(vm, members)
        if key0 in counts:
            counts[key0] += 1
        else:
            counts[key0] = 1
            reps[key0] = members

    def extend(members, nbhd, ext, gt_mask):
        nonlocal visited
        while ext:
            wbit = ext & -ext
            ext ^= wbit
            w = wbit.bit_length() - 1
            grown = members + (w,)
            visited += 1
            tally(grown)
            if len(grown) < 4:
                extend(grown, nbhd | adjm[w], ext | (adjm[w] & ~nbhd & gt_mask), gt_mask)

    for v in range(len(triangles)):
        visited += 1
        tally((v,))
        gt_mask = -1 << (v + 1)
        extend((v,), adjm[v] | (1 << v), adjm[v] & gt_mask, gt_mask)
    classes: Counter = Counter()
    for key0, cnt in counts.items():
        classes[brute_class_key([triangles[i] for i in reps[key0]])] += cnt
    return dict(classes), visited


def brute_cycle_sets(triangles) -> dict:
    """{class key: count} over the sets of four triangles whose
    intersection graph is a 4-cycle: every two disjoint triangles a, b,
    with every two disjoint triangles that each meet both a and b. Each
    set is found from both of its disjoint pairs and counted once."""
    vm = [(1 << a) | (1 << b) | (1 << c) for a, b, c in triangles]
    found = {}
    for i, a in enumerate(vm):
        for j in range(i + 1, len(vm)):
            b = vm[j]
            if a & b:
                continue
            meet = [p for p, t in enumerate(vm) if t & a and t & b]
            for x, p in enumerate(meet):
                for q in meet[x + 1:]:
                    if not vm[p] & vm[q]:
                        found.setdefault(frozenset((i, j, p, q)), (i, p, j, q))
    counts: Counter = Counter(_subset_key0(vm, members) for members in found.values())
    reps = {_subset_key0(vm, members): members for members in found.values()}
    classes: Counter = Counter()
    for key0, cnt in counts.items():
        classes[brute_class_key([triangles[i] for i in reps[key0]])] += cnt
    return dict(classes)


# ---------------------------------------------------------------------------
# exact laws and moments of T3 beyond exhaustive enumeration


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def brute_composite_t3_law(n: int, m: int, c: int) -> dict[int, int]:
    """Exact law of T3 on pyramid(n) + bipyramid_chain(m) with c colours,
    as integer weights: P(T3 = t) = law[t] / c^(n + 3m + 4).

    The two parts share no vertex, so T3 is the sum of independent counts.
    The pyramid counts the apexes coloured like its base edge when the
    base is monochromatic, i.e. 1{base mono} * Bin(n, 1/c). Given the two
    hub colours, the chain's m units (a spine vertex and its two private
    apexes) are i.i.d.; a unit holds 2, 1 or 0 monochromatic triangles.
    """
    pyr = [c * comb(n, k) * (c - 1) ** (n - k) for k in range(n + 1)]
    pyr[0] += c * (c - 1) * c**n  # base edge not monochromatic
    # per unit, weights over the c^3 colourings of (spine, apex_a, apex_b)
    unit_same = [c**3 - 2 * c + 1, 2 * (c - 1), 1]  # both hubs one colour
    unit_diff = [c**3 - 2 * c, 2 * c]  # hubs differ: at most one triangle
    same, diff = [1], [1]
    for _ in range(m):
        same = _poly_mul(same, unit_same)
        diff = _poly_mul(diff, unit_diff)
    chain = [c * w for w in same]
    for t, w in enumerate(diff):
        chain[t] += c * (c - 1) * w
    return {t: w for t, w in enumerate(_poly_mul(pyr, chain)) if w}


def central_moment(law, r: int) -> Fraction:
    """r-th central moment of a law given as {value: weight}; the weights
    (ints or Fractions) need not sum to 1."""
    total = sum(law.values())
    mean = Fraction(sum(v * w for v, w in law.items()), total)
    return sum(((v - mean) ** r * w for v, w in law.items()), Fraction(0)) / total


def brute_t3_variance(g: Graph, c: int) -> Fraction:
    """Var T3 from pair covariances: a triangle with itself gives
    p(1 - p), p = c^-2; an ordered pair sharing an edge gives c^-3 - p^2;
    pairs sharing at most one vertex are independent."""
    tris = [set(t) for t in brute_triangles(g)]
    p = Fraction(1, c * c)
    shared_edge = sum(1 for s, t in combinations(tris, 2) if len(s & t) == 2)
    return len(tris) * p * (1 - p) + 2 * shared_edge * (Fraction(1, c**3) - p * p)


def brute_t3_third_central_moment(g: Graph, c: int) -> Fraction:
    """E(T3 - E T3)^3 as the sum over ordered triangle triples (i, j, k) of
    E[(Y_i - p)(Y_j - p)(Y_k - p)], with Y_t = 1{t monochromatic} and
    p = c^-2.

    A term is zero unless each triangle meets the union of the other two
    in at least 2 vertices: otherwise, given the colour of the one vertex
    it shares, it is monochromatic with probability p whatever the others
    show, so its centred indicator is independent of theirs. A nonzero
    term depends only on the pairwise overlaps and the size u of the
    (then connected) union: E[Y_i Y_j Y_k] = c^(1 - u), and E[Y_s Y_t] is
    c^-2, c^-3 or c^-4 for overlap 3, 2 or at most 1. So triples are
    tallied by that signature and each signature is evaluated once.
    """
    bits = [(1 << a) | (1 << b) | (1 << d) for a, b, d in brute_triangles(g)]
    later = [{j for j in range(i + 1, len(bits)) if bits[i] & bits[j]} for i in range(len(bits))]
    tally = Counter({((3, 3, 3), 3): len(bits)})  # i = j = k
    for i, bi in enumerate(bits):
        for j in later[i]:
            bj = bits[j]
            oij = (bi & bj).bit_count()
            if oij == 2:
                # {i, i, j} and {i, j, j}, three orders each
                tally[((2, 2, 3), 4)] += 6
            # a valid triple of distinct triangles is pairwise intersecting
            for k in later[i] & later[j]:
                bk = bits[k]
                if ((bi & (bj | bk)).bit_count() >= 2
                        and (bj & (bi | bk)).bit_count() >= 2
                        and (bk & (bi | bj)).bit_count() >= 2):
                    overlaps = tuple(sorted((oij, (bi & bk).bit_count(), (bj & bk).bit_count())))
                    tally[(overlaps, (bi | bj | bk).bit_count())] += 6
    p = Fraction(1, c * c)
    pair = {3: p, 2: Fraction(1, c**3)}
    return sum(
        (count * (Fraction(1, c ** (u - 1)) - p * sum(pair.get(o, p * p) for o in overlaps) + 2 * p**3)
         for (overlaps, u), count in tally.items()),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# distances between laws


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def edgeworth_cdf(gamma: float):
    """One-term Edgeworth expansion G(z) = Phi(z) - (gamma/6)(z^2 - 1) phi(z)
    of a standardized law with skewness gamma != 0, with the real turning
    points of G (roots of 1 + (gamma/6)(z^3 - 3z)): G is not monotone in
    the far tail, so a Kolmogorov distance to it must also be checked there."""
    def cdf(z: float) -> float:
        phi = math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        return normal_cdf(z) - gamma / 6 * (z * z - 1) * phi

    roots = np.roots([1.0, 0.0, -3.0, 6.0 / gamma])
    turning = tuple(float(r.real) for r in roots if abs(r.imag) < 1e-9)
    return cdf, turning


def kolmogorov_distance(values, masses, cdf, extra_points=()) -> float:
    """sup_z |F(z) - cdf(z)| for the discrete law F with ascending atoms
    `values` of the given masses. Both one-sided limits are compared at
    every atom; that covers every monotone cdf, and a non-monotone one
    must also pass its turning points as extra_points."""
    cum = [0.0]
    for m in masses:
        cum.append(cum[-1] + m)
    worst = 0.0
    for i, x in enumerate(values):
        fx = cdf(x)
        worst = max(worst, abs(cum[i] - fx), abs(cum[i + 1] - fx))
    for z in extra_points:
        worst = max(worst, abs(cum[bisect_right(values, z)] - cdf(z)))
    return worst


def ks_statistic(sample, cdf) -> float:
    """Kolmogorov distance of the empirical law of a nonempty sample to cdf."""
    if not sample:
        raise ValueError("KS distance needs a nonempty sample")
    counts = Counter(sample)
    values = sorted(counts)
    return kolmogorov_distance(values, [counts[v] / len(sample) for v in values], cdf)


def lattice_ks(p: dict, q: dict) -> float:
    """Kolmogorov distance between two laws on the integers, each given
    as {value: probability}."""
    fp = fq = 0
    worst = 0
    for v in sorted(set(p) | set(q)):
        fp += p.get(v, 0)
        fq += q.get(v, 0)
        worst = max(worst, abs(fp - fq))
    return float(worst)


# the texts parse_edge_list reads in bulk, as one regular expression: an
# optional comment line, then "u v" lines of at most 18 digits per id
# (below 2^63), each ending in a newline. The comment holds none of the
# characters str.splitlines breaks at.
BULK_RE = re.compile("(#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*\n)?(?:[0-9]{1,18} [0-9]{1,18}\n)*")


def brute_parse_edge_list(text: str) -> ParseResult:
    """parse_edge_list line by line, for any text, with Python ints of any
    size: each edge is checked and oriented once, the first bad line named
    by its number, and the first "vertices=N" in any comment is the header."""
    header = None
    lines = text.splitlines()
    edges: dict[tuple[int, int], int] = {}  # edge -> number of the line it first appears on
    duplicates = 0
    for line_no, line in enumerate(lines, start=1):
        body, _, comment = line.partition("#")
        if header is None and comment:
            header = re.search(r"vertices\s*=\s*(\d+)", comment)
        body = body.strip()
        if not body:
            continue
        tokens = body.split()
        if len(tokens) != 2:
            raise MalformedLineError(line_no, line)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise MalformedLineError(line_no, line) from None
        if u < 0 or v < 0:
            raise MalformedLineError(line_no, line)
        if u == v:
            raise SelfLoopError(u, line_no)
        edge = (u, v) if u < v else (v, u)
        if edge in edges:
            duplicates += 1
        else:
            edges[edge] = line_no

    if header is not None:
        n = int(header.group(1))
        if n > 2 * MAX_EDGES:
            raise TooLargeError(f"vertices={n} in the header is over the cap of {2 * MAX_EDGES}")
        for (_, v), line_no in edges.items():
            if v >= n:
                raise MalformedLineError(line_no, lines[line_no - 1])
        return ParseResult(Graph(n, np.array(sorted(edges), np.int64).reshape(-1, 2)), duplicates, range(n))

    ids = sorted({x for e in edges for x in e})
    compact = {orig: i for i, orig in enumerate(ids)}  # ascending, so each edge stays oriented
    rows = sorted((compact[u], compact[v]) for u, v in edges)
    graph = Graph(len(ids), np.array(rows, np.int64).reshape(-1, 2))
    return ParseResult(graph, duplicates, tuple(ids))


def brute_count_chunk(tc, slots, eid):
    """The cells of fourthmoment._count_chunk from every row: each
    triangle on an edge between two slots, but a and b, is typed by the
    slots it holds, one inside U(P) once, at the edge between its lowest
    two slots; ordered pairs come from the Gram of the rows by pair and
    from that of the rows outside U(P) by (pair, outside vertex)."""
    s = slots.shape[1]
    width = 1 << s
    # a is its a-only slots and the shared ones, b its b-only slots and the shared ones
    only = s - 3
    a_tri = np.sort(np.hstack([slots[:, :only], slots[:, 2 * only:]]), 1)
    b_tri = np.sort(slots[:, only:], 1)

    def gram(rows, types):
        m = np.zeros((int(rows.max(initial=-1)) + 1, width), np.int64)
        np.add.at(m, (rows, types), 1)
        return m.T @ m

    first, second = np.triu_indices(s, 1)
    start, tri = tc.on
    p, col = np.nonzero(eid >= 0)
    ids = eid[p, col]
    d = tc.edge_d[ids]
    i = np.repeat(np.arange(len(ids)), d)
    pos = np.arange(len(i)) + np.repeat(start[ids] - np.cumsum(d) + d, d)
    p, col, c = p[i], col[i], tri[pos]
    x = tc.triangles[c].sum(1) - slots[p, first[col]] - slots[p, second[col]]
    slot = np.argmax(slots[p] == x[:, None], 1)
    inside = slots[p, slot] == x
    row = np.sort(tc.triangles[c], 1)
    keep = ~(row == a_tri[p]).all(1) & ~(row == b_tri[p]).all(1) & (~inside | (slot > second[col]))
    p, x, inside = p[keep], x[keep], inside[keep]
    types = (1 << first[col[keep]]) | (1 << second[col[keep]]) | np.where(inside, 1 << slot[keep], 0)
    total = np.bincount(types, minlength=width)
    every = gram(p, types)
    out = ~inside
    joint = p[out] * (int(x[out].max(initial=0)) + 1) + x[out]
    order = np.argsort(joint, kind="stable")
    joint = joint[order]
    rows = np.zeros(len(joint), np.int64)
    rows[1:] = np.cumsum(joint[1:] != joint[:-1])
    shared = gram(rows, types[out][order])
    cells = np.stack([every - shared, shared])
    cells[0] -= np.diag(np.bincount(types[inside], minlength=width))
    cells[1] -= np.diag(np.bincount(types[out], minlength=width))
    return total, cells


def brute_mono_counts(ct: np.ndarray, cliques: np.ndarray, slab: int) -> np.ndarray:
    """For each column of the vertex-major colour block ct (n x rows), the
    number of rows of cliques (m x k vertex ids) whose k vertices all
    share one colour. Gathers slab <= SLAB cliques per step and tallies
    each slab's hits per column in uint8, which holds 255 hits exactly;
    one-byte colours are compared over their own gathered bytes."""
    def same(first: np.ndarray, other: np.ndarray) -> np.ndarray:
        return np.equal(first, other, out=other.view(bool) if other.itemsize == 1 else None)
    out = np.zeros(ct.shape[1], dtype=np.int64)
    for s in range(0, len(cliques), slab):
        part = cliques[s : s + slab]
        first = ct[part[:, 0]]
        hit = same(first, ct[part[:, 1]])
        for j in range(2, part.shape[1]):
            hit &= same(first, ct[part[:, j]])
        out += np.add.reduce(hit.view(np.uint8), axis=0, dtype=np.uint8)
    return out
