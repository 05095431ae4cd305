"""Exact answers the benchmark checks the program's outputs against.

Nothing here imports monoclt. Graphs are read back from the edge lists the
benchmark wrote, and every count, moment and law is derived again: from
the structure of a graph family, from dense adjacency matrices, from the
sizes of the colour classes, or by enumerating colourings.
perfbench/test_reference.py checks each of them against exhaustive
enumeration on small graphs.

Colour count c, x = 1/c. A coloring draws every vertex colour uniformly
and independently; T2 and T3 count monochromatic edges and triangles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

import numpy as np


# ---------------------------------------------------------------------------
# graphs


def read_edge_list(path) -> tuple[int, list[tuple[int, int]]]:
    """(vertex count, sorted edges) of an edge-list file: 'u v' lines, '#'
    comments, and an optional 'vertices=N' in a comment."""
    n = None
    edges = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            body, _, comment = line.partition("#")
            if n is None and "vertices=" in comment:
                n = int(comment.split("vertices=", 1)[1].split()[0])
            tokens = body.split()
            if tokens:
                u, v = int(tokens[0]), int(tokens[1])
                edges.add((min(u, v), max(u, v)))
    if n is None:
        n = 1 + max((v for _, v in edges), default=-1)
    return n, sorted(edges)


def degree_multiset(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return sorted(deg)


def family_shape(family: str, n: int) -> tuple[int, int, list[int]]:
    """(vertices, edges, sorted degrees) of star(n), pyramid(n),
    bipyramid_chain(n) or complete(n)."""
    if family == "star":  # centre and n leaves
        return n + 1, n, sorted([n] + [1] * n)
    if family == "pyramid":  # base edge {a, b}, n apexes joined to both
        return n + 2, 2 * n + 1, sorted([n + 1] * 2 + [2] * n)
    if family == "bipyramid_chain":  # hubs a, b; spine s; apexes u_as, u_bs
        return 3 * n + 2, 6 * n, sorted([2 * n] * 2 + [4] * n + [2] * (2 * n))
    if family == "complete":
        return n, comb(n, 2), [n - 1] * n
    raise ValueError(f"no shape for {family!r}")


def family_counts(family: str, n: int) -> dict:
    """Subgraph counts of the family graphs, from their structure.

    pyramid(n): the base edge lies in all n triangles and every other edge
    in one, so n_s = C(n, s); the 4-cycles are a-s-b-t-a, C(n, 2) of them,
    each with unit weights, so b = C(n, 2). Under the score ordering the
    base comes first, and each apex closes one pair: s = n.
    bipyramid_chain(n): 2n edge-disjoint triangles, so n2 = n3 = n4 = 0;
    the 4-cycles are a-s-b-t-a through two spine vertices, so N(C4) =
    b = C(n, 2). The score ordering puts hubs, spines, apexes in that order;
    each spine closes its two hubs and each apex its hub and spine: s = 3n
    (for n >= 3, where a hub's score n exceeds a spine's 2).
    star(n): no triangles and no 4-cycles.
    """
    if family == "star":
        return dict(edges=n, n1=0, n2=0, n3=0, n4=0, c4=0, b=0, s=0)
    if family == "pyramid":
        return dict(edges=2 * n + 1, n1=n, n2=comb(n, 2), n3=comb(n, 3), n4=comb(n, 4),
                    c4=comb(n, 2), b=comb(n, 2), s=n)
    if family == "bipyramid_chain":
        return dict(edges=6 * n, n1=2 * n, n2=0, n3=0, n4=0,
                    c4=comb(n, 2), b=comb(n, 2), s=3 * n)
    raise ValueError(f"no closed form for {family!r}")


def dense_counts(n: int, edges) -> dict:
    """Edges, triangles n1, pyramid counts n2..n4, 4-cycles and the triangle
    pair statistic of a graph, from its adjacency matrix A.

    Triangles on an edge uv: (A^2)_uv. Triangles: tr(A^3)/6. Closed 4-walks:
    tr(A^4) = 8 N(C4) + 2 sum deg^2 - 2|E|. pairs_at_vertex counts pairs of
    triangles through a common vertex, sum_v C(t_v, 2) with t_v = (A^3)_vv / 2.
    """
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    a2 = a @ a
    a3 = a2 @ a
    deg = a.sum(axis=1)
    if edges:
        us, vs = np.array(edges).T
        per_edge = [int(d) for d in a2[us, vs]]
    else:
        per_edge = []
    closed4 = int(np.trace(a2 @ a2))
    c4, rem = divmod(closed4 - 2 * int((deg * deg).sum()) + 2 * len(edges), 8)
    assert rem == 0
    t_at = [int(t) // 2 for t in np.diag(a3)]
    return dict(
        edges=len(edges),
        n1=int(np.trace(a3)) // 6,
        n2=sum(comb(d, 2) for d in per_edge),
        n3=sum(comb(d, 3) for d in per_edge),
        n4=sum(comb(d, 4) for d in per_edge),
        c4=c4,
        pairs_at_vertex=sum(comb(t, 2) for t in t_at),
    )


def triangles(n: int, edges) -> list[tuple[int, int, int]]:
    nbr = [set() for _ in range(n)]
    for u, v in edges:
        nbr[u].add(v)
        nbr[v].add(u)
    return [(u, v, w) for u, v in edges for w in nbr[u] & nbr[v] if w > v]


# ---------------------------------------------------------------------------
# the paper's closed forms


def t2_moments(edges: int, k3: int, c4: int, c: int) -> tuple[Fraction, Fraction, Fraction]:
    """(mean, variance, E Z^4 - 3) of the monochromatic edge count."""
    x = Fraction(1, c)
    mean = edges * x
    var = edges * x * (1 - x)
    g1 = x * (1 - 7 * x + 12 * x**2 - 6 * x**3)
    g2 = 36 * x**2 * (1 - x) * (1 - 2 * x)
    g3 = 24 * x**3 * (1 - x)
    return mean, var, (g1 * edges + g2 * k3 + g3 * c4) / var**2


def t3_mean_var(n1: int, n2: int, c: int) -> tuple[Fraction, Fraction]:
    x = Fraction(1, c)
    return n1 * x**2, n1 * x**2 * (1 - x**2) + 2 * n2 * (x**3 - x**4)


def t2_bracket(edges: int, c4: int, c: int) -> tuple[Fraction, float, float]:
    """(rational part, inner sum, bound) of (c/|E| + |E|^-1/2 + N(C4)/(c|E|^2))^(1/5)."""
    rational = Fraction(c, edges) + Fraction(c4, c * edges**2)
    inner = float(rational) + 1.0 / math.sqrt(edges)
    return rational, inner, inner**0.2


def t3_bracket(n1: int, n2: int, n4: int, b: int) -> tuple[Fraction, Fraction, float, float]:
    """(R1, R2, R1^(1/4) + R2, its fifth root), R1 = (1 + n4)/(n1 + n2)^2,
    R2 = b/(n1 + n2)^2."""
    r1 = Fraction(1 + n4, (n1 + n2) ** 2)
    r2 = Fraction(b, (n1 + n2) ** 2)
    bracket = float(r1) ** 0.25 + float(r2)
    return r1, r2, bracket, bracket**0.2


# ---------------------------------------------------------------------------
# exact laws, as {value: probability}


def complete_graph_law(n: int, c: int) -> dict[tuple[int, int], Fraction]:
    """Joint law of (T2, T3) on K_n. Only the colour-class sizes k_1..k_c
    matter: T2 = sum C(k_i, 2), T3 = sum C(k_i, 3), and a size vector has
    n!/prod k_i! colourings."""
    law: dict[tuple[int, int], Fraction] = {}
    total = c**n

    def walk(left: int, colours: int, ways: int, t2: int, t3: int):
        if colours == 1:
            key = (t2 + comb(left, 2), t3 + comb(left, 3))
            law[key] = law.get(key, 0) + Fraction(ways, total)
            return
        for k in range(left + 1):
            walk(left - k, colours - 1, ways * comb(left, k), t2 + comb(k, 2), t3 + comb(k, 3))

    walk(n, c, 1, 0, 0)
    return law


def marginal(joint: dict, index: int) -> dict:
    out: dict = {}
    for key, p in joint.items():
        out[key[index]] = out.get(key[index], 0) + p
    return out


def _convolve(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, pa in p.items():
        for b, qb in q.items():
            out[a + b] = out.get(a + b, 0) + pa * qb
    return out


def _power(law: dict, m: int) -> dict:
    out = {0: Fraction(1)}
    for _ in range(m):
        out = _convolve(out, law)
    return out


def binomial_law(n: int, c: int) -> dict[int, Fraction]:
    """Bin(n, 1/c): T2 on star(n), each leaf matching the centre."""
    x = Fraction(1, c)
    return {k: comb(n, k) * x**k * (1 - x) ** (n - k) for k in range(n + 1)}


def pyramid_t3_law(n: int, c: int) -> dict[int, Fraction]:
    """T3 on pyramid(n) is 1{base monochromatic} * Bin(n, 1/c): with the
    base edge one colour, each apex matching it closes one triangle."""
    x = Fraction(1, c)
    law = {k: x * p for k, p in binomial_law(n, c).items()}
    law[0] += 1 - x
    return law


def composite_t3_law(n: int, m: int, c: int) -> dict[int, Fraction]:
    """T3 on pyramid(n) disjoint from bipyramid_chain(m).

    The parts are independent. Given the two hub colours the chain's units
    (a spine vertex with its two private apexes) are independent: with the
    hubs alike, a unit holds 1{spine matches} * (1{apex a matches} +
    1{apex b matches}) triangles; with the hubs different, the spine can
    match one hub at most, so a unit holds one triangle with chance 2/c^2.
    """
    x = Fraction(1, c)
    alike = {1: 2 * x**2 * (1 - x), 2: x**3}
    alike[0] = 1 - alike[1] - alike[2]
    differ = {0: 1 - 2 * x**2, 1: 2 * x**2}
    chain = {}
    for law, weight in ((_power(alike, m), x), (_power(differ, m), 1 - x)):
        for t, p in law.items():
            chain[t] = chain.get(t, 0) + weight * p
    return _convolve(pyramid_t3_law(n, c), chain)


def enumerated_t3_law(n: int, tris, c: int) -> dict[int, Fraction]:
    """T3 over all c^n colourings, vertex j taking digit j of the colouring
    index in base c."""
    index = np.arange(c**n, dtype=np.int64)
    digits = (index[:, None] // (c ** np.arange(n, dtype=np.int64))) % c
    t3 = np.zeros(c**n, dtype=np.int64)
    for a, b, d in tris:
        t3 += (digits[:, a] == digits[:, b]) & (digits[:, b] == digits[:, d])
    counts = np.bincount(t3)
    return {t: Fraction(int(k), c**n) for t, k in enumerate(counts) if k}


def central_moments(law: dict) -> tuple[Fraction, Fraction, Fraction]:
    """(mean, variance, fourth central moment) of {value: probability}."""
    mean = sum((v * p for v, p in law.items()), Fraction(0))
    var = sum(((v - mean) ** 2 * p for v, p in law.items()), Fraction(0))
    m4 = sum(((v - mean) ** 4 * p for v, p in law.items()), Fraction(0))
    return mean, var, m4


def excess4(law: dict) -> Fraction:
    _, var, m4 = central_moments(law)
    return m4 / var**2 - 3


# ---------------------------------------------------------------------------
# samples against exact laws


def dkw_epsilon(samples: int, alpha: float) -> float:
    """Massart-DKW: P(sup |F_N - F| > eps) <= 2 exp(-2 N eps^2) = alpha."""
    return math.sqrt(math.log(2 / alpha) / (2 * samples))


def lattice_ks(counts: dict[int, int], law: dict[int, Fraction]) -> float:
    """Kolmogorov distance between an integer sample {value: count} and an
    exact law on the integers; both CDFs are constant between integers."""
    total = sum(counts.values())
    values = set(counts) | set(law)
    f_sample = 0
    f_law = Fraction(0)
    worst = Fraction(0)
    for v in range(min(values), max(values) + 1):
        f_sample += counts.get(v, 0)
        f_law += law.get(v, 0)
        worst = max(worst, abs(Fraction(f_sample, total) - f_law))
    return float(worst)
