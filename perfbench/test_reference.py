"""The benchmark's references against exhaustive enumeration on small graphs.

Run with: python3 -m pytest -q perfbench/test_reference.py
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

import reference as ref


def star(n):
    return n + 1, [(0, v) for v in range(1, n + 1)]


def pyramid(n):
    return n + 2, [(0, 1)] + [e for s in range(2, n + 2) for e in ((0, s), (1, s))]


def bipyramid_chain(n):
    edges = []
    for i in range(n):
        s, ua, ub = 2 + i, 2 + n + i, 2 + 2 * n + i
        edges += [(0, s), (0, ua), (s, ua), (1, s), (1, ub), (s, ub)]
    return 3 * n + 2, sorted(edges)


def complete(n):
    return n, list(combinations(range(n), 2))


def union(*graphs):
    offset, edges = 0, []
    for n, es in graphs:
        edges += [(u + offset, v + offset) for u, v in es]
        offset += n
    return offset, edges


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return n, [e for e in combinations(range(n), 2) if rng.random() < p]


FAMILIES = {"star": star, "pyramid": pyramid, "bipyramid_chain": bipyramid_chain}
SMALL = [complete(4), complete(5), star(3), pyramid(3), bipyramid_chain(2)] + [
    random_graph(7, 0.5, s) for s in range(4)
]


# -- brute force, straight from the definitions -----------------------------


def brute_counts(n, edges):
    es = set(edges)

    def adj(u, v):
        return (min(u, v), max(u, v)) in es

    tris = [t for t in combinations(range(n), 3) if adj(*t[:2]) and adj(t[1], t[2]) and adj(t[0], t[2])]
    out = {"edges": len(edges), "n1": len(tris)}
    for s in (2, 3, 4):
        out[f"n{s}"] = sum(
            1 for group in combinations(tris, s) if len(set.intersection(*map(set, group))) >= 2
        )
    d = {e: sum(1 for t in tris if set(e) <= set(t)) for e in edges}

    def dd(u, v):
        return d.get((min(u, v), max(u, v)), 0)

    c4 = b = 0
    for q in combinations(range(n), 4):
        for a, b1, c, e in ((q[0], q[1], q[2], q[3]), (q[0], q[1], q[3], q[2]), (q[0], q[2], q[1], q[3])):
            if adj(a, b1) and adj(b1, c) and adj(c, e) and adj(e, a):
                c4 += 1
            b += dd(a, b1) * dd(b1, c) * dd(c, e) * dd(e, a)
    out["c4"], out["b"] = c4, b
    score = [sum(1 for t in tris if v in t) + sum(comb(k, 2) for e, k in d.items() if v in e) for v in range(n)]
    order = sorted(range(n), key=lambda v: (-score[v], v))
    out["s"] = sum(
        dd(order[i], order[k]) ** 2 * dd(order[j], order[k]) ** 2
        for i, j, k in combinations(range(n), 3)
    )
    return out, tris


def brute_law(n, edges, tris, c):
    law = {}
    for col in product(range(c), repeat=n):
        key = (
            sum(col[u] == col[v] for u, v in edges),
            sum(col[a] == col[b] == col[d] for a, b, d in tris),
        )
        law[key] = law.get(key, 0) + Fraction(1, c**n)
    return law


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", [3, 4, 5])
def test_family_closed_forms_match_brute(family, n):
    nv, edges = FAMILIES[family](n)
    counts, _ = brute_counts(nv, edges)
    assert ref.family_counts(family, n) == counts
    assert ref.family_shape(family, n) == (nv, len(edges), ref.degree_multiset(nv, edges))


@pytest.mark.parametrize("graph", SMALL)
def test_dense_counts_and_triangles_match_brute(graph):
    counts, tris = brute_counts(*graph)
    dense = ref.dense_counts(*graph)
    assert {k: dense[k] for k in ("edges", "n1", "n2", "n3", "n4", "c4")} == {
        k: counts[k] for k in ("edges", "n1", "n2", "n3", "n4", "c4")
    }
    t_at = [sum(v in t for t in tris) for v in range(graph[0])]
    assert dense["pairs_at_vertex"] == sum(comb(t, 2) for t in t_at)
    assert sorted(ref.triangles(*graph)) == tris


@pytest.mark.parametrize("c", [2, 3])
@pytest.mark.parametrize("graph", SMALL)
def test_moment_formulas_match_enumeration(graph, c):
    counts, tris = brute_counts(*graph)
    law = brute_law(*graph, tris, c)
    mean2, var2, m4 = ref.central_moments(ref.marginal(law, 0))
    assert ref.t2_moments(counts["edges"], counts["n1"], counts["c4"], c) == (mean2, var2, m4 / var2**2 - 3)
    mean3, var3, _ = ref.central_moments(ref.marginal(law, 1))
    assert ref.t3_mean_var(counts["n1"], counts["n2"], c) == (mean3, var3)


def test_brackets_evaluate_the_formulas():
    rational, inner, bound = ref.t2_bracket(16, 6, 2)
    assert rational == Fraction(2, 16) + Fraction(6, 2 * 256)
    assert (inner, bound) == (float(rational) + 0.25, (float(rational) + 0.25) ** 0.2)
    r1, r2, bracket, bound = ref.t3_bracket(4, 6, 1, 6)
    assert (r1, r2) == (Fraction(2, 100), Fraction(6, 100))
    assert bracket == 0.02**0.25 + 0.06 and bound == bracket**0.2


@pytest.mark.parametrize("n,c", [(4, 2), (4, 3), (5, 3), (5, 4), (6, 2)])
def test_complete_graph_law_matches_enumeration(n, c):
    graph = complete(n)
    _, tris = brute_counts(*graph)
    assert ref.complete_graph_law(n, c) == brute_law(*graph, tris, c)


@pytest.mark.parametrize("n,m,c", [(3, 2, 2), (2, 1, 3), (4, 1, 2)])
def test_composite_law_matches_enumeration(n, m, c):
    graph = union(pyramid(n), bipyramid_chain(m))
    _, tris = brute_counts(*graph)
    assert ref.composite_t3_law(n, m, c) == ref.marginal(brute_law(*graph, tris, c), 1)


@pytest.mark.parametrize("c", [2, 3])
@pytest.mark.parametrize("graph", SMALL)
def test_enumerated_t3_law_matches_brute(graph, c):
    _, tris = brute_counts(*graph)
    assert ref.enumerated_t3_law(graph[0], tris, c) == ref.marginal(brute_law(*graph, tris, c), 1)


@pytest.mark.parametrize("c", [2, 3])
def test_star_and_pyramid_laws_match_enumeration(c):
    graph = star(5)
    assert ref.binomial_law(5, c) == ref.marginal(brute_law(*graph, [], c), 0)
    graph = pyramid(4)
    _, tris = brute_counts(*graph)
    assert ref.pyramid_t3_law(4, c) == ref.marginal(brute_law(*graph, tris, c), 1)


def test_lattice_ks():
    law = ref.binomial_law(2, 2)  # 1/4, 1/2, 1/4
    assert ref.lattice_ks({0: 1, 1: 2, 2: 1}, law) == 0.0
    assert ref.lattice_ks({0: 2, 1: 2}, law) == 0.25
    assert ref.lattice_ks({5: 1}, law) == 1.0
