import random
from math import comb

import numpy as np
import pytest

from brute import (
    brute_b,
    brute_c4,
    brute_d,
    brute_pyramid_sums,
    brute_pyramids,
    brute_s,
    brute_s_of,
    brute_scores,
    brute_triangles,
    brute_weighted_c4,
    relabeled,
)
from helpers import degrees, discovery_corpus, has_edge
from monoclt import census, cli, sim
from monoclt.census import (
    TriangleCensus,
    b_statistic,
    count_c4,
    index_triangles,
    pyramid_counts,
    s_statistic,
    score_ordering,
    triangle_census,
)
from monoclt.graph import Graph, bipyramid_chain, complete, cycle, gnp, pyramid, star


def _kernel_corpus(small_corpus):
    """The small corpus plus denser gnp graphs (many degree ties for the
    4-cycle kernel's ranking), each with a relabelled copy."""
    rng = random.Random(11)
    graphs = list(small_corpus)
    graphs += [(f"gnp{n}_p{p}_seed{s}", gnp(n, p, s)) for n, p in ((12, 0.6), (16, 0.5)) for s in range(3)]
    out = []
    for name, g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        out += [(name, g), (f"{name}_relabeled", relabeled(g, perm))]
    return out


def _edge_tri(tc):
    """{(u, v): d} over the edges some triangle covers."""
    return {divmod(k, tc.n): d for k, d in zip(tc.edge_keys.tolist(), tc.edge_d.tolist())}


def _d(tc, u, v):
    """d(u, v) through edge_ids: 0 where no triangle covers uv."""
    e = tc.edge_ids(np.asarray(u), np.asarray(v))
    return np.where(e >= 0, tc.edge_d[e], 0)


def test_census_k3_k4():
    tc = triangle_census(complete(3))
    assert tc.triangles.tolist() == [[0, 1, 2]]
    assert (_d(tc, *np.array(complete(3).edges).T) == 1).all()
    tc4 = triangle_census(complete(4))
    assert len(tc4.triangles) == 4
    assert (_d(tc4, *np.array(complete(4).edges).T) == 2).all()


def test_census_pyramid4():
    tc = triangle_census(pyramid(4))
    assert _d(tc, 0, 1) == 4 and _d(tc, 1, 0) == 4
    for s in range(2, 6):
        assert _d(tc, 0, s) == 1 and _d(tc, s, 1) == 1


def test_edge_ids_of_uncovered_pairs():
    # pyramid(4): 2 - 3 is no edge, and 0 - 1 is covered four times
    tc = triangle_census(pyramid(4))
    assert tc.edge_ids(np.array([2, 0, 5]), np.array([3, 1, 4])).tolist() == [-1, 0, -1]
    # no triangle covers any pair of a triangle-free census
    for empty in (triangle_census(cycle(5)), triangle_census(Graph.from_edges(3, []))):
        assert empty.edge_ids(np.array([0, 1, 3]), np.array([1, 2, 4])).tolist() == [-1, -1, -1]


def test_census_matches_brute(small_corpus):
    for name, g in small_corpus:
        tc = triangle_census(g)
        assert [tuple(t) for t in tc.triangles.tolist()] == brute_triangles(g), name
        brute = {e: d for e, d in brute_d(g).items() if d > 0}
        assert _edge_tri(tc) == brute, name


def test_census_invariants(small_corpus):
    for name, g in small_corpus:
        tc = triangle_census(g)
        assert sum(_edge_tri(tc).values()) == 3 * len(tc.triangles), name
        degree = degrees(g)
        for (u, v), d in _edge_tri(tc).items():
            assert d <= min(degree[u], degree[v]) - 1, name
        for a, b, c in tc.triangles:
            assert has_edge(g, a, b) and has_edge(g, b, c) and has_edge(g, a, c)


def test_pyramid_counts_examples():
    assert pyramid_counts(triangle_census(complete(4))).as_tuple() == (4, 6, 0, 0)
    assert pyramid_counts(triangle_census(pyramid(10))).as_tuple() == (10, 45, 120, 210)
    assert pyramid_counts(triangle_census(cycle(4))).as_tuple() == (0, 0, 0, 0)


def test_pyramid_counts_match_brute(small_corpus):
    for name, g in small_corpus:
        if len(brute_triangles(g)) > 12:
            continue
        pc = pyramid_counts(triangle_census(g))
        for s, value in zip((1, 2, 3, 4), pc.as_tuple()):
            assert value == brute_pyramids(g, s), (name, s)


def test_pyramid_counts_equal_triangle_list(small_corpus):
    for name, g in small_corpus:
        tc = triangle_census(g)
        assert pyramid_counts(tc).n1 == len(tc.triangles), name


def test_count_c4_examples():
    assert count_c4(cycle(4)) == 1
    assert count_c4(complete(4)) == 3
    assert count_c4(complete(5)) == 15


@pytest.mark.parametrize("n", range(2, 10))
def test_count_c4_complete(n):
    assert count_c4(complete(n)) == 3 * comb(n, 4)


def test_count_c4_matches_brute(small_corpus):
    for name, g in _kernel_corpus(small_corpus):
        assert count_c4(g) == brute_c4(g), name


def test_b_statistic_examples():
    assert b_statistic(triangle_census(pyramid(10))) == 45
    assert b_statistic(triangle_census(complete(4))) == 48
    assert b_statistic(triangle_census(bipyramid_chain(2))) == 1


def test_b_statistic_matches_brute(small_corpus):
    for name, g in _kernel_corpus(small_corpus):
        assert b_statistic(triangle_census(g)) == brute_b(g), name


def test_b_statistic_relabeling_invariant():
    rng = random.Random(7)
    for g in (complete(4), pyramid(6), bipyramid_chain(5), gnp(20, 0.3, 5), gnp(16, 0.7, 1)):
        base = b_statistic(triangle_census(g))
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert b_statistic(triangle_census(relabeled(g, perm))) == base


def test_hub_closed_forms():
    # every 4-cycle runs hub-spine-hub-spine, with unit d on all four edges
    for g, n in ((pyramid(2000), 2000), (bipyramid_chain(1000), 1000)):
        assert count_c4(g) == b_statistic(triangle_census(g)) == comb(n, 2)
    assert count_c4(star(5000)) == 0


def test_score_ordering_pyramid():
    g = pyramid(4)
    tc = triangle_census(g)
    order = score_ordering(tc)
    assert order == [0, 1, 2, 3, 4, 5]
    scores = brute_scores(g)
    assert scores[0] == scores[1] == 4 + comb(4, 2)
    assert all(scores[u] == 1 for u in range(2, 6))


def test_score_ordering_ties_and_triangle_free():
    g = complete(4)
    assert score_ordering(triangle_census(g)) == [0, 1, 2, 3]
    p5 = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    assert score_ordering(triangle_census(p5)) == [0, 1, 2, 3, 4]


def test_score_ordering_matches_brute(small_corpus):
    for name, g in small_corpus:
        tc = triangle_census(g)
        scores = brute_scores(g)
        expected = sorted(range(g.n), key=lambda v: (-scores[v], v))
        assert score_ordering(tc) == expected, name


def test_s_statistic_pyramid4():
    g = pyramid(4)
    tc = triangle_census(g)
    order = score_ordering(tc)
    assert s_statistic(tc, order) == 4
    assert s_statistic(tc, list(reversed(order))) == 76


def test_s_statistic_k4_any_order():
    tc = triangle_census(complete(4))
    for order in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]):
        assert s_statistic(tc, order) == 64


def test_s_statistic_matches_brute(small_corpus):
    rng = random.Random(3)
    for name, g in small_corpus:
        tc = triangle_census(g)
        order = list(range(g.n))
        rng.shuffle(order)
        assert s_statistic(tc, order) == brute_s(g, order), name


def test_s_statistic_requires_permutation():
    tc = triangle_census(complete(4))
    with pytest.raises(ValueError):
        s_statistic(tc, [0, 1, 2])
    with pytest.raises(ValueError):
        s_statistic(tc, [0, 1, 2, 2])


@pytest.mark.parametrize("n", range(2, 31))
def test_s_equals_n_on_pyramids_under_score_order(n):
    g = pyramid(n)
    tc = triangle_census(g)
    assert s_statistic(tc, score_ordering(tc)) == n


def test_score_order_regression_bound():
    # diagnostic: under the score ordering, s(G) stays well below
    # (n1+n2)^(3/2) (1+n4)^(1/4) across the corpus (regression constant 10)
    graphs = [complete(k) for k in range(4, 10)]
    graphs += [pyramid(n) for n in range(2, 31)]
    graphs += [bipyramid_chain(n) for n in range(2, 31)]
    graphs += [gnp(30, p, seed) for p in (0.2, 0.5) for seed in range(5)]
    for g in graphs:
        tc = triangle_census(g)
        pc = pyramid_counts(tc)
        if pc.n1 == 0:
            continue
        s_val = s_statistic(tc, score_ordering(tc))
        denom = (pc.n1 + pc.n2) ** 1.5 * (1 + pc.n4) ** 0.25
        assert s_val / denom < 10.0


def _relabelled_gnp():
    perm = list(range(60))
    random.Random(5).shuffle(perm)
    return relabeled(gnp(60, 0.3, 1), perm)


@pytest.mark.parametrize("g", discovery_corpus() + [pytest.param(_relabelled_gnp(), id="gnp60_relabelled")])
def test_thirds_list_each_edges_triangles_by_ascending_third_vertex(g):
    # the keys e * n + x of the triangles on each edge e, with x their third
    # vertex, are ascending as on lists them: lexicographic triangle order
    # lists the triangles on an edge by ascending third vertex, unsorted
    tc = triangle_census(g)
    edge = {key: e for e, key in enumerate(tc.edge_keys.tolist())}
    want = sorted(edge[u * g.n + v] * g.n + sum(t) - u - v for t in brute_triangles(g)
                  for u, v in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])))
    assert tc.thirds.tolist() == want
    # position i lists the triangle tc.on[1][i], on edge thirds[i] // n
    e, x = np.divmod(tc.thirds, g.n)
    assert e.tolist() == np.repeat(np.arange(len(tc.edge_d)), tc.edge_d).tolist()
    rows = tc.triangles[tc.on[1]]
    for v in (*np.divmod(tc.edge_keys[e], g.n), x):
        assert (rows == v[:, None]).any(1).all()


def _census_outputs(g):
    tc = triangle_census(g)
    order = score_ordering(tc)
    return (tc.triangles.tolist(), tc.edge_keys.tolist(), tc.edge_d.tolist(), pyramid_counts(tc).as_tuple(),
            count_c4(g), b_statistic(tc), order, s_statistic(tc, order))


def test_census_outputs_do_not_depend_on_the_pass_bound(small_corpus, monkeypatch):
    # one candidate or wedge per pass splits every top of the wedge kernel
    # into runs of single edges, against the default bound's few passes
    graphs = _kernel_corpus(small_corpus) + [("pyramid600", pyramid(600)), ("gnp120", gnp(120, 0.5, 1))]
    default = [_census_outputs(g) for _, g in graphs]
    monkeypatch.setattr(census, "_PASS", 1)
    for (name, g), want in zip(graphs, default):
        assert _census_outputs(g) == want, name


def _wedge_passes(g):
    """The passes of the wedge kernel on g, each as the (top, bottom) key of
    each wedge, its edge ids tm and mw, and the group starts; and each
    vertex's number of edges down to vertices ranked below it."""
    e = g.edge_array
    rank = census._rank(np.bincount(e.ravel(), minlength=g.n))
    passes = []
    for tm, mw, group in census._wedges(g.n, e[:, 0] * g.n + e[:, 1]):
        (a, b), (c, d) = e[tm].T, e[mw].T
        mid = np.where((a == c) | (a == d), a, b)
        top, bottom = a + b - mid, c + d - mid
        assert (rank[mid] < rank[top]).all() and (rank[bottom] < rank[top]).all()
        passes.append((top * g.n + bottom, tm, mw, group))
    upper = np.where(rank[e[:, 0]] > rank[e[:, 1]], e[:, 0], e[:, 1])
    return passes, np.bincount(upper, minlength=g.n)


@pytest.mark.parametrize("bound", [1, 64])
@pytest.mark.parametrize("g", [pyramid(600), gnp(120, 0.5, 1)], ids=["pyramid600", "gnp120"])
def test_wedge_passes_follow_the_pass_bound(g, bound, monkeypatch):
    # pyramid(600) has one (top, bottom) group of 600 wedges, past both bounds
    want = sorted(w for _, tm, mw, _ in _wedge_passes(g)[0] for w in zip(tm.tolist(), mw.tolist()))
    monkeypatch.setattr(census, "_PASS", bound)
    passes, down = _wedge_passes(g)
    seen = set()
    wedges, cuts = np.zeros(g.n, np.int64), np.zeros(g.n, np.int64)
    for key, tm, mw, group in passes:
        sizes = np.diff(np.r_[group, len(key)])
        tops = np.unique(key // g.n)
        # a top with more wedges than the bound takes ranges of bottoms with
        # up to as many wedges as it has edges down
        assert len(key) <= max(bound, down[tops].max(), sizes.max())
        # each group is contiguous, and lies in this pass alone
        assert group.tolist() == np.flatnonzero(np.r_[True, key[1:] != key[:-1]]).tolist()
        groups = set(key[group].tolist())
        assert len(groups) == len(group) and not groups & seen
        seen |= groups
        wedges += np.bincount(key // g.n, minlength=g.n)
        cuts[tops] += 1
    assert sorted(w for _, tm, mw, _ in passes for w in zip(tm.tolist(), mw.tolist())) == want
    assert len(passes) > 1
    # so the ranges of a top grow with its degree: two consecutive ranges
    # hold more than max(bound, edges down), and the top's searches over its
    # edges down stay linear in its wedges
    heavy = wedges > bound
    assert (cuts[heavy] <= 2 * wedges[heavy] // np.maximum(bound, down[heavy]) + 1).all()


def test_census_of_a_graph_without_edges():
    for g in (Graph.from_edges(0, []), Graph.from_edges(3, [])):
        tc = triangle_census(g)
        assert tc.triangles.shape == (0, 3) and len(tc.edge_keys) == len(tc.edge_d) == 0
        assert _census_outputs(g)[3:] == ((0, 0, 0, 0), 0, 0, list(range(g.n)), 0)


@pytest.mark.parametrize("rows, n", [
    pytest.param([[0, 1, 2], [0, 1, 2]], None, id="listed_twice"),
    pytest.param([[0, 1, 2], [2, 1, 0]], None, id="listed_twice_reordered"),
    pytest.param([[0, 1, 1]], None, id="repeated_vertex"),
    pytest.param([[0, 1, 5]], 3, id="vertex_past_n"),
    pytest.param([[-1, 0, 1]], None, id="negative_vertex"),
    pytest.param([[0, 2**40, 2**40 + 1]], None, id="keys_past_int64"),
])
def test_index_refuses_rows_that_are_not_distinct_triangles(rows, n):
    # each of these once indexed to a census with wrong edge counts (K3
    # listed twice had edge_d [2, 2, 2]) or with keys past n, below 0 or
    # wrapped past 2^63
    with pytest.raises(ValueError):
        index_triangles(rows, n)


def _keys(n, edges):
    return np.array(sorted(u * n + v for u, v in edges), dtype=np.int64)


@pytest.mark.parametrize("bound", [1, census._PASS])
def test_wedge_kernel_is_exact_past_int64(monkeypatch, bound):
    monkeypatch.setattr(census, "_PASS", bound)
    square = [(0, 1), (1, 2), (2, 3), (0, 3)]
    assert census._wedge_c4(4, _keys(4, square), np.full(4, 2**40, np.int64)) == 2**160
    # K4 with distinct weights near 2^40: three 4-cycles, each a product near 2^160
    k4 = sorted(complete(4).edges)
    weights = {e: 2**40 + 7919 * i for i, e in enumerate(k4)}
    got = census._wedge_c4(4, _keys(4, k4), np.array([weights[e] for e in k4], np.int64))
    assert got == brute_weighted_c4(4, weights)
    assert type(got) is int and got > 2**160


def test_pyramid_counts_and_s_are_exact_past_int64():
    # a synthetic census: d near 10^5 on the edges of K5, whose d^4 and
    # C(d, 4) sums pass 2^63
    edges = sorted(complete(5).edges)
    ds = [100_002 + 3 * i for i in range(len(edges))]  # their sum, three per triangle, divides by 3
    tc = TriangleCensus(n=5, triangles=np.empty((0, 3), np.int64), edge_keys=_keys(5, edges),
                        edge_d=np.array(ds, np.int64))
    sums = brute_pyramid_sums(ds)
    assert sums[3] > 2**63
    assert pyramid_counts(tc).as_tuple() == (sums[0] // 3, *sums[1:])
    d = dict(zip(edges, ds))
    for order in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1]):
        got = s_statistic(tc, order)
        assert got == brute_s_of(d, order) and got > 2**63
        assert type(got) is int


def test_statistics_reach_json_as_python_ints():
    g = gnp(30, 0.5, 2)
    tc = triangle_census(g)
    values = [*pyramid_counts(tc).as_tuple(), count_c4(g), b_statistic(tc), s_statistic(tc, list(range(g.n)))]
    values += score_ordering(tc)
    assert all(type(v) is int for v in values)


# the census functions perfbench/tracer.py times, by the names it binds on
# each module; a renamed or unbound one would leave its span empty
TRACED_CENSUS = {
    cli: ("triangle_census", "pyramid_counts", "count_c4", "b_statistic", "s_statistic", "score_ordering"),
    sim: ("triangle_census", "pyramid_counts"),
}


@pytest.mark.parametrize("module", list(TRACED_CENSUS), ids=lambda m: m.__name__)
def test_traced_census_names_resolve(module):
    for name in TRACED_CENSUS[module]:
        assert getattr(module, name) is getattr(census, name), (module.__name__, name)
