import math
import random

import pytest

from brute import brute_triangles
from helpers import degrees, has_edge
from monoclt.errors import (
    BadParamsError,
    CompositeUndefinedError,
    MalformedLineError,
    SelfLoopError,
    TooLargeError,
)
from monoclt.graph import (
    MAX_EDGES,
    FamilySpec,
    Graph,
    bipyramid_chain,
    complete,
    composite_chain_length,
    cycle,
    disjoint_union,
    generate,
    gnp,
    _plan,
    parse_edge_list,
    pyramid,
    serialize_edge_list,
    star,
)


def test_parse_triangle():
    r = parse_edge_list("0 1\n1 2\n0 2")
    assert r.graph.n == 3
    assert r.graph.edges == ((0, 1), (0, 2), (1, 2))
    assert r.duplicate_count == 0


def test_parse_collapses_duplicates():
    r = parse_edge_list("0 1\n0 1\n1 2")
    assert r.graph.edges == ((0, 1), (1, 2))
    assert r.duplicate_count == 1
    # reversed orientation counts as the same edge
    assert parse_edge_list("0 1\n1 0").duplicate_count == 1


def test_parse_rejects_self_loop():
    with pytest.raises(SelfLoopError) as exc:
        parse_edge_list("3 3")
    assert exc.value.vertex == 3


def test_parse_rejects_malformed():
    with pytest.raises(MalformedLineError) as exc:
        parse_edge_list("0 1\n1 two\n")
    assert exc.value.line_no == 2
    with pytest.raises(MalformedLineError):
        parse_edge_list("0 1 2")
    with pytest.raises(MalformedLineError):
        parse_edge_list("-1 2")


def test_parse_compacts_sparse_ids():
    r = parse_edge_list("10 20\n20 30  # arbitrary ids\n")
    assert r.graph.n == 3
    assert r.graph.edges == ((0, 1), (1, 2))
    assert r.id_map == (10, 20, 30)


def test_parse_honors_vertices_header():
    r = parse_edge_list("# vertices=5 edges=1\n0 4\n")
    assert r.graph.n == 5
    assert r.graph.edges == ((0, 4),)


@pytest.mark.parametrize(
    "text,line_no,content",
    [
        ("# vertices=3\n0 1\n1 5\n", 3, "1 5"),
        ("# vertices=3\n0 1\n5 1  # dup\n1 5\n", 3, "5 1  # dup"),
        ("0 1\n2 3\n# vertices=3\n", 2, "2 3"),
    ],
    ids=["after-header", "first-of-duplicates", "header-after-edges"],
)
def test_parse_names_the_line_past_the_vertices_header(text, line_no, content):
    with pytest.raises(MalformedLineError) as exc:
        parse_edge_list(text)
    assert (exc.value.line_no, exc.value.content) == (line_no, content)
    assert str(exc.value) == f"malformed edge-list line {line_no}: {content!r}"


def test_round_trip(small_corpus):
    for name, g in small_corpus:
        assert parse_edge_list(serialize_edge_list(g)).graph == g, name


@pytest.mark.parametrize("n", range(1, 51))
def test_family_closed_forms(n):
    from monoclt.census import triangle_census

    g = pyramid(n)
    assert (g.n, g.edge_count) == (n + 2, 2 * n + 1)
    assert len(triangle_census(g).triangles) == n
    if n <= 12:
        assert len(brute_triangles(g)) == n
    b = bipyramid_chain(n)
    assert (b.n, b.edge_count) == (3 * n + 2, 6 * n)
    assert len(triangle_census(b).triangles) == 2 * n
    if n <= 8:
        assert len(brute_triangles(b)) == 2 * n
    m = min(n, 9)
    assert complete(m).edge_count == m * (m - 1) // 2
    assert len(triangle_census(complete(m)).triangles) == math.comb(m, 3)
    if n >= 3:
        c = cycle(n)
        assert c.edge_count == n
        assert len(triangle_census(c).triangles) == (1 if n == 3 else 0)
    assert star(n).edge_count == n
    assert len(triangle_census(star(n)).triangles) == 0


def test_examples_from_family_docs():
    g = pyramid(10)
    assert g.n == 12 and g.edge_count == 21
    b = bipyramid_chain(3)
    assert b.n == 11 and b.edge_count == 18
    assert len(brute_triangles(b)) == 6


def test_adjacency_invariants(small_corpus):
    for name, g in small_corpus:
        assert sum(degrees(g)) == 2 * g.edge_count, name
        assert list(g.edges) == sorted(set(g.edges)), name
        for u, v in g.edges:
            assert 0 <= u < v < g.n, name
            assert has_edge(g, u, v) and has_edge(g, v, u), name


def test_from_edges_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


def test_gnp_determinism_and_seed_sensitivity():
    a = gnp(50, 0.5, 123)
    b = gnp(50, 0.5, 123)
    assert a == b
    c = gnp(50, 0.5, 124)
    sym_diff = set(a.edges) ^ set(c.edges)
    assert len(sym_diff) > 0


def test_gnp_extremes():
    assert gnp(10, 0.0, 7).edge_count == 0
    assert gnp(10, 1.0, 7).edge_count == 45
    with pytest.raises(BadParamsError):
        gnp(10, 1.5, 7)


def test_composite_sizing():
    # at c=2 the coefficient ratio 2|d4|/h16 is exactly 4, so the chain
    # size is ceil(sqrt(4 * C(8,4))) = ceil(sqrt(280)) = 17
    assert composite_chain_length(8, 2) == 17
    assert math.isqrt(4 * math.comb(8, 4)) == 16  # not a perfect square: ceil bumps
    g = generate(FamilySpec(family="composite", n=8, c=2))
    ref = disjoint_union(pyramid(8), bipyramid_chain(17))
    assert g == ref


def test_composite_undefined_for_large_c():
    with pytest.raises(CompositeUndefinedError):
        composite_chain_length(8, 5)
    with pytest.raises(CompositeUndefinedError):
        generate(FamilySpec(family="composite", n=8, c=7))


def test_generate_validates_params():
    with pytest.raises(BadParamsError):
        generate(FamilySpec(family="cycle", n=2))
    with pytest.raises(BadParamsError):
        generate(FamilySpec(family="gnp", n=10, p=0.5))  # missing seed
    with pytest.raises(BadParamsError, match="gnp requires p"):
        generate(FamilySpec(family="gnp", n=10, seed=1))
    with pytest.raises(BadParamsError, match="composite requires c"):
        generate(FamilySpec(family="composite", n=8))
    with pytest.raises(BadParamsError):
        generate(FamilySpec(family="nosuch", n=3))
    with pytest.raises(BadParamsError):
        generate(FamilySpec(family="disjoint_union"))
    with pytest.raises(BadParamsError):  # fields the family does not read
        generate(FamilySpec(family="complete", n=4, seed=7))
    with pytest.raises(BadParamsError):
        generate(FamilySpec(family="star", n=3, p=0.9))
    with pytest.raises(BadParamsError):
        generate(FamilySpec(family="disjoint_union", n=9, parts=(FamilySpec("pyramid", n=3),)))


@pytest.mark.parametrize(
    "spec,size",
    [
        (FamilySpec("complete", n=4473), math.comb(4473, 2)),
        (FamilySpec("complete", n=10**8), math.comb(10**8, 2)),
        (FamilySpec("star", n=MAX_EDGES + 1), MAX_EDGES + 1),
        (FamilySpec("cycle", n=MAX_EDGES + 1), MAX_EDGES + 1),
        (FamilySpec("pyramid", n=MAX_EDGES // 2), MAX_EDGES + 1),
        (FamilySpec("bipyramid_chain", n=MAX_EDGES // 6 + 1), 6 * (MAX_EDGES // 6 + 1)),
        (FamilySpec("composite", n=3000, c=2), 2 * 3000 + 1 + 6 * composite_chain_length(3000, 2)),
        (FamilySpec("gnp", n=4473, p=0.0, seed=1), math.comb(4473, 2)),
        (FamilySpec("disjoint_union", parts=(FamilySpec("complete", n=4000), FamilySpec("star", n=3_000_000))),
         math.comb(4000, 2) + 3_000_000),
    ],
    ids=["complete4473", "complete1e8", "star", "cycle", "pyramid", "chain", "composite3000", "gnp4473", "union"],
)
def test_oversized_families_are_refused_before_building(spec, size):
    # each size is one past the cap or more; building any of them would
    # take seconds to minutes and, for K_1e8, more memory than there is
    assert _plan(spec)[0] == size > MAX_EDGES
    with pytest.raises(TooLargeError, match=f"{size} "):
        generate(spec)


@pytest.mark.parametrize(
    "spec,size",
    [
        (FamilySpec("complete", n=4472), math.comb(4472, 2)),
        (FamilySpec("pyramid", n=MAX_EDGES // 2 - 1), MAX_EDGES - 1),
        (FamilySpec("gnp", n=3000, p=0.5, seed=1), 4_498_500),
        (FamilySpec("disjoint_union", parts=(FamilySpec("complete", n=4000), FamilySpec("star", n=2_000_000))),
         math.comb(4000, 2) + 2_000_000),
    ],
    ids=["complete4472", "pyramid", "gnp3000", "union"],
)
def test_families_up_to_the_cap_are_accepted(spec, size):
    # sized without building: these are the largest accepted inputs
    assert _plan(spec)[0] == size <= MAX_EDGES


def test_disjoint_union_layout():
    g = disjoint_union(complete(3), complete(3))
    assert g.n == 6 and g.edge_count == 6
    assert len(brute_triangles(g)) == 2
    spec = FamilySpec(
        family="disjoint_union",
        parts=(FamilySpec(family="pyramid", n=2), FamilySpec(family="star", n=3)),
    )
    u = generate(spec)
    assert u.n == 4 + 4 and u.edge_count == 5 + 3


def test_relabeling_preserves_structure():
    rng = random.Random(0)
    g = gnp(12, 0.4, 9)
    perm = list(range(12))
    rng.shuffle(perm)
    h = Graph.from_edges(12, [(perm[u], perm[v]) for u, v in g.edges])
    assert h.edge_count == g.edge_count
    assert sorted(degrees(h)) == sorted(degrees(g))
