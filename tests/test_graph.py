import argparse
import collections
import math
import random
import tracemalloc

import numpy as np
import pytest

from brute import BULK_RE, brute_parse_edge_list, brute_triangles
from helpers import degrees, has_edge
from monoclt import cli, graph
from monoclt.errors import (
    BadParamsError,
    CompositeUndefinedError,
    MalformedLineError,
    MonocltError,
    SelfLoopError,
    TooLargeError,
)
from monoclt.graph import (
    FAMILIES,
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
    with pytest.raises(ValueError):  # its edge keys u * n + v would pass int64
        Graph.from_edges(2**32, [(0, 1)])


@pytest.mark.parametrize("edges", [
    [(0.5, 1)], [(0, 1.9)], [(float("nan"), 1)], [(0, float("inf"))],  # not integers
    [(2**63, 1)], [(0, 2**64)], np.array([[2**64 - 1, 1]], np.uint64),  # past int64, not wrapped
])
def test_from_edges_refuses_ids_it_would_truncate_or_wrap(edges):
    with pytest.raises(ValueError):
        Graph.from_edges(3, edges)


def test_from_edges_takes_whole_numbers_of_any_type():
    want = Graph.from_edges(3, [(0, 2), (1, 2)])
    for edges in ([(0.0, 2.0), (2.0, 1.0)], np.array([[2, 0], [1, 2]], np.uint8)):
        assert Graph.from_edges(3, edges) == want


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


def _parsed(parse, text):
    try:
        return parse(text)
    except MonocltError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "text,bulk",
    [
        ("", True),
        ("# vertices=4\n", True),
        ("# vertices=5 edges=2\n0 4\n3 1\n", True),
        ("#\n0 1\n", True),
        ("# no header here\n30 40\n10 30\n", True),
        ("0 1\n1 2", False),
        ("0 1\r\n1 2\r\n", False),
        ("# vertices=5\n# vertices=3\n0 4\n", False),
        ("# a\rvertices=3\n0 1\n", False),
        ("0 1 # vertices=3\n1 2\n", False),
        ("# vertices=12\n007 010\n", True),
        ("7 10\n007 10\n0 7\n", True),
        ("999999999999999999 0\n", True),
        ("1234567890123456789 5\n5 7\n", False),
        ("# vertices=3\n1234567890123456789 1\n", False),
        ("0\t1\n", False),
        ("0 1\n\n1 2\n", False),
        ("0 1\n2 2\n", True),
        ("# vertices=3\n0 1\n2 2\n", True),
        ("# vertices=30000000\n0 1\n2 2\n", True),
        ("# vertices=3\n0 1\n5 1\n1 5\n", True),
        ("# vertices=3\n0 1\n2 3\n# vertices=9\n", False),
        (f"# vertices={2 * MAX_EDGES + 1}\n0 1\n", True),
        (f"# vertices={2 * MAX_EDGES}\n0 1\n", True),
        ("0 1\n1 0\n2 1\n1 2\n0 1\n", True),
        ("0 1\n1 two\n", False),
        ("0 1 2\n", False),
    ],
)
def test_bulk_parse_equals_the_line_loop(text, bulk):
    # the same result, or the same error and message, from both paths
    assert (BULK_RE.fullmatch(text) is not None) == bulk
    assert _parsed(parse_edge_list, text) == _parsed(brute_parse_edge_list, text)


# the token grammar of the random texts: mostly small ids, so that many
# texts parse, duplicate or loop, and now and then an id at or past 2^63,
# one int() reads but the bulk reader does not, or one no reader takes
_SMALL_IDS = ("0", "1", "2", "3", "4", "5", "6", "007")
_ODD_IDS = (str(2**63 - 1), str(2**63), str(2**64 - 1), str(2**64), str(10**20),
            "1_0", "+2", "٣", "-0", "-1", "x", "2.0", "999999999999999999")
_GAPS = (" ", " ", "  ", "\t", "\x0c", " \t ")
_ENDS = ("\n", "\n", "\n", "\r\n", "\r")
_COMMENTS = ("# vertices=4", "# vertices=7 edges=3", "#vertices = 12", "# vertices=0",
             f"# vertices={2 * MAX_EDGES + 1}", "# no header", "#")


def _random_text(rng: random.Random) -> str:
    if rng.random() < 0.3:  # the form serialize_edge_list writes, read in bulk when it is well formed
        rows = [f"{rng.choice(_SMALL_IDS)} {rng.choice(_SMALL_IDS)}\n" for _ in range(rng.randrange(8))]
        return rng.choice(("", "# vertices=6\n", "# vertices=3 edges=2\n", "# x\n")) + "".join(rows)
    lines = []
    for _ in range(rng.randrange(9)):
        kind = rng.random()
        if kind < 0.1:
            line = ""
        elif kind < 0.2:
            line = rng.choice(_COMMENTS)  # a first header, a second one or a plain comment
        else:
            ids = [rng.choice(_ODD_IDS if rng.random() < 0.15 else _SMALL_IDS)
                   for _ in range(rng.choice((2, 2, 2, 2, 2, 1, 3)))]
            line = rng.choice(("", " ", "\t")) + rng.choice(_GAPS).join(ids)
            if rng.random() < 0.1:
                line += " " + rng.choice(_COMMENTS)
        lines.append(line + rng.choice(_ENDS))
    text = "".join(lines)
    return text.rstrip("\n") if rng.random() < 0.2 else text


def test_parse_equals_the_line_loop_on_random_texts():
    rng = random.Random(25)
    outcomes = collections.Counter()
    for _ in range(3000):
        text = _random_text(rng)
        got = _parsed(parse_edge_list, text)
        assert got == _parsed(brute_parse_edge_list, text), text
        if isinstance(got, graph.ParseResult):
            assert isinstance(got.id_map, range) or all(type(i) is int for i in got.id_map), text
            outcomes["bulk" if BULK_RE.fullmatch(text) else "lines"] += 1
            outcomes["past 2^63"] += any(i >= 2**63 for i in got.id_map[-1:])
        else:
            outcomes[got[0].__name__] += 1
    # every path and every error is reached, so the grammar has not decayed
    assert min(outcomes[k] for k in ("bulk", "lines", "MalformedLineError", "SelfLoopError")) >= 200, outcomes
    assert min(outcomes[k] for k in ("past 2^63", "TooLargeError")) >= 10, outcomes


_GRAMMAR_EDGES = ("#", "#0 1\n", "#\r\n0 1\n", "#\x85\n0 1\n", "# h\u00e9 \u2603\n0 1\n", "0 1\n#\n",
                  "\u0663 1\n", "0 1\u2028", "0  1\n", " 0 1\n", "0 1 \n", "0 1\n\n", "\n", " \n", "0 \n", "0\n1\n",
                  "0 1\n\x00", "0\x001\n", "0 1\n\x80", "0 1 2 3\n", "0\n1 2\n")


def test_bulk_check_equals_the_reference_grammar(monkeypatch):
    # parse_edge_list's byte check sends exactly the texts the regular
    # expression refuses to the line tokenizer
    tokenized = []
    tokenize = graph._tokenize
    monkeypatch.setattr(graph, "_tokenize", lambda text: tokenized.append(text) or tokenize(text))
    rng = random.Random(27)
    texts = [_random_text(rng) for _ in range(3000)] + list(_GRAMMAR_EDGES)
    texts += [head + "0 1\n" * r + f"{'7' * a} {'8' * b}\n" * k
              for head in ("", "# vertices=9\n") for r in range(4)
              for a in (1, 17, 18, 19, 40) for b in (1, 18, 19) for k in (1, 2)]
    for text in texts:
        tokenized.clear()
        _parsed(parse_edge_list, text)
        assert (not tokenized) == (BULK_RE.fullmatch(text) is not None), text


def test_bulk_parse_memory_follows_the_text():
    # the byte check holds a few bytes per character of the 4 MB text, the
    # parsed rows 16 MB; a regular expression of the same grammar kept
    # state for each line and peaked at 227 MB
    text = "# vertices=3\n" + "0 1\n" * 10**6
    tracemalloc.start()
    try:
        r = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.graph.edges, r.duplicate_count) == (((0, 1),), 999_999)
    assert peak < 64 * 2**20


def test_a_vertices_header_maps_ids_by_a_range():
    r = parse_edge_list("# vertices=5000000\n0 1\n")
    assert r.id_map == range(5_000_000)
    assert (r.graph.n, r.graph.edges) == (5_000_000, ((0, 1),))


def test_graph_holds_a_read_only_edge_array():
    g = Graph.from_edges(4, [(3, 1), (0, 1), (1, 3), (2, 0)])
    assert g.edge_array.dtype == np.int64
    assert g.edge_array.tolist() == [[0, 1], [0, 2], [1, 3]]
    with pytest.raises(ValueError):
        g.edge_array[0, 0] = 2
    assert "edges" not in vars(g)  # the tuple view is built on first access, then kept
    assert g.edges == ((0, 1), (0, 2), (1, 3)) and g.edges is g.edges
    h = Graph.from_edges(4, g.edges)
    assert g == h and hash(g) == hash(h) and len({g, h}) == 1
    assert g != Graph.from_edges(5, g.edges) and g != cycle(4)


def test_gnp_draws_in_blocks_as_in_one_draw(monkeypatch):
    whole = {seed: gnp(60, 0.3, seed) for seed in (1, 2)}
    monkeypatch.setattr(graph, "_DRAWS", 7)
    for seed, g in whole.items():
        assert gnp(60, 0.3, seed) == g


def test_gnp_memory_follows_its_edges():
    # the draws are taken a block at a time, so nothing of all C(n, 2)
    # vertex pairs is held; a Python list of them peaked at 545 MB
    tracemalloc.start()
    try:
        g = gnp(3000, 0.01, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 44_976
    assert peak < 100 * 2**20


# the list constructions the deterministic families were built by before
# they built int64 rows, kept as the reference for the arrays
def _bipyramid_chain_list(n):
    edges = []
    for s in range(1, n + 1):
        spine, ua, ub = 1 + s, n + 1 + s, 2 * n + 1 + s
        edges += [(0, spine), (0, ua), (spine, ua), (1, spine), (1, ub), (spine, ub)]
    return Graph.from_edges(3 * n + 2, edges)


LIST_FAMILIES = {
    "complete": lambda n: Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)]),
    "star": lambda n: Graph.from_edges(n + 1, [(0, v) for v in range(1, n + 1)]),
    "cycle": lambda n: Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)]),
    "pyramid": lambda n: Graph.from_edges(n + 2, [(0, 1)] + [(b, s) for s in range(2, n + 2) for b in (0, 1)]),
    "bipyramid_chain": _bipyramid_chain_list,
}


@pytest.mark.parametrize("name", LIST_FAMILIES)
def test_array_families_equal_their_list_constructions(name):
    family = FAMILIES[name]
    for n in (*range(family.least_n, 41), 257, 1000):
        g, want = family.build(n), LIST_FAMILIES[name](n)
        assert g.edge_array.dtype == np.int64
        assert g.n == want.n and np.array_equal(g.edge_array, want.edge_array), (name, n)
        assert g.digest() == want.digest(), (name, n)


def test_complete_memory_follows_its_edges():
    # 1,999,000 rows of two int64s are 32 MB; the list of edge tuples the
    # family was built from peaked at 290 MB
    tracemalloc.start()
    try:
        g = complete(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == math.comb(2000, 2)
    assert peak < 100 * 2**20


def test_each_family_is_sized_as_it_is_built():
    values = {"n": 6, "c": 2, "p": 1.0, "seed": 1,
              "parts": (FamilySpec("pyramid", n=3), FamilySpec("gnp", n=5, p=1.0, seed=2))}
    for name, family in FAMILIES.items():
        spec = FamilySpec(name, **{f: values[f] for f in family.reads})
        assert _plan(spec)[0] == generate(spec).edge_count, name
    # --parts takes the families that read n alone
    parts = set()
    for name in FAMILIES:
        try:
            cli._parse_part(f"{name}:5")
            parts.add(name)
        except argparse.ArgumentTypeError:
            pass
    assert parts == {"complete", "star", "cycle", "pyramid", "bipyramid_chain"}
