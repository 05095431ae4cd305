"""Small shared helpers for the tests that build program inputs."""

import bisect
import itertools
import random
from collections import Counter

import pytest

from monoclt.census import count_c4, triangle_census
from monoclt.graph import FamilySpec, Graph, bipyramid_chain, complete, disjoint_union, generate, gnp, pyramid


def has_edge(g: Graph, u: int, v: int) -> bool:
    e = (min(u, v), max(u, v))
    i = bisect.bisect_left(g.edges, e)
    return i < len(g.edges) and g.edges[i] == e


def degrees(g: Graph) -> list[int]:
    """The degree of each vertex, counted from the edge list."""
    count = Counter(itertools.chain.from_iterable(g.edges))
    return [count[v] for v in range(g.n)]


def t2_inputs(g: Graph) -> tuple[int, int, int]:
    """The three counts behind T2's moments, from the package's census:
    edges, triangles and four-cycles, in t2_moments' argument order."""
    return g.edge_count, len(triangle_census(g).triangles), count_c4(g)


UNION = disjoint_union(complete(6), pyramid(5), bipyramid_chain(6))


def discovery_corpus():
    """The graphs class discovery is checked on, and each relabelled at
    random, as pytest params."""
    from brute import relabeled

    graphs = [(f"K{n}", complete(n)) for n in (7, 8)]
    graphs += [(f"composite{n}", generate(FamilySpec("composite", n=n, c=2))) for n in range(6, 13)]
    graphs += [("composite6_c3", generate(FamilySpec("composite", n=6, c=3)))]
    graphs += [(f"gnp16_seed{s}", gnp(16, 0.45, s)) for s in range(3)]
    graphs += [(f"gnp18_seed{s}", gnp(18, 0.45, s)) for s in (0, 2, 3)]
    graphs += [(f"gnp14_p0.6_seed{s}", gnp(14, 0.6, s)) for s in range(3)]
    graphs += [("pyramid30", pyramid(30)), ("bipyramid_chain20", bipyramid_chain(20))]
    graphs += [("union_K6_pyramid5_chain6", UNION)]
    rng = random.Random(11)
    relabelled = []
    for name, g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabelled.append((f"{name}_relabelled", relabeled(g, perm)))
    return [pytest.param(g, id=name) for name, g in graphs + relabelled]
