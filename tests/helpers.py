"""Small shared helpers for the tests that build program inputs."""

import bisect
import itertools
from collections import Counter

from monoclt.census import count_c4, triangle_census
from monoclt.graph import Graph


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
