"""Small shared helpers for the tests that build program inputs."""

from monoclt.census import count_c4, triangle_census
from monoclt.graph import Graph
from monoclt.moments import T2Inputs


def has_edge(g: Graph, u: int, v: int) -> bool:
    return v in g.adj[u]


def t2_inputs(g: Graph) -> T2Inputs:
    """The three counts behind T2's moments, from the package's census."""
    return T2Inputs(g.edge_count, len(triangle_census(g).triangles), count_c4(g))
