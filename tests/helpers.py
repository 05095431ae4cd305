"""Small shared helpers for the tests that build program inputs."""

from monoclt.census import count_c4, triangle_census
from monoclt.graph import Graph


def has_edge(g: Graph, u: int, v: int) -> bool:
    return v in g.adj[u]


def t2_inputs(g: Graph) -> tuple[int, int, int]:
    """The three counts behind T2's moments, from the package's census:
    edges, triangles and four-cycles, in t2_moments' argument order."""
    return g.edge_count, len(triangle_census(g).triangles), count_c4(g)
