"""Simple undirected graphs: construction, edge-list I/O, and generators
for every family used in the experiments.

Families:
    complete(n)         K_n
    star(n)             K_{1,n}: center 0, n leaves
    cycle(n)            C_n, n >= 3
    pyramid(n)          n triangles sharing one base edge: vertices
                        {0, 1} (base) and {2, ..., n+1} (apexes)
    bipyramid_chain(n)  two hubs a=0, b=1, spine 2..n+1; spine vertex s
                        forms one triangle with each hub through a private
                        third vertex, so 2n edge-disjoint triangles total
    composite(n, c)     pyramid(n) disjoint-union bipyramid_chain(n') with
                        n' sized so the two families' fourth-moment
                        contributions cancel at c colors (2 <= c <= 4)
    gnp(n, p, seed)     Erdos-Renyi G(n, p), deterministic given seed
    disjoint_union      disjoint union of sub-family specs
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import (
    BadParamsError,
    CompositeUndefinedError,
    MalformedLineError,
    SelfLoopError,
    TooLargeError,
)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    edges are stored as (u, v) with u < v in ascending order. Instances
    are immutable and safe to share.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            norm.add((u, v) if u < v else (v, u))
        return cls(n=n, edges=tuple(sorted(norm)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def digest(self) -> str:
        """sha256 of the canonical serialization; used in CLI reports."""
        return hashlib.sha256(serialize_edge_list(self).encode()).hexdigest()


@dataclass(frozen=True)
class ParseResult:
    graph: Graph
    duplicate_count: int
    # id_map[i] = original id of internal vertex i (identity when a
    # vertices= header pinned the numbering)
    id_map: tuple[int, ...]


_HEADER_RE = re.compile(r"vertices\s*=\s*(\d+)")


def parse_edge_list(text: str) -> ParseResult:
    """Parse whitespace-separated "u v" lines into a Graph.

    '#' starts a comment. A header comment "# vertices=N ..." pins the
    vertex count (allowing isolated vertices), and an edge past it is a
    malformed line, named by its number; otherwise the distinct ids
    seen are compacted to 0..k-1 and the original ids preserved in id_map.
    Duplicate edges are collapsed and tallied; self-loops are rejected, and
    so is a header of more than 2 * MAX_EDGES vertices, before any array is
    sized by it. Each edge is checked and oriented here once, so the Graph
    is built from the sorted edges as they are.
    """
    header_n: Optional[int] = None
    lines = text.splitlines()
    edges: dict[tuple[int, int], int] = {}  # edge -> number of the line it first appears on
    duplicates = 0
    for line_no, line in enumerate(lines, start=1):
        body, _, comment = line.partition("#")
        if header_n is None and comment:
            m = _HEADER_RE.search(comment)
            if m:
                header_n = int(m.group(1))
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

    if header_n is not None:
        if header_n > 2 * MAX_EDGES:
            raise TooLargeError(f"vertices={header_n} in the header is over the cap of {2 * MAX_EDGES}")
        for (_, v), line_no in edges.items():
            if v >= header_n:
                raise MalformedLineError(line_no, lines[line_no - 1])
        return ParseResult(Graph(header_n, tuple(sorted(edges))), duplicates, tuple(range(header_n)))

    ids = sorted({x for e in edges for x in e})
    compact = {orig: i for i, orig in enumerate(ids)}  # ascending, so each edge stays oriented
    graph = Graph(len(ids), tuple(sorted((compact[u], compact[v]) for u, v in edges)))
    return ParseResult(graph, duplicates, tuple(ids))


def serialize_edge_list(g: Graph) -> str:
    """Canonical text form: header comment plus "u v" lines in ascending order."""
    lines = [f"# vertices={g.n} edges={g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# family generators

@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: Optional[int] = None
    p: Optional[float] = None
    seed: Optional[int] = None
    c: Optional[int] = None
    parts: tuple["FamilySpec", ...] = field(default=())

    def describe(self) -> dict:
        out = {k: v for k, v in vars(self).items() if v is not None and k != "parts"}
        if self.parts:
            out["parts"] = [p.describe() for p in self.parts]
        return out


def _require_n(spec: FamilySpec, minimum: int) -> int:
    if spec.n is None or spec.n < minimum:
        raise BadParamsError(f"{spec.family} requires n >= {minimum}, got {spec.n}")
    return spec.n


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(n: int) -> Graph:
    """K_{1,n}: n edges from center 0."""
    return Graph.from_edges(n + 1, [(0, v) for v in range(1, n + 1)])


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def pyramid(n: int) -> Graph:
    """n triangles {0, 1, s} sharing the base edge (0, 1); n+2 vertices, 2n+1 edges."""
    edges = [(0, 1)]
    for s in range(2, n + 2):
        edges.append((0, s))
        edges.append((1, s))
    return Graph.from_edges(n + 2, edges)


def bipyramid_chain(n: int) -> Graph:
    """Hubs a=0 and b=1, spine 2..n+1, private apexes n+2..3n+1.

    Spine vertex s (0-based id 1+s) makes triangles {a, s, u_{a,s}} and
    {b, s, u_{b,s}}; 3n+2 vertices, 6n edges, 2n triangles, and no two
    triangles share an edge.
    """
    edges = []
    for s in range(1, n + 1):
        spine = 1 + s
        ua = n + 1 + s
        ub = 2 * n + 1 + s
        edges += [(0, spine), (0, ua), (spine, ua)]
        edges += [(1, spine), (1, ub), (spine, ub)]
    return Graph.from_edges(3 * n + 2, edges)


def composite_chain_length(n: int, c: int) -> int:
    """Chain size n' = ceil(sqrt(2|d4|/h16 * C(n,4))) used by composite(n, c).

    d4 and h16 are the 4-pyramid and chain-quadruple class coefficients of
    the exact fourth-moment decomposition; d4 < 0 only for 2 <= c <= 4,
    which is exactly when the construction exists.
    """
    from .fourthmoment import bipyramid_quad_coefficient, pyramid_class_coefficient
    from .ratpoly import evaluate

    if c < 2:
        raise BadParamsError(f"composite requires c >= 2, got {c}")
    x = Fraction(1, c)
    d4 = evaluate(pyramid_class_coefficient(4), x)
    h16 = evaluate(bipyramid_quad_coefficient(), x)
    if d4 >= 0:
        raise CompositeUndefinedError(
            f"composite family undefined for c={c}: 4-pyramid coefficient {d4} is nonnegative"
        )
    target = 2 * (-d4) / h16 * math.comb(n, 4)  # n'^2 >= target, minimal
    k = math.isqrt(target.numerator // target.denominator)
    while k * k * target.denominator < target.numerator:
        k += 1
    return k


def _check_seed(seed: int) -> int:
    """Seeds key Philox as one 64-bit word; masking would let two share a stream."""
    if not 0 <= seed <= _MASK64:
        raise BadParamsError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


def gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with a counter-based generator; identical seeds give
    identical graphs regardless of platform or thread count."""
    if not (0.0 <= p <= 1.0):
        raise BadParamsError(f"gnp requires 0 <= p <= 1, got {p}")
    rng = np.random.Generator(np.random.Philox(key=_check_seed(seed)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    draws = rng.random(len(pairs))
    return Graph.from_edges(n, [e for e, d in zip(pairs, draws) if d < p])


def disjoint_union(*graphs: Graph) -> Graph:
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph.from_edges(offset, edges)


# the families fixed by n alone: name -> (generator, least n, edges at n)
SIMPLE_FAMILIES = {
    "complete": (complete, 1, lambda n: math.comb(n, 2)),
    "star": (star, 1, lambda n: n),
    "cycle": (cycle, 3, lambda n: n),
    "pyramid": (pyramid, 1, lambda n: 2 * n + 1),
    "bipyramid_chain": (bipyramid_chain, 1, lambda n: 6 * n),
}
# the FamilySpec fields each family reads, c aside (only composite reads it)
FAMILY_FIELDS = {**dict.fromkeys((*SIMPLE_FAMILIES, "composite"), ("n",)),
                 "gnp": ("n", "p", "seed"), "disjoint_union": ("parts",)}
FAMILIES = tuple(FAMILY_FIELDS)
# the most edges a family may build, or vertex pairs gnp may draw
MAX_EDGES = 10**7


def _plan(spec: FamilySpec) -> tuple[int, Callable[[], Graph]]:
    """Check spec and return, without building anything, the edges it
    builds (for gnp, the vertex pairs it draws) in closed form and the
    function that builds it."""
    fam = spec.family
    if fam not in FAMILY_FIELDS:
        raise BadParamsError(f"unknown family {fam!r}; expected one of {FAMILIES}")
    given = [f for f in ("n", "p", "seed", "parts") if getattr(spec, f) not in (None, ())]
    if set(given) - set(FAMILY_FIELDS[fam]):
        raise BadParamsError(f"{fam} reads only {FAMILY_FIELDS[fam]}, got {tuple(given)}")
    if fam in SIMPLE_FAMILIES:
        build, least, edges = SIMPLE_FAMILIES[fam]
        n = _require_n(spec, least)
        return edges(n), lambda: build(n)
    if fam == "composite":
        n = _require_n(spec, 4)
        if spec.c is None:
            raise BadParamsError("composite requires c")
        n_chain = composite_chain_length(n, spec.c)
        return 2 * n + 1 + 6 * n_chain, lambda: disjoint_union(pyramid(n), bipyramid_chain(n_chain))
    if fam == "gnp":
        n = _require_n(spec, 1)
        if spec.p is None:
            raise BadParamsError("gnp requires p")
        if spec.seed is None:
            raise BadParamsError("gnp requires a seed")
        return math.comb(n, 2), lambda: gnp(n, spec.p, spec.seed)
    if not spec.parts:  # disjoint_union
        raise BadParamsError("disjoint_union requires at least one part")
    parts = [_plan(part) for part in spec.parts]
    return sum(size for size, _ in parts), lambda: disjoint_union(*(build() for _, build in parts))


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by spec. Deterministic for every family;
    gnp is deterministic given its seed. A field the family does not read
    is refused, so describe() records only what built the graph, and so
    is a graph of more than MAX_EDGES edges (gnp: vertex pairs), before
    any of it is built."""
    size, build = _plan(spec)
    if size > MAX_EDGES:
        what = "vertex pairs" if spec.family == "gnp" else "edges"
        raise TooLargeError(f"{spec.family} would build {size} {what}, over the cap of {MAX_EDGES}")
    return build()
