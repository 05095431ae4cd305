"""Simple undirected graphs: construction, edge-list I/O, and generators
for every family used in the experiments.

A Graph is n and a read-only (m, 2) int64 array of its edges, rows
(u, v) with u < v in ascending order, which every numeric consumer
reads; Graph.edges, a tuple view built on first access, is for callers
outside the package. parse_edge_list splits a text into rows, the text
serialize_edge_list writes in bulk and any other line by line, and one
numpy tail checks, compacts and orders the rows of both.

Each family is declared once, as a Family in FAMILIES, and writes its
int64 rows in canonical order with numpy, so none is sorted.

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
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    BadParamsError,
    CompositeUndefinedError,
    MalformedLineError,
    SelfLoopError,
    TooLargeError,
)

_MASK64 = (1 << 64) - 1


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, ascending, by a stable argsort."""
    x = x[np.argsort(x, kind="stable")]
    new = np.ones(len(x), bool)
    new[1:] = x[1:] != x[:-1]
    return x[new]


def _canonical(n: int, ends: np.ndarray) -> tuple[np.ndarray, int]:
    """The distinct edges of the rows of ends (two distinct vertices
    below n, either way round) as ascending rows (u, v) with u < v, and
    the number of rows that repeat an edge before them."""
    key = _distinct(ends.min(1) * n + ends.max(1))
    return np.stack(np.divmod(key, n), 1), len(ends) - len(key)


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    edge_array holds the edges as rows (u, v) with u < v in ascending
    order, read-only; Graph(n, rows) takes rows in that form as they are,
    and from_edges checks and sorts any pairs. Instances are immutable,
    safe to share, and equal when n and the edges are.
    """

    n: int
    edge_array: np.ndarray

    def __post_init__(self):
        self.edge_array.flags.writeable = False

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n * n >= 1 << 63:  # so that every edge key u * n + v fits in int64
            raise ValueError(f"vertex count {n} is over 3 * 10^9")
        # ids are checked as given, so that none is truncated or wrapped into range
        e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        e = e.reshape(len(e), 2)
        with np.errstate(invalid="ignore"):  # inf % 1 is nan: not an integer either
            frac = e.dtype.kind not in "biu" and (e % 1 != 0).any(1)
        bad = np.flatnonzero(frac | (e[:, 0] == e[:, 1]) | (e.min(1) < 0) | (e.max(1) >= n))
        if len(bad):
            u, v = e[bad[0]].tolist()
            if u % 1 or v % 1:
                raise ValueError(f"edge ({u}, {v}) has a vertex id that is not an integer")
            raise ValueError(f"self-loop at vertex {u}" if u == v else f"edge ({u}, {v}) out of range for n={n}")
        return cls(n, _canonical(n, e.astype(np.int64, copy=False))[0])

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as (u, v) tuples, in edge_array's order."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.edge_array)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self):
        return hash((self.n, self.edge_array.tobytes()))

    def digest(self) -> str:
        """sha256 of the canonical serialization; used in CLI reports."""
        h = hashlib.sha256()
        for block in _text_blocks(self):
            h.update(block.encode())
        return h.hexdigest()


@dataclass(frozen=True)
class ParseResult:
    graph: Graph
    duplicate_count: int
    # id_map[i] = original id of internal vertex i (range(n) when a
    # vertices= header pinned the numbering)
    id_map: Sequence[int]


_HEADER_RE = re.compile(r"vertices\s*=\s*(\d+)")


def _bulk(head: str, body: str) -> bool:
    """Whether a text is read in bulk: head empty or one comment line free
    of str.splitlines' breaks, body "u v" lines of 1 to 18 digits an id
    (below 2^63), each ending in a newline."""
    if head.splitlines() not in ([], [head[:-1]]) or not body.isascii():
        return False
    b = np.frombuffer(body.encode("ascii"), np.uint8)
    digit = b - np.uint8(48) < 10
    seps = b[~digit]  # a space and a newline in turn, never two together
    run = digit  # run[i]: digit[i : i + w] are all digits, for w = 2, 4, 8, 16 in turn
    for w in (1, 2, 4, 8):
        run = run[:-w] & run[w:]
    return not len(b) or bool(digit[0] and b[-1] == 10 and (digit[1:] | digit[:-1]).all() and (seps[::2] == 32).all()
                              and (seps[1::2] == 10).all() and not (run[:-3] & run[3:]).any())


def parse_edge_list(text: str) -> ParseResult:
    """Parse whitespace-separated "u v" lines into a Graph.

    '#' starts a comment. A header comment "# vertices=N ..." pins the
    vertex count (allowing isolated vertices), and an edge past it is a
    malformed line, named by its number; otherwise the distinct ids
    seen are compacted to 0..k-1 and the original ids preserved in id_map.
    Duplicate edges are collapsed and tallied; self-loops are rejected, and
    so is a header of more than 2 * MAX_EDGES vertices, before any array is
    sized by it.

    A text that _bulk accepts is read by np.fromstring, any other by
    _tokenize, line by line; each raises the first self-loop or malformed
    line. One numpy tail, _assemble, then does the rest for both.
    """
    head = text[: text.find("\n") + 1] if text.startswith("#") else ""
    body = text[len(head):]
    if not _bulk(head, body):
        return _assemble(text, *_tokenize(text))
    ends = np.fromstring(body, np.int64, sep=" ").reshape(-1, 2) if body else np.empty((0, 2), np.int64)
    first = 2 if head else 1  # the line number of row 0
    loops = np.flatnonzero(ends[:, 0] == ends[:, 1])
    if len(loops):
        raise SelfLoopError(int(ends[loops[0], 0]), first + int(loops[0]))
    return _assemble(text, _HEADER_RE.search(head), ends, range(first, first + len(ends)))


def _tokenize(text: str) -> tuple[Optional[re.Match], np.ndarray, list[int]]:
    """The first header of any text, its (u, v) rows as an (m, 2) array and
    the line number of each row; the first malformed line or self-loop
    raised in line order."""
    header, rows, line_nos = None, [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        body, _, comment = line.partition("#")
        if header is None and comment:
            header = _HEADER_RE.search(comment)
        tokens = body.split()
        if not tokens:
            continue
        try:
            u, v = map(int, tokens)
        except ValueError:  # not two tokens, or not integers
            raise MalformedLineError(line_no, line) from None
        if u < 0 or v < 0:
            raise MalformedLineError(line_no, line)
        if u == v:
            raise SelfLoopError(u, line_no)
        rows.append((u, v))
        line_nos.append(line_no)
    try:
        return header, np.array(rows, np.int64).reshape(-1, 2), line_nos
    except OverflowError:  # an id of 2^63 or more, kept as a Python int
        return header, np.array(rows, object).reshape(-1, 2), line_nos


def _assemble(text: str, header: Optional[re.Match], ends: np.ndarray, line_nos: Sequence[int]) -> ParseResult:
    """The ParseResult of rows of two distinct nonnegative ids (int64, or
    Python ints in an object array), row i read from line line_nos[i]."""
    if header is not None:
        n = int(header.group(1))
        if n > 2 * MAX_EDGES:
            raise TooLargeError(f"vertices={n} in the header is over the cap of {2 * MAX_EDGES}")
        past = np.flatnonzero(ends.max(1) >= n)
        if len(past):
            line_no = line_nos[int(past[0])]
            raise MalformedLineError(line_no, _line(text, line_no))
        ends, ids = ends.astype(np.int64, copy=False), range(n)
    else:
        seen = _distinct(ends.ravel())  # ascending, so each edge keeps its orientation
        n, ends, ids = len(seen), np.searchsorted(seen, ends), tuple(seen.tolist())
    rows, duplicates = _canonical(n, ends)
    return ParseResult(Graph(n, rows), duplicates, ids)


def _line(text: str, line_no: int) -> str:
    """Line line_no of text as str.splitlines numbers it, split from a prefix only."""
    end = 256
    while len(lines := text[:end].splitlines()) <= line_no and end < len(text):
        end *= 8
    return lines[line_no - 1]


_ROWS = 1 << 16  # edge rows formatted at a time by serialize_edge_list and Graph.digest


def _text_blocks(g: Graph) -> Iterator[str]:
    """The canonical text form in pieces: the header comment, then "u v"
    lines in ascending order, _ROWS rows a piece."""
    yield f"# vertices={g.n} edges={g.edge_count}\n"
    for lo in range(0, g.edge_count, _ROWS):
        block = g.edge_array[lo:lo + _ROWS]
        yield ("%d %d\n" * len(block)) % tuple(block.ravel().tolist())


def serialize_edge_list(g: Graph) -> str:
    """Canonical text form: header comment plus "u v" lines in ascending order."""
    return "".join(_text_blocks(g))


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


def complete(n: int) -> Graph:
    u, v = np.triu_indices(n, 1)
    return Graph(n, np.stack([u, v], 1).astype(np.int64, copy=False))


def star(n: int) -> Graph:
    """K_{1,n}: n edges from center 0."""
    return Graph(n + 1, np.stack([np.zeros(n, np.int64), np.arange(1, n + 1, dtype=np.int64)], 1))


def cycle(n: int) -> Graph:
    """C_n, n >= 3: rows (0, 1), (0, n-1), then (v, v+1) for v = 1..n-2."""
    v = np.arange(n, dtype=np.int64)
    return Graph(n, np.stack([np.concatenate([[0], v[:-1]]), np.concatenate([[1, n - 1], v[2:]])], 1))


def pyramid(n: int) -> Graph:
    """n triangles {0, 1, s} sharing the base edge (0, 1); n+2 vertices, 2n+1 edges."""
    apexes = np.arange(2, n + 2, dtype=np.int64)
    rows = np.stack([np.repeat(np.arange(2, dtype=np.int64), n), np.tile(apexes, 2)], 1)
    return Graph(n + 2, np.concatenate([np.array([[0, 1]], np.int64), rows]))


def bipyramid_chain(n: int) -> Graph:
    """Hubs a=0 and b=1, spine 2..n+1, private apexes n+2..3n+1.

    Spine vertex s (0-based id 1+s) makes triangles {a, s, u_{a,s}} and
    {b, s, u_{b,s}}; 3n+2 vertices, 6n edges, 2n triangles, and no two
    triangles share an edge.
    """
    spine = np.arange(2, n + 2, dtype=np.int64)
    rows = np.empty((6 * n, 2), np.int64)
    rows[:2 * n, 0], rows[2 * n:4 * n, 0] = 0, 1
    rows[:4 * n, 1] = np.concatenate([np.arange(2, 2 * n + 2), spine, spine + 2 * n])  # a: spine, u_a; b: spine, u_b
    rows[4 * n:] = (spine[:, None, None] + [[0, n], [0, 2 * n]]).reshape(-1, 2)  # s: u_{a,s} = s+n, u_{b,s} = s+2n
    return Graph(3 * n + 2, rows)


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
    return math.isqrt(math.ceil(target) - 1) + 1


def _check_seed(seed: int) -> int:
    """Seeds key Philox as one 64-bit word; masking would let two share a stream."""
    if not 0 <= seed <= _MASK64:
        raise BadParamsError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


# vertex pairs gnp draws for at a time
_DRAWS = 1 << 16


def gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with a counter-based generator; identical seeds give
    identical graphs regardless of platform or thread count.

    Pair k of the upper triangle, in row-major order, is an edge when the
    k-th draw of one Philox stream is below p. The draws are taken
    _DRAWS at a time, which gives the same numbers as one draw of them
    all, and only the kept pairs are placed, by row."""
    if not (0.0 <= p <= 1.0):
        raise BadParamsError(f"gnp requires 0 <= p <= 1, got {p}")
    rng = np.random.Generator(np.random.Philox(key=_check_seed(seed)))
    # the index of the first pair of each row u, whose pairs are (u, u+1..n-1)
    first = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    pairs, rows = math.comb(n, 2), [np.empty((0, 2), np.int64)]
    for lo in range(0, pairs, _DRAWS):
        k = lo + np.flatnonzero(rng.random(min(_DRAWS, pairs - lo)) < p)
        u = np.searchsorted(first, k, "right") - 1
        rows.append(np.stack([u, k - first[u] + u + 1], 1))
    return Graph(n, np.concatenate(rows))


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, each numbered after the ones before it, so
    the rows stay in order."""
    offset, rows = 0, [np.empty((0, 2), np.int64)]
    for g in graphs:
        rows.append(g.edge_array + offset)
        offset += g.n
    return Graph(offset, np.concatenate(rows))


class Family(NamedTuple):
    """A family's one declaration: the FamilySpec fields it reads, each
    required, in the order they are checked and passed to size and build;
    its least n; its size in closed form, which generate checks against
    MAX_EDGES before building, and what that size counts; its builder."""

    reads: tuple[str, ...]
    least_n: int
    size: Callable[..., int]
    build: Callable[..., Graph]
    counts: str = "edges"


FAMILIES = {
    "complete": Family(("n",), 1, lambda n: math.comb(n, 2), complete),
    "star": Family(("n",), 1, lambda n: n, star),
    "cycle": Family(("n",), 3, lambda n: n, cycle),
    "pyramid": Family(("n",), 1, lambda n: 2 * n + 1, pyramid),
    "bipyramid_chain": Family(("n",), 1, lambda n: 6 * n, bipyramid_chain),
    "composite": Family(("n", "c"), 4, lambda n, c: 2 * n + 1 + 6 * composite_chain_length(n, c),
                        lambda n, c: disjoint_union(pyramid(n), bipyramid_chain(composite_chain_length(n, c)))),
    "gnp": Family(("n", "p", "seed"), 1, lambda n, p, seed: math.comb(n, 2), gnp, "vertex pairs"),
    "disjoint_union": Family(("parts",), 0, lambda parts: sum(_plan(part)[0] for part in parts),
                             lambda parts: disjoint_union(*map(generate, parts))),
}
# the most edges a family may build, or vertex pairs gnp may draw
MAX_EDGES = 10**7


def _plan(spec: FamilySpec) -> tuple[int, Callable[[], Graph]]:
    """Check spec against its family's entry and return, without building
    anything, its size and the function that builds it."""
    family = FAMILIES.get(spec.family)
    if family is None:
        raise BadParamsError(f"unknown family {spec.family!r}; expected one of {tuple(FAMILIES)}")
    # any spec may carry c: the CLI passes --c to every family
    given = tuple(f for f in ("n", "p", "seed", "parts") if getattr(spec, f) not in (None, ()))
    if set(given) - set(family.reads):
        raise BadParamsError(f"{spec.family} reads only {family.reads}, got {given}")
    args = [getattr(spec, f) for f in family.reads]
    for f, value in zip(family.reads, args):
        if f == "n" and (value is None or value < family.least_n):
            raise BadParamsError(f"{spec.family} requires n >= {family.least_n}, got {value}")
        if value in (None, ()):
            raise BadParamsError(f"{spec.family} requires {f}")
    return family.size(*args), lambda: family.build(*args)


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by spec. Deterministic for every family;
    gnp is deterministic given its seed. A field the family does not read
    is refused, so describe() records only what built the graph, and so
    is a graph of more than MAX_EDGES edges (gnp: vertex pairs), before
    any of it is built."""
    size, build = _plan(spec)
    if size > MAX_EDGES:
        what = FAMILIES[spec.family].counts
        raise TooLargeError(f"{spec.family} would build {size} {what}, over the cap of {MAX_EDGES}")
    return build()
