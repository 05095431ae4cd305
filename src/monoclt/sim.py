"""Randomized and exhaustive oracles for the coloring statistics.

Both oracles count monochromatic edges and triangles with one kernel,
_mono_counts, over vertex-major colour blocks (a row per vertex, a
column per coloring). It compares the two ends of each edge once, in
chunks of up to SLAB = 255 edges grouped by apex, and a triangle is
monochromatic when its two edges at its apex are: each chunk and each
slab of up to 255 triangles is tallied in uint8, so working memory is
bounded by slab and block, not by the triangle count. Sampling blocks
run on one pool, _map_blocks, and are folded in order as they finish.
Sampling keys a Philox generator by (seed, block index) over fixed-size
replication blocks, so a (seed, replications) pair gives bit-identical
results on any number of threads.
_draw_block writes a block vertex-major in pieces, reducing the raw
Philox words to colours by Lemire's rejection, the rule and stream of
Generator.integers. The exhaustive oracle returns the exact joint law
of (edge count, triangle count) over all colorings with rational
masses: weighted restricted-growth strings of the least loaded vertices
over one block of suffix colourings, whose own cliques are counted once.

Moments are exact: statistics are small nonnegative integers, so each
run is reduced to a value-count table and moments come from big-integer
power sums; the exhaustive law goes through the same routine with the
colouring counts p * c^n as its table.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .census import _rank, _runs, pyramid_counts, triangle_census
from .errors import BadParamsError, TooLargeError
from .graph import Graph, _check_seed
from .moments import _check_colors, standard_normal_cdf, t2_mean_var, t3_mean_var
from .ratpoly import fraction_json

BLOCK = 1024  # replications per RNG block; fixed so reports never depend on threading
_PIECE = 1 << 18  # bytes of colours a block transposes at once; the piece size moves no byte
_WORDS = 1 << 13  # most Philox words one draw reduces (64 KB), so its temporaries stay small
DEFAULT_ENUM_CAP = 10**7
SLAB = 255  # edges or triangles _mono_counts tallies at once: the most hits a uint8 tally holds
SUFFIX = 1 << 12  # most suffix colourings exact_distribution shares across prefixes


@dataclass(frozen=True)
class SimConfig:
    c: int
    replications: int
    seed: int
    statistic: str = "both"  # "T2", "T3", or "both"
    atom_gap: Optional[float] = None  # raw-scale gap for atom clustering

    def __post_init__(self):
        _check_colors(self.c)
        if self.replications < 1:
            raise BadParamsError(f"need at least one replication, got {self.replications}")
        _check_seed(self.seed)
        if self.atom_gap is not None and not 0 <= self.atom_gap < math.inf:
            raise BadParamsError(f"atom gap must be finite and >= 0, got {self.atom_gap}")
        if self.statistic not in ("T2", "T3", "both"):
            raise BadParamsError(f"unknown statistic {self.statistic!r}")


@dataclass(frozen=True)
class Atom:
    location: float
    mass: float


@dataclass(frozen=True)
class StatisticSummary:
    """Empirical law of one statistic from a sampling run."""

    statistic: str
    replications: int
    distribution: tuple[tuple[int, int], ...]  # (value, count), ascending
    mean: Fraction
    variance: Fraction
    central4: Fraction
    model_mean: Optional[Fraction]
    model_variance: Optional[Fraction]
    ks_normal: Optional[float]  # KS of the model-standardized law vs N(0,1)
    atoms: tuple[Atom, ...] = field(default=())

    def to_json_dict(self) -> dict:
        out = {
            "statistic": self.statistic,
            "replications": self.replications,
            "distribution": [[int(v), int(n)] for v, n in self.distribution],
            "mean": fraction_json(self.mean),
            "variance": fraction_json(self.variance),
            "central4": fraction_json(self.central4),
            "ks_normal": self.ks_normal,
        }
        if self.model_mean is not None:
            out["model_mean"] = fraction_json(self.model_mean)
            out["model_variance"] = fraction_json(self.model_variance)
        if self.atoms:
            out["atoms"] = [{"location": a.location, "mass": a.mass} for a in self.atoms]
        return out


# ---------------------------------------------------------------------------
# the coloring kernel and the sampler's block pool


def _color_dtype(c: int):
    if c <= 0xFFFF:
        return np.uint8 if c <= 0xFF else np.uint16
    return np.uint32 if c <= 1 << 32 else np.uint64


def _plan(rank: np.ndarray, edges: np.ndarray, tris: np.ndarray, rows: int, t2: bool) -> list:
    """The chunks (apexes, other ends, counted for T2, slabs) _mono_counts
    reads: edges by apex, their end of highest rank, at most rows to a
    chunk, with the triangles at those apexes in slabs of at most rows
    (i, j), the ids in the chunk of a triangle's two edges at its apex. A
    hub, an apex on more edges, has plain chunks of its edges, then chunks
    of rows // 2 triangles that carry their own two edges each."""
    n = len(rank)
    vertex = np.empty(n, np.int64)
    vertex[rank] = np.arange(n)
    x, y = (rank[v] for v in edges.T)  # column by column: numpy's reductions along rows are slow
    keys = np.maximum(x, y) * n + np.minimum(x, y)
    keys = keys[np.argsort(keys, kind="stable")]
    r = [rank[v] for v in tris.T]
    top, low = np.maximum.reduce(r), np.minimum.reduce(r)
    mid = top * n + sum(r) - top - low  # the key of the edge from the apex to the middle vertex
    order = np.argsort(mid.astype(np.min_scalar_type(n * n)), kind="stable")  # a radix sort below 2^16
    ij = np.searchsorted(keys, [mid[order], (top * n + low)[order]])
    start = np.searchsorted(keys, np.arange(n + 1) * n)
    tstart, apex, other = np.searchsorted(ij[0], start), vertex[keys // n], vertex[keys % n]
    plan, half = [], max(1, rows // 2)
    for a, b in _runs(np.diff(start), rows):
        e0, e1, t0, t1 = start[a], start[b], tstart[a], tstart[b]
        if e1 - e0 > rows:  # a hub, read as one row; a triangle chunk holds mid edges, then low ones
            u = slice(apex[e0], apex[e0] + 1)
            plan += [(u, other[s : min(s + rows, e1)], True, []) for s in range(e0, e1, rows) if t2]
            for s in range(t0, t1, half):  # halves, not alternate rows, which numpy would copy to AND
                m = min(half, t1 - s)
                plan.append((u, other[ij[:, s : s + m]].ravel(), False, [(np.s_[:m], np.s_[m:])]))
            continue
        ij[:, t0:t1] -= e0
        slabs = [tuple(ij[:, s : min(s + rows, t1)]) for s in range(t0, t1, rows)]
        plan += [(apex[e0:e1], other[e0:e1], t2, slabs)] if slabs or t2 else []
    return plan


def _mono_counts(ct: np.ndarray, plan: list) -> tuple[np.ndarray, np.ndarray]:
    """For each column of the vertex-major colour block ct (n x columns),
    the numbers (T2, T3) of the plan's edges and triangles whose vertices
    share one colour: a triangle's do when its two edges at its apex do.
    Each chunk's and each slab's hits are tallied in uint8, which holds 255."""
    t2, t3 = np.zeros(ct.shape[1], np.int64), np.zeros(ct.shape[1], np.int64)
    for u, v, count, slabs in plan:
        hit = ct[u] == ct[v]
        if count:
            t2 += np.add.reduce(hit.view(np.uint8), axis=0, dtype=np.uint8)
        for i, j in slabs:
            both = hit[j]
            both &= hit[i]
            t3 += np.add.reduce(both.view(np.uint8), axis=0, dtype=np.uint8)
        hit = both = None  # so that the next chunk's gathers are at most the third slab temporary
    return t2, t3


def _map_blocks(fn: Callable, items: Sequence, threads: Optional[int]) -> Iterator:
    """fn(x) for x in items, yielded in order, on at most threads workers
    and never more than the machine has CPUs, with at most two blocks per
    worker submitted ahead; the results do not depend on either."""
    workers = min(threads or 1, len(items), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead: deque = deque()
        for x in items:
            ahead.append(pool.submit(fn, x))
            if len(ahead) > 2 * workers:
                yield ahead.popleft().result()
        yield from (future.result() for future in ahead)


# ---------------------------------------------------------------------------
# Monte Carlo sampling


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_block(seed: int, block: int, c: int, n: int, size: int) -> np.ndarray:
    """The vertex-major colours (n x size) of block `block`: bit for bit
    _block_rng(seed, block).integers(0, c, size=(size, n),
    dtype=_color_dtype(c)).T. That draw is Lemire's rejection (ACM TOMACS
    29:1, 2019) over the Philox words read as little-endian K-bit words x,
    K the dtype's width: x is rejected when (x * c) mod 2^K < 2^K mod c and
    gives (x * c) >> K otherwise, which for c = 2^j is x >> (K - j), one
    shift with no product and no rejection. Here the rule runs on
    up to _WORDS raw words at once, filling _PIECE bytes of whole
    replications at a time; colours left over carry into the next piece,
    so neither bound moves a byte. Past 2^32 colours each piece is the
    generator's own draw: its 64-bit rule reads one word a trial and keeps
    none between calls, so the pieces read the stream as one draw does."""
    dtype = np.dtype(_color_dtype(c))
    k = 8 * dtype.itemsize
    reject = (1 << k) % c
    rng = _block_rng(seed, block)
    raw = rng.bit_generator.random_raw
    ct = np.empty((n, size), dtype=dtype)
    step = max(1, _PIECE // dtype.itemsize // max(n, 1))
    kept = np.empty(0, dtype=dtype)
    for r in range(0, size if n else 0, step):
        rows = min(step, size - r)
        if k == 64:
            ct[:, r : r + rows] = rng.integers(0, c, size=(rows, n), dtype=dtype).T
            continue
        want = rows * n
        parts, have = [kept], len(kept)
        while have < want:
            words = ((want - have) << k) * k // (64 * ((1 << k) - reject))  # expected to fill it
            x = raw(min(words + words // 64 + 2, _WORDS)).astype("<u8", copy=False)
            x = x.view(dtype.newbyteorder("<"))
            if reject:
                x = x[np.multiply(x, dtype.type(c), dtype=dtype) >= dtype.type(reject)]
            if c & (c - 1) == 0:
                x = x >> dtype.type(k + 1 - c.bit_length())
            else:
                x = (np.multiply(x, c, dtype=f"u{k // 4}") >> k).astype(dtype)
            parts.append(x)
            have += len(x)
        kept = np.concatenate(parts)
        ct[:, r : r + rows] = kept[:want].reshape(-1, n).T
        kept = kept[want:]
    return ct


def sample_statistics(
    g: Graph, cfg: SimConfig, threads: Optional[int] = None, raw_sinks: Optional[dict] = None
) -> dict[str, StatisticSummary]:
    """Sample uniformly random colorings and summarize each statistic the
    configuration asks for, keyed "T2" then "T3".

    Identical (seed, replications) give identical summaries regardless of
    thread count: block b of 1024 replications always draws from the
    stream keyed (seed, b), and blocks are folded in block order. A block
    yields only its per-replication values; the fold adds their value
    counts to one table per statistic. _draw_block writes each block
    vertex-major (a row per vertex) from that stream, piece by piece, so
    working memory is bounded by the block, a piece and a 255-row slab,
    not by the triangle count, and no finished block is kept. A clique's
    apex is its vertex of highest (degree, id), so a hub's edge rows are
    compared with one row of its colours.

    raw_sinks optionally maps a statistic name ("T2"/"T3") to a writable
    binary stream; per-replication values are then written to it as
    little-endian 64-bit integers in replication order, a block at a time.
    """
    raw_sinks = raw_sinks or {}
    names = ("T2", "T3") if cfg.statistic == "both" else (cfg.statistic,)
    tc = triangle_census(g) if "T3" in names else None
    tris = np.empty((0, 3), np.int64) if tc is None else tc.triangles
    # T3 alone reads only the edges that carry a triangle
    edges = g.edge_array if "T2" in names else np.stack(np.divmod(tc.edge_keys, g.n), 1)
    rank = _rank(np.bincount(g.edge_array.ravel(), minlength=g.n))
    plan = _plan(rank, edges, tris, SLAB, "T2" in names)
    sizes = {"T2": g.edge_count, "T3": len(tris)}

    def run_block(b: int) -> dict:
        ct = _draw_block(cfg.seed, b, cfg.c, g.n, min(BLOCK, cfg.replications - b * BLOCK))
        return {name: v for name, v in zip(("T2", "T3"), _mono_counts(ct, plan)) if name in names}

    counts = {name: np.zeros(sizes[name] + 1, np.int64) for name in names}
    for out in _map_blocks(run_block, range(-(-cfg.replications // BLOCK)), threads):
        for name, values in out.items():  # block order == replication order
            tally = np.bincount(values)
            counts[name][: len(tally)] += tally
            if raw_sinks.get(name) is not None:
                raw_sinks[name].write(values.astype("<i8").tobytes())

    models = {"T2": lambda: t2_mean_var(g.edge_count, cfg.c),
              "T3": lambda: t3_mean_var(pyramid_counts(tc), cfg.c)}
    return {name: _summarize(name, counts[name], cfg, models[name]() if sizes[name] else None)
            for name in names}


def _summarize(name: str, counts: np.ndarray, cfg: SimConfig, model) -> StatisticSummary:
    dist = tuple((int(v), int(counts[v])) for v in np.flatnonzero(counts))
    total = cfg.replications
    mean, var, m4 = _moments_from_counts(dist, total)
    masses = [n / total for _, n in dist]
    ks = None
    if model is not None and model.variance > 0:
        mu, sd = float(model.mean), math.sqrt(float(model.variance))
        ks = ks_from_distribution([(v - mu) / sd for v, _ in dist], masses, standard_normal_cdf)
    atoms = () if cfg.atom_gap is None else atom_summary(
        [float(v) for v, _ in dist], masses, cfg.atom_gap)
    return StatisticSummary(
        statistic=name,
        replications=total,
        distribution=dist,
        mean=mean,
        variance=var,
        central4=m4,
        model_mean=None if model is None else model.mean,
        model_variance=None if model is None else model.variance,
        ks_normal=ks,
        atoms=atoms,
    )


def _moments_from_counts(
    dist: Sequence[tuple[int, int]], total: int
) -> tuple[Fraction, Fraction, Fraction]:
    """Exact mean, variance, and fourth central moment from value counts."""
    mu, e2, e3, e4 = (Fraction(sum(v**k * n for v, n in dist), total) for k in (1, 2, 3, 4))
    return mu, e2 - mu**2, e4 - 4 * mu * e3 + 6 * mu**2 * e2 - 3 * mu**4


# ---------------------------------------------------------------------------
# exhaustive enumeration oracle


@dataclass(frozen=True)
class ExactDistribution:
    """Exact joint law of (T2, T3) over all c^n colorings."""

    c: int
    n: int
    joint: dict[tuple[int, int], Fraction]

    def t2_pmf(self) -> dict[int, Fraction]:
        return _marginal(self.joint, 0)

    def t3_pmf(self) -> dict[int, Fraction]:
        return _marginal(self.joint, 1)

    def moments(self, which: str) -> tuple[Fraction, Fraction, Fraction]:
        """(mean, variance, fourth central moment) of T2 or T3, from the
        integer colouring counts p * c^n of its law."""
        pmf = self.t2_pmf() if which == "T2" else self.t3_pmf()
        total = self.c**self.n
        return _moments_from_counts([(v, int(p * total)) for v, p in pmf.items()], total)

    def excess4(self, which: str) -> Fraction:
        mu, m2, m4 = self.moments(which)
        if m2 == 0:
            raise ZeroDivisionError("degenerate statistic has no standardized law")
        return m4 / m2**2 - 3


def _marginal(joint: dict, index: int) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for key, p in joint.items():
        k = key[index]
        out[k] = out.get(k, Fraction(0)) + p
    return dict(sorted(out.items()))


def exact_distribution(
    g: Graph, c: int, cap: int = DEFAULT_ENUM_CAP, threads: Optional[int] = None
) -> ExactDistribution:
    """Joint pmf of (T2, T3) over all c^n colorings, up to colour permutation.

    The j vertices in the fewest edges plus triangles form a prefix that
    runs over the restricted-growth strings (Knuth, TAOCP 4A, 7.2.1.5); a
    string using m colours stands for perm(c, m) colourings, as the law is
    invariant under colour permutations. Each is written into one block of
    all c^s colourings of the other s = n - j vertices (c^s <= SUFFIX,
    j >= 1 when n >= 1); _mono_counts counts the cliques wholly in the
    suffix once and the rest per string, into one exact integer tally. A
    clique's apex is its least label, so the two apex edges of a triangle
    that touches the prefix touch it too.
    Slabs hold at most 2^16 cells, so no temporary passes the allocator's
    mmap threshold to be faulted in afresh per string; on slabs that small
    one thread beats a pool, and threads is accepted and unused.
    """
    _check_colors(c)
    total = c**g.n
    if total > cap:
        raise TooLargeError(f"enumeration size {total} exceeds cap {cap}")
    tris = triangle_census(g).triangles
    s = max((k for k in range(g.n) if c**k <= SUFFIX), default=0)
    j = g.n - s
    load = np.bincount(np.concatenate([g.edge_array.ravel(), tris.ravel()]), minlength=g.n)
    rank = _rank(load)  # least loaded first; labels move no mass
    edges, tris = rank[g.edge_array], rank[tris]
    stride = len(tris) + 1
    width = (len(edges) + 1) * stride
    slab = max(1, min(SLAB, 2**16 // c**s))
    dtype = _color_dtype(c)
    ct = np.empty((g.n, c**s), dtype=dtype)  # prefix rows are set per string
    for k in range(s):  # the base-c digits of the column index
        ct[j + k] = np.arange(c**s) // c**k % c
    prefixes = [((), 0)]  # restricted-growth strings, each with its colour count
    for _ in range(j):
        prefixes = [(p + (x,), max(m, x + 1)) for p, m in prefixes for x in range(min(m + 1, c))]
    apex = np.arange(g.n)[::-1]  # the least label of a clique is its apex

    def pairs(plan: list, base=0) -> np.ndarray:  # each column's (T2, T3) as one index
        t2, t3 = _mono_counts(ct, plan)
        t2 *= stride
        t2 += t3
        t2 += base
        return t2

    touch = [k.min(1) < j for k in (edges, tris)]  # the rows each string counts afresh
    base = pairs(_plan(apex, edges[~touch[0]], tris[~touch[1]], slab, True))
    plan = _plan(apex, edges[touch[0]], tris[touch[1]], slab, True)
    tally = np.zeros(width, dtype=np.int64 if total < 1 << 63 else object)
    for prefix, m in prefixes:
        ct[:j] = np.array(prefix, dtype=dtype)[:, None]
        counts = np.bincount(pairs(plan, base), minlength=width).astype(tally.dtype, copy=False)
        tally += np.multiply(counts, math.perm(c, m), out=counts)
    joint = {divmod(int(f), stride): Fraction(int(tally[f]), total) for f in np.flatnonzero(tally)}
    return ExactDistribution(c=c, n=g.n, joint=joint)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distance and atom detection


def ks_from_distribution(
    values: Sequence[float], masses: Sequence[float], cdf: Callable[[float], float]
) -> float:
    """KS distance of a discrete law (ascending support, masses) to cdf."""
    cum = 0.0
    worst = 0.0
    for x, m in zip(values, masses):
        fx = cdf(x)
        worst = max(worst, abs(cum - fx))  # approaching x from the left
        cum += m
        worst = max(worst, abs(cum - fx))
    return worst


def atom_summary(
    values: Sequence[float], masses: Sequence[float], min_gap: float
) -> tuple[Atom, ...]:
    """Cluster a discrete law into atoms: split the sorted support wherever
    consecutive values are more than min_gap apart, then report each
    cluster's mass and mass-weighted center."""
    if not values:
        return ()
    order = sorted(range(len(values)), key=lambda i: values[i])
    clusters: list[list[int]] = [[order[0]]]
    for i in order[1:]:
        if values[i] - values[clusters[-1][-1]] > min_gap:
            clusters.append([i])
        else:
            clusters[-1].append(i)
    atoms = []
    for cluster in clusters:
        mass = sum(masses[i] for i in cluster)
        center = sum(values[i] * masses[i] for i in cluster) / mass
        atoms.append(Atom(location=center, mass=mass))
    return tuple(atoms)
