"""Randomized and exhaustive oracles for the coloring statistics.

Both oracles count monochromatic edges and triangles with one kernel,
_mono_counts, over vertex-major colour blocks (a row per vertex, a
column per coloring) in slabs of SLAB = 255 cliques tallied in uint8,
so working memory is bounded by slab and block, not by the triangle
count. Blocks of either oracle run on one pool, _map_blocks. Sampling
keys a counter-based generator by (seed, block index) over fixed-size
replication blocks, so a (seed, replications) pair gives bit-identical
results on any number of threads. The exhaustive oracle returns the
exact joint law of (edge count, triangle count) over all colorings with
rational masses, evaluating them up to colour permutation: weighted
prefix strings over one shared block of suffix colourings.

Moments are exact: statistics are small nonnegative integers, so each
run is reduced to a value-count table and moments come from big-integer
power sums; the exhaustive law goes through the same routine with the
colouring counts p * c^n as its table.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .census import TriangleCensus, pyramid_counts, triangle_census
from .errors import BadParamsError, TooLargeError
from .graph import Graph, _check_seed
from .moments import _check_colors, standard_normal_cdf, t2_mean_var, t3_mean_var
from .ratpoly import fraction_json

BLOCK = 1024  # replications per RNG block; fixed so reports never depend on threading
DEFAULT_ENUM_CAP = 10**7
SLAB = 255  # cliques _mono_counts gathers at once: the most hits a uint8 tally holds
SUFFIX = 1 << 12  # most suffix colourings exact_distribution shares across prefixes
GROUPS = 16  # most prefix groups exact_distribution hands to _map_blocks


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
            raise ValueError(f"unknown statistic {self.statistic!r}")


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


@dataclass(frozen=True)
class SimReport:
    config: SimConfig
    summaries: tuple[StatisticSummary, ...]

    def summary(self, statistic: str) -> StatisticSummary:
        for s in self.summaries:
            if s.statistic == statistic:
                return s
        raise KeyError(statistic)

    def to_json_dict(self) -> dict:
        return {"config": asdict(self.config), "results": [s.to_json_dict() for s in self.summaries]}


# ---------------------------------------------------------------------------
# the coloring kernel and its block pool


def _color_dtype(c: int):
    if c <= 0xFFFF:
        return np.uint8 if c <= 0xFF else np.uint16
    return np.uint32 if c <= 1 << 32 else np.uint64


def _mono_counts(ct: np.ndarray, cliques: np.ndarray) -> np.ndarray:
    """For each column of the vertex-major colour block ct (n x rows), the
    number of rows of cliques (m x k vertex ids) whose k vertices all
    share one colour. Gathers SLAB cliques per step and tallies each
    slab's hits per column in uint8, which holds up to 255 hits exactly."""
    out = np.zeros(ct.shape[1], dtype=np.int64)
    for s in range(0, len(cliques), SLAB):
        part = cliques[s : s + SLAB]
        first = ct[part[:, 0]]
        hit = first == ct[part[:, 1]]
        for j in range(2, part.shape[1]):
            hit &= first == ct[part[:, j]]
        out += np.add.reduce(hit.view(np.uint8), axis=0, dtype=np.uint8)
    return out


def _map_blocks(fn: Callable, items: Sequence, threads: Optional[int]) -> list:
    """[fn(x) for x in items], on at most threads workers and never more
    than the machine has CPUs; the result does not depend on either."""
    workers = min(threads or 1, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Monte Carlo sampling


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_statistics(
    g: Graph,
    cfg: SimConfig,
    tc: Optional[TriangleCensus] = None,
    threads: Optional[int] = None,
    raw_sinks: Optional[dict] = None,
) -> SimReport:
    """Sample uniformly random colorings and tabulate the statistics.

    Identical (seed, replications) give identical reports regardless of
    thread count: block b of 1024 replications always draws from the
    stream keyed (seed, b), and value counts are summed. A block is drawn
    replication-major, the shape that fixes the Philox stream, then
    transposed to vertex-major for _mono_counts, so working memory is
    bounded by the block and a 255-clique slab, not by the triangle count.

    raw_sinks optionally maps a statistic name ("T2"/"T3") to a writable
    binary stream; per-replication values are then written to it as
    little-endian 64-bit integers in replication order.
    """
    raw_sinks = raw_sinks or {}
    cliques = {}
    if cfg.statistic in ("T2", "both"):
        cliques["T2"] = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    if cfg.statistic in ("T3", "both"):
        if tc is None:
            tc = triangle_census(g)
        cliques["T3"] = tc.triangles
    dtype = _color_dtype(cfg.c)

    def run_block(b: int) -> dict:
        size = min(BLOCK, cfg.replications - b * BLOCK)
        colors = _block_rng(cfg.seed, b).integers(0, cfg.c, size=(size, g.n), dtype=dtype)
        ct = colors.T.copy()
        out = {}
        for name, k in cliques.items():
            values = _mono_counts(ct, k)
            out[name] = (np.bincount(values, minlength=len(k) + 1), values if raw_sinks else None)
        return out

    results = _map_blocks(run_block, range((cfg.replications + BLOCK - 1) // BLOCK), threads)

    summaries = []
    for name, k in cliques.items():
        sink = raw_sinks.get(name)
        if sink is not None:
            for r in results:  # block order == replication order
                sink.write(r[name][1].astype("<i8").tobytes())
        counts = np.sum([r[name][0] for r in results], axis=0, dtype=np.int64)
        model = None
        if len(k) and name == "T2":
            model = t2_mean_var(g.edge_count, cfg.c)
        elif len(k):
            model = t3_mean_var(pyramid_counts(tc), cfg.c)
        summaries.append(_summarize(name, counts, cfg, model))
    return SimReport(config=cfg, summaries=tuple(summaries))


def _summarize(name: str, counts: np.ndarray, cfg: SimConfig, model) -> StatisticSummary:
    support = [int(v) for v in np.nonzero(counts)[0]]
    dist = tuple((v, int(counts[v])) for v in support)
    total = cfg.replications
    mean, var, m4 = _moments_from_counts(dist, total)
    ks = None
    if model is not None and model.variance > 0:
        mu = float(model.mean)
        sd = math.sqrt(float(model.variance))
        zs = [(v - mu) / sd for v, _ in dist]
        masses = [n / total for _, n in dist]
        ks = ks_from_distribution(zs, masses, standard_normal_cdf)
    atoms: tuple[Atom, ...] = ()
    if cfg.atom_gap is not None:
        atoms = atom_summary(
            [float(v) for v, _ in dist], [n / total for _, n in dist], cfg.atom_gap
        )
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
    s1 = sum(v * n for v, n in dist)
    s2 = sum(v * v * n for v, n in dist)
    s3 = sum(v**3 * n for v, n in dist)
    s4 = sum(v**4 * n for v, n in dist)
    mu = Fraction(s1, total)
    m2 = Fraction(s2, total) - mu**2
    m4 = Fraction(s4, total) - 4 * mu * Fraction(s3, total) + 6 * mu**2 * Fraction(s2, total) - 3 * mu**4
    return mu, m2, m4


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
    g: Graph,
    c: int,
    cap: int = DEFAULT_ENUM_CAP,
    threads: Optional[int] = None,
    tc: Optional[TriangleCensus] = None,
) -> ExactDistribution:
    """Joint pmf of (T2, T3) over all c^n colorings, up to colour permutation.

    A prefix of j vertices runs over the restricted-growth strings (Knuth,
    TAOCP 4A, 7.2.1.5); a string using m colours stands for perm(c, m)
    colourings, as the law is invariant under colour permutations. Each is
    broadcast over a copy of one block of all c^s colourings of the other
    s = n - j vertices (c^s <= SUFFIX, j >= 1 when n >= 1), tallied by
    _mono_counts and weighted. Groups of strings run on _map_blocks; the
    integer tallies make the masses exact and independent of thread count.
    """
    _check_colors(c)
    total = c**g.n
    if total > cap:
        raise TooLargeError(f"enumeration size {total} exceeds cap {cap}")
    if tc is None:
        tc = triangle_census(g)
    edges = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    tris = tc.triangles
    stride = len(tris) + 1
    width = (len(edges) + 1) * stride
    s = max((k for k in range(g.n) if c**k <= SUFFIX), default=0)
    j = g.n - s
    dtype = _color_dtype(c)
    block = np.empty((g.n, c**s), dtype=dtype)  # prefix rows are set per string
    for k in range(s):  # the base-c digits of the column index
        block[j + k] = np.arange(c**s) // c**k % c
    prefixes = [((), 0)]  # restricted-growth strings, each with its colour count
    for _ in range(j):
        prefixes = [(p + (x,), max(m, x + 1)) for p, m in prefixes for x in range(min(m + 1, c))]

    def run_group(group: list) -> np.ndarray:
        ct = block.copy()
        tally = np.zeros(width, dtype=np.int64 if total < 1 << 63 else object)
        for prefix, m in group:
            ct[:j] = np.array(prefix, dtype=dtype)[:, None]
            flat = _mono_counts(ct, edges) * stride + _mono_counts(ct, tris)
            tally += math.perm(c, m) * np.bincount(flat, minlength=width).astype(tally.dtype)
        return tally

    groups = [prefixes[i::GROUPS] for i in range(min(GROUPS, len(prefixes)))]
    combined = np.sum(_map_blocks(run_group, groups, threads), axis=0)
    joint = {}
    for flat in np.nonzero(combined)[0]:
        t2, t3 = divmod(int(flat), stride)
        joint[(t2, t3)] = Fraction(int(combined[flat]), total)
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
