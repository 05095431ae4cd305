"""Closed-form moments and CLT error-bound brackets, in exact rational
arithmetic.

T2 and T3, the monochromatic edge and triangle counts of a uniformly
random c-coloring, are sums of clique indicators. Every closed form is a
table of class representatives and their counts in the graph, summed by
cumulant: each class adds its order-r coefficient, an integer polynomial
in x = 1/c (see cumulant_coefficient), times its count.

Error-bound brackets on the Kolmogorov distance to normal are reported
up to unspecified absolute constants: the triangle bracket is
(R1^(1/4) + R2)^(1/5) with R1 = (1 + n4) / (n1 + n2)^2 and
R2 = b / (n1 + n2)^2, the edge bracket is
(c/|E| + |E|^(-1/2) + N(C4)/(c |E|^2))^(1/5).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .census import PyramidCounts
from .errors import BadParamsError, NoEdgesError, NoTrianglesError, UnsupportedFamilyError
from .ratpoly import evaluate, fraction_json


def standard_normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _check_colors(c: int) -> Fraction:
    """x = 1/c for a supported colour count: 2 <= c <= 2^64, the most
    colours a uint64 colour array holds."""
    if c < 2:
        raise BadParamsError(f"need c >= 2 colors, got {c}")
    if c > 1 << 64:
        raise BadParamsError(f"need c <= 2^64 colors, got {c}")
    return Fraction(1, c)


@dataclass(frozen=True)
class MomentReport:
    mean: Fraction
    variance: Fraction
    excess4: Optional[Fraction]  # E Z^4 - 3; None where not computed (T3)
    inputs: dict

    def to_json_dict(self) -> dict:
        out = {"mean": fraction_json(self.mean), "variance": fraction_json(self.variance), "inputs": self.inputs}
        if self.excess4 is not None:
            out["excess4"] = fraction_json(self.excess4)
        return out


# ---------------------------------------------------------------------------
# joint cumulants of clique indicators


def _component_count(cliques: Iterable[Iterable[int]]) -> int:
    """Number of vertex-connected components of the union of the cliques."""
    comps: list[set[int]] = []
    for q in map(set, cliques):
        comps = [comp for comp in comps if not comp & q] + [q.union(*(comp for comp in comps if comp & q))]
    return len(comps)


def _set_partitions(r: int) -> list[list[list[int]]]:
    """Every set partition of range(r), as lists of blocks."""
    parts: list[list[list[int]]] = [[]]
    for x in range(r):  # x joined to each block in turn, or a block of its own
        parts = [p[:i] + [p[i] + [x]] + p[i + 1 :] if i < len(p) else p + [[x]]
                 for p in parts for i in range(len(p) + 1)]
    return parts


@lru_cache(maxsize=None)
def _mobius_terms(r: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The order-r coefficient of k cliques as (block images, weight) terms.

    For each map f of the r positions onto the k cliques and each set
    partition pi of the positions, the term is the Moebius weight
    (-1)^(|pi| - 1) (|pi| - 1)! times the product, over the blocks of
    pi, of E prod Y over the cliques the block maps to. The product
    depends only on those images (as k-bit masks, each the OR of its
    positions' clique bits), so the weights are summed per sorted tuple
    of images. Permuting the positions permutes the partitions, so one
    sorted f stands for the multinomial number of maps with its counts.
    """
    # each partition as the position masks of its blocks, with its weight
    parts = [([sum(1 << i for i in block) for block in pi], (-1) ** (len(pi) - 1) * math.factorial(len(pi) - 1))
             for pi in _set_partitions(r)]
    terms: Counter = Counter()
    for extra in itertools.combinations_with_replacement(range(k), r - k):
        f = sorted((*range(k), *extra))  # onto: each clique once, and r - k more
        ways = math.factorial(r) // math.prod(math.factorial(f.count(i)) for i in range(k))
        image = [0] * (1 << r)  # image[s]: the mask of the cliques the positions in s map to
        for s in range(1, 1 << r):
            image[s] = image[s & s - 1] | 1 << f[(s & -s).bit_length() - 1]
        for blocks, weight in parts:
            terms[tuple(sorted([image[b] for b in blocks]))] += ways * weight
    return tuple((images, w) for images, w in sorted(terms.items()) if w)


def cumulant_coefficient(cliques: Iterable[Iterable[int]], r: int) -> tuple[int, ...]:
    """Order-r coefficient of a set of 1..r distinct cliques (edges or
    triangles) as an integer polynomial in x = 1/c: index i holds the
    coefficient of x**i, trailing zeros stripped.

    It is the sum, over maps of r positions onto the set, of the joint
    cumulant of the clique indicators, i.e. the share of this set in the
    r-th cumulant of the sum of all clique indicators. Each cumulant is
    a Moebius sum over set partitions of the positions of products of
    E prod Y = x^(|V(union)| - components(union)) (Leonov & Shiryaev
    1959; Speed 1983); the exponent is computed once per subset of the
    cliques, and the coefficient once per process.
    """
    return _coefficient(tuple(map(tuple, cliques)), r)


@lru_cache(maxsize=None)
def _coefficient(cliques: tuple[tuple[int, ...], ...], r: int) -> tuple[int, ...]:
    cl = [frozenset(q) for q in cliques]
    k = len(cl)
    if len(set(cl)) != k or not 1 <= k <= r:
        raise ValueError(f"need 1 to {r} distinct cliques")
    subsets = [[q for i, q in enumerate(cl) if mask >> i & 1] for mask in range(1 << k)]
    exponent = [len(frozenset().union(*chosen)) - _component_count(chosen) for chosen in subsets]
    coeffs: Counter = Counter()
    for images, w in _mobius_terms(r, k):
        coeffs[sum(exponent[m] for m in images)] += w
    degree = max((d for d, w in coeffs.items() if w), default=-1)
    return tuple(coeffs[d] for d in range(degree + 1))


def cumulant(table: Iterable[tuple[Sequence[Sequence[int]], int]], r: int, x: Fraction) -> Fraction:
    """The r-th cumulant at x of a sum of clique indicators: over a table of
    (class representative, count of its sets in the graph), the sum of each
    order-r coefficient times its count; one of more than r cliques adds 0."""
    return sum((evaluate(cumulant_coefficient(rep, r), x) * n for rep, n in table if len(rep) <= r), Fraction(0))


# the class representatives of the closed forms, of edges (T2) and triangles (T3)
_EDGE = ((0, 1),)
_TRIANGLE_OF_EDGES = ((0, 1), (0, 2), (1, 2))
_CYCLE_OF_EDGES = ((0, 1), (1, 2), (2, 3), (0, 3))
_TRIANGLE = ((0, 1, 2),)
_TRIANGLES_ON_AN_EDGE = ((0, 1, 2), (0, 1, 3))


def t3_mean_var(pc: PyramidCounts, c: int) -> MomentReport:
    """Exact mean and variance of the monochromatic triangle count."""
    x = _check_colors(c)
    if pc.n1 < 1:
        raise NoTrianglesError("triangle statistics need at least one triangle")
    table = ((_TRIANGLE, pc.n1), (_TRIANGLES_ON_AN_EDGE, pc.n2))
    return MomentReport(cumulant(table, 1, x), cumulant(table, 2, x), None, {"triangles": pc.n1, "pyramids2": pc.n2})


def t2_mean_var(edge_count: int, c: int) -> MomentReport:
    """Exact mean and variance of the monochromatic edge count."""
    x = _check_colors(c)
    if edge_count < 1:
        raise NoEdgesError("edge statistics need at least one edge")
    table = ((_EDGE, edge_count),)
    return MomentReport(cumulant(table, 1, x), cumulant(table, 2, x), None, {"edges": edge_count})


def t2_moments(edges: int, triangles: int, four_cycles: int, c: int) -> MomentReport:
    """Exact mean, variance, and excess fourth moment of the
    monochromatic edge count. Depends on the graph only through the
    counts of its edges, triangles and four-cycles: any other set of at
    most four edges splits into two groups sharing at most one vertex,
    whose indicators are independent."""
    base = t2_mean_var(edges, c)
    table = ((_EDGE, edges), (_TRIANGLE_OF_EDGES, triangles), (_CYCLE_OF_EDGES, four_cycles))
    return MomentReport(base.mean, base.variance, cumulant(table, 4, Fraction(1, c)) / base.variance**2,
                        {"edges": edges, "triangles": triangles, "four_cycles": four_cycles})


@dataclass(frozen=True)
class T3Bound:
    """Error-bound bracket for the standardized triangle count, up to an
    absolute constant depending only on c."""

    r1: Fraction
    r2: Fraction
    bracket: float  # R1^(1/4) + R2
    bound: float  # bracket^(1/5)


def clt_bound_t3(pc: PyramidCounts, b: int) -> T3Bound:
    if pc.n1 < 1:
        raise NoTrianglesError("bound needs at least one triangle")
    denom = (pc.n1 + pc.n2) ** 2
    r1 = Fraction(1 + pc.n4, denom)
    r2 = Fraction(b, denom)
    bracket = float(r1) ** 0.25 + float(r2)
    return T3Bound(r1=r1, r2=r2, bracket=bracket, bound=bracket**0.2)


@dataclass(frozen=True)
class T2Bound:
    """Error-bound bracket for the standardized edge count, up to a
    universal constant. The inner sum decomposes into a rational part
    c/|E| + N(C4)/(c |E|^2) plus the surd |E|^(-1/2)."""

    rational_part: Fraction
    sqrt_base: int  # surd term is sqrt_base^(-1/2)
    inner: float
    bound: float


def clt_bound_t2(edge_count: int, c4_count: int, c: int) -> T2Bound:
    _check_colors(c)
    if edge_count < 1:
        raise NoEdgesError("bound needs at least one edge")
    rational = Fraction(c, edge_count) + Fraction(c4_count, c * edge_count**2)
    inner = float(rational) + 1.0 / math.sqrt(edge_count)
    return T2Bound(rational_part=rational, sqrt_base=edge_count, inner=inner, bound=inner**0.2)


# ---------------------------------------------------------------------------
# reference limit laws for the two non-normal families


@dataclass(frozen=True)
class TwoPointLaw:
    """Limit of (T3 - n/c^2)/n for the pyramid family: an exact atom at
    -1/c^2 (base endpoints differ) and an atom at (1/c)(1 - 1/c) (base
    endpoints match), with masses 1 - 1/c and 1/c."""

    atoms: tuple[tuple[Fraction, Fraction], ...]  # (location, mass), ascending

    def cdf(self, t: float) -> float:
        return float(sum(mass for loc, mass in self.atoms if float(loc) <= t))


@dataclass(frozen=True)
class NormalMixtureLaw:
    """Limit of (T3 - 2n/c^2)/sqrt(n) for the bipyramid chain: a mixture
    of two centered normals, component (weight, variance)."""

    components: tuple[tuple[Fraction, Fraction], ...]

    @property
    def total_variance(self) -> Fraction:
        return sum((w * v for w, v in self.components), Fraction(0))

    def cdf(self, t: float) -> float:
        return sum(
            float(w) * standard_normal_cdf(t / math.sqrt(float(v)))
            for w, v in self.components
        )


def limit_law_reference(family: str, c: int):
    x = _check_colors(c)
    if family == "pyramid":
        atoms = sorted(
            [(-(x**2), 1 - x), (x * (1 - x), x)],
            key=lambda a: a[0],
        )
        return TwoPointLaw(atoms=tuple(atoms))
    if family == "bipyramid_chain":
        comp_same = (x, (4 * x**3 + 2 * x**2) * (1 - x))
        comp_diff = (1 - x, 2 * x**2 * (1 - 2 * x**2))
        return NormalMixtureLaw(components=(comp_same, comp_diff))
    raise UnsupportedFamilyError(f"no reference law for family {family!r}")
