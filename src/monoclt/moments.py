"""Closed-form moments and CLT error-bound brackets, in exact rational
arithmetic.

For a uniformly random c-coloring with x = 1/c:

    monochromatic edges     T2: mean |E| x, variance |E| x (1 - x)
    monochromatic triangles T3: mean n1 x^2,
                            variance n1 x^2 (1 - x^2) + 2 n2 (x^3 - x^4)

where n1, n2 are the triangle and 2-pyramid counts. The excess fourth
moment of the standardized edge count is

    (g1 |E| + g2 N(K3) + g3 N(C4)) / variance^2
    g1 = x (1 - 7x + 12x^2 - 6x^3), g2 = 36 x^2 (1-x)(1-2x), g3 = 24 x^3 (1-x).

Error-bound brackets on the Kolmogorov distance to normal are reported
up to unspecified absolute constants: the triangle bracket is
(R1^(1/4) + R2)^(1/5) with R1 = (1 + n4) / (n1 + n2)^2 and
R2 = b / (n1 + n2)^2, the edge bracket is
(c/|E| + |E|^(-1/2) + N(C4)/(c |E|^2))^(1/5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .census import PyramidCounts
from .errors import BadParamsError, NoEdgesError, NoTrianglesError, UnsupportedFamilyError


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


def t3_mean_var(pc: PyramidCounts, c: int) -> MomentReport:
    """Exact mean and variance of the monochromatic triangle count."""
    x = _check_colors(c)
    if pc.n1 < 1:
        raise NoTrianglesError("triangle statistics need at least one triangle")
    mean = pc.n1 * x**2
    variance = pc.n1 * x**2 * (1 - x**2) + 2 * pc.n2 * (x**3 - x**4)
    return MomentReport(mean, variance, None, {"triangles": pc.n1, "pyramids2": pc.n2})


def t2_mean_var(edge_count: int, c: int) -> MomentReport:
    """Exact mean and variance of the monochromatic edge count."""
    x = _check_colors(c)
    if edge_count < 1:
        raise NoEdgesError("edge statistics need at least one edge")
    return MomentReport(edge_count * x, edge_count * x * (1 - x), None, {"edges": edge_count})


def t2_moments(edges: int, triangles: int, four_cycles: int, c: int) -> MomentReport:
    """Exact mean, variance, and excess fourth moment of the
    monochromatic edge count. Depends on the graph only through the
    counts of its edges, triangles and four-cycles."""
    base = t2_mean_var(edges, c)
    x = Fraction(1, c)
    g1 = x * (1 - 7 * x + 12 * x**2 - 6 * x**3)
    g2 = 36 * x**2 * (1 - x) * (1 - 2 * x)
    g3 = 24 * x**3 * (1 - x)
    excess4 = (g1 * edges + g2 * triangles + g3 * four_cycles) / base.variance**2
    inputs = {"edges": edges, "triangles": triangles, "four_cycles": four_cycles}
    return replace(base, excess4=excess4, inputs=inputs)


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
