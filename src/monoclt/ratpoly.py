"""Exact dense polynomials with rational coefficients.

Every class coefficient of the fourth-moment decomposition is a
polynomial in x = 1/c (c = number of colors). Keeping it symbolic means
one computation serves every c and lets tests compare coefficients
exactly instead of at sampled points.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


class RationalPoly:
    """Immutable polynomial; coeffs[i] is the coefficient of x**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x) -> Fraction:
        """Evaluate at a rational point (Horner)."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "RationalPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return "RationalPoly(" + " + ".join(parts).replace("+ -", "- ") + ")"


def fraction_json(q: Fraction) -> dict:
    """JSON form of an exact rational used in every report."""
    return {"num": str(q.numerator), "den": str(q.denominator), "float": float(q)}
