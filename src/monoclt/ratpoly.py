"""Exact dense polynomials with rational coefficients.

Every closed-form moment in this package is a polynomial in x = 1/c
(c = number of colors). Doing the algebra symbolically means one
computation serves every c and lets tests compare formulas
coefficient-wise instead of at sampled points.
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

    @classmethod
    def term(cls, coeff, power: int) -> "RationalPoly":
        """coeff * x**power"""
        return cls([0] * power + [coeff])

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other) -> "RationalPoly":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "RationalPoly":
        return RationalPoly([-c for c in self.coeffs])

    def __sub__(self, other) -> "RationalPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "RationalPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "RationalPoly":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RationalPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return RationalPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RationalPoly":
        if n < 0:
            raise ValueError("negative power")
        result = RationalPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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


def _coerce(value) -> RationalPoly:
    if isinstance(value, RationalPoly):
        return value
    return RationalPoly([value])


ZERO = RationalPoly()
ONE = RationalPoly([1])
X = RationalPoly([0, 1])
