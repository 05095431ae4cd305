"""Exact polynomial evaluation and the JSON form of exact rationals.

Every class coefficient of the fourth-moment decomposition is an integer
polynomial in x = 1/c (c = number of colors), kept as a plain tuple of
ints: index i holds the coefficient of x**i, trailing zeros stripped, so
the zero polynomial is (). Keeping it symbolic means one computation
serves every c and lets tests compare coefficients exactly instead of at
sampled points.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def evaluate(coeffs: Sequence[int], x) -> Fraction:
    """The polynomial with these coefficients at a rational point (Horner)."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def fraction_json(q: Fraction) -> dict:
    """JSON form of an exact rational used in every report."""
    return {"num": str(q.numerator), "den": str(q.denominator), "float": float(q)}
