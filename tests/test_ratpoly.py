from fractions import Fraction

import pytest

from monoclt.ratpoly import RationalPoly


def test_normalization_strips_trailing_zeros():
    assert RationalPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert RationalPoly([0, 0]).is_zero
    assert RationalPoly().is_zero
    assert not RationalPoly([0, 0, 1]).is_zero
    assert all(isinstance(c, Fraction) for c in RationalPoly([1, 0, 3]).coeffs)


def test_eval_is_exact_rational():
    p = RationalPoly([Fraction(1, 3), 0, 2])
    v = p(Fraction(1, 7))
    assert v == Fraction(1, 3) + Fraction(2, 49)
    assert isinstance(v, Fraction)
    assert RationalPoly()(Fraction(1, 2)) == 0


def test_power_and_eval():
    # The expansion of (1 - x^2)^3 evaluates to the cube of 1 - x^2.
    p = RationalPoly([1, 0, -3, 0, 3, 0, -1])
    half = Fraction(1, 2)
    assert p(half) == (1 - half**2) ** 3 == Fraction(27, 64)
    assert RationalPoly([0, 0, 0, 0, 0, 1])(Fraction(1, 3)) == Fraction(1, 3) ** 5 == Fraction(1, 243)


def test_equality_and_hash():
    assert RationalPoly([0, 3]) == RationalPoly([Fraction(0), Fraction(6, 2), 0])
    assert RationalPoly([0, 3]) != RationalPoly([3])
    assert hash(RationalPoly([0, 0, 1])) == hash(RationalPoly([0, 0, 1, 0]))
    assert RationalPoly([1]).__eq__((1,)) is NotImplemented
    assert repr(RationalPoly([1, -2, 0, 3])) == "RationalPoly(1 - 2*x + 3*x^3)"
    assert repr(RationalPoly()) == "RationalPoly(0)"


def test_immutable():
    with pytest.raises(AttributeError):
        RationalPoly([0, 1]).coeffs = (1,)
