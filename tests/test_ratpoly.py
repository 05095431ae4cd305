from fractions import Fraction

from monoclt.ratpoly import evaluate


def test_eval_is_exact_rational():
    p = (Fraction(1, 3), 0, 2)
    v = evaluate(p, Fraction(1, 7))
    assert v == Fraction(1, 3) + Fraction(2, 49)
    assert isinstance(v, Fraction)
    assert evaluate((), Fraction(1, 2)) == 0


def test_power_and_eval():
    # The expansion of (1 - x^2)^3 evaluates to the cube of 1 - x^2.
    p = (1, 0, -3, 0, 3, 0, -1)
    half = Fraction(1, 2)
    assert evaluate(p, half) == (1 - half**2) ** 3 == Fraction(27, 64)
    assert evaluate((0, 0, 0, 0, 0, 1), Fraction(1, 3)) == Fraction(1, 3) ** 5 == Fraction(1, 243)
