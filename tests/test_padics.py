from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from adickit.norms import ExactNorm
from adickit.padics import rational_valuation
from adickit.poly import Poly
from adickit.tate import gauss_norm


def norm(r: Fraction, p: int) -> ExactNorm:
    """|r|_p, as the Gauss norm of the constant r."""
    return gauss_norm(Poly.constant(Fraction(r), 0), p)


def test_two_plus_two():
    # two terms of equal valuation can sum to a higher one
    assert rational_valuation(Fraction(2), 2) == 1
    assert rational_valuation(Fraction(2) + Fraction(2), 2) == 2


def test_norms():
    assert norm(Fraction(4), 2) == ExactNorm.power(2, -2)
    assert norm(Fraction(1, 2), 2) == ExactNorm.power(2, 1)
    assert norm(Fraction(0), 5).is_zero


rationals = st.fractions(min_value=-99, max_value=99, max_denominator=30)


@given(rationals, rationals)
def test_ultrametric(a, b):
    p = 3
    assert norm(a + b, p) <= max(norm(a, p), norm(b, p))
    if norm(a, p) != norm(b, p):
        assert norm(a + b, p) == max(norm(a, p), norm(b, p))


@given(rationals, rationals)
def test_multiplicativity(a, b):
    p = 5
    assert norm(a * b, p) == norm(a, p) * norm(b, p)


def test_rational_valuation():
    assert rational_valuation(Fraction(12), 2) == 2
    assert rational_valuation(Fraction(1, 8), 2) == -3
    assert rational_valuation(Fraction(9, 5), 3) == 2
    with pytest.raises(ValueError, match="valuation of zero"):
        rational_valuation(Fraction(0), 2)
