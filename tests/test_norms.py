from fractions import Fraction

from hypothesis import given, strategies as st

from adickit.norms import ExactNorm, norm_max


def test_factored_rendering():
    assert str(ExactNorm.power(2, Fraction(-3, 2))) == "2^-3/2"
    assert str(ExactNorm.zero()) == "0"
    assert str(ExactNorm({})) == "1"
    assert str(ExactNorm.power(2, -1) * ExactNorm.power(3, 2)) == "2^-1*3^2"


def test_comparisons_exact():
    half = ExactNorm.power(2, -1)
    third = ExactNorm.power(3, -1)
    assert third < half
    assert ExactNorm.power(2, Fraction(-3, 2)) < half
    # bases are canonicalized to primes, so value equality is real equality
    assert ExactNorm.power(2, 3) == ExactNorm.power(8, 1)
    assert hash(ExactNorm.power(4, 1)) == hash(ExactNorm.power(2, 2))


def test_zero_absorbs():
    z = ExactNorm.zero()
    n = ExactNorm.power(2, 5)
    assert (z * n).is_zero
    assert z < n
    assert norm_max(z, n) == n


small_exp = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@given(small_exp, small_exp, small_exp)
def test_multiplication_adds_exponents(a, b, c):
    x = ExactNorm.power(2, a) * ExactNorm.power(3, b)
    y = ExactNorm.power(2, c)
    assert x * y == ExactNorm({2: a + c, 3: b})


@given(small_exp, small_exp)
def test_comparison_matches_exponents_same_base(a, b):
    x, y = ExactNorm.power(5, a), ExactNorm.power(5, b)
    assert (x < y) == (a < b)
    assert (x == y) == (a == b)


@given(small_exp, small_exp, small_exp)
def test_power_scales(a, b, r):
    if r == 0:
        return
    x = ExactNorm.power(2, a) * ExactNorm.power(3, b)
    assert x ** r == ExactNorm({2: a * r, 3: b * r})
