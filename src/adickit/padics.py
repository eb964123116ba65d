"""p-adic valuations of rationals.

Coefficients over a `Qp(p, N)` base are exact rationals, so every p-adic
quantity the kit reports is read off their valuations: |c|_p = p^-v_p(c).
Nothing is approximated modulo p^N, and no precision is tracked.
"""

from __future__ import annotations

from fractions import Fraction

DEFAULT_PRECISION = 8


def rational_valuation(r: Fraction, p: int) -> int:
    """p-adic valuation of a non-zero rational."""
    if r == 0:
        raise ValueError("valuation of zero is +infinity")
    v = 0
    num, den = r.numerator, r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v
