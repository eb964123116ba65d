"""Exact ultrametric norm values.

Norms in this package are always finite products of rational powers of small
integer bases (p-adic norms are p^k, residue norms are 2^a with a in Z[1/p],
interval norms mix the two).  Representing them as factored exact values keeps
every norm identity testable by exact equality instead of float comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _prime_factor(n: int) -> dict:
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class ExactNorm:
    """A non-negative real of the form prod(base**exponent) with rational
    exponents over integer bases >= 2, or exactly zero."""

    __slots__ = ("_factors",)

    def __init__(self, factors=None, _zero=False):
        if _zero:
            self._factors = None
            return
        cleaned: dict = {}
        for base, exp in (factors or {}).items():
            if base < 2:
                raise ValueError(f"norm base must be >= 2, got {base}")
            exp = Fraction(exp)
            if exp == 0:
                continue
            # canonicalize into prime bases so equality is value equality
            for prime, mult in _prime_factor(int(base)).items():
                total = cleaned.get(prime, Fraction(0)) + exp * mult
                if total:
                    cleaned[prime] = total
                elif prime in cleaned:
                    del cleaned[prime]
        self._factors = cleaned

    @classmethod
    def zero(cls) -> "ExactNorm":
        return cls(_zero=True)

    @classmethod
    def power(cls, base: int, exponent) -> "ExactNorm":
        return cls({base: Fraction(exponent)})

    @property
    def is_zero(self) -> bool:
        return self._factors is None

    def __mul__(self, other: "ExactNorm") -> "ExactNorm":
        if self.is_zero or other.is_zero:
            return ExactNorm.zero()
        merged = dict(self._factors)
        for base, exp in other._factors.items():
            merged[base] = merged.get(base, Fraction(0)) + exp
        return ExactNorm(merged)

    def __pow__(self, exponent) -> "ExactNorm":
        exponent = Fraction(exponent)
        if self.is_zero:
            if exponent <= 0:
                raise ZeroDivisionError("0 to a non-positive power")
            return self
        return ExactNorm({b: e * exponent for b, e in self._factors.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactNorm):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return self._factors == other._factors

    def __hash__(self):
        if self.is_zero:
            return hash(("ExactNorm", "zero"))
        return hash(("ExactNorm", tuple(sorted(self._factors.items()))))

    def _compare(self, other: "ExactNorm") -> int:
        """-1, 0, 1 comparison, exact (no floats)."""
        if self.is_zero and other.is_zero:
            return 0
        if self.is_zero:
            return -1
        if other.is_zero:
            return 1
        # self/other = prod base**diff; compare against 1 by clearing
        # denominators and comparing integer products.
        diff = dict(self._factors)
        for base, exp in other._factors.items():
            diff[base] = diff.get(base, Fraction(0)) - exp
        diff = {b: e for b, e in diff.items() if e != 0}
        if not diff:
            return 0
        denom = 1
        for exp in diff.values():
            denom = _lcm(denom, exp.denominator)
        num = 1
        den = 1
        for base, exp in diff.items():
            k = int(exp * denom)
            if k > 0:
                num *= base ** k
            else:
                den *= base ** (-k)
        if num > den:
            return 1
        if num < den:
            return -1
        return 0

    def __lt__(self, other):
        return self._compare(other) < 0

    def __le__(self, other):
        return self._compare(other) <= 0

    def __gt__(self, other):
        return self._compare(other) > 0

    def __ge__(self, other):
        return self._compare(other) >= 0

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if not self._factors:
            return "1"
        parts = []
        for base in sorted(self._factors):
            exp = self._factors[base]
            if exp.denominator == 1:
                parts.append(f"{base}^{exp.numerator}")
            else:
                parts.append(f"{base}^{exp.numerator}/{exp.denominator}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"ExactNorm({self})"


def norm_max(*norms: ExactNorm) -> ExactNorm:
    """Maximum of finitely many exact norms (at least one required)."""
    if not norms:
        raise ValueError("norm_max of nothing")
    best = norms[0]
    for n in norms[1:]:
        if n > best:
            best = n
    return best
