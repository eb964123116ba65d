"""Truncated p-adic numbers with honest precision tracking.

A value is stored as a rational representative together with an absolute
precision A: the true value is congruent to the representative modulo p^A.
Exact values (embedded rationals, including exact zero) carry infinite
precision; every arithmetic operation computes the best absolute precision
the operands support.  An operation whose result is indistinguishable from
zero at the tracked precision raises PrecisionLossError instead of silently
returning zero, so "provably zero" and "small" never get conflated.
"""

from __future__ import annotations

from fractions import Fraction

from .norms import ExactNorm

DEFAULT_PRECISION = 8


class PrimeMismatchError(ValueError):
    """Operands live over different primes."""


class PrecisionLossError(ArithmeticError):
    """The result is indistinguishable from zero at the tracked precision."""


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


class PadicNumber:
    """An element of Q_p known modulo p^abs_precision (or exactly)."""

    __slots__ = ("p", "_rep", "_abs")

    def __init__(self, p: int, rep: Fraction, abs_precision: int | None):
        # Internal constructor; use the classmethods.
        self.p = p
        self._rep = rep
        self._abs = abs_precision

    @classmethod
    def exact(cls, value, p: int) -> "PadicNumber":
        return cls(p, Fraction(value), None)

    @classmethod
    def from_int(cls, value: int, p: int) -> "PadicNumber":
        return cls.exact(value, p)

    @classmethod
    def zero(cls, p: int) -> "PadicNumber":
        return cls(p, Fraction(0), None)

    @classmethod
    def one(cls, p: int) -> "PadicNumber":
        return cls(p, Fraction(1), None)

    @classmethod
    def approximate(cls, p: int, valuation: int, unit: int,
                    precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        """Value p^valuation * unit known to `precision` relative digits."""
        if precision <= 0:
            raise ValueError("relative precision must be positive")
        unit %= p ** precision
        if unit % p == 0:
            raise ValueError("unit part must be prime to p")
        rep = Fraction(unit) * Fraction(p) ** valuation
        return cls(p, rep, valuation + precision)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._abs is None and self._rep == 0

    @property
    def valuation(self) -> int | None:
        """p-adic valuation; None for exact zero (conventionally +infinity)."""
        if self.is_zero:
            return None
        return rational_valuation(self._rep, self.p)

    @property
    def abs_precision(self) -> int | None:
        return self._abs

    @property
    def rel_precision(self) -> int | None:
        if self._abs is None:
            return None
        return self._abs - self.valuation

    def unit_mod(self, digits: int) -> int:
        """The unit part u (value = p^v * u) as an integer mod p^digits."""
        if self.is_zero:
            return 0
        if self._abs is not None and digits > self.rel_precision:
            raise PrecisionLossError(
                f"unit requested to {digits} digits but only "
                f"{self.rel_precision} are tracked")
        u = self._rep / Fraction(self.p) ** self.valuation
        mod = self.p ** digits
        return u.numerator * pow(u.denominator, -1, mod) % mod

    def rational_rep(self) -> Fraction:
        return self._rep

    def norm(self) -> ExactNorm:
        if self.is_zero:
            return ExactNorm.zero()
        return ExactNorm.power(self.p, -self.valuation)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "PadicNumber") -> None:
        if not isinstance(other, PadicNumber):
            raise TypeError(f"expected PadicNumber, got {type(other).__name__}")
        if self.p != other.p:
            raise PrimeMismatchError(f"primes differ: {self.p} vs {other.p}")

    @classmethod
    def _build(cls, p: int, rep: Fraction, abs_prec: int | None) -> "PadicNumber":
        if abs_prec is None:
            return cls(p, rep, None)
        if rep == 0 or rational_valuation(rep, p) >= abs_prec:
            raise PrecisionLossError(
                f"result indistinguishable from zero modulo {p}^{abs_prec}")
        # Canonicalize the representative to p^v * (unit mod p^N).
        v = rational_valuation(rep, p)
        n = abs_prec - v
        u = rep / Fraction(p) ** v
        mod = p ** n
        u_int = u.numerator * pow(u.denominator, -1, mod) % mod
        return cls(p, Fraction(u_int) * Fraction(p) ** v, abs_prec)

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        self._check(other)
        if self._abs is None and other._abs is None:
            return PadicNumber(self.p, self._rep + other._rep, None)
        abs_prec = min(a for a in (self._abs, other._abs) if a is not None)
        return self._build(self.p, self._rep + other._rep, abs_prec)

    def __neg__(self) -> "PadicNumber":
        return PadicNumber(self.p, -self._rep, self._abs)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self + (-other)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        self._check(other)
        if self.is_zero or other.is_zero:
            return PadicNumber.zero(self.p)
        rep = self._rep * other._rep
        if self._abs is None and other._abs is None:
            return PadicNumber(self.p, rep, None)
        # error(a*b) >= min(v(a)+A(b), v(b)+A(a))
        bounds = []
        if other._abs is not None:
            bounds.append(self.valuation + other._abs)
        if self._abs is not None:
            bounds.append(other.valuation + self._abs)
        return self._build(self.p, rep, min(bounds))

    def __truediv__(self, other: "PadicNumber") -> "PadicNumber":
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by exact p-adic zero")
        if self.is_zero:
            return PadicNumber.zero(self.p)
        rep = self._rep / other._rep
        if self._abs is None and other._abs is None:
            return PadicNumber(self.p, rep, None)
        v = rational_valuation(rep, self.p)
        rels = [x for x in (self.rel_precision, other.rel_precision)
                if x is not None]
        return self._build(self.p, rep, v + min(rels))

    def __pow__(self, k: int) -> "PadicNumber":
        if k == 0:
            return PadicNumber.one(self.p)
        if k < 0:
            return PadicNumber.one(self.p) / self ** (-k)
        half = self ** (k // 2)
        sq = half * half
        return sq * self if k % 2 else sq

    def times_int(self, k: int) -> "PadicNumber":
        return self * PadicNumber.exact(k, self.p)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return (self.p == other.p and self._rep == other._rep
                and self._abs == other._abs)

    def __hash__(self):
        return hash((self.p, self._rep, self._abs))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"0 (exact, p={self.p})"
        if self._abs is None:
            return f"{self._rep} (exact, p={self.p})"
        return (f"{self.p}^{self.valuation}*{self.unit_mod(self.rel_precision)}"
                f" + O({self.p}^{self._abs})")


def padic_arith(op: str, a: PadicNumber, b: PadicNumber) -> PadicNumber:
    """Dispatch table used by the CLI; op in {add, sub, mul, div}."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown p-adic operation {op!r}")
