"""Sparse multivariate polynomials over duck-typed coefficient rings.

Coefficients may be Fractions (the exact layer used for Groebner bases) or
finite-ring elements; they only need +, -, *, truthiness for zero-testing,
and ** -1 where division is required.  The monomial order everywhere is
graded reverse lexicographic.

A `Poly` is immutable once constructed: every operation returns a new one,
and nothing writes to the `terms` mapping of an existing one (a test over
the package enforces this).  That is what lets a Poly cache its leading
term on the first `leading()` call, and `scale(1)` return the Poly itself.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add, le, sub


def times_int(coeff, k: int):
    """coeff * k for an integer k, across all supported coefficient types."""
    if isinstance(coeff, (int, Fraction)):
        return coeff * k
    return coeff.times_int(k)


# -- exponent tuples --------------------------------------------------------

def exp_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))

def exp_divides(a: tuple, b: tuple) -> bool:
    """Does monomial a divide monomial b?"""
    return all(map(le, a, b))

def exp_div(a: tuple, b: tuple) -> tuple:
    return tuple(map(sub, a, b))

def exp_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))

def exp_total(a: tuple) -> int:
    return sum(a)

def exp_coprime(a: tuple, b: tuple) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))

def grevlex_key(exp: tuple):
    return (sum(exp), tuple(-e for e in reversed(exp)))

def monomials_upto(nvars: int, max_degree: int) -> list[tuple]:
    """All exponent tuples of total degree <= max_degree, grevlex-sorted
    ascending."""
    out = [(0,) * nvars]
    for d in range(1, max_degree + 1):
        for combo in combinations_with_replacement(range(nvars), d):
            exp = [0] * nvars
            for i in combo:
                exp[i] += 1
            out.append(tuple(exp))
    out.sort(key=grevlex_key)
    return out


# -- polynomials ------------------------------------------------------------

class Poly:
    """A polynomial in `nvars` variables: `terms` maps exponent tuples to
    coefficients.  Never mutated after construction, so the leading term
    is cached in `_lead` on the first `leading()` call."""
    __slots__ = ("nvars", "terms", "_lead")

    def __init__(self, nvars: int, terms=None, normalize: bool = True):
        self.nvars = nvars
        self._lead = None
        if terms is None:
            self.terms = {}
        elif normalize:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = terms

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, coeff, nvars: int) -> "Poly":
        if not coeff:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: coeff}, normalize=False)

    @classmethod
    def variable(cls, index: int, nvars: int, one) -> "Poly":
        exp = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exp: one}, normalize=False)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(exp_total(e) for e in self.terms)

    def leading(self) -> tuple:
        """(exponent, coefficient) of the grevlex-leading term."""
        lead = self._lead
        if lead is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            exp = max(self.terms, key=grevlex_key)
            lead = self._lead = (exp, self.terms[exp])
        return lead

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            if e in res:
                s = res[e] + c
                if s:
                    res[e] = s
                else:
                    del res[e]
            else:
                res[e] = c
        return Poly(self.nvars, res, normalize=False)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()},
                    normalize=False)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        res: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = exp_mul(e1, e2)
                prod = c1 * c2
                if e in res:
                    s = res[e] + prod
                    if s:
                        res[e] = s
                    else:
                        del res[e]
                elif prod:
                    res[e] = prod
        return Poly(self.nvars, res, normalize=False)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                break
            base = base * base
        if result is None:
            raise ValueError("use Poly.constant for the empty product")
        return result

    def scale(self, coeff) -> "Poly":
        if not coeff:
            return Poly(self.nvars)
        if coeff == 1:      # False for finite-ring elements: they multiply
            return self
        return Poly(self.nvars, {e: coeff * c for e, c in self.terms.items()})

    def mul_term(self, exp: tuple) -> "Poly":
        """The product by the monomial with exponent `exp`."""
        return Poly(self.nvars,
                    {exp_mul(e, exp): c for e, c in self.terms.items()},
                    normalize=False)

    def derivative(self, index: int) -> "Poly":
        res: dict = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            d = times_int(c, k)
            if d:
                newe = tuple(x - 1 if i == index else x for i, x in enumerate(e))
                res[newe] = res[newe] + d if newe in res else d
        return Poly(self.nvars, res)

    def map_coeffs(self, fn) -> "Poly":
        return Poly(self.nvars, {e: fn(c) for e, c in self.terms.items()})

    def extend_vars(self, new_nvars: int, offset: int = 0) -> "Poly":
        """Reinterpret in a larger variable list, old var i -> new var i+offset."""
        if offset + self.nvars > new_nvars:
            raise ValueError("extension does not fit")
        pad_l = (0,) * offset
        pad_r = (0,) * (new_nvars - offset - self.nvars)
        return Poly(new_nvars,
                    {pad_l + e + pad_r: c for e, c in self.terms.items()},
                    normalize=False)

    def substitute(self, values: list, target_nvars: int, coeff_map, one) -> "Poly":
        """Apply the ring map sending variable i to values[i] (a Poly over the
        target) and each coefficient through coeff_map."""
        if len(values) != self.nvars:
            raise ValueError("one value per variable required")
        result = Poly.zero(target_nvars)
        power_cache: dict = {}

        def power(i: int, k: int) -> Poly:
            if k == 0:
                return Poly.constant(one, target_nvars)
            if (i, k) not in power_cache:
                power_cache[(i, k)] = power(i, k - 1) * values[i]
            return power_cache[(i, k)]

        for e, c in self.terms.items():
            term = Poly.constant(coeff_map(c), target_nvars)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            result = result + term
        return result

    def evaluate(self, point: list, coeff_map, zero):
        """Evaluate at a tuple of ring elements; coefficients go through
        coeff_map into the same ring."""
        if len(point) != self.nvars:
            raise ValueError("one value per variable required")
        total = zero
        for e, c in self.terms.items():
            term = coeff_map(c)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * point[i]
            total = total + term
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items(),
                                              key=lambda t: grevlex_key(t[0])))))

    def __repr__(self) -> str:
        return render_poly(self, tuple(f"x{i}" for i in range(self.nvars)))


def render_poly(poly: Poly, varnames: tuple) -> str:
    if poly.is_zero:
        return "0"
    parts = []
    for e in sorted(poly.terms, key=grevlex_key, reverse=True):
        c = poly.terms[e]
        mono = "*".join(
            f"{varnames[i]}^{k}" if k > 1 else varnames[i]
            for i, k in enumerate(e) if k)
        cs = str(c)
        if mono:
            parts.append(f"{cs}*{mono}" if cs != "1" else mono)
        else:
            parts.append(cs)
    return " + ".join(parts)
