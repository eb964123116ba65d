"""Witt vectors via ghost components, tilting, and interval Gauss norms.

Arithmetic on length-n Witt vectors over a characteristic-p coefficient ring
goes through a torsion-free lift: lift the coordinates, operate on ghost
components w_k = sum p^i x_i^(p^(k-i)), solve back by exact division by p^k
(integrality is universal, so the divisions are exact for any lift), and
reduce.  Over a product ring it runs in each factor, as W_n(A x B) =
W_n(A) x W_n(B); Frobenius, since p = 0 in the ring, is the p-th power of
each coordinate and needs no lift.  The tilt of a finite ring is R/Nil(R), a
`quotient_ring`: the image of x -> x^(p^e) is R/K_e, K_e = {x in Nil(R) :
x^(p^e) = 0}, and K_e = Nil(R) for e large.  Robba elements are truncated
Teichmueller expansions sum p^k [x_k] over a perfect normed model of
F_p((t))-type; their interval norms are exact factored values, so the
Frobenius scaling law is testable by exact equality.
"""

from __future__ import annotations

from fractions import Fraction

from .finiterings import FiniteRing, nilradical, quotient_ring
from .norms import ExactNorm, norm_max

WITT_LENGTH_CAP = 8


class WittError(ValueError):
    pass


# -- the torsion-free lift ------------------------------------------------------

class _IntegerLift:
    """Sparse {exponent: int} elements of a torsion-free ring covering a
    coefficient ring: Z[x]/(f) for GF(p,k), f a monic integer lift of its
    defining polynomial (Z/p is Z[x]/(x)), or, without a modulus, the
    integer Puiseux series Z[t^(1/p^oo)] covering the normed model."""

    def __init__(self, ring, modulus: tuple | None = None):
        self.ring = ring
        self.modulus = modulus          # int coefficients, monic, index=degree

    def lift(self, x) -> dict:
        if self.modulus is None:
            return dict(x.terms)
        return {i: c for i, c in enumerate(x.coords) if c}

    def reduce(self, v: dict):
        if self.modulus is None:
            return self.ring.element(v)
        return self.ring.element([v.get(i, 0)
                                  for i in range(len(self.modulus) - 1)])

    @staticmethod
    def add(a: dict, b: dict, k: int = 1) -> dict:
        """a + k * b."""
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + k * c
        return {e: c for e, c in out.items() if c}

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        if self.modulus is not None:
            # x^d = x^(d - deg) (x^deg - f) mod f, from the top degree down
            deg = len(self.modulus) - 1
            for d in range(max(out, default=0), deg - 1, -1):
                lead = out.pop(d, 0)
                if lead:
                    for i, c in enumerate(self.modulus[:-1]):
                        out[d - deg + i] = out.get(d - deg + i, 0) - lead * c
        return {e: c for e, c in out.items() if c}

    def power(self, a: dict, k: int) -> dict:
        result = {0: 1}
        while k:
            if k & 1:
                result = self.mul(result, a)
            k >>= 1
            if k:
                a = self.mul(a, a)
        return result

    @staticmethod
    def div_exact(a: dict, k: int) -> dict:
        out = {}
        for e, c in a.items():
            q, r = divmod(c, k)
            if r:
                raise WittError("ghost unwinding hit a non-exact division")
            out[e] = q
        return out


def lift_context(ring) -> _IntegerLift:
    """The lift of a coefficient ring other than a product ring."""
    if isinstance(ring, CharPNormedRing):
        return _IntegerLift(ring)
    if isinstance(ring, FiniteRing) and ring.lift_model is None:
        raise WittError(f"no torsion-free lift model for {ring.name}")
    if isinstance(ring, FiniteRing) and ring.lift_model[0] == "intpoly":
        return _IntegerLift(ring, ring.lift_model[1])
    raise WittError("unsupported Witt coefficient ring")


# -- Witt vectors ---------------------------------------------------------------

def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class WittVector:
    __slots__ = ("p", "coords", "ring")

    def __init__(self, p: int, coords: tuple, ring):
        if len(coords) > WITT_LENGTH_CAP:
            raise WittError(f"Witt length exceeds cap {WITT_LENGTH_CAP}")
        if not _is_prime(p):
            raise WittError(f"Witt vectors need a prime p, got {p}")
        char = ring.characteristic
        if char != p:
            raise WittError(
                f"coefficient ring has characteristic {char}, expected {p}")
        self.p = p
        self.coords = coords
        self.ring = ring

    def __eq__(self, other):
        if other.__class__ is not WittVector:
            return NotImplemented
        return (self.p, self.coords, self.ring) == \
            (other.p, other.coords, other.ring)

    def __hash__(self):
        return hash((self.p, self.coords, self.ring))

    @property
    def length(self) -> int:
        return len(self.coords)

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.coords) + ")"


def teichmuller(c, length: int, p: int | None = None) -> WittVector:
    ring = c.parent
    p = p if p is not None else ring.characteristic
    zero = ring.zero
    return WittVector(p, (c,) + (zero,) * (length - 1), ring)


def ghost_components(p: int, coords, ctx: _IntegerLift) -> list:
    """w_k = sum_i p^i x_i^(p^(k-i)) on the lifted coordinates x_i."""
    lifts = [ctx.lift(c) for c in coords]
    ghosts = []
    for k in range(len(lifts)):
        total: dict = {}
        for i in range(k + 1):
            total = ctx.add(total, ctx.power(lifts[i], p ** (k - i)), p ** i)
        ghosts.append(total)
    return ghosts


def _unwind(ghosts: list, p: int, ctx: _IntegerLift) -> list:
    """Witt coordinates (as lift elements) from ghost components."""
    coords = []
    for k, g in enumerate(ghosts):
        acc = g
        for i in range(k):
            acc = ctx.add(acc, ctx.power(coords[i], p ** (k - i)), -p ** i)
        coords.append(ctx.div_exact(acc, p ** k))
    return coords


def witt_arith(op: str, a: WittVector, b: WittVector) -> WittVector:
    if a.p != b.p or a.ring is not b.ring:
        raise WittError("operands live in different Witt rings")
    if a.length != b.length:
        raise WittError("operands have different lengths")
    if op not in ("add", "mul", "sub"):
        raise WittError(f"unknown Witt operation {op!r}")
    return WittVector(a.p, _arith(op, a.p, a.ring, a.coords, b.coords), a.ring)


def _arith(op: str, p: int, ring, xs, ys) -> tuple:
    """The coordinates of `op` on Witt coordinates xs and ys over ring.
    W_n(A x B) = W_n(A) x W_n(B), so a product ring computes in the two
    factors it records; any other ring through its lift."""
    model = getattr(ring, "lift_model", None)
    if model and model[0] == "product":
        _, left, right = model
        k = len(left.moduli)
        lows = _arith(op, p, left, [left.element(x.coords[:k]) for x in xs],
                      [left.element(y.coords[:k]) for y in ys])
        highs = _arith(op, p, right, [right.element(x.coords[k:]) for x in xs],
                       [right.element(y.coords[k:]) for y in ys])
        return tuple(ring.element(u.coords + v.coords)
                     for u, v in zip(lows, highs))
    ctx = lift_context(ring)
    ga, gb = ghost_components(p, xs, ctx), ghost_components(p, ys, ctx)
    if op == "mul":
        gc = [ctx.mul(x, y) for x, y in zip(ga, gb)]
    else:
        sign = 1 if op == "add" else -1
        gc = [ctx.add(x, y, sign) for x, y in zip(ga, gb)]
    return tuple(ctx.reduce(c) for c in _unwind(gc, p, ctx))


def witt_add(a: WittVector, b: WittVector) -> WittVector:
    return witt_arith("add", a, b)


def witt_mul(a: WittVector, b: WittVector) -> WittVector:
    return witt_arith("mul", a, b)


def frobenius_witt(a: WittVector) -> WittVector:
    """F(a_0, a_1, ...) = (a_0^p, a_1^p, ...), as p = 0 in the coefficient
    ring; the length drops by one."""
    if a.length < 2:
        raise WittError("Frobenius needs length at least 2")
    return WittVector(a.p, tuple(c ** a.p for c in a.coords[:-1]), a.ring)


def verschiebung(a: WittVector) -> WittVector:
    """Coordinate shift; the length grows by one (capped)."""
    zero = a.ring.zero
    coords = (zero,) + a.coords
    if len(coords) > WITT_LENGTH_CAP:
        coords = coords[:WITT_LENGTH_CAP]
    return WittVector(a.p, coords, a.ring)


# -- tilting ---------------------------------------------------------------------

class TiltResult:
    __slots__ = ("ring", "depth", "embed")

    def __init__(self, ring: FiniteRing, depth: int, embed):
        self.ring = ring
        self.depth = depth
        self.embed = embed      # the ring's isomorphism onto F^e(R) inside R


def tilt(ring: FiniteRing, depth: int | None = None) -> TiltResult:
    """Inverse limit along Frobenius.  In characteristic p, F^e: x -> x^(p^e)
    is a ring map with kernel K_e = {x in Nil(R) : x^(p^e) = 0}, so its
    image F^e(R) is R/K_e through [y] -> y^(p^e).  The image chain stops
    shrinking at the least e0 with K_e0 = Nil(R); there it is R/Nil(R),
    which is perfect, so for a finite ring the tilt is R/Nil(R), reached
    after e0 + 1 steps.  `depth` caps the steps, and the result is then
    F^e(R) for e = min(e0, steps)."""
    p = ring.characteristic
    if not _is_prime(p):
        raise WittError("tilting needs a prime-characteristic ring")
    nil, e0 = nilradical(ring), 0
    while any(x ** p ** e0 for x in nil):
        e0 += 1
    steps = e0 + 1 if depth is None else max(1, min(e0 + 1, depth))
    e = min(e0, steps)
    kernel = frozenset(x for x in nil if not x ** p ** e)
    flat, _, lift = quotient_ring(ring, kernel, f"{ring.name}^flat")
    return TiltResult(flat, steps, lambda x: lift(x) ** p ** e)


# -- the perfect normed model and Robba elements ----------------------------------

class NormedElement:
    __slots__ = ("parent", "terms")

    def __init__(self, parent: "CharPNormedRing", terms: dict):
        self.parent = parent
        clean = {}
        for e, c in terms.items():
            e = Fraction(e)
            c = c % parent.p
            if c:
                clean[e] = c
        if len(clean) > parent.support_cap:
            raise WittError("support cap exceeded in the normed model")
        self.terms = clean

    def _check(self, other):
        if self.parent is not other.parent:
            raise ValueError("elements of different normed rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        p = self.parent.p
        for e, c in other.terms.items():
            out[e] = (out.get(e, 0) + c) % p
            if not out[e]:
                del out[e]
        return NormedElement(self.parent, out)

    def __neg__(self):
        p = self.parent.p
        return NormedElement(self.parent, {e: (-c) % p
                                           for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out: dict = {}
        p = self.parent.p
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = (out.get(e, 0) + c1 * c2) % p
                if not out[e]:
                    del out[e]
        return NormedElement(self.parent, out)

    def frobenius(self):
        """x -> x^p; exponent scaling since the coefficients are in F_p."""
        return NormedElement(self.parent,
                             {e * self.parent.p: c
                              for e, c in self.terms.items()})

    def inv_frobenius(self):
        return NormedElement(self.parent,
                             {e / self.parent.p: c
                              for e, c in self.terms.items()})

    def norm(self) -> ExactNorm:
        """|t| = 1/2 fixed; the norm is 2^(-least exponent in the support)."""
        if not self.terms:
            return ExactNorm.zero()
        return ExactNorm.power(2, -min(self.terms))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, NormedElement):
            return NotImplemented
        return self.parent is other.parent and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.parent), tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            head = "" if c == 1 else f"{c}*"
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{head}tbar")
            else:
                parts.append(f"{head}tbar^({e})")
        return " + ".join(parts)


class CharPNormedRing:
    """Truncated perfect model of F_p((t^(1/p^oo))): finite F_p-combinations
    of monomials t^a with a in Z[1/p]."""

    def __init__(self, p: int, support_cap: int = 128):
        self.p = p
        self.support_cap = support_cap
        self.zero = NormedElement(self, {})
        self.one = NormedElement(self, {Fraction(0): 1})

    @property
    def characteristic(self) -> int:
        return self.p

    def element(self, terms: dict) -> NormedElement:
        for e in terms:
            den = Fraction(e).denominator
            while den % self.p == 0:
                den //= self.p
            if den != 1:
                raise ValueError(
                    "exponents must have p-power denominators")
        return NormedElement(self, terms)

    def tbar(self, exponent=1) -> NormedElement:
        return self.element({Fraction(exponent): 1})

    def from_int(self, n: int) -> NormedElement:
        return self.element({Fraction(0): n % self.p})

    def __repr__(self):
        return f"CharPNormedRing(p={self.p})"


class RobbaElement:
    """Truncated Teichmueller expansion sum_k p^k [digit_k]."""
    __slots__ = ("ring", "digits")

    def __init__(self, ring: CharPNormedRing, digits: tuple):
        if len(digits) > WITT_LENGTH_CAP:
            raise WittError("expansion length exceeds the cap")
        self.ring = ring
        self.digits = digits    # NormedElement digits, index = p-power

    @property
    def p(self) -> int:
        return self.ring.p

    @property
    def length(self) -> int:
        return len(self.digits)

    @property
    def is_zero(self) -> bool:
        return all(not d for d in self.digits)

    def padded(self, length: int) -> "RobbaElement":
        if length < self.length:
            raise ValueError("cannot shrink an expansion")
        pad = (self.ring.zero,) * (length - self.length)
        return RobbaElement(self.ring, self.digits + pad)

    def to_witt(self) -> WittVector:
        coords = []
        for k, d in enumerate(self.digits):
            x = d
            for _ in range(k):
                x = x.frobenius()
            coords.append(x)
        return WittVector(self.p, tuple(coords), self.ring)

    @classmethod
    def from_witt(cls, w: WittVector) -> "RobbaElement":
        digits = []
        for k, c in enumerate(w.coords):
            x = c
            for _ in range(k):
                x = x.inv_frobenius()
            digits.append(x)
        return cls(w.ring, tuple(digits))

    def __add__(self, other: "RobbaElement") -> "RobbaElement":
        n = min(max(self.length, other.length) + 1, WITT_LENGTH_CAP)
        a = self.padded(n).to_witt()
        b = other.padded(n).to_witt()
        return RobbaElement.from_witt(witt_add(a, b))

    def __mul__(self, other: "RobbaElement") -> "RobbaElement":
        # one digit of headroom keeps small carries visible; beyond that the
        # ghost powers grow like p^p^n and stop being desk scale
        n = min(max(self.length, other.length) + 1, WITT_LENGTH_CAP)
        a = self.padded(n).to_witt()
        b = other.padded(n).to_witt()
        return RobbaElement.from_witt(witt_mul(a, b))

    def trimmed(self) -> "RobbaElement":
        digits = list(self.digits)
        while len(digits) > 1 and not digits[-1]:
            digits.pop()
        return RobbaElement(self.ring, tuple(digits))

    def __eq__(self, other):
        if not isinstance(other, RobbaElement):
            return NotImplemented
        a, b = self.trimmed(), other.trimmed()
        return a.ring is b.ring and a.digits == b.digits

    def __repr__(self):
        parts = [f"p^{k}*[{d!r}]" for k, d in enumerate(self.digits) if d]
        return " + ".join(parts) if parts else "0"


def robba_norm(f: RobbaElement, r) -> ExactNorm:
    """max_k p^(-k) * |digit_k|^r for the truncated expansion."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("the norm parameter must be positive")
    if f.is_zero:
        return ExactNorm.zero()
    candidates = []
    for k, d in enumerate(f.digits):
        if d:
            candidates.append(ExactNorm.power(f.p, -k) * d.norm() ** r)
    return norm_max(*candidates)


def interval_norm(f: RobbaElement, s, r) -> ExactNorm:
    """max of the endpoint norms on [s, r]; valid by log-convexity of the
    norm in the exponent (a tested property, not an assumption)."""
    s, r = Fraction(s), Fraction(r)
    if not 0 < s <= r:
        raise ValueError("need 0 < s <= r")
    return norm_max(robba_norm(f, s), robba_norm(f, r))


def phi_action(f: RobbaElement) -> RobbaElement:
    """Digit-wise Frobenius; satisfies |phi(f)|_r = |f|_(p*r)."""
    return RobbaElement(f.ring, tuple(d.frobenius() for d in f.digits))
