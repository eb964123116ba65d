"""Witt vectors via ghost components, tilting, and interval Gauss norms.

Arithmetic on length-n Witt vectors over a characteristic-p coefficient ring
goes through a torsion-free lift: lift the coordinates, operate on ghost
components w_k = sum p^i x_i^(p^(k-i)), solve back by exact division by p^k
(integrality is universal, so the divisions are exact for any lift), and
reduce.  The tilt of a finite ring is R/Nil(R), a `quotient_ring`: the
image of x -> x^(p^e) is R/K_e, K_e = {x in Nil(R) : x^(p^e) = 0}, and
K_e = Nil(R) for e large.  Robba elements are truncated Teichmueller
expansions sum p^k [x_k] over a perfect normed model of F_p((t))-type; their
interval norms are exact factored values, so the Frobenius scaling law is
testable by exact equality.
"""

from __future__ import annotations

from fractions import Fraction

from .finiterings import FiniteRing, nilradical, quotient_ring
from .norms import ExactNorm, norm_max

WITT_LENGTH_CAP = 8


class WittError(ValueError):
    pass


# -- torsion-free lifts --------------------------------------------------------

class _IntLift:
    """Z covering Z/p."""

    def __init__(self, ring: FiniteRing):
        self.ring = ring
        self.p = ring.characteristic

    def lift(self, x):
        return x.coords[0]

    def reduce(self, v):
        return self.ring.from_int(v)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def int_mul(self, k, a):
        return k * a

    def power(self, a, k):
        return a ** k

    def div_exact(self, a, k):
        q, r = divmod(a, k)
        if r:
            raise WittError("ghost unwinding hit a non-exact division")
        return q

    def zero(self):
        return 0


class _IntPolyLift:
    """Z[x]/(monic integer lift of the defining polynomial) covering GF(p,k)."""

    def __init__(self, ring: FiniteRing, modulus: tuple):
        self.ring = ring
        self.modulus = modulus          # int coefficients, monic, index=degree
        self.deg = len(modulus) - 1

    def lift(self, x):
        return tuple(x.coords)

    def reduce(self, v):
        p = self.ring.moduli[0]
        return self.ring.element(tuple(c % p for c in v))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def int_mul(self, k, a):
        return tuple(k * x for x in a)

    def mul(self, a, b):
        prod = [0] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        # reduce by the monic modulus over Z
        for d in range(len(prod) - 1, self.deg - 1, -1):
            lead = prod[d]
            if lead:
                shift = d - self.deg
                for i, c in enumerate(self.modulus):
                    prod[shift + i] -= lead * c
        return tuple(prod[:self.deg])

    def power(self, a, k):
        result = tuple([1] + [0] * (self.deg - 1))
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def div_exact(self, a, k):
        out = []
        for x in a:
            q, r = divmod(x, k)
            if r:
                raise WittError("ghost unwinding hit a non-exact division")
            out.append(q)
        return tuple(out)

    def zero(self):
        return (0,) * self.deg


class _ProductLift:
    def __init__(self, ring: FiniteRing, left: FiniteRing, right: FiniteRing):
        self.ring = ring
        self.left_ring, self.right_ring = left, right
        self.left = lift_context(left)
        self.right = lift_context(right)
        self.split = len(left.moduli)

    def lift(self, x):
        a = self.left_ring.element(x.coords[:self.split])
        b = self.right_ring.element(x.coords[self.split:])
        return (self.left.lift(a), self.right.lift(b))

    def reduce(self, v):
        a = self.left.reduce(v[0])
        b = self.right.reduce(v[1])
        return self.ring.element(a.coords + b.coords)

    def add(self, a, b):
        return (self.left.add(a[0], b[0]), self.right.add(a[1], b[1]))

    def neg(self, a):
        return (self.left.neg(a[0]), self.right.neg(a[1]))

    def int_mul(self, k, a):
        return (self.left.int_mul(k, a[0]), self.right.int_mul(k, a[1]))

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def power(self, a, k):
        return (self.left.power(a[0], k), self.right.power(a[1], k))

    def div_exact(self, a, k):
        return (self.left.div_exact(a[0], k), self.right.div_exact(a[1], k))

    def zero(self):
        return (self.left.zero(), self.right.zero())


class _LaurentLift:
    """Integer-coefficient truncated Puiseux series covering the normed model."""

    def __init__(self, ring: "CharPNormedRing"):
        self.ring = ring

    def lift(self, x):
        return dict(x.terms)

    def reduce(self, v):
        return self.ring.element({a: c for a, c in v.items()})

    def add(self, a, b):
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + c
            if not out[e]:
                del out[e]
        return out

    def neg(self, a):
        return {e: -c for e, c in a.items()}

    def int_mul(self, k, a):
        if k == 0:
            return {}
        return {e: k * c for e, c in a.items()}

    def mul(self, a, b):
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
                if not out[e]:
                    del out[e]
        return out

    def power(self, a, k):
        result = {Fraction(0): 1}
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def div_exact(self, a, k):
        out = {}
        for e, c in a.items():
            q, r = divmod(c, k)
            if r:
                raise WittError("ghost unwinding hit a non-exact division")
            if q:
                out[e] = q
        return out

    def zero(self):
        return {}


def lift_context(ring):
    if isinstance(ring, CharPNormedRing):
        return _LaurentLift(ring)
    if isinstance(ring, FiniteRing):
        model = ring.lift_model
        if model is None:
            raise WittError(f"no torsion-free lift model for {ring.name}")
        if model[0] == "int":
            return _IntLift(ring)
        if model[0] == "intpoly":
            return _IntPolyLift(ring, model[1])
        if model[0] == "product":
            return _ProductLift(ring, model[1], model[2])
    raise WittError("unsupported Witt coefficient ring")


# -- Witt vectors ---------------------------------------------------------------

class WittVector:
    __slots__ = ("p", "coords", "ring")

    def __init__(self, p: int, coords: tuple, ring):
        if len(coords) > WITT_LENGTH_CAP:
            raise WittError(f"Witt length exceeds cap {WITT_LENGTH_CAP}")
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


def witt_vector(p: int, coords, ring) -> WittVector:
    return WittVector(p, tuple(coords), ring)


def teichmuller(c, length: int, p: int | None = None) -> WittVector:
    ring = c.parent
    p = p if p is not None else ring.characteristic
    zero = ring.zero
    return WittVector(p, (c,) + (zero,) * (length - 1), ring)


def ghost_components(a: WittVector, ctx=None) -> list:
    ctx = ctx or lift_context(a.ring)
    lifts = [ctx.lift(c) for c in a.coords]
    ghosts = []
    for k in range(a.length):
        total = ctx.zero()
        for i in range(k + 1):
            term = ctx.int_mul(a.p ** i, ctx.power(lifts[i], a.p ** (k - i)))
            total = ctx.add(total, term)
        ghosts.append(total)
    return ghosts


def _unwind(ghosts: list, p: int, ctx) -> list:
    """Witt coordinates (as lift elements) from ghost components."""
    coords = []
    for k, g in enumerate(ghosts):
        acc = g
        for i in range(k):
            term = ctx.int_mul(p ** i, ctx.power(coords[i], p ** (k - i)))
            acc = ctx.add(acc, ctx.neg(term))
        coords.append(ctx.div_exact(acc, p ** k))
    return coords


def witt_arith(op: str, a: WittVector, b: WittVector) -> WittVector:
    if a.p != b.p or a.ring is not b.ring:
        raise WittError("operands live in different Witt rings")
    if a.length != b.length:
        raise WittError("operands have different lengths")
    ctx = lift_context(a.ring)
    ga = ghost_components(a, ctx)
    gb = ghost_components(b, ctx)
    if op == "add":
        gc = [ctx.add(x, y) for x, y in zip(ga, gb)]
    elif op == "mul":
        gc = [ctx.mul(x, y) for x, y in zip(ga, gb)]
    elif op == "sub":
        gc = [ctx.add(x, ctx.neg(y)) for x, y in zip(ga, gb)]
    else:
        raise WittError(f"unknown Witt operation {op!r}")
    coords = _unwind(gc, a.p, ctx)
    return WittVector(a.p, tuple(ctx.reduce(c) for c in coords), a.ring)


def witt_add(a: WittVector, b: WittVector) -> WittVector:
    return witt_arith("add", a, b)


def witt_mul(a: WittVector, b: WittVector) -> WittVector:
    return witt_arith("mul", a, b)


def witt_int_mul(k: int, a: WittVector) -> WittVector:
    ctx = lift_context(a.ring)
    ghosts = [ctx.int_mul(k, g) for g in ghost_components(a, ctx)]
    coords = _unwind(ghosts, a.p, ctx)
    return WittVector(a.p, tuple(ctx.reduce(c) for c in coords), a.ring)


def frobenius_witt(a: WittVector) -> WittVector:
    """Ghost-wise shift; the length drops by one."""
    if a.length < 2:
        raise WittError("Frobenius needs length at least 2")
    ctx = lift_context(a.ring)
    ghosts = ghost_components(a, ctx)[1:]
    coords = _unwind(ghosts, a.p, ctx)
    return WittVector(a.p, tuple(ctx.reduce(c) for c in coords), a.ring)


def verschiebung(a: WittVector) -> WittVector:
    """Coordinate shift; the length grows by one (capped)."""
    zero = a.ring.zero
    coords = (zero,) + a.coords
    if len(coords) > WITT_LENGTH_CAP:
        coords = coords[:WITT_LENGTH_CAP]
    return WittVector(a.p, coords, a.ring)


def witt_map(hom, target_ring, a: WittVector) -> WittVector:
    """Coordinate-wise functoriality: a ring map of coefficient rings induces
    a ring map of the Witt rings."""
    return WittVector(a.p, tuple(hom(c) for c in a.coords), target_ring)


# -- tilting ---------------------------------------------------------------------

class TiltResult:
    __slots__ = ("ring", "depth", "embed")

    def __init__(self, ring: FiniteRing, depth: int, embed):
        self.ring = ring
        self.depth = depth
        self.embed = embed      # the ring's isomorphism onto F^e(R) inside R

    def project(self, k: int, x):
        """The stage-k component of x: the y with y^(p^k) = x, read off the
        Frobenius orbit of x, which is a cycle once the tilt is perfect."""
        p, orbit = self.ring.characteristic, [x]
        while len(orbit) <= self.ring.cardinality:
            if (y := orbit[-1] ** p) == x:
                return orbit[-k % len(orbit)]
            orbit.append(y)
        raise WittError(f"{x} lies on no Frobenius cycle of {self.ring.name}")


def tilt(ring: FiniteRing, depth: int | None = None) -> TiltResult:
    """Inverse limit along Frobenius.  In characteristic p, F^e: x -> x^(p^e)
    is a ring map with kernel K_e = {x in Nil(R) : x^(p^e) = 0}, so its
    image F^e(R) is R/K_e through [y] -> y^(p^e).  The image chain stops
    shrinking at the least e0 with K_e0 = Nil(R); there it is R/Nil(R),
    which is perfect, so for a finite ring the tilt is R/Nil(R), reached
    after e0 + 1 steps.  `depth` caps the steps, and the result is then
    F^e(R) for e = min(e0, steps)."""
    p = ring.characteristic
    if p < 2 or any(p % d == 0 for d in range(2, p)):
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

    def times_int(self, k: int):
        return NormedElement(self.parent,
                             {e: (c * k) % self.parent.p
                              for e, c in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers not supported")
        result = self.parent.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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

    def key(self):
        return tuple(sorted(self.terms.items()))

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
