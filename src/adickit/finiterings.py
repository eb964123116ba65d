"""Finite commutative test rings with full element enumeration.

A ring is a free Z/m_1 x ... x Z/m_k additive group with commutative,
associative structure constants on the basis; multiplication extends
bilinearly, so verifying the axioms on basis tuples verifies them everywhere.
Builders cover Z/m, GF(p^k), quotients F_p[x_1..x_k]/I and finite products of
cardinality <= 4096, which is exactly the test-ring zoo the infinitesimal
classifiers quantify over.  Equal builder calls return the same ring object,
so per-ring data (inverses, nilradical, ideal lattice, divided powers) is
computed once per process.  The cap belongs to the builders, not to
FiniteRing: the exhaustive classifier in `differentials` builds its larger
B = R[X]/(f) from the same structure constants (`quotient_structure`) and
decides its questions about subgroups of B with the diagonal form of
integer lattices that also builds quotients R/I (`hom_kernel`,
`spans_group`).
A ring of at most TABLE_CAP elements adds and multiplies by lookup in a
Cayley table built on first use; larger rings multiply through the
structure constants.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import gcd, prod

from .groebner import (buchberger, is_unit_ideal, is_zero_dimensional,
                       normal_form, staircase_for)
from .poly import Poly, exp_mul, grevlex_key, render_poly

CARDINALITY_CAP = 4096
TABLE_CAP = 256     # rings up to this size add and multiply by table lookup


class FiniteRingElement:
    __slots__ = ("parent", "coords")

    def __init__(self, parent: "FiniteRing", coords: tuple):
        self.parent = parent
        self.coords = coords

    def _check(self, other):
        if self.parent is not other.parent:
            raise ValueError("elements of different rings")

    def __add__(self, other: "FiniteRingElement") -> "FiniteRingElement":
        self._check(other)
        parent = self.parent
        table = parent._table or parent._cayley()
        if table:
            index = table.index
            return table.elements[
                table.add[index[self.coords]][index[other.coords]]]
        return FiniteRingElement(parent, tuple([
            (a + b) % m for a, b, m in zip(self.coords, other.coords,
                                           parent.moduli)]))

    def __neg__(self) -> "FiniteRingElement":
        return FiniteRingElement(self.parent, tuple([
            -a % m for a, m in zip(self.coords, self.parent.moduli)]))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "FiniteRingElement") -> "FiniteRingElement":
        self._check(other)
        parent = self.parent
        table = parent._table or parent._cayley()
        if table:
            index = table.index
            return table.elements[
                table.mul[index[self.coords]][index[other.coords]]]
        return FiniteRingElement(parent,
                                 parent._product(self.coords, other.coords))

    def times_int(self, k: int) -> "FiniteRingElement":
        m = self.parent.moduli
        return FiniteRingElement(self.parent, tuple(
            (a * k) % m[i] for i, a in enumerate(self.coords)))

    def __pow__(self, k: int) -> "FiniteRingElement":
        if k < 0:
            return self.inverse() ** (-k)
        result = self.parent.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "FiniteRingElement":
        inv = self.parent._inverse_of(self)
        if inv is None:
            raise ZeroDivisionError(f"{self} is not a unit in {self.parent.name}")
        return inv

    def is_unit(self) -> bool:
        return self.parent._inverse_of(self) is not None

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteRingElement):
            return NotImplemented
        return self.parent is other.parent and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)    # __eq__ tells rings apart

    def key(self) -> tuple:
        """Deterministic sort key."""
        return self.coords

    def __repr__(self) -> str:
        return self.parent.render(self)


class FiniteRing:
    def __init__(self, moduli: tuple, basis_products: tuple, one_coords: tuple,
                 name: str, basis_names: tuple, is_field: bool | None = None,
                 lift_model=None):
        self.moduli = moduli
        self.basis_products = basis_products
        self.one_coords = one_coords
        self.name = name
        self.basis_names = basis_names
        self._is_field = is_field
        self.lift_model = lift_model
        self._table = None              # _Cayley, built on first use
        self._inverses: dict = {}
        self._nilradical = None
        self._nil_ideals = None         # memo of enumerate_nilpotent_ideals
        self._pd_structures: dict = {}  # ideal -> enumerate_pd_structures
        self._quotients: dict = {}      # (ideal, name) -> quotient_ring
        self.cardinality = prod(moduli)
        self.zero = FiniteRingElement(self, (0,) * len(moduli))
        self.one = FiniteRingElement(self, one_coords)
        # the additive generators: unit coordinate vectors
        self.basis = [FiniteRingElement(self, tuple(int(j == i)
                                                    for j in range(len(moduli))))
                      for i in range(len(moduli))]
        self._verify_basis_axioms()

    def _product(self, x: tuple, y: tuple) -> tuple:
        """Coordinates of the product, extended bilinearly from the
        structure constants."""
        acc = [0] * len(self.moduli)
        for i, a in enumerate(x):
            if a == 0:
                continue
            row = self.basis_products[i]
            for j, b in enumerate(y):
                if b == 0:
                    continue
                ab = a * b
                for k, c in enumerate(row[j]):
                    if c:
                        acc[k] += ab * c
        return tuple([c % m for c, m in zip(acc, self.moduli)])

    # Bilinearity of the product reduces commutativity/associativity and the
    # unit on all tuples to the basis tuples, so this check is exhaustive in
    # effect.  It runs on the structure constants: a Cayley table is built
    # from them and could only be checked against itself.  Commutativity is
    # symmetry of P (e_i e_j = P[i][j]); given it, associativity on (k, j, i)
    # is associativity on (i, j, k), and on (i, j, i) it holds outright.
    def _verify_basis_axioms(self):
        mul, P = self._product, self.basis_products
        basis = [b.coords for b in self.basis]
        n = len(basis)
        if any(P[i][j] != P[j][i] for i in range(n) for j in range(i)):
            raise ValueError(f"{self.name}: basis product not commutative")
        if any(mul(P[i][j], basis[k]) != mul(basis[i], P[j][k])
               for i in range(n) for j in range(n) for k in range(i + 1, n)):
            raise ValueError(f"{self.name}: basis product not associative")
        for b in basis:
            if mul(self.one_coords, b) != b:
                raise ValueError(f"{self.name}: unit fails on basis")

    def _cayley(self):
        """The ring's Cayley table, built on first use, or None above
        TABLE_CAP.  Racing threads build equal tables; each is published by
        one assignment."""
        if self._table is None and self.cardinality <= TABLE_CAP:
            self._table = _Cayley(self)
        return self._table

    def element(self, coords) -> FiniteRingElement:
        return FiniteRingElement(self, tuple(
            c % m for c, m in zip(coords, self.moduli)))

    def from_int(self, n: int) -> FiniteRingElement:
        return self.one.times_int(n)

    def elements(self):
        """Every element, in key order."""
        table = self._table or self._cayley()
        if table:
            return iter(table.elements)
        return (FiniteRingElement(self, c)
                for c in iproduct(*(range(m) for m in self.moduli)))

    @property
    def characteristic(self) -> int:
        order = 1
        for c, m in zip(self.one_coords, self.moduli):
            if c:
                o = m // gcd(m, c)
                order = order * o // gcd(order, o)
        return order

    def _inverse_of(self, x: FiniteRingElement):
        if x.coords in self._inverses:
            return self._inverses[x.coords]
        found = None
        for y in self.elements():
            if x * y == self.one:
                found = y
                break
        self._inverses[x.coords] = found
        return found

    @property
    def is_field(self) -> bool:
        """A finite commutative ring is a product of local rings
        (Atiyah-Macdonald, ch. 8), so it is a field iff it is reduced and
        has no idempotent but 0 and 1.  It is reduced iff no nonzero x has
        x^2 = 0: if x^k = 0 with k >= 2 least, x^ceil(k/2) squares to 0."""
        if self._is_field is None:
            one = self.one
            squares = ((x, x * x) for x in self.elements() if x)
            self._is_field = all(sq and (sq != x or x == one)
                                 for x, sq in squares)
        return self._is_field

    def render(self, x: FiniteRingElement) -> str:
        parts = []
        for c, name in zip(x.coords, self.basis_names):
            if c == 0:
                continue
            if name == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(name)
            else:
                parts.append(f"{c}*{name}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"FiniteRing({self.name}, {self.cardinality} elements)"


class _Cayley:
    """Addition and multiplication of a small ring by index lookup.

    `elements` lists the ring's elements, interned, in key order, and
    `index` maps coordinates to positions in it; `add` and `mul` are n x n
    tables of result indices (`mul[i][j]` is the index of
    elements[i] * elements[j]).

    The tables are filled by bilinearity rather than n^2 structure-constant
    products.  For y != 0 with last nonzero coordinate k, y - e_k has index
    index(y) - stride_k, so x + y = succ_k(x + (y - e_k)) with succ_k the
    successor in coordinate k, and x * y = x * (y - e_k) + x * e_k: only
    the n * (number of coordinates) products x * e_k use the structure
    constants.  Both operations are commutative, so a column is computed as
    a row."""
    __slots__ = ("elements", "index", "add", "mul")

    def __init__(self, ring: FiniteRing):
        moduli = ring.moduli
        coords = list(iproduct(*(range(m) for m in moduli)))
        index = {c: i for i, c in enumerate(coords)}
        n = len(coords)
        strides = [prod(moduli[k + 1:]) for k in range(len(moduli))]
        succ = [[i + s if c[k] < m - 1 else i - (m - 1) * s
                 for i, c in enumerate(coords)]
                for k, (m, s) in enumerate(zip(moduli, strides))]
        times_e = [[index[ring._product(c, e.coords)] for c in coords]
                   for e in ring.basis]
        last = [max(k for k, a in enumerate(c) if a) for c in coords[1:]]
        add = [list(range(n))]
        for y, k in enumerate(last, 1):
            step = succ[k]
            add.append([step[v] for v in add[y - strides[k]]])
        mul = [[0] * n]
        for y, k in enumerate(last, 1):
            mul.append([add[a][b]
                        for a, b in zip(mul[y - strides[k]], times_e[k])])
        self.elements = [FiniteRingElement(ring, c) for c in coords]
        self.index = index
        self.add = add
        self.mul = mul


def nilradical(ring) -> frozenset:
    """The set of nilpotent elements of a finite ring (its unique maximal
    nilpotent ideal), computed once per ring: x is nilpotent iff
    x^(2^e) = 0 for 2^e >= |R|."""
    if ring._nilradical is None:
        e = 1
        while (1 << e) < ring.cardinality:
            e += 1
        nil = []
        for x in ring.elements():
            y = x
            for _ in range(e):
                y = y * y
            if not y:
                nil.append(x)
        ring._nilradical = frozenset(nil)
    return ring._nilradical


# -- builders ---------------------------------------------------------------

def _check_cardinality(cardinality: int) -> None:
    """Test rings are enumerated element by element, so their size is
    capped."""
    if cardinality > CARDINALITY_CAP:
        raise ValueError(
            f"cardinality {cardinality} exceeds cap {CARDINALITY_CAP}")


_INTERNED: dict = {}


def _interned(moduli: tuple, basis_products: tuple, one_coords: tuple,
              name: str, basis_names: tuple, **kwargs) -> FiniteRing:
    """The one FiniteRing with this structure and these names, so per-ring
    memos are computed once per process."""
    key = (moduli, basis_products, one_coords, name, basis_names)
    ring = _INTERNED.get(key)
    if ring is None:
        _check_cardinality(prod(moduli))
        # setdefault keeps one winner when threads race here
        ring = _INTERNED.setdefault(key, FiniteRing(*key, **kwargs))
    return ring


@lru_cache(maxsize=None)
def zmod(m: int) -> FiniteRing:
    if m < 2:
        raise ValueError("Zmod(m) needs m >= 2")
    is_prime = m > 1 and all(m % d for d in range(2, int(m ** 0.5) + 1))
    return _interned((m,), (((1,),),), (1,), f"Zmod({m})", ("1",),
                     is_field=is_prime, lift_model=("int",))


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of univariate num by monic den over F_p (coefficient lists,
    index = degree)."""
    num = [c % p for c in num]
    d = len(den) - 1
    while len(num) >= len(den):
        lead = num[-1]
        if lead:
            shift = len(num) - len(den)
            for i, c in enumerate(den):
                num[shift + i] = (num[shift + i] - lead * c) % p
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def _monic_polys(p: int, degree: int):
    def rec(i, acc):
        if i == degree:
            yield acc + [1]
            return
        for c in range(p):
            yield from rec(i + 1, acc + [c])
    yield from rec(0, [])


def _find_irreducible(p: int, k: int) -> list[int]:
    for cand in _monic_polys(p, k):
        reducible = False
        for d in range(1, k // 2 + 1):
            for div in _monic_polys(p, d):
                if not _poly_mod(list(cand), div, p):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return cand
    raise RuntimeError("no irreducible polynomial found")  # unreachable


@lru_cache(maxsize=None)
def gf(p: int, k: int = 1) -> FiniteRing:
    """The field with p^k elements, k <= 4, via a fixed irreducible polynomial."""
    if not zmod(p).is_field:
        raise ValueError(f"GF({p}) needs a prime")
    if k == 1:
        return zmod(p)
    if k > 4:
        raise ValueError("GF(p,k) supported for k <= 4")
    modulus = _find_irreducible(p, k)
    basis_products = []
    for i in range(k):
        row = []
        for j in range(k):
            prod = [0] * (i + j) + [1]
            rem = _poly_mod(prod, modulus, p)
            rem += [0] * (k - len(rem))
            row.append(tuple(rem))
        basis_products.append(tuple(row))
    names = tuple("1" if i == 0 else ("x" if i == 1 else f"x^{i}")
                  for i in range(k))
    return _interned((p,) * k, tuple(basis_products), (1,) + (0,) * (k - 1),
                     f"GF({p},{k})", names, is_field=True,
                     lift_model=("intpoly", tuple(modulus)))


def quotient_structure(base: FiniteRing, basis: list[Poly], stairs: list,
                       varnames: tuple) -> tuple:
    """Structure constants of base[X]/(basis) for a Groebner basis with unit
    leading coefficients, whose quotient is free on its staircase `stairs`
    (sorted).  The additive basis is (staircase monomial) x (additive basis
    of base), in that order.  Returns the moduli, basis products,
    coordinates of 1 and basis names that make a FiniteRing, and the map
    from a polynomial to the coordinates of its normal form."""
    k = len(base.moduli)
    nvars = len(varnames)
    offset = {m: i * k for i, m in enumerate(stairs)}

    def coords(poly: Poly) -> tuple:
        out = [0] * (k * len(stairs))
        for e, c in normal_form(poly, basis).terms.items():
            out[offset[e]:offset[e] + k] = c.coords
        return tuple(out)

    pairs = [(m, e) for m in stairs for e in base.basis]
    products = tuple(
        tuple(coords(Poly(nvars, {exp_mul(mi, mj): ei * ej}))
              for mj, ej in pairs)
        for mi, ei in pairs)

    def name(m, ring_name):
        mono = "*".join(f"{varnames[i]}^{d}" if d > 1 else varnames[i]
                        for i, d in enumerate(m) if d)
        if not mono or ring_name == "1":
            return mono or ring_name
        return f"{mono}*{ring_name}"

    names = tuple(name(m, r) for m in stairs for r in base.basis_names)
    return (base.moduli * len(stairs), products,
            coords(Poly.constant(base.one, nvars)), names, coords)


_FP_QUOTIENTS: dict = {}


def fp_quotient(p: int, varnames: tuple, relations: list[Poly]) -> FiniteRing:
    """F_p[x_1..x_k]/(relations) when the quotient is finite and within the
    cardinality cap.  Equal arguments give the same interned ring without
    running Buchberger again."""
    base = gf(p, 1)
    nvars = len(varnames)

    def to_base(c):
        if isinstance(c, FiniteRingElement):
            if c.parent is base:
                return c
            if c.parent.moduli == (p,):
                return base.from_int(c.coords[0])
            raise ValueError("relation coefficients must lie in the prime field")
        if isinstance(c, Fraction):
            if c.denominator % p == 0:
                raise ValueError("coefficient denominator divisible by p")
            return base.from_int(c.numerator * pow(c.denominator, -1, p))
        return base.from_int(int(c))

    gens = []
    for rel in relations:
        if rel.nvars != nvars:
            raise ValueError("relation variable count mismatch")
        gens.append(rel.map_coeffs(to_base))
    key = (p, tuple(varnames), tuple(gens))
    ring = _FP_QUOTIENTS.get(key)
    if ring is None:
        # setdefault keeps one winner when threads race here
        ring = _FP_QUOTIENTS.setdefault(key, _fp_quotient(p, varnames, gens))
    return ring


def _fp_quotient(p: int, varnames: tuple, gens: list[Poly]) -> FiniteRing:
    nvars = len(varnames)
    basis = buchberger(gens)
    if is_unit_ideal(basis):
        raise ValueError("relations generate the unit ideal (zero ring)")
    if not is_zero_dimensional(basis, nvars):
        raise ValueError("quotient is not finite over F_p")
    # the staircase is finite; a degree bound of sum of leading degrees is safe
    bound = sum(g.total_degree() for g in basis) + 1 if basis else 1
    stairs = staircase_for(nvars, basis, bound)
    _check_cardinality(p ** len(stairs))   # before the product table
    moduli, products, one, names, _ = quotient_structure(
        gf(p, 1), basis, sorted(stairs, key=grevlex_key), varnames)
    rel_txt = ",".join(render_poly(g, varnames) for g in gens)
    return _interned(moduli, products, one,
                     f"GF({p})[{','.join(varnames)}]/({rel_txt})", names)


def product_ring(a: FiniteRing, b: FiniteRing) -> FiniteRing:
    ka, kb = len(a.moduli), len(b.moduli)
    products = []
    for i in range(ka + kb):
        row = []
        for j in range(ka + kb):
            if i < ka and j < ka:
                row.append(a.basis_products[i][j] + (0,) * kb)
            elif i >= ka and j >= ka:
                row.append((0,) * ka + b.basis_products[i - ka][j - ka])
            else:
                row.append((0,) * (ka + kb))
        products.append(tuple(row))
    lift = None
    if a.lift_model and b.lift_model:
        lift = ("product", a, b)
    return _interned(a.moduli + b.moduli, tuple(products),
                     a.one_coords + b.one_coords,
                     f"Prod({a.name},{b.name})",
                     tuple(f"({n},0)" for n in a.basis_names)
                     + tuple(f"(0,{n})" for n in b.basis_names),
                     is_field=False, lift_model=lift)


def dual_numbers(p: int) -> FiniteRing:
    """F_p[eps]/(eps^2)."""
    one = gf(p, 1).one
    eps_sq = Poly(1, {(2,): one})
    return fp_quotient(p, ("eps",), [eps_sq])


# -- ideals and quotients ----------------------------------------------------

def subgroup_tree(zero, gens, add=operator.add) -> dict:
    """Subgroup of a finite abelian group generated by gens, as a search
    tree: each element maps to the generator g it was reached by (its parent
    is element - g), zero maps to None.  In a finite group every -g is a
    multiple of g, so adding generators alone closes the subgroup."""
    gens = [g for g in dict.fromkeys(gens) if g != zero]
    tree = {zero: None}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = add(x, g)
            if y not in tree:
                tree[y] = g
                frontier.append(y)
    return tree


def additive_closure(ring, gens) -> frozenset:
    """Subgroup of (R,+) generated by gens."""
    return frozenset(subgroup_tree(ring.zero, gens))


def ideal_generated(ring, gens) -> frozenset:
    """Ideal of a finite ring generated by gens: the additive span of the
    e * g for e in the additive basis, since R is spanned by that basis."""
    return additive_closure(ring, [e * g for g in gens for e in ring.basis])


def is_ideal(ring, subset: frozenset) -> bool:
    if ring.zero not in subset:
        return False
    for x in subset:
        for y in subset:
            if x + y not in subset:
                return False
        for r in ring.elements():
            if r * x not in subset:
                return False
    return True


def _diagonal_form(rows: list, n: int) -> tuple:
    """Diagonalise the lattice L in Z^n spanned by `rows`: d, the columns of
    a unimodular V and the rows of V^-1 with L.V = d_1 Z + ... + d_r Z, r
    the rank of L.  For full rank, x -> x.V mod d maps Z^n/L onto
    Z/d_1 x ... x Z/d_n and y -> y.V^-1 lifts back; below it, the columns
    of V past r span the integer vectors orthogonal to every row.  Row
    operations (untracked) and column operations (tracked) on the entry of
    least absolute value: the Smith normal form without its divisibility
    step (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.4.14)."""
    a = [list(r) for r in rows if any(r)]
    cols = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [c[:] for c in cols]
    d = []
    for k in range(n):
        if not a:
            break
        while True:
            _, i, j = min((abs(r[j]), i, j) for i, r in enumerate(a)
                          for j in range(k, n) if r[j])
            a[0], a[i] = a[i], a[0]
            for r in a:
                r[k], r[j] = r[j], r[k]
            cols[k], cols[j] = cols[j], cols[k]
            inv[k], inv[j] = inv[j], inv[k]
            pivot, done = a[0][k], True
            for r in a[1:]:
                q = r[k] // pivot
                if q:
                    for c in range(k, n):
                        r[c] -= q * a[0][c]
                done = done and not r[k]
            for j in range(k + 1, n):
                q = a[0][j] // pivot
                if q:
                    for r in a:
                        r[j] -= q * r[k]
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[k])]
                    inv[k] = [x + q * y for x, y in zip(inv[k], inv[j])]
                done = done and not a[0][j]
            if done:
                break
        d.append(abs(a.pop(0)[k]))
        a = [r for r in a if any(r[k + 1:])]
    return d, cols, inv


def _moduli_rows(moduli: tuple) -> list:
    """The rows m_i e_i spanning the kernel of Z^k -> Z/m_1 x ... x Z/m_k."""
    return [[m * (i == j) for j in range(len(moduli))]
            for i, m in enumerate(moduli)]


def spans_group(vectors, moduli: tuple) -> bool:
    """Do these coordinate vectors generate all of Z/m_1 x ... x Z/m_k?
    With the moduli rows the lattice has full rank, and it is Z^k iff every
    diagonal entry is 1."""
    d, _, _ = _diagonal_form(list(vectors) + _moduli_rows(moduli),
                             len(moduli))
    return all(x == 1 for x in d)


def hom_kernel(rows, in_mods: tuple, out_mods: tuple) -> list:
    """Nonzero generators of the kernel of the homomorphism
    Z/in_mods -> Z/out_mods (products of cyclic groups) that sends the i-th
    unit vector to rows[i].  v is in it iff (v, y) is in the integer left
    kernel of [rows; diag(out_mods)] for some y: the columns of V past the
    rank in the diagonal form of the transpose, cut to v and reduced."""
    a = list(rows) + _moduli_rows(out_mods)
    d, cols, _ = _diagonal_form(list(zip(*a)), len(a))
    kernel = (tuple(x % m for x, m in zip(col, in_mods))
              for col in cols[len(d):])
    return [v for v in kernel if any(v)]


def quotient_ring(ring, ideal: frozenset, name: str | None = None) -> tuple:
    """R/I as a FiniteRing with the projection R -> R/I and a section
    R/I -> R, built once per (ring, ideal, name).  Its coordinates are
    those of x.V mod d for the diagonal form of the lattice spanned by I
    and the moduli of R, dropping every d_i = 1; the zero ideal gives R
    itself with identity maps."""
    key = (ideal, name)
    if key not in ring._quotients:
        ring._quotients[key] = _quotient(ring, ideal, name)
    return ring._quotients[key]


def _quotient(ring, ideal: frozenset, name: str | None) -> tuple:
    if len(ideal) == 1:
        return ring, _identity, _identity
    moduli, n = ring.moduli, len(ring.moduli)
    d, cols, inv = _diagonal_form(
        [x.coords for x in ideal] + _moduli_rows(moduli), n)
    keep = [i for i in range(n) if d[i] > 1]
    cols = [cols[i] for i in keep]
    mods = tuple(d[i] for i in keep)

    def coords(x: tuple) -> tuple:
        return tuple([sum(a * v for a, v in zip(x, col)) % m
                      for col, m in zip(cols, mods)])

    lifts = [tuple(c % m for c, m in zip(inv[i], moduli)) for i in keep]
    products = tuple(tuple(coords(ring._product(u, v)) for v in lifts)
                     for u in lifts)
    names = []
    for u in lifts:
        text = ring.render(FiniteRingElement(ring, u))
        names.append(f"({text})" if " + " in text else text)
    quotient = FiniteRing(mods, products, coords(ring.one_coords),
                          name or f"{ring.name}/I{len(ideal)}", tuple(names))

    def project(x: FiniteRingElement) -> FiniteRingElement:
        return FiniteRingElement(quotient, coords(x.coords))

    def lift(y: FiniteRingElement) -> FiniteRingElement:
        return ring.element([sum(c * u[i] for c, u in zip(y.coords, lifts))
                             for i in range(n)])

    return quotient, project, lift


def _identity(x):
    return x


def reduced_ring(ring) -> tuple:
    """R/Nil(R) together with the projection."""
    quotient, project, _ = quotient_ring(ring, nilradical(ring),
                                         name=f"{ring.name}_red")
    return quotient, project


def canonical_scalar_map(base, ring):
    """The canonical coefficient map base -> ring when one exists.

    base may be None (integers), a Zmod/GF(p,1) prime ring, or the target
    itself.  Returns a callable on coefficients (ints/Fractions for the
    integer base, ring elements otherwise) or None.
    """
    if base is None:
        def from_integer(c):
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise ValueError("integer base cannot map a fraction")
                c = c.numerator
            return ring.from_int(int(c))
        return from_integer
    if base is ring:
        return lambda c: c
    if isinstance(base, FiniteRing) and len(base.moduli) == 1:
        m = base.moduli[0]
        if ring.characteristic != 0 and m % ring.characteristic == 0:
            return lambda c: ring.from_int(c.coords[0])
        return None
    return None
