"""Point functors over finite test rings and the lifting-route classifiers.

The de Rham point set of a presentation over a finite ring R is its point set
over R/Nil(R): the colimit over nilpotent ideals stabilizes at the nilradical,
the largest one.  The crystalline point set runs instead over pairs (I, gamma)
of a nilpotent ideal with a divided-power structure, ordered by PD-compatible
inclusion, and is computed as explicit equivalence classes.  On a ring of
p-power order a divided-power structure is the one map gamma_p, solved for
on additive generators of the ideal from cosets of its p-torsion.

A morphism is etale / lisse / non-ramifie in the lifting sense when the
canonical map from its points to its completed points is bijective /
surjective / injective over every supplied test ring; the verdict quantifies
only over the supplied corpus and the evidence says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import comb, factorial, prod

from .finiterings import (FiniteRing, additive_closure, canonical_scalar_map,
                          ideal_generated, nilradical, quotient_ring,
                          reduced_ring, subgroup_tree)
from .poly import Poly
from .tate import (IntegerBase, MorphismPresentation, PresentationError,
                   RingPresentation)

POINT_SEARCH_CAP = 1_000_000
PD_IDEAL_CAP = 16
PD_SEARCH_CAP = 4096


def _scalar_map(pres: RingPresentation, ring):
    base = pres.base
    if isinstance(base, IntegerBase):
        return canonical_scalar_map(None, ring)
    if isinstance(base, FiniteRing):
        return canonical_scalar_map(base, ring)
    return None


def admits_base_map(pres: RingPresentation, ring) -> bool:
    return _scalar_map(pres, ring) is not None


@dataclass
class PointSet:
    pres: RingPresentation
    ring: object
    points: tuple          # sorted tuples of ring elements
    label: str = ""

    def __len__(self):
        return len(self.points)

    def keys(self) -> list:
        return [tuple(e.key() for e in pt) for pt in self.points]


def point_set(pres: RingPresentation, ring, base_map=None) -> PointSet:
    """All base-compatible homomorphisms pres -> ring, by a depth-first
    search over the variables in order that tests each relation as soon as
    its last variable is fixed.  Candidates run in key order, so the points
    come out sorted by their keys."""
    coeff = base_map or _scalar_map(pres, ring)
    if coeff is None:
        raise PresentationError(
            f"no base map from {pres.base} to {ring.name}")
    n = pres.nvars
    if ring.cardinality ** n > POINT_SEARCH_CAP:
        raise PresentationError("point search space exceeds the cap")
    stages, top, consistent = _stage_relations(pres.gens, n, coeff)
    elems = sorted(ring.elements(), key=lambda e: e.key())
    # powers[j][k] = elems[j] ** k for every exponent a fixed variable takes
    powers = []
    for x in elems:
        row = [ring.one]
        for _ in range(top):
            row.append(row[-1] * x)
        powers.append(row)
    zero = ring.zero
    points = []
    prefix: list = []           # indices into elems of the fixed variables

    def value(terms):
        total = zero
        for c, factors in terms:
            for i, k in factors:
                c = c * powers[prefix[i]][k]
            total = total + c
        return total

    def search(d: int):
        if d == n:
            points.append(tuple(elems[j] for j in prefix))
            return
        # each relation as its coefficients in x_d, highest power first
        tests = [[value(terms) for terms in reversed(rel)]
                 for rel in stages[d]]
        for j, x in enumerate(elems):
            for coeffs in tests:
                acc = coeffs[0]
                for a in coeffs[1:]:
                    acc = acc * x + a
                if acc:
                    break
            else:
                prefix.append(j)
                search(d + 1)
                prefix.pop()

    if consistent:
        search(0)
    return PointSet(pres, ring, tuple(points), f"X({ring.name})")


def _stage_relations(gens: list, n: int, coeff):
    """Map every coefficient into the ring once and bucket each relation by
    its last variable: stages[d] lists the relations whose highest variable
    with a nonzero term is x_d, each as a list over the powers k of x_d of
    the terms [(coefficient, ((i, e_i), ...)), ...] in x_0..x_{d-1} that
    multiply x_d^k.  Also returns the highest exponent of a variable below
    the last one, and False when a relation with no variable is nonzero."""
    stages = [[] for _ in range(n)]
    top = 0
    consistent = True
    for g in gens:
        terms = []
        for e, c in g.terms.items():
            c = coeff(c)
            if c:
                terms.append((e, c))
        if not terms:
            continue
        last = max((i for e, _ in terms for i in range(n) if e[i]),
                   default=-1)
        if last < 0:
            consistent = False
            continue
        rel = [[] for _ in range(max(e[last] for e, _ in terms) + 1)]
        for e, c in terms:
            factors = tuple((i, k) for i, k in enumerate(e[:last]) if k)
            top = max([top, *(k for _, k in factors)])
            rel[e[last]].append((c, factors))
        stages[last].append(rel)
    return stages, top, consistent


def de_rham_point_set(pres: RingPresentation, ring,
                      base_map=None) -> PointSet:
    """Points over R/Nil(R); in a finite ring the filtered colimit over
    nilpotent ideals stabilizes at the nilradical."""
    red, project = reduced_ring(ring)
    reduced_map = None
    if base_map is not None:
        reduced_map = lambda c: project(base_map(c))  # noqa: E731
    ps = point_set(pres, red, reduced_map)
    ps.label = f"X({ring.name}/Nil)"
    return ps


# -- nilpotent ideals and divided powers --------------------------------------

def nilpotency_exponent(gens) -> int:
    """Smallest e with I^e = 0, for the ideal I additively spanned by gens:
    I^e is additively spanned by the products of e generators, so it
    vanishes iff each of them does, and no closure is needed."""
    gens = [g for g in dict.fromkeys(gens) if g]
    power = gens                        # the nonzero products of e generators
    e = 1
    while power:
        power = list(dict.fromkeys(y for y in (a * g for a in power
                                               for g in gens) if y))
        e += 1
        if e > 64:
            raise ValueError("ideal does not look nilpotent")
    return e


def enumerate_nilpotent_ideals(ring) -> list[tuple[frozenset, int]]:
    """All ideals inside the nilradical, each with its nilpotency exponent;
    computed once per ring, returned as a fresh list.  Each ideal I found is
    grown by every principal ideal Rx of a nilpotent x that it does not
    contain: I + Rx is the additive span of I's additive generators and the
    e * x for e in the ring's additive basis, since I is already an ideal."""
    if ring._nil_ideals is None:
        principal: dict = {}            # Rx -> its additive generators
        for x in nilradical(ring):
            principal.setdefault(ideal_generated(ring, [x]),
                                 [e * x for e in ring.basis])
        zero_ideal = frozenset({ring.zero})
        seen = {zero_ideal: []}         # ideal -> its additive generators
        frontier = [zero_ideal]
        while frontier:
            ideal = frontier.pop()
            gens = seen[ideal]
            for rx, rx_gens in principal.items():
                if rx <= ideal:
                    continue
                grown = gens + [y for y in rx_gens if y not in ideal]
                bigger = additive_closure(ring, grown)
                if bigger not in seen:
                    seen[bigger] = grown
                    frontier.append(bigger)
        ideals = sorted(seen, key=lambda I: (len(I), sorted(x.key() for x in I)))
        ring._nil_ideals = [(I, nilpotency_exponent(seen[I]))
                            for I in ideals]
    return list(ring._nil_ideals)


@dataclass
class PDStructure:
    """Divided powers on a nilpotent ideal I of a ring of p-power order (a
    Z_(p)-algebra), kept as the one map gamma_p: I -> I that fixes them:
    gamma_{p^(j+1)} = u_j^-1 gamma_p(gamma_{p^j}), u_j = (p^(j+1))! /
    (p! (p^j)!^p), and gamma_n is prod_j gamma_{p^j}^a_j over the base-p
    digits a_j of n, divided by n! / prod_j (p^j)!^a_j; both integers are
    prime to p (Berthelot-Ogus, Notes on Crystalline Cohomology, section 3).
    p is None only on the zero ideal of a ring of other order."""
    ring: object
    ideal: tuple            # sorted elements
    p: int | None
    delta: dict             # gamma_p: {element: element}

    def gamma(self, n: int, x):
        R, p = self.ring, self.p
        if n == 0 or p is None:
            return R.one if n == 0 else R.zero
        char = R.characteristic
        value, weight, level, j, rest = R.one, 1, x, 0, n
        while rest:                             # level = gamma_{p^j}(x)
            rest, a = divmod(rest, p)
            value = value * level ** a
            weight *= factorial(p ** j) ** a
            u = factorial(p ** (j + 1)) // (factorial(p)
                                            * factorial(p ** j) ** p)
            level = self.delta[level].times_int(pow(u, -1, char))
            j += 1
        return value.times_int(pow(factorial(n) // weight, -1, char))

    def verify(self, top: int | None = None) -> bool:
        """Check every divided-power axiom for 1 <= n <= top (default p^3):
        gamma_n(x) in I, n! gamma_n(x) = x^n, and the sum, scalar, product
        and composition rules on all elements, pairs and scalars."""
        R, ideal = self.ring, self.ideal
        top = top or (self.p ** 3 if self.p else 1)
        members = set(ideal)
        scaled = [(a, [(x, a * x) for x in ideal]) for a in R.elements()]
        g = [{x: R.one for x in ideal}]         # g[n][x] = gamma_n(x)
        for n in range(1, top + 1):
            g.append({x: self.gamma(n, x) for x in ideal})
            for x in ideal:
                if g[n][x] not in members or \
                        g[n][x].times_int(factorial(n)) != x ** n:
                    return False
                if any(sum((g[i][x] * g[n - i][y] for i in range(n + 1)),
                           R.zero) != g[n][x + y] for y in ideal):
                    return False
            for a, products in scaled:
                an = a ** n
                if any(g[n][ax] != an * g[n][x] for x, ax in products):
                    return False
        for m in range(1, top + 1):
            for x in ideal:
                if any(g[m][x] * g[n][x] != g[m + n][x].times_int(
                        comb(m + n, n)) for n in range(1, top + 1 - m)):
                    return False
                if any(g[m][g[n][x]] != g[m * n][x].times_int(
                        factorial(m * n) // (factorial(m) * factorial(n) ** m))
                       for n in range(1, top // m + 1)):
                    return False
        return True

    def restricts_to(self, other: "PDStructure") -> bool:
        """Does self (on a larger ideal) restrict to other on its ideal?
        gamma_p fixes every level, so it is the one map compared."""
        return all(x in self.delta and self.delta[x] == other.delta[x]
                   for x in other.ideal)


def _additive_generators(ring, ideal: frozenset) -> list:
    gens, span = [], {ring.zero}
    for x in sorted(ideal, key=lambda e: e.key()):
        if x not in span:
            gens.append(x)
            span = additive_closure(ring, gens)
    return gens


def _prime_of(ring) -> int | None:
    """p when the ring has p-power order, else None."""
    n = ring.cardinality
    p = next((d for d in range(2, n + 1) if n % d == 0), None)
    while p and n % p == 0:
        n //= p
    return p if n == 1 else None


def enumerate_pd_structures(ring, ideal: frozenset) -> list[PDStructure]:
    """All divided-power structures on the ideal, by the gamma_p coset
    solver; computed once per (ring, ideal), returned as a fresh list."""
    if len(ideal) > PD_IDEAL_CAP:
        raise ValueError(f"ideal size {len(ideal)} exceeds PD cap {PD_IDEAL_CAP}")
    if ideal not in ring._pd_structures:
        ring._pd_structures[ideal] = _solve_pd_structures(ring, ideal)
    return list(ring._pd_structures[ideal])


def _solve_pd_structures(ring, ideal: frozenset) -> list[PDStructure]:
    """Over a Z_(p)-algebra, delta: I -> I is gamma_p of a divided-power
    structure iff (1) p! delta(x) = x^p, (2) delta(a x) = a^p delta(x) for
    a in R, and (3) delta(x + y) = delta(x) + delta(y) + S(x, y) with
    S(x, y) = sum_{0<i<p} x^i y^(p-i) / (i! (p-i)!) (Stacks Project,
    "Divided Power Algebra", divided powers on Z_(p)-algebras).  By (3),
    delta is fixed by its values on additive generators g of I, each from
    the coset {v in I : p! v = g^p} of I[p], which gives (1) on all of I.
    S is a 2-cocycle, so (3) on the pairs (x, g) gives it on all pairs; given
    (1) and (3), (2) is additive in a and in x, so the additive basis of R
    times the generators checks it."""
    elements = tuple(sorted(ideal, key=lambda x: x.key()))
    zero, p = ring.zero, _prime_of(ring)
    if len(elements) == 1:
        return [PDStructure(ring, elements, p, {zero: zero})]
    if p is None:
        raise ValueError(f"divided powers need a ring of prime-power order; "
                         f"{ring.name} has {ring.cardinality} elements")
    gens = _additive_generators(ring, ideal)
    cosets = [[v for v in elements if v.times_int(factorial(p)) == g ** p]
              for g in gens]
    count = prod(len(c) for c in cosets)
    if count > PD_SEARCH_CAP:
        raise ValueError(f"PD search on an ideal of size {len(ideal)} needs "
                         f"{count} candidates, over PD_SEARCH_CAP = "
                         f"{PD_SEARCH_CAP}")
    weights = {i: pow(factorial(i) * factorial(p - i), -1,
                      ring.characteristic) for i in range(1, p)}

    def cross(x, y):
        return sum(((x ** i * y ** (p - i)).times_int(w)
                    for i, w in weights.items()), zero)

    # delta along the subgroup tree by (3), parents first; then (3) on the
    # pairs (x, g) that are not tree edges, and (2)
    tree = subgroup_tree(zero, gens)
    edges = [(x, x - g, g, cross(x - g, g))
             for x, g in tree.items() if g is not None]
    pairs = [(x, g, x + g, cross(x, g))
             for x in elements for g in gens if tree[x + g] != g]
    scalars = [(a * g, a ** p, g) for a in ring.basis for g in gens]
    results = []
    for values in iproduct(*cosets):
        value = dict(zip(gens, values))
        delta = {zero: zero}
        for x, parent, g, s in edges:
            delta[x] = delta[parent] + value[g] + s
        if all(delta[xg] == delta[x] + value[g] + s
               for x, g, xg, s in pairs) and \
                all(delta[ag] == ap * value[g] for ag, ap, g in scalars):
            results.append(PDStructure(ring, elements, p, delta))
    return results


# -- crystalline point sets -----------------------------------------------------

@dataclass
class CrystallinePoints:
    pres: RingPresentation
    ring: object
    classes: list           # list of frozensets of (index, point-key) nodes
    index: list             # (ideal, PD, quotient_ring(R, ideal), PointSet)

    def __post_init__(self):
        self._class_of = {node: i for i, cls in enumerate(self.classes)
                          for node in cls}

    def __len__(self):
        return len(self.classes)

    def class_of(self, idx: int, pt: tuple) -> int:
        cls = self._class_of.get((idx, tuple(e.key() for e in pt)))
        if cls is None:
            raise KeyError("point not in any class")
        return cls


def crystalline_point_set(pres: RingPresentation, ring,
                          base_map=None) -> CrystallinePoints:
    """Equivalence classes of (nilpotent PD ideal, point over the quotient)
    under the PD-compatible reduction identifications."""
    index = []
    for ideal, _e in enumerate_nilpotent_ideals(ring):
        if len(ideal) > PD_IDEAL_CAP:
            continue
        structures = enumerate_pd_structures(ring, ideal)
        if not structures:
            continue
        quot = quotient_ring(ring, ideal)      # (R/I, project, lift)
        qmap = None
        if base_map is not None:
            qmap = lambda c: quot[1](base_map(c))  # noqa: E731
        pts = point_set(pres, quot[0], qmap)
        index.extend((ideal, pd, quot, pts) for pd in structures)

    # union-find over (index, point) nodes
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for i, (_, _, _, pts) in enumerate(index):
        for pt in pts.points:
            node = (i, tuple(e.key() for e in pt))
            parent[node] = node

    for i, (ideal_i, pd_i, (_, _, lift_i), pts_i) in enumerate(index):
        for j, (ideal_j, pd_j, (_, project_j, _), pts_j) in enumerate(index):
            if i == j or not set(ideal_i) <= set(ideal_j):
                continue
            if not pd_j.restricts_to(pd_i):
                continue
            available = {tuple(e.key() for e in pt) for pt in pts_j.points}
            for pt in pts_i.points:
                pushed = tuple(project_j(lift_i(e)) for e in pt)
                pkey = tuple(e.key() for e in pushed)
                if pkey in available:
                    union((i, tuple(e.key() for e in pt)), (j, pkey))

    classes: dict = {}
    for node in parent:
        root = find(node)
        classes.setdefault(root, set()).add(node)
    ordered = sorted((frozenset(v) for v in classes.values()),
                     key=lambda cls: sorted(cls))
    return CrystallinePoints(pres, ring, ordered, index)


# -- the lifting classifier ------------------------------------------------------

def _as_morphism(arg) -> MorphismPresentation:
    if isinstance(arg, MorphismPresentation):
        return arg
    if isinstance(arg, RingPresentation):
        if arg.parent is not None:
            return MorphismPresentation.inclusion(arg.parent, arg)
        empty = RingPresentation(arg.base, (), [], arg.degree_cap)
        full = RingPresentation(arg.base, arg.varnames, arg.gens,
                                arg.degree_cap)
        return MorphismPresentation.inclusion(empty, full)
    raise TypeError("expected a presentation or morphism presentation")


def _restrict_point(mor: MorphismPresentation, pt: tuple, ring, coeff):
    """The A-point underneath a B-point."""
    return tuple(img.evaluate(list(pt), coeff, ring.zero)
                 for img in mor.images)


@dataclass
class LiftingVerdict:
    verdict: str
    mode: str
    per_ring: list
    note: str = "verdict quantifies over the supplied test-ring corpus only"

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "mode": self.mode,
                "rings": self.per_ring, "note": self.note}


def classify_lifting(arg, test_rings: list, mode: str = "dR",
                     skip_inadmissible: bool = False) -> LiftingVerdict:
    """Compare X(R) with the de Rham / crystalline completed points per ring."""
    if mode not in ("dR", "crys"):
        raise ValueError("mode must be 'dR' or 'crys'")
    mor = _as_morphism(arg)
    B, A = mor.target, mor.source
    all_inj = all_surj = True
    evidence = []
    tested = 0
    for ring in test_rings:
        if not admits_base_map(B, ring):
            if skip_inadmissible:
                evidence.append({"ring": ring.name, "skipped": "no base map"})
                continue
            raise PresentationError(f"test ring {ring.name} admits no base map")
        tested += 1
        coeff = _scalar_map(B, ring)
        x_points = point_set(B, ring)
        if mode == "dR":
            red, project = reduced_ring(ring)
            red_coeff = _scalar_map(B, red)
            xred = point_set(B, red)
            y_points = point_set(A, ring)
            # completed points: pairs (reduced B-point, A-point) agreeing on A
            targets = set()
            for bpt in xred.points:
                bka = tuple(e.key() for e in _restrict_point(
                    mor, bpt, red, red_coeff))
                for apt in y_points.points:
                    if tuple(project(e).key() for e in apt) == bka:
                        targets.add((tuple(e.key() for e in bpt),
                                     tuple(e.key() for e in apt)))
            seen = {}
            images = []
            for pt in x_points.points:
                bimg = tuple(project(e).key() for e in pt)
                aimg = tuple(e.key() for e in _restrict_point(
                    mor, pt, ring, coeff))
                images.append((bimg, aimg))
            inj = len(set(images)) == len(images)
            surj = set(images) == targets
            counts = {"points": len(x_points), "reduced_points": len(targets)}
        else:
            crys = crystalline_point_set(B, ring)
            y_points = point_set(A, ring)
            zero_idx = next(i for i, (ideal, _, _, _) in enumerate(crys.index)
                            if len(ideal) == 1)
            targets = set()
            for i, (_, _, (quot, project, _), pts) in enumerate(crys.index):
                q_coeff = _scalar_map(B, quot)
                for bpt in pts.points:
                    cls = crys.class_of(i, bpt)
                    bka = tuple(e.key() for e in _restrict_point(
                        mor, bpt, quot, q_coeff))
                    for apt in y_points.points:
                        if tuple(project(e).key() for e in apt) == bka:
                            targets.add((cls, tuple(e.key() for e in apt)))
            images = []
            for pt in x_points.points:     # R/0 is R itself
                cls = crys.class_of(zero_idx, pt)
                aimg = tuple(e.key() for e in _restrict_point(
                    mor, pt, ring, coeff))
                images.append((cls, aimg))
            inj = len(set(images)) == len(images)
            surj = set(images) == targets
            counts = {"points": len(x_points), "crys_classes": len(crys)}
        all_inj &= inj
        all_surj &= surj
        kind = ("bijective" if inj and surj else
                "surjective" if surj else
                "injective" if inj else "neither")
        entry = {"ring": ring.name, "map": kind}
        entry.update(counts)
        evidence.append(entry)
    if tested == 0:
        raise PresentationError("no admissible test rings in the corpus")
    if all_inj and all_surj:
        verdict = "etale"
    elif all_surj:
        verdict = "lisse"
    elif all_inj:
        verdict = "non_ramifie"
    else:
        verdict = "none"
    return LiftingVerdict(verdict, mode, evidence)


def default_corpus(p: int) -> list:
    """F_p, dual numbers, Z/p^2, Z/p^3, F_p[x]/(x^4), F_p x F_p."""
    from .finiterings import dual_numbers, fp_quotient, gf, product_ring, zmod
    x4 = Poly(1, {(4,): gf(p, 1).one})
    return [gf(p, 1), dual_numbers(p), zmod(p ** 2), zmod(p ** 3),
            fp_quotient(p, ("x",), [x4]), product_ring(gf(p, 1), gf(p, 1))]
