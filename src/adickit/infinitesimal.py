"""Point functors over finite test rings and the lifting-route classifiers.

The de Rham point set of a presentation over a finite ring R is its point set
over R/Nil(R): the colimit over nilpotent ideals stabilizes at the nilradical,
the largest one.  The crystalline point set runs instead over pairs (I, gamma)
of a nilpotent ideal with a divided-power structure, ordered by PD-compatible
inclusion, and is computed as explicit equivalence classes.

A morphism is etale / lisse / non-ramifie in the lifting sense when the
canonical map from its points to its completed points is bijective /
surjective / injective over every supplied test ring; the verdict quantifies
only over the supplied corpus and the evidence says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import comb, factorial

from .finiterings import (FiniteRing, QuotientRing, additive_closure,
                          canonical_scalar_map, ideal_generated, reduced_ring,
                          subgroup_tree)
from .poly import Poly
from .tate import (IntegerBase, MorphismPresentation, PresentationError,
                   RingPresentation)

POINT_SEARCH_CAP = 1_000_000
PD_IDEAL_CAP = 16


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
    red, _ = reduced_ring(ring)
    reduced_map = None
    if base_map is not None:
        reduced_map = lambda c: red.project(base_map(c))  # noqa: E731
    ps = point_set(pres, red, reduced_map)
    ps.label = f"X({ring.name}/Nil)"
    return ps


# -- nilpotent ideals and divided powers --------------------------------------

def nilpotency_exponent(ring, ideal: frozenset) -> int:
    """Smallest e with I^e = 0."""
    if ideal == frozenset({ring.zero}):
        return 1
    power = ideal
    e = 1
    while any(power):
        products = [a * b for a in power for b in ideal]
        power = additive_closure(ring, products)
        e += 1
        if e > 64:
            raise ValueError("ideal does not look nilpotent")
    return e


def enumerate_nilpotent_ideals(ring) -> list[tuple[frozenset, int]]:
    """All ideals inside the nilradical, each with its nilpotency exponent;
    computed once per ring, returned as a fresh list."""
    if ring._nil_ideals is None:
        nil = ring.nilradical()
        zero_ideal = frozenset({ring.zero})
        seen = {zero_ideal}
        frontier = [zero_ideal]
        while frontier:
            ideal = frontier.pop()
            for x in nil:
                if x in ideal:
                    continue
                bigger = ideal_generated(ring, list(ideal) + [x])
                if bigger not in seen:
                    seen.add(bigger)
                    frontier.append(bigger)
        ideals = sorted(seen, key=lambda I: (len(I), sorted(x.key() for x in I)))
        ring._nil_ideals = [(I, nilpotency_exponent(ring, I)) for I in ideals]
    return list(ring._nil_ideals)


@dataclass
class PDStructure:
    """Divided powers gamma_n on a nilpotent ideal, with gamma_n = 0 for
    n > e as the finite representation convention."""
    ring: object
    ideal: tuple            # sorted elements
    exponent: int
    gammas: dict            # level -> {element: element}, levels 1..exponent

    def gamma(self, n: int, x):
        if n == 0:
            return self.ring.one
        if n > self.exponent:
            return self.ring.zero
        return self.gammas[n][x]

    def verify(self) -> bool:
        R, e = self.ring, self.exponent
        ideal = self.ideal
        for x in ideal:
            if self.gamma(1, x) != x:
                return False
        for n in range(2, 2 * e + 1):
            for x in ideal:
                # n! gamma_n(x) = x^n
                lhs = self.gamma(n, x).times_int(factorial(n))
                if lhs != x ** n:
                    return False
        for n in range(1, 2 * e + 1):
            for x in ideal:
                for y in ideal:
                    total = R.zero
                    for i in range(0, n + 1):
                        total = total + self.gamma(i, x) * self.gamma(n - i, y)
                    if total != self.gamma(n, (x + y)):
                        return False
        for n in range(1, e + 1):
            for a in R.elements():
                for x in ideal:
                    if self.gamma(n, a * x) != (a ** n) * self.gamma(n, x):
                        return False
        for m in range(1, e + 1):
            for n in range(1, e + 1):
                for x in ideal:
                    lhs = self.gamma(m, x) * self.gamma(n, x)
                    rhs = self.gamma(m + n, x).times_int(comb(m + n, n))
                    if lhs != rhs:
                        return False
        return True

    def restricts_to(self, other: "PDStructure") -> bool:
        """Does self (on a larger ideal) restrict to other on its ideal?"""
        if not set(other.ideal) <= set(self.ideal):
            return False
        levels = max(self.exponent, other.exponent)
        for n in range(1, levels + 1):
            for x in other.ideal:
                if self.gamma(n, x) != other.gamma(n, x):
                    return False
        return True


def _additive_generators(ring, ideal: frozenset) -> list:
    gens = []
    span = {ring.zero}
    for x in sorted(ideal, key=lambda e: e.key()):
        if x not in span:
            gens.append(x)
            span = set(additive_closure(ring, list(gens)))
    return gens


def enumerate_pd_structures(ring, ideal: frozenset) -> list[PDStructure]:
    """All divided-power structures on the ideal, by constrained search;
    computed once per (ring, ideal), returned as a fresh list."""
    if len(ideal) > PD_IDEAL_CAP:
        raise ValueError(f"ideal size {len(ideal)} exceeds PD cap {PD_IDEAL_CAP}")
    if ideal not in ring._pd_structures:
        ring._pd_structures[ideal] = _search_pd_structures(ring, ideal)
    return list(ring._pd_structures[ideal])


def _search_pd_structures(ring, ideal: frozenset) -> list[PDStructure]:
    """Values at each level are chosen on additive generators, extended along
    a spanning tree of (I, +) by the addition axiom, and everything is
    re-verified exhaustively; the count is whatever the axioms admit."""
    e = nilpotency_exponent(ring, ideal)
    elements = sorted(ideal, key=lambda x: x.key())
    identity = {x: x for x in elements}
    if e == 1:
        trivial = PDStructure(ring, tuple(elements), 1, {1: identity})
        return [trivial] if trivial.verify() else []

    gens = _additive_generators(ring, ideal)
    tree = subgroup_tree(ring.zero, gens)      # element -> generator
    ring_elems = sorted(ring.elements(), key=lambda x: x.key())

    def extend_level(n: int, lower: dict, gen_values: dict):
        """gamma_n on all of I from generator values, along the tree."""
        def gamma(k, x):
            if k == 0:
                return ring.one
            if k > e:
                return ring.zero
            return lower[k][x]

        # the tree lists every parent before its children
        gamma_n = {}
        for x, g in tree.items():
            if g is None:
                gamma_n[x] = ring.zero
                continue
            parent = x - g
            total = gamma_n[parent] + gen_values[g]
            for i in range(1, n):
                total = total + gamma(i, parent) * gamma(n - i, g)
            gamma_n[x] = total
        return gamma_n

    results = []

    def search(level: int, gammas: dict):
        if level > e:
            cand = PDStructure(ring, tuple(elements), e, dict(gammas))
            if cand.verify():
                results.append(cand)
            return
        fact = factorial(level)

        def gamma_lower(k, x):
            if k == 0:
                return ring.one
            if k > e:
                return ring.zero
            return gammas[k][x]

        for values in iproduct(ring_elems, repeat=len(gens)):
            gen_values = dict(zip(gens, values))
            ok = True
            for g, v in gen_values.items():
                if v.times_int(fact) != g ** level:
                    ok = False
                    break
                # gamma_m(g) gamma_level(g) = C(m+level, m) gamma_{m+level}(g),
                # which vanishes once m+level exceeds the exponent
                for m in range(1, level):
                    if m + level > e and gamma_lower(m, g) * v:
                        ok = False
                        break
                if not ok:
                    break
                if 2 * level > e and v * v:
                    ok = False
                    break
            if not ok:
                continue
            gamma_n = extend_level(level, gammas, gen_values)
            # quick prune before recursing
            if any(gamma_n[x].times_int(fact) != x ** level for x in elements):
                continue
            gammas[level] = gamma_n
            search(level + 1, gammas)
            del gammas[level]

    search(2, {1: identity})
    return results


# -- crystalline point sets -----------------------------------------------------

@dataclass
class CrystallinePoints:
    pres: RingPresentation
    ring: object
    classes: list           # list of frozensets of (index, point-key) nodes
    index: list             # list of (ideal, PDStructure, QuotientRing, PointSet)

    def __len__(self):
        return len(self.classes)

    def class_of(self, idx: int, pt: tuple) -> int:
        key = (idx, tuple(e.key() for e in pt))
        for i, cls in enumerate(self.classes):
            if key in cls:
                return i
        raise KeyError("point not in any class")


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
        quotient = QuotientRing(ring, ideal)
        qmap = None
        if base_map is not None:
            qmap = lambda c: quotient.project(base_map(c))  # noqa: E731
        pts = point_set(pres, quotient, qmap)
        index.extend((ideal, pd, quotient, pts) for pd in structures)

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

    for i, (ideal_i, pd_i, quot_i, pts_i) in enumerate(index):
        for j, (ideal_j, pd_j, quot_j, pts_j) in enumerate(index):
            if i == j or not set(ideal_i) <= set(ideal_j):
                continue
            if not pd_j.restricts_to(pd_i):
                continue
            available = {tuple(e.key() for e in pt) for pt in pts_j.points}
            for pt in pts_i.points:
                pushed = tuple(quot_j.project(e.rep) for e in pt)
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
            red, _ = reduced_ring(ring)
            red_coeff = _scalar_map(B, red)
            xred = point_set(B, red)
            y_points = point_set(A, ring)
            # completed points: pairs (reduced B-point, A-point) agreeing on A
            targets = set()
            for bpt in xred.points:
                bka = tuple(e.key() for e in _restrict_point(
                    mor, bpt, red, red_coeff))
                for apt in y_points.points:
                    if tuple(red.project(e).key() for e in apt) == bka:
                        targets.add((tuple(e.key() for e in bpt),
                                     tuple(e.key() for e in apt)))
            seen = {}
            images = []
            for pt in x_points.points:
                bimg = tuple(red.project(e).key() for e in pt)
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
            for i, (_ideal, _pd, quot, pts) in enumerate(crys.index):
                for bpt in pts.points:
                    cls = crys.class_of(i, bpt)
                    q_coeff = _scalar_map(B, quot)
                    bka = tuple(e.key() for e in _restrict_point(
                        mor, bpt, quot, q_coeff))
                    for apt in y_points.points:
                        if tuple(quot.project(e).key() for e in apt) == bka:
                            targets.add((cls, tuple(e.key() for e in apt)))
            images = []
            for pt in x_points.points:
                zero_quot = crys.index[zero_idx][2]
                pushed = tuple(zero_quot.project(e) for e in pt)
                cls = crys.class_of(zero_idx, pushed)
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
