"""Point functors over finite test rings and the lifting-route classifiers.

The de Rham and crystalline completed points of a presentation over a finite
ring R are one construction over two families of thickenings R -> R/I:
classes of (level, point over R/I), where a point at one level is identified
with its reduction at every level whose ideal contains its own.  De Rham
levels are the nilpotent ideals, whose filtered colimit stabilizes at the
nilradical, so the levels 0 and Nil(R) suffice.  Crystalline levels are the
pairs (I, gamma) of a nilpotent ideal with a divided-power structure, and an
identification must also respect gamma.  On a ring of p-power order a
divided-power structure is the one map gamma_p, solved for on additive
generators of the ideal from cosets of its p-torsion.

A morphism is etale / lisse / non-ramifie in the lifting sense when the
canonical map from its points to its completed points is bijective /
surjective / injective over every supplied test ring; the verdict quantifies
only over the supplied corpus and the evidence says so.
"""

from __future__ import annotations

import operator
from itertools import product as iproduct
from math import comb, factorial, prod

from .finiterings import (FiniteRing, additive_closure, canonical_scalar_map,
                          ideal_generated, nilradical, quotient_ring,
                          subgroup_tree)
from .poly import Poly
from .tate import (IntegerBase, MorphismPresentation, PresentationError,
                   RingPresentation)

POINT_SEARCH_CAP = 1_000_000
PD_SEARCH_CAP = 4096


def _scalar_map(pres: RingPresentation, ring):
    base = pres.base
    if isinstance(base, IntegerBase):
        return canonical_scalar_map(None, ring)
    if isinstance(base, FiniteRing):
        return canonical_scalar_map(base, ring)
    return None


def _base_map(pres: RingPresentation, ring, base_map=None):
    """The given base map into ring, else the canonical one."""
    coeff = base_map or _scalar_map(pres, ring)
    if coeff is None:
        raise PresentationError(
            f"no base map from {pres.base} to {ring.name}")
    return coeff


class PointSet:
    __slots__ = ("pres", "ring", "points")

    def __init__(self, pres: RingPresentation, ring, points: tuple):
        self.pres = pres
        self.ring = ring
        self.points = points    # sorted tuples of ring elements

    def __len__(self):
        return len(self.points)


def point_set(pres: RingPresentation, ring, base_map=None) -> PointSet:
    """All base-compatible homomorphisms pres -> ring, by a depth-first
    search over the variables in order.  At depth d every relation whose
    last variable is x_d filters the surviving candidates for x_d at once,
    by one Horner pass in x_d over the whole list.  Candidates are indices
    into the elements in key order, so the points come out sorted by their
    keys.  A ring of at most TABLE_CAP elements is searched on its Cayley
    table, where a value is an element's index and a sum or product one
    lookup; a larger ring computes with its elements.  Index 0 is the zero
    element, so `not v` tests for zero either way."""
    coeff = _base_map(pres, ring, base_map)
    n = pres.nvars
    if ring.cardinality ** n > POINT_SEARCH_CAP:
        raise PresentationError("point search space exceeds the cap")
    table = ring._cayley()
    # powers[j][k] = elems[j] ** k for every exponent a fixed variable takes
    if table:
        elems, add, mul, index = (table.elements, table.add, table.mul,
                                  table.index)

        def to_index(c):
            c = coeff(c)
            c._check(ring.one)
            return index[c.coords]

        stages, top, consistent = _stage_relations(pres.gens, n, to_index)
        one = index[ring.one.coords]
        powers = []
        for row in mul:
            pw = [one]
            for _ in range(top):
                pw.append(row[pw[-1]])
            powers.append(pw)
        zero = 0

        def plus(a, b):
            return add[a][b]

        def times(a, b):
            return mul[a][b]

        def horner(coeffs, xs):
            vals = [coeffs[0]] * len(xs)
            for a in coeffs[1:]:
                shift = add[a]
                vals = [shift[mul[v][x]] for v, x in zip(vals, xs)]
            return vals
    else:
        elems = list(ring.elements())
        stages, top, consistent = _stage_relations(pres.gens, n, coeff)
        powers = []
        for x in elems:
            pw = [ring.one]
            for _ in range(top):
                pw.append(pw[-1] * x)
            powers.append(pw)
        zero, plus, times = ring.zero, operator.add, operator.mul

        def horner(coeffs, xs):
            vals = [coeffs[0]] * len(xs)
            for a in coeffs[1:]:
                vals = [v * elems[x] + a for v, x in zip(vals, xs)]
            return vals

    everything = range(len(elems))
    points = []
    prefix: list = []           # indices into elems of the fixed variables

    def value(terms):
        total = zero
        for c, factors in terms:
            for i, k in factors:
                c = times(c, powers[prefix[i]][k])
            total = plus(total, c)
        return total

    def search(d: int):
        if d == n:
            points.append(tuple([elems[j] for j in prefix]))
            return
        xs = everything
        # each relation as its coefficients in x_d, highest power first
        for rel in stages[d]:
            coeffs = [value(terms) for terms in reversed(rel)]
            xs = [x for v, x in zip(horner(coeffs, xs), xs) if not v]
            if not xs:
                return
        for x in xs:
            prefix.append(x)
            search(d + 1)
            prefix.pop()

    if consistent:
        search(0)
    return PointSet(pres, ring, tuple(points))


def _stage_relations(gens: list, n: int, coeff):
    """Map every coefficient once through coeff (to a ring element, or to
    its Cayley-table index; a falsy image is zero) and bucket each relation
    by its last variable: stages[d] lists the relations whose highest variable
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


# -- nilpotent ideals and divided powers --------------------------------------

def enumerate_nilpotent_ideals(ring) -> list[frozenset]:
    """All ideals inside the nilradical, smallest first; computed once per
    ring, returned as a fresh list.  Each ideal I found is grown by every
    principal ideal Rx of a nilpotent x that it does not contain: I + Rx is
    the additive span of I's additive generators and the e * x for e in the
    ring's additive basis, since I is already an ideal."""
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
        ring._nil_ideals = sorted(
            seen, key=lambda I: (len(I), sorted(x.key() for x in I)))
    return list(ring._nil_ideals)


class PDStructure:
    """Divided powers on a nilpotent ideal I of a ring of p-power order (a
    Z_(p)-algebra), kept as the one map gamma_p: I -> I that fixes them:
    gamma_{p^(j+1)} = u_j^-1 gamma_p(gamma_{p^j}), u_j = (p^(j+1))! /
    (p! (p^j)!^p), and gamma_n is prod_j gamma_{p^j}^a_j over the base-p
    digits a_j of n, divided by n! / prod_j (p^j)!^a_j; both integers are
    prime to p (Berthelot-Ogus, Notes on Crystalline Cohomology, section 3).
    p is None only on the zero ideal of a ring of other order."""
    __slots__ = ("ring", "ideal", "p", "delta")

    def __init__(self, ring, ideal: tuple, p: int | None, delta: dict):
        self.ring = ring
        self.ideal = ideal      # sorted elements
        self.p = p
        self.delta = delta      # gamma_p: {element: element}

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


# -- completed point sets -------------------------------------------------------

class CompletedPoints:
    __slots__ = ("pres", "ring", "classes", "index", "_class_of")

    def __init__(self, pres: RingPresentation, ring, classes: list,
                 index: list):
        self.pres = pres
        self.ring = ring
        self.classes = classes  # frozensets of (index, point-key) nodes
        # (ideal, PD or None, quotient_ring(R, ideal), PointSet), zero first
        self.index = index
        self._class_of = {node: i for i, cls in enumerate(classes)
                          for node in cls}

    def __len__(self):
        return len(self.classes)

    def class_of(self, idx: int, pt: tuple) -> int:
        cls = self._class_of.get((idx, tuple(e.key() for e in pt)))
        if cls is None:
            raise KeyError("point not in any class")
        return cls


def _levels(ring, mode: str):
    """The levels R -> R/I of a mode, the zero ideal first, each with its
    PD structures: "dR" has 0 and Nil(R) with None, "crys" every nilpotent
    ideal with its divided-power structures."""
    if mode == "dR":
        for ideal in dict.fromkeys((frozenset({ring.zero}), nilradical(ring))):
            yield ideal, [None]
    else:
        for ideal in enumerate_nilpotent_ideals(ring):
            yield ideal, enumerate_pd_structures(ring, ideal)


def completed_points(pres: RingPresentation, ring, mode: str,
                     base_map=None) -> CompletedPoints:
    """Equivalence classes of (level, point over R/I) for the levels of the
    mode, where a point is identified with its reduction at every level
    whose ideal contains its own and, for a PD level, whose structure
    restricts to its own.  Each ideal's point set is built once, and the
    base map into R/I is the one into R followed by the projection."""
    coeff = _base_map(pres, ring, base_map)
    index = []
    for ideal, structures in _levels(ring, mode):
        if not structures:
            continue
        quot = quotient_ring(ring, ideal)      # (R/I, project, lift)
        pts = point_set(pres, quot[0], lambda c: quot[1](coeff(c)))
        index.extend((ideal, pd, quot, pts) for pd in structures)

    # union-find over (index, point-key) nodes, each its own root at first
    keys = [[tuple([e.key() for e in pt]) for pt in pts.points]
            for _, _, _, pts in index]
    parent = {(i, k): (i, k) for i, level in enumerate(keys) for k in level}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for i, (ideal_i, pd_i, (_, _, lift_i), pts_i) in enumerate(index):
        for j, (ideal_j, pd_j, (_, project_j, _), _) in enumerate(index):
            if i == j or not ideal_i <= ideal_j:
                continue
            if pd_j is not None and not pd_j.restricts_to(pd_i):
                continue
            # each element of R/I_i that a point uses, reduced once
            reduced = {e: project_j(lift_i(e)).key()
                       for e in {e for pt in pts_i.points for e in pt}}
            for pt, k in zip(pts_i.points, keys[i]):
                union((i, k), (j, tuple([reduced[e] for e in pt])))

    classes: dict = {}                  # root -> class, in node order
    for node in parent:
        classes.setdefault(find(node), set()).add(node)
    return CompletedPoints(pres, ring, [frozenset(c) for c in classes.values()],
                           index)


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


class LiftingVerdict:
    __slots__ = ("verdict", "mode", "per_ring", "note")

    def __init__(self, verdict: str, mode: str, per_ring: list,
                 note: str = "verdict quantifies over the supplied test-ring "
                             "corpus only"):
        self.verdict = verdict
        self.mode = mode
        self.per_ring = per_ring
        self.note = note

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "mode": self.mode,
                "rings": self.per_ring, "note": self.note}


def classify_lifting(arg, test_rings: list, mode: str = "dR",
                     skip_inadmissible: bool = False) -> LiftingVerdict:
    """Compare X(R) with its de Rham / crystalline completed points per
    ring, read off one `completed_points` whose zero level is X(R)."""
    if mode not in ("dR", "crys"):
        raise ValueError("mode must be 'dR' or 'crys'")
    mor = _as_morphism(arg)
    B, A = mor.target, mor.source
    all_inj = all_surj = True
    evidence = []
    tested = 0
    for ring in test_rings:
        coeff = _scalar_map(B, ring)
        if coeff is None:
            if skip_inadmissible:
                evidence.append({"ring": ring.name, "skipped": "no base map"})
                continue
            raise PresentationError(f"test ring {ring.name} admits no base map")
        tested += 1
        completed = completed_points(B, ring, mode, coeff)
        y_points = point_set(A, ring)
        x_points = completed.index[0][3]        # R/0 is R itself
        images = [(completed.class_of(0, pt), tuple(
            e.key() for e in _restrict_point(mor, pt, ring, coeff)))
            for pt in x_points.points]
        # completed points: pairs (class of a B-point over some R/I, A-point
        # over R) agreeing on A over R/I; over R/0 they are the images
        targets = set(images)
        levels = enumerate(completed.index[1:], 1)
        for i, (_, _, (quot, project, _), pts) in levels:
            q_coeff = lambda c: project(coeff(c))  # noqa: E731
            over = {}                   # A-point over R/I -> A-points over R
            for apt in y_points.points:
                over.setdefault(tuple(project(e).key() for e in apt),
                                []).append(tuple(e.key() for e in apt))
            for bpt in pts.points:
                bka = tuple(e.key() for e in _restrict_point(
                    mor, bpt, quot, q_coeff))
                cls = completed.class_of(i, bpt)
                targets.update((cls, apt) for apt in over.get(bka, ()))
        inj = len(set(images)) == len(images)
        surj = set(images) == targets
        all_inj &= inj
        all_surj &= surj
        kind = ("bijective" if inj and surj else
                "surjective" if surj else
                "injective" if inj else "neither")
        entry = {"ring": ring.name, "map": kind, "points": len(x_points)}
        if mode == "dR":
            entry["reduced_points"] = len(targets)
        else:
            entry["crys_classes"] = len(completed)
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
