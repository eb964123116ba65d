"""Topological Kahler differentials and the Jacobian-route classifier.

For a presentation B = base<X_1..X_n>/(f_1..f_p), the module of differentials
is the cokernel of the Jacobian, the conormal module is presented by the
generator classes modulo syzygies, and the two-term complex
[conormal -> differentials] drives the verdicts:

  etale        H^-1 = 0 and H^0 = 0
  lisse        H^-1 = 0 and H^0 locally free of constant rank
               (some Fitting ideal is the unit ideal while the previous one
               vanishes; the decidable stand-in for projectivity)
  non_ramifie  H^0 = 0

Relative classification of a morphism A -> B uses the graph presentation:
A's variables are adjoined to B with relations identifying them with their
images, and differentials are taken only in B's variables.

One skeleton serves every base: one Jacobian, one loop over the Fitting
ideals, one H^0 rule.  Only two things differ per base.  Over a field,
"is this ideal (1)?" is Buchberger, and H^-1 is exact in every degree: the
kernel of the conormal differential is one syzygy computation on the
tagged Jacobian rows (`tate.tagged_free_module`), and a kernel generator
is zero in H^-1 iff its image lies in I^2 + (source relations), one more
Groebner basis.  Over a finite non-field base with a separated monic
presentation, both are decided exactly in B = R[X]/(f), a `FiniteRing`
whose additive rank RANK_CAP bounds, by diagonal forms of integer lattices.
De Rham ranks and membership are one `Submodule` per degree, exact at the
cap.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .finiterings import (FiniteRing, hom_kernel, quotient_structure,
                          spans_group)
from .groebner import (DegreeOverflowError, buchberger, finite_staircase,
                       is_unit_ideal, is_zero_dimensional, normal_form,
                       syzygy_basis)
from .poly import Poly
from .tate import (MorphismPresentation, PresentationError, RingPresentation,
                   Submodule, tag_form, tagged_free_module)

# building B's structure constants and checking its ring axioms grow with
# the cube of B's additive rank: ~0.25 s at rank 32 on one core of a 2-vCPU
# container (CPython 3.11)
RANK_CAP = 32


# -- relative presentation plumbing ------------------------------------------

class RelativeData:
    """A presentation of a morphism's target with the source frozen out."""
    __slots__ = ("pres", "rel_vars", "rel_gens", "source_gens")

    def __init__(self, pres: RingPresentation, rel_vars: list[int],
                 rel_gens: list[Poly], source_gens: list[Poly]):
        self.pres = pres            # flattened presentation (NF authority)
        self.rel_vars = rel_vars    # indices differentials are taken in
        self.rel_gens = rel_gens    # generators presenting B over the source
        self.source_gens = source_gens  # source relations (syzygy ambient)


def relative_data(arg) -> RelativeData:
    if isinstance(arg, RingPresentation):
        if arg.parent is not None:
            # presentations remember the ring they were built over; classify
            # relative to it
            return relative_data(MorphismPresentation.inclusion(arg.parent, arg))
        return RelativeData(arg, list(range(arg.nvars)), list(arg.gens), [])
    if not isinstance(arg, MorphismPresentation):
        raise TypeError("expected a presentation or a morphism presentation")
    src, tgt = arg.source, arg.target
    if arg.is_identity_inclusion():
        rel_gens = [g for g in tgt.gens[len(src.gens):]]
        src_gens = [g.extend_vars(tgt.nvars) for g in src.gens]
        rel_vars = list(range(src.nvars, tgt.nvars))
        return RelativeData(tgt, rel_vars, rel_gens, src_gens)
    # graph construction: adjoin a copy of the source variables to the target
    n = tgt.nvars + src.nvars
    copies = []
    pres = tgt
    for name in src.varnames:
        fresh = pres.fresh_varname(f"{name}_src")
        copies.append(fresh)
        pres = pres.extend((fresh,), [])
    one = tgt.coeff_one()
    graph_gens = [
        Poly.variable(tgt.nvars + i, n, one) - arg.images[i].extend_vars(n)
        for i in range(src.nvars)]
    src_gens = [g.extend_vars(n, offset=tgt.nvars) for g in src.gens]
    full = RingPresentation(tgt.base, pres.varnames,
                            [g.extend_vars(n) for g in tgt.gens]
                            + graph_gens + src_gens,
                            tgt.degree_cap)
    rel_gens = [g.extend_vars(n) for g in tgt.gens] + graph_gens
    return RelativeData(full, list(range(tgt.nvars)), rel_gens, src_gens)


# -- Kahler differentials -----------------------------------------------------

class KahlerModule:
    __slots__ = ("data", "jacobian", "quotient")

    def __init__(self, data: RelativeData, jacobian: list[list[Poly]],
                 quotient: tuple | None):
        self.data = data
        # rows = relative generators, cols = rel vars
        self.jacobian = jacobian
        # over a finite non-field base: B = R[X]/(f), its polynomial ->
        # coordinates map and its staircase basis; else None
        self.quotient = quotient

    @property
    def rank_free(self) -> int:
        return len(self.data.rel_vars)

    def fitting_status(self) -> dict:
        """For each k: is Fitt_k the unit ideal, zero, or something else?
        Fitt_k lies in Fitt_(k+1) (Laplace expansion), so every Fitting
        ideal after the first unit one is the unit ideal too."""
        n = self.rank_free
        status = {}
        for k in range(n):
            # none exist when n - k exceeds the number of relations
            minors = [m for m in _all_minors(self.jacobian, n - k,
                                             self.data.pres) if not m.is_zero]
            status[k] = ("zero" if not minors else
                         "unit" if self._generates_unit(minors) else "other")
            if status[k] == "unit":
                break
        # Fitt_n holds the empty minor 1
        status.update((k, "unit") for k in range(len(status), n + 1))
        return status

    def _generates_unit(self, minors: list[Poly]) -> bool:
        """Do the relations and these minors generate the unit ideal?  Over
        a field by Buchberger; in B, where the relations vanish, iff the
        B-multiples of the minors (the additive span of the e * m, e in B's
        basis) are all of B's additive group."""
        if self.quotient is None:
            return is_unit_ideal(buchberger(list(self.data.pres.gens)
                                            + minors))
        B, coords, _ = self.quotient
        return spans_group([B._product(e.coords, coords(m)) for m in minors
                            for e in B.basis], B.moduli)


def _all_minors(rows: list[list[Poly]], size: int,
                pres: RingPresentation) -> list[Poly]:
    p, n = len(rows), len(rows[0]) if rows else 0
    minors = []
    for rset in combinations(range(p), size):
        for cset in combinations(range(n), size):
            minors.append(pres.normal_form(_det(rows, rset, cset)))
    return minors


def _det(rows, rset, cset) -> Poly:
    if len(rset) == 1:
        return rows[rset[0]][cset[0]]
    total = None
    for idx, r in enumerate(rset):
        sub = _det(rows, tuple(x for x in rset if x != r), cset[1:])
        term = rows[r][cset[0]] * sub
        if idx % 2:
            term = -term
        total = term if total is None else total + term
    return total


def kahler_differentials(arg) -> KahlerModule:
    data = relative_data(arg)
    pres = data.pres
    gens, quotient = data.rel_gens, None
    if isinstance(pres.base, FiniteRing) and not pres.base.is_field:
        quotient = _finite_quotient(data)
        # the Jacobian of the monic system: a zero or unscaled generator
        # would change the kernel of v -> v.J and its witness
        gens = pres.groebner_basis()
    jac = [[pres.normal_form(g.derivative(j)) for j in data.rel_vars]
           for g in gens]
    return KahlerModule(data, jac, quotient)


def _finite_quotient(data: RelativeData) -> tuple:
    """B = R[X]/(separated monic system) over a finite non-field base R, a
    `FiniteRing` built from structure constants on the additive basis
    (staircase monomial) x (basis of R), with its polynomial -> coordinates
    map and the staircase."""
    pres = data.pres
    if data.source_gens or data.rel_vars != list(range(pres.nvars)):
        raise PresentationError(
            "relative classification over a finite non-field base is not "
            "supported; classify the flattened presentation")
    ring = pres.base
    rel_gens = pres.groebner_basis()
    n = pres.nvars
    if not is_zero_dimensional(rel_gens, n):
        raise PresentationError(
            "finite-base classification needs a finite quotient")
    stairs = finite_staircase(rel_gens, n)
    rank_b = len(stairs) * len(ring.moduli)
    if rank_b > RANK_CAP:
        raise PresentationError(f"finite quotient of additive rank {rank_b} "
                                f"exceeds RANK_CAP = {RANK_CAP}")
    moduli, products, one_coords, names, coords = quotient_structure(
        ring, rel_gens, stairs, pres.varnames)
    B = FiniteRing(moduli, products, one_coords, pres.describe(), names)
    return B, coords, stairs


# -- the two-term complex ------------------------------------------------------

class CotangentComplexData:
    __slots__ = ("data", "jacobian", "h_minus1", "h_minus1_witness", "h0",
                 "h0_rank", "fitting", "flags")

    def __init__(self, data: RelativeData, jacobian: list[list[Poly]],
                 h_minus1: str, h_minus1_witness: list[Poly] | None, h0: str,
                 h0_rank: int | None, fitting: dict, flags: list):
        self.data = data
        self.jacobian = jacobian
        self.h_minus1 = h_minus1    # "zero" | "nonzero" | "inconclusive"
        self.h_minus1_witness = h_minus1_witness
        # "zero" | "projective" | "nonzero" | "inconclusive"
        self.h0 = h0
        self.h0_rank = h0_rank
        self.fitting = fitting
        self.flags = flags

    def to_json(self) -> dict:
        h0 = 0 if self.h0 == "zero" else (
            self.h0_rank if self.h0 == "projective" else self.h0)
        return {
            "h_minus1": 0 if self.h_minus1 == "zero" else self.h_minus1,
            "h0": h0,
            "flags": sorted(self.flags),
        }


def _h0(fitting: dict, n: int) -> tuple[str, int | None]:
    """H^0 and its rank from the Fitting ideals: zero iff Fitt_0 = (1),
    locally free of rank k iff Fitt_(k-1) = 0 and Fitt_k = (1)."""
    if fitting[0] == "unit":
        return "zero", 0
    for k in range(1, n + 1):
        if fitting[k] == "unit" and fitting[k - 1] == "zero":
            return "projective", k
    return "nonzero", None


def _h_minus1_field(data: RelativeData,
                    jac: list[list[Poly]]) -> tuple[str, list[Poly] | None]:
    """H^-1 = K / (syzygy image + I.F), exact in every degree, where
    K = {v : v.J in I.F} in P^p, for P the polynomial ring and F = P^r, r
    the number of relative variables.

    K is one syzygy computation on the tagged Jacobian rows sum_j J_ij E_j,
    the g.E_j and every E_a.E_b (`tagged_free_module`): E = 0 is a ring map,
    so the E-free parts of the syzygies' first p components generate K
    (with no E there, K is all of P^p).  A v in K lies in the syzygy image
    plus I.F iff sum v_i f_i lies in (f)^2 + (source relations), the kernel
    of P^p -> I/I^2 of the naive cotangent complex; one Groebner basis of
    the pairwise products and the source relations decides that, and the
    first generator of K outside is the witness of a nonzero H^-1."""
    pres, gens = data.pres, data.rel_gens
    n, p = pres.nvars, len(jac)
    if p == 0:
        return "zero", None
    if data.rel_vars:
        tags, free = tagged_free_module(pres, range(len(data.rel_vars)))
        syz = syzygy_basis([tag_form(n, tags, dict(enumerate(row)))
                            for row in jac] + free, p)
        kernel = [[Poly(n, {e[:n]: c for e, c in x.terms.items()
                            if not any(e[n:])}) for x in v]
                  for v in syz]
    else:
        one = pres.coeff_one()
        kernel = [[Poly.constant(one, n) if i == j else Poly.zero(n)
                   for j in range(p)] for i in range(p)]
    kernel = [w for w in ([pres.normal_form(c) for c in v] for v in kernel)
              if any(not c.is_zero for c in w)]
    if not kernel:
        return "zero", None
    square = buchberger([f * g for i, f in enumerate(gens) for g in gens[i:]]
                        + list(data.source_gens))
    for v in kernel:
        image = sum((c * f for c, f in zip(v, gens)), Poly.zero(n))
        if not normal_form(image, square).is_zero:
            return "nonzero", v
    return "zero", None


def _h_minus1_finite(km: KahlerModule) -> tuple[str, list[Poly] | None]:
    """H^-1 in B: the kernel of v -> v.J on B^p, a homomorphism of additive
    groups given by the images of the unit coordinate vectors.  The leading
    terms of the monic system are pairwise coprime pure powers with unit
    coefficients, so its syzygies are generated by the Koszul syzygies
    f_j e_i - f_i e_j (Schreyer; Eisenbud, Commutative Algebra, Thm 15.10),
    whose images in B^p vanish: every nonzero kernel vector is a
    witness."""
    B, coords, stairs = km.quotient
    jac, n, r = km.jacobian, km.rank_free, len(B.moduli)
    if not jac:
        return "zero", None
    rows = [tuple(c for f in row for c in B._product(e.coords, coords(f)))
            for row in jac for e in B.basis]
    kernel = hom_kernel(rows, B.moduli * len(jac), B.moduli * n)
    if not kernel:
        return "zero", None
    return "nonzero", [_poly_of(kernel[0][i * r:(i + 1) * r], stairs,
                                km.data.pres.base, n)
                       for i in range(len(jac))]


def _poly_of(coords: tuple, stairs: list, ring: FiniteRing, n: int) -> Poly:
    """The polynomial with these coordinates on (staircase) x (basis of R)."""
    k = len(ring.moduli)
    return Poly(n, {m: ring.element(coords[i * k:(i + 1) * k])
                    for i, m in enumerate(stairs)
                    if any(coords[i * k:(i + 1) * k])})


def naive_cotangent_complex(arg) -> CotangentComplexData:
    km = kahler_differentials(arg)
    data = km.data
    fitting = km.fitting_status()
    h0, rank = _h0(fitting, km.rank_free)

    if km.quotient is not None:
        h_minus1, witness = _h_minus1_finite(km)
        return CotangentComplexData(data, km.jacobian, h_minus1, witness, h0,
                                    rank, fitting, ["exhaustive"])

    flags: list[str] = []
    try:
        h_minus1, witness = _h_minus1_field(data, km.jacobian)
    except DegreeOverflowError:
        h_minus1, witness = "inconclusive", None
        flags.append("h_minus1_overflow")
    return CotangentComplexData(data, km.jacobian, h_minus1, witness, h0,
                                rank, fitting, flags)


# -- classification ------------------------------------------------------------

class ClassifierVerdict:
    __slots__ = ("verdict", "etale", "lisse", "non_ramifie", "complex_data")

    def __init__(self, verdict: str, etale: bool | None, lisse: bool | None,
                 non_ramifie: bool | None, complex_data: CotangentComplexData):
        self.verdict = verdict  # "etale" | "lisse" | "non_ramifie" | "none"
        self.etale = etale
        self.lisse = lisse
        self.non_ramifie = non_ramifie
        self.complex_data = complex_data

    def to_json(self) -> dict:
        body = self.complex_data.to_json()
        return {
            "verdict": self.verdict,
            "h_minus1": body["h_minus1"],
            "h0": body["h0"],
            "truth_table": {"etale": self.etale, "lisse": self.lisse,
                            "non_ramifie": self.non_ramifie},
            "flags": body["flags"],
        }


def classify_morphism(arg) -> ClassifierVerdict:
    """Strongest verdict from the two-term complex, with the full truth table
    in the evidence.  No degree cap bounds it: H^-1 and the Fitting ideals
    are decided in every degree, and H^-1 is inconclusive only past the
    degree guard."""
    cx = naive_cotangent_complex(arg)
    h1_zero = {"zero": True, "nonzero": False}.get(cx.h_minus1)
    h0_zero = cx.h0 == "zero"
    h0_proj = cx.h0 in ("zero", "projective")

    etale = None if h1_zero is None else (h1_zero and h0_zero)
    lisse = None if h1_zero is None else (h1_zero and h0_proj)
    non_ram = h0_zero
    if etale:
        verdict = "etale"
    elif lisse:
        verdict = "lisse"
    elif non_ram:
        verdict = "non_ramifie"
    elif h1_zero is None:
        verdict = "inconclusive"
    else:
        verdict = "none"
    return ClassifierVerdict(verdict, etale, lisse, non_ram, cx)


# -- de Rham complex -----------------------------------------------------------

class DeRhamComplexData:
    __slots__ = ("data", "top_degree", "generators", "relations",
                 "truncated_ranks", "modules")

    def __init__(self, data: RelativeData, top_degree: int, generators: dict,
                 relations: dict, truncated_ranks: dict, modules: dict):
        self.data = data
        self.top_degree = top_degree
        self.generators = generators    # k -> list of var-index subsets
        self.relations = relations  # k -> list of forms (subset -> Poly)
        # k -> dimension of the k-forms at the cap, and the Submodule of
        # their relations; -1 and none over a finite non-field base
        self.truncated_ranks = truncated_ranks
        self.modules = modules

    def form_d(self, form: dict, reduce: bool = True) -> dict:
        return _form_d(form, self.data, reduce)

    def is_zero_form(self, form: dict) -> bool:
        form = _nonzero(form)
        if not form:
            return True
        if not self.modules:
            raise PresentationError(
                "quotient membership needs field coefficients")
        return self.modules[len(next(iter(form)))].contains(form)


def _wedge(dform: dict, subset: tuple, out: dict) -> dict:
    """Add dform ^ e_subset into out, for a 1-form dform = {(j,): c}:
    dx_j ^ e_S is (-1)^#{s in S : s < j} e_(S + j), and zero for j in S.
    Coefficients that cancel stay in out, as zeros."""
    for (j,), c in dform.items():
        if j in subset:
            continue
        new = tuple(sorted(subset + (j,)))
        piece = -c if sum(1 for s in subset if s < j) % 2 else c
        out[new] = out[new] + piece if new in out else piece
    return out


def _nonzero(form: dict) -> dict:
    return {s: c for s, c in form.items() if not c.is_zero}


def _form_d(form: dict, data: RelativeData, reduce: bool = True) -> dict:
    pres = data.pres
    out: dict = {}
    for subset, coeff in form.items():
        dc = _nonzero({(j,): coeff.derivative(j) for j in data.rel_vars
                       if j not in subset})
        if reduce:
            dc = _nonzero({j: pres.normal_form(c) for j, c in dc.items()})
        _wedge(dc, subset, out)
    return _nonzero(out)


def de_rham_complex(arg, top_degree: int) -> DeRhamComplexData:
    """The k-forms, k <= top_degree, modulo I.Omega^k and dI ^ Omega^(k-1),
    with exact ranks at the cap; those above the relative variables are 0."""
    if top_degree < 0:
        raise PresentationError(f"negative top degree {top_degree}")
    data = relative_data(arg)
    pres = data.pres
    generators = {k: list(combinations(data.rel_vars, k))
                  for k in range(top_degree + 1)}
    reduced = [(pres.normal_form(g), _form_d({(): g}, data))
               for g in data.rel_gens]
    relations: dict = {0: [{(): gnf} for gnf, _ in reduced]}
    for k in range(1, top_degree + 1):
        rels = []
        for gnf, dg in reduced:
            if not gnf.is_zero:
                rels.extend({subset: gnf}          # I . Omega^k
                            for subset in generators[k])
            for subset in generators[k - 1]:
                wedged = _nonzero(_wedge(dg, subset, {}))
                if wedged:
                    rels.append(wedged)              # dI ^ Omega^(k-1)
        relations[k] = rels
    modules, ranks = {}, {k: -1 for k in generators}
    if pres.has_field_coefficients():
        for k in generators:
            modules[k] = Submodule(pres, generators[k], relations[k])
            ranks[k] = modules[k].rank(pres.degree_cap)
    return DeRhamComplexData(data, top_degree, generators, relations, ranks,
                             modules)


# -- the explicit integration primitive ----------------------------------------

class IntegrationResult:
    __slots__ = ("primitive", "lower_point", "prime", "flags")

    def __init__(self, primitive: Poly, lower_point: Fraction,
                 prime: int | None, flags: list):
        self.primitive = primitive      # h with dh = omega and h(f) = 0
        self.lower_point = lower_point
        self.prime = prime
        self.flags = flags


def etale_integration(omega: Poly, f,
                      prime: int | None = None) -> IntegrationResult:
    """Integrate omega = sum a_i T^i dT from f to T.

    The primitive h = sum a_i/(i+1) (T^{i+1} - f^{i+1}) lies in (T - f) and
    satisfies dh = omega on the nose.  The coefficients are rationals, so
    the denominators i+1 are invertible; when a prime is supplied, the
    indices with p | i+1 are flagged as p-adic precision loss.
    """
    if omega.nvars != 1:
        raise PresentationError("omega must be univariate in T")
    f = Fraction(f)
    flags = []
    terms: dict = {}
    constant = Fraction(0)
    for (i,), a in omega.terms.items():
        a = Fraction(a)
        coeff = a / (i + 1)
        if prime is not None and (i + 1) % prime == 0:
            flags.append(f"precision_loss_at_degree_{i}")
        terms[(i + 1,)] = terms.get((i + 1,), Fraction(0)) + coeff
        constant -= coeff * f ** (i + 1)
    if constant:
        terms[(0,)] = terms.get((0,), Fraction(0)) + constant
    h = Poly(1, terms)
    return IntegrationResult(h, f, prime, flags)
