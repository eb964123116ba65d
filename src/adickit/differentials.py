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

Two backends: field coefficient bases run exact Groebner/syzygy linear
algebra at a degree cap; finite non-field bases with a separated monic
presentation are classified exhaustively, computing in B = R[X]/(f) as a
`FiniteRing` built from structure constants (ideal closures for the Fitting
ideals, a sweep of B^p for H^-1), bounded by SEARCH_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .finiterings import FiniteRing, quotient_structure, subgroup_tree
from .groebner import DegreeOverflowError, is_zero_dimensional, syzygy_basis
from .linalg import RowSpace, kernel_of_map, span_in_low_block
from .poly import Poly, exp_total, grevlex_key, monomials_upto
from .tate import (MorphismPresentation, PresentationError, QpBase,
                   RingPresentation)

SEARCH_CAP = 1_000_000


# -- relative presentation plumbing ------------------------------------------

@dataclass
class RelativeData:
    """A presentation of a morphism's target with the source frozen out."""
    pres: RingPresentation          # full flattened presentation (NF authority)
    rel_vars: list[int]             # indices differentials are taken in
    rel_gens: list[Poly]            # generators presenting B over the source
    source_gens: list[Poly]         # source relations (syzygy ambient only)
    label: str = ""


def relative_data(arg) -> RelativeData:
    if isinstance(arg, RingPresentation):
        if arg.parent is not None:
            # presentations remember the ring they were built over; classify
            # relative to it
            return relative_data(MorphismPresentation.inclusion(arg.parent, arg))
        return RelativeData(arg, list(range(arg.nvars)), list(arg.gens), [],
                            arg.describe())
    if not isinstance(arg, MorphismPresentation):
        raise TypeError("expected a presentation or a morphism presentation")
    src, tgt = arg.source, arg.target
    if arg.is_identity_inclusion():
        rel_gens = [g for g in tgt.gens[len(src.gens):]]
        src_gens = [g.extend_vars(tgt.nvars) for g in src.gens]
        rel_vars = list(range(src.nvars, tgt.nvars))
        return RelativeData(tgt, rel_vars, rel_gens, src_gens, arg.describe())
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
                            tgt.degree_cap, tgt.declared)
    rel_gens = [g.extend_vars(n) for g in tgt.gens] + graph_gens
    return RelativeData(full, list(range(tgt.nvars)), rel_gens, src_gens,
                        arg.describe())


# -- Kahler differentials -----------------------------------------------------

@dataclass
class KahlerModule:
    data: RelativeData
    jacobian: list[list[Poly]]      # rows = relative generators, cols = rel vars

    @property
    def rank_free(self) -> int:
        return len(self.data.rel_vars)

    def fitting_status(self) -> dict:
        """For each k: is Fitt_k the unit ideal, zero, or something else?
        Field-coefficient route."""
        pres = self.data.pres
        n = self.rank_free
        p = len(self.jacobian)
        status = {}
        for k in range(n + 1):
            size = n - k
            if size <= 0:
                status[k] = "unit"
                continue
            if size > p:
                status[k] = "zero"  # no minors of this size exist
                continue
            minors = _all_minors(self.jacobian, size, pres)
            if all(m.is_zero for m in minors):
                status[k] = "zero"
                continue
            from .groebner import buchberger, is_unit_ideal
            basis = buchberger(list(pres.gens) + minors)
            status[k] = "unit" if is_unit_ideal(basis) else "other"
        return status

    def is_zero(self) -> bool:
        return self.fitting_status().get(0) == "unit"


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
    jac = [[pres.normal_form(g.derivative(j)) for j in data.rel_vars]
           for g in data.rel_gens]
    return KahlerModule(data, jac)


# -- the two-term complex ------------------------------------------------------

@dataclass
class CotangentComplexData:
    data: RelativeData
    jacobian: list[list[Poly]]
    syzygy_images: list[list[Poly]]   # conormal relations, reduced; none
                                      # on the exhaustive backend
    h_minus1: str                     # "zero" | "nonzero" | "inconclusive"
    h_minus1_witness: list[Poly] | None
    h0: str                           # "zero" | "projective" | "nonzero" | "inconclusive"
    h0_rank: int | None
    fitting: dict
    truncation: tuple
    flags: list

    def to_json(self) -> dict:
        h0 = 0 if self.h0 == "zero" else (
            self.h0_rank if self.h0 == "projective" else self.h0)
        return {
            "h_minus1": 0 if self.h_minus1 == "zero" else self.h_minus1,
            "h0": h0,
            "truncation": {"degree_cap": self.truncation[0],
                           "precision": self.truncation[1]},
            "flags": sorted(self.flags),
        }


def _h_minus1_field(data: RelativeData, degree_cap: int, syz_images: list,
                    margin: int = 2) -> tuple[str, list[Poly] | None]:
    """Kernel of the conormal differential versus the syzygy image (the
    normal forms of the syzygies' relation components), on exact truncated
    coordinate spaces."""
    pres = data.pres
    rel_gens = data.rel_gens
    p = len(rel_gens)
    if p == 0:
        return "zero", None
    one = pres.coeff_one()
    jac = [[pres.normal_form(g.derivative(j)) for j in data.rel_vars]
           for g in rel_gens]
    maxdeg = max((e.total_degree() for row in jac for e in row if not e.is_zero),
                 default=0)

    # kernel of v -> v.J on components of degree <= cap; normal forms are
    # exact, so kernel vectors are genuine relations in the quotient
    source = sorted(pres.staircase(degree_cap), key=grevlex_key)
    target_deg = degree_cap + maxdeg
    target = sorted(pres.staircase(target_deg), key=grevlex_key)
    t_index = {m: i for i, m in enumerate(target)}
    t_offsets = [j * len(target) for j in range(len(data.rel_vars))]
    images = []
    for row in jac:
        images.extend(_multiple_coords(dict(enumerate(row)), source,
                                       t_offsets, t_index, pres))
    kernel = kernel_of_map(images, len(target) * len(data.rel_vars), one)
    if not kernel:
        return "zero", None

    kernel_vectors = []
    width = len(source)
    for kv in kernel:
        vec = [Poly(pres.nvars,
                    {m: c for m, c in zip(source, kv[i * width:(i + 1) * width])
                     if c})
               for i in range(p)]
        kernel_vectors.append(vec)

    # syzygy image span at growing working degree
    syz = [v for v in syz_images if any(not c.is_zero for c in v)]

    def attempt(work: int):
        wide = sorted(pres.staircase(work), key=grevlex_key)
        w_index = {m: i for i, m in enumerate(wide)}
        wwidth = len(wide)
        w_offsets = [i * wwidth for i in range(p)]
        low_cols = [off + w_index[m] for off in w_offsets for m in source]
        vectors = []
        for s in syz:
            sdeg = max((c.total_degree() for c in s if not c.is_zero), default=0)
            if sdeg > work:     # its normal form has terms beyond the block
                raise DegreeOverflowError(
                    f"syzygy image of degree {sdeg} exceeds working degree "
                    f"{work}")
            vectors.extend(_multiple_coords(
                dict(enumerate(s)),
                monomials_upto(pres.nvars, max(work - sdeg, 0)),
                w_offsets, w_index, pres))
        space = span_in_low_block(vectors, low_cols, p * wwidth, one)
        flat = [{i * width + k: comp.terms[m]
                 for i, comp in enumerate(kv)
                 for k, m in enumerate(source) if m in comp.terms}
                for kv in kernel_vectors]
        ok = all(space.contains(r) for r in flat)
        return ok, space.dim

    work = degree_cap + margin
    ok, dim = attempt(work)
    if ok:
        return "zero", None
    ok2, dim2 = attempt(work + 1)
    if ok2:
        return "zero", None
    if dim2 == dim:
        return "nonzero", kernel_vectors[0]
    return "inconclusive", kernel_vectors[0]


def naive_cotangent_complex(arg, degree_cap: int | None = None,
                            precision: int | None = None) -> CotangentComplexData:
    data = relative_data(arg)
    pres = data.pres
    cap = degree_cap if degree_cap is not None else pres.degree_cap
    prec = precision if precision is not None else (
        pres.base.precision if isinstance(pres.base, QpBase) else 0)
    flags: list[str] = []

    if isinstance(pres.base, FiniteRing) and not pres.base.is_field:
        return _cotangent_finite_brute(data, cap, prec)

    km = KahlerModule(data, [[pres.normal_form(g.derivative(j))
                              for j in data.rel_vars] for g in data.rel_gens])
    fitting = km.fitting_status()
    n = km.rank_free
    if fitting.get(0) == "unit":
        h0, rank = "zero", 0
    else:
        rank = None
        for k in range(1, n + 1):
            if fitting.get(k) == "unit" and fitting.get(k - 1) == "zero":
                rank = k
                break
        h0 = "projective" if rank is not None else "nonzero"

    ambient = list(data.rel_gens) + list(data.source_gens)
    syz = syzygy_basis(ambient)
    syz_images = [[pres.normal_form(c) for c in v[:len(data.rel_gens)]]
                  for v in syz]
    try:
        h_minus1, witness = _h_minus1_field(data, cap, syz_images)
    except DegreeOverflowError:
        h_minus1, witness = "inconclusive", None
        flags.append("h_minus1_overflow")
    if h_minus1 == "inconclusive":
        flags.append("h_minus1_at_cap")
    return CotangentComplexData(data, km.jacobian, syz_images, h_minus1,
                                witness, h0, rank, fitting, (cap, prec), flags)


# -- exhaustive backend for finite non-field bases -----------------------------

def _cotangent_finite_brute(data: RelativeData, cap: int,
                            prec: int) -> CotangentComplexData:
    """The two-term complex over a finite non-field base R, by exhaustion in
    the finite ring B = R[X]/(separated monic system), built from structure
    constants on the additive basis (staircase monomial) x (basis of R)."""
    pres = data.pres
    if data.source_gens or data.rel_vars != list(range(pres.nvars)):
        raise PresentationError(
            "relative classification over a finite non-field base is not "
            "supported; classify the flattened presentation")
    ring = pres.base
    rel_gens = pres.groebner_basis()    # the monic separated system
    p = len(rel_gens)
    n = pres.nvars
    if not is_zero_dimensional(rel_gens, n):
        raise PresentationError(
            "finite-base classification needs a finite quotient")
    bound = sum(g.leading()[0][i] for g in rel_gens
                for i in range(n) if g.leading()[0][i]) + 1
    stairs = sorted(pres.staircase(bound), key=grevlex_key)
    if ring.cardinality ** len(stairs) > SEARCH_CAP:
        raise PresentationError("finite quotient too large to enumerate")
    moduli, products, one_coords, names, coords = quotient_structure(
        ring, rel_gens, stairs, pres.varnames)
    B = FiniteRing(moduli, products, one_coords, pres.describe(), names)
    # checked before any closure, which at this size would take seconds
    if p and B.cardinality ** p > SEARCH_CAP:
        raise PresentationError("kernel search space too large")
    jac = [[pres.normal_form(g.derivative(j)) for j in range(n)]
           for g in rel_gens]
    flags = ["exhaustive"]

    # H^0 via Fitting ideals: Fitt_0 = (1) iff the differentials vanish, and
    # ideal closures stay inside B (cheap) rather than B^n.
    fitting = _fitting_finite(B, coords, jac, pres)
    if fitting.get(0) == "unit":
        h0, rank = "zero", 0
    else:
        rank = None
        for k in range(1, n + 1):
            if fitting.get(k) == "unit" and fitting.get(k - 1) == "zero":
                rank = k
                break
        h0 = "projective" if rank is not None else "nonzero"

    # H^-1: kernel of v -> v.J inside B^p, exhaustively.  The leading terms
    # of the system are pairwise coprime pure powers with unit coefficients,
    # so its syzygies are generated by the Koszul syzygies f_j e_i - f_i e_j
    # (Schreyer; Eisenbud, Commutative Algebra, Thm 15.10), whose images in
    # B^p vanish: every nonzero kernel vector is a witness.
    if p == 0:
        h_minus1, witness = "zero", None
    else:
        rank_b = len(B.moduli)
        in_mods = B.moduli * p
        out_mods = B.moduli * n

        basis = [e.coords for e in B.basis]

        def flat(polys, e):
            """Coordinates of e * (polys) in B^len(polys), e the coordinates
            of an element of B."""
            return tuple(c for f in polys for c in B._product(e, coords(f)))

        # image rows of the unit coordinate vectors of B^p under v -> v.J
        rows = [flat(jac[i], e) for i in range(p) for e in basis]
        width_in, width_out = len(in_mods), len(out_mods)
        witness = None
        h_minus1 = "zero"
        # odometer sweep keeping the image incrementally updated
        digits = [0] * width_in
        image = [0] * width_out
        while True:
            if not any(image):
                v = tuple(digits)
                if any(v):
                    h_minus1 = "nonzero"
                    witness = [_poly_of(v[i * rank_b:(i + 1) * rank_b], stairs,
                                        ring, n) for i in range(p)]
                    break
            pos = 0
            while pos < width_in:
                digits[pos] += 1
                row = rows[pos]
                if digits[pos] < in_mods[pos]:
                    for t in range(width_out):
                        if row[t]:
                            image[t] = (image[t] + row[t]) % out_mods[t]
                    break
                # wrap: digit goes m-1 -> 0, i.e. subtract (m-1) * row
                m = in_mods[pos]
                digits[pos] = 0
                for t in range(width_out):
                    if row[t]:
                        image[t] = (image[t] - (m - 1) * row[t]) % out_mods[t]
                pos += 1
            if pos == width_in:
                break

    return CotangentComplexData(data, jac, [], h_minus1, witness,
                                h0, rank, fitting, (cap, prec), flags)


def _poly_of(coords: tuple, stairs: list, ring: FiniteRing, n: int) -> Poly:
    """The polynomial with these coordinates on (staircase) x (basis of R)."""
    k = len(ring.moduli)
    return Poly(n, {m: ring.element(coords[i * k:(i + 1) * k])
                    for i, m in enumerate(stairs)
                    if any(coords[i * k:(i + 1) * k])})


def _fitting_finite(B: FiniteRing, coords, jac, pres) -> dict:
    n, p = pres.nvars, len(jac)
    status = {}
    for k in range(n + 1):
        size = n - k
        if size <= 0:
            status[k] = "unit"
            continue
        if size > p:
            status[k] = "zero"
            continue
        minors = _all_minors(jac, size, pres)
        if all(m.is_zero for m in minors):
            status[k] = "zero"
            continue
        gens = [coords(m) for m in minors if not m.is_zero]
        ideal = _span([B._product(e.coords, g) for g in gens
                       for e in B.basis], B.moduli)
        status[k] = "unit" if B.one.coords in ideal else "other"
    return status


def _span(vectors: list, moduli: tuple) -> dict:
    """The subgroup of Z/m_1 x ... x Z/m_k generated by coordinate vectors,
    keyed by coordinate tuple.  Spans in B reach 10^6 elements, so they
    are kept as plain tuples, which take less memory and time than ring
    elements."""
    return subgroup_tree(
        (0,) * len(moduli), vectors,
        lambda u, v: tuple((x + y) % m for x, y, m in zip(u, v, moduli)))


# -- classification ------------------------------------------------------------

@dataclass
class ClassifierVerdict:
    verdict: str                    # "etale" | "lisse" | "non_ramifie" | "none"
    etale: bool | None
    lisse: bool | None
    non_ramifie: bool | None
    complex_data: CotangentComplexData
    truncation: tuple
    flags: list

    def to_json(self) -> dict:
        body = self.complex_data.to_json()
        return {
            "verdict": self.verdict,
            "h_minus1": body["h_minus1"],
            "h0": body["h0"],
            "truth_table": {"etale": self.etale, "lisse": self.lisse,
                            "non_ramifie": self.non_ramifie},
            "truncation": body["truncation"],
            "flags": sorted(set(self.flags)),
        }


def classify_morphism(arg, degree_cap: int | None = None,
                      precision: int | None = None) -> ClassifierVerdict:
    """Strongest verdict from the two-term complex, with the full truth table
    in the evidence.  Verdicts are relative to the tracked caps."""
    cx = naive_cotangent_complex(arg, degree_cap, precision)
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
    return ClassifierVerdict(verdict, etale, lisse, non_ram, cx,
                             cx.truncation, cx.flags)


# -- de Rham complex -----------------------------------------------------------

@dataclass
class DeRhamComplexData:
    data: RelativeData
    top_degree: int
    generators: dict                # k -> list of var-index subsets
    relations: dict                 # k -> list of forms (dict subset -> Poly)
    truncated_ranks: dict           # k -> dimension of the k-forms at the cap

    def form_d(self, form: dict, reduce: bool = True) -> dict:
        return _form_d(form, self.data, reduce)

    def is_zero_form(self, form: dict, cap: int | None = None) -> bool:
        return _form_zero_in_quotient(form, self, cap)


def _subset_sign(j: int, subset: tuple) -> int:
    before = sum(1 for s in subset if s < j)
    return -1 if before % 2 else 1


def _form_d(form: dict, data: RelativeData, reduce: bool = True) -> dict:
    pres = data.pres
    out: dict = {}
    for subset, coeff in form.items():
        for j in data.rel_vars:
            if j in subset:
                continue
            dc = coeff.derivative(j)
            if dc.is_zero:
                continue
            if reduce:
                dc = pres.normal_form(dc)
                if dc.is_zero:
                    continue
            new = tuple(sorted(subset + (j,)))
            sgn = _subset_sign(j, subset)
            piece = dc if sgn > 0 else -dc
            out[new] = out[new] + piece if new in out else piece
    return {s: c for s, c in out.items() if not c.is_zero}


def de_rham_complex(arg, top_degree: int) -> DeRhamComplexData:
    # pieces above the relative variable count exist and are zero
    data = relative_data(arg)
    pres = data.pres
    generators = {k: list(combinations(data.rel_vars, k))
                  for k in range(top_degree + 1)}
    relations: dict = {0: [{(): pres.normal_form(g)} for g in data.rel_gens]}
    for k in range(1, top_degree + 1):
        rels = []
        for g in data.rel_gens:
            gnf = pres.normal_form(g)
            for subset in generators[k]:
                if not gnf.is_zero:
                    rels.append({subset: gnf})       # I . Omega^k
            dg = _form_d({(): g}, data)
            for subset in generators[k - 1]:
                wedged: dict = {}
                for (j,), c in dg.items():
                    if j in subset:
                        continue
                    new = tuple(sorted((j,) + subset))
                    sgn = _subset_sign(j, subset)
                    piece = c if sgn > 0 else -c
                    wedged[new] = wedged[new] + piece if new in wedged else piece
                wedged = {s: c for s, c in wedged.items() if not c.is_zero}
                if wedged:
                    rels.append(wedged)              # dI ^ Omega^(k-1)
        relations[k] = rels
    ranks = {}
    for k in range(top_degree + 1):
        ranks[k] = _truncated_rank(generators[k], relations.get(k, []),
                                   data, pres.degree_cap)
    return DeRhamComplexData(data, top_degree, generators, relations, ranks)


def _multiple_coords(form: dict, monomials: list, offsets, index: dict,
                     pres) -> list[dict]:
    """Sparse coordinates of NF(m * form) for each m in a downward-closed
    monomial list, in the truncated block: the coefficient on key s sits at
    offsets[s] + index[staircase monomial]; terms beyond the block are
    dropped."""
    vectors = [{} for _ in monomials]
    for s, c in form.items():
        off = offsets[s]
        for vec, nf in zip(vectors, pres.multiples_nf(c, monomials)):
            vec.update((off + index[m], cc) for m, cc in nf.terms.items()
                       if m in index)
    return vectors


def _relation_block(relations: list, subsets: list, work: int,
                    pres) -> tuple:
    """The truncated block of the k-forms at a working degree (staircase
    monomials, their index, the subsets' column offsets) and the coordinates
    of the multiples of every relation form that fit it.  Forms whose
    coefficients are all zero (the degree-0 relations NF(g) = 0) add nothing
    to a span and are skipped."""
    monomials = sorted(pres.staircase(work), key=grevlex_key)
    index = {m: i for i, m in enumerate(monomials)}
    offsets = {s: i * len(monomials) for i, s in enumerate(subsets)}
    vectors = []
    for rel in relations:
        if all(c.is_zero for c in rel.values()):
            continue
        reldeg = max(c.total_degree() for c in rel.values())
        vectors.extend(_multiple_coords(
            rel, monomials_upto(pres.nvars, max(work - reldeg, 0)), offsets,
            index, pres))
    return monomials, index, offsets, vectors


def _truncated_rank(subsets: list, relations: list, data: RelativeData,
                    cap: int, margin: int = 4) -> int:
    """Dimension of the degree <= cap block of the k-forms.  Relation
    multiples are taken at an enlarged working degree and intersected back,
    so a module that is exactly zero reports rank zero once its certificate
    fits in the margin."""
    pres = data.pres
    if not pres.has_field_coefficients():
        return -1   # not computed over finite non-field bases
    monomials, _, offsets, vectors = _relation_block(relations, subsets,
                                                     cap + margin, pres)
    low_cols = [off + i for off in offsets.values()
                for i, m in enumerate(monomials) if exp_total(m) <= cap]
    span = span_in_low_block(vectors, low_cols,
                             len(monomials) * len(subsets), pres.coeff_one())
    return len(low_cols) - span.dim


def _form_zero_in_quotient(form: dict, cx: DeRhamComplexData,
                           cap: int | None = None) -> bool:
    pres = cx.data.pres
    reduced = {s: pres.normal_form(c) for s, c in form.items()}
    reduced = {s: c for s, c in reduced.items() if not c.is_zero}
    if not reduced:
        return True
    k = len(next(iter(reduced)))
    if not pres.has_field_coefficients():
        raise PresentationError("quotient membership needs field coefficients")
    cap = cap if cap is not None else pres.degree_cap
    work = max(cap, max(c.total_degree() for c in reduced.values())) + 2
    subsets = cx.generators[k]
    monomials, index, offsets, vectors = _relation_block(
        cx.relations.get(k, []), subsets, work, pres)
    span = RowSpace(len(monomials) * len(subsets), pres.coeff_one())
    for vec in vectors:
        span.insert(vec)
    unit = [(0,) * pres.nvars]
    return span.contains(_multiple_coords(reduced, unit, offsets, index,
                                          pres)[0])


# -- the explicit integration primitive ----------------------------------------

@dataclass
class IntegrationResult:
    primitive: Poly                 # h with dh = omega and h(f) = 0
    lower_point: Fraction
    prime: int | None
    flags: list

    def to_json(self) -> dict:
        return {"primitive": repr(self.primitive),
                "flags": sorted(self.flags)}


def etale_integration(omega: Poly, f, prime: int | None = None,
                      characteristic: int = 0) -> IntegrationResult:
    """Integrate omega = sum a_i T^i dT from f to T.

    The primitive h = sum a_i/(i+1) (T^{i+1} - f^{i+1}) lies in (T - f) and
    satisfies dh = omega on the nose.  Only characteristic 0 is supported
    (the denominators i+1 must be invertible); when a prime is supplied, the
    indices with p | i+1 are flagged as p-adic precision loss.
    """
    if characteristic != 0:
        raise PresentationError(
            "integration requires a characteristic-zero base")
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
