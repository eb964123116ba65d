"""Rational localizations and the gluing exactness checker.

On a covering, 1 = a*f + b*g in B, the sequence
0 -> B -> B<f/g> (+) B<g/f> -> B<f/g,g/f> -> 0 is the Cech complex of the
standard open cover of B by B_g and B_f (Tate's acyclicity theorem for the
completed rings), so it is exact in every degree once the pieces are those
localizations.  The checker certifies that from the pieces' presentations
and three exact normal forms of the covering identity; a covering whose
pieces differ is refused.
"""

from __future__ import annotations

from fractions import Fraction

from .groebner import DegreeOverflowError, unit_certificate
from .linalg import RowSpace, solve
from .poly import Poly, monomials_upto
from .tate import (IntegerBase, MorphismPresentation, PresentationError,
                   QpBase, RingPresentation)


def rational_localization(B: RingPresentation, f: Poly, g: Poly,
                          varname: str = "u"):
    """B<f/g> = B<u>/(g*u - f) plus the structural morphism B -> B<f/g>."""
    name = B.fresh_varname(varname)
    n = B.nvars + 1
    one = B.coeff_one()
    u = Poly.variable(B.nvars, n, one)
    relation = g.extend_vars(n) * u - f.extend_vars(n)
    loc = B.extend((name,), [relation])
    return loc, MorphismPresentation.inclusion(B, loc)


class CoveringCertificate:
    __slots__ = ("status", "f_coeff", "g_coeff", "ideal_coeffs", "note")

    def __init__(self, status: str, f_coeff: Poly | None = None,
                 g_coeff: Poly | None = None,
                 ideal_coeffs: list | None = None, note: str = ""):
        self.status = status        # "true" | "false" | "inconclusive"
        self.f_coeff = f_coeff
        self.g_coeff = g_coeff
        self.ideal_coeffs = ideal_coeffs
        self.note = note


def covering_check(B: RingPresentation, f: Poly, g: Poly) -> CoveringCertificate:
    """Decide 1 in I + (f, g) with an explicit combination as certificate."""
    gens = list(B.gens) + [f, g]
    try:
        if B.has_field_coefficients() or isinstance(B.base, IntegerBase):
            cert = unit_certificate(gens)
            if cert is None:
                return CoveringCertificate("false")
            if isinstance(B.base, IntegerBase) and any(
                    c.denominator != 1
                    for poly in cert for c in poly.terms.values()):
                return CoveringCertificate(
                    "inconclusive",
                    note="rational certificate exists but is not integral")
        else:
            # finite non-field base: only the easy constant-unit cases
            for poly, at in ((g, -1), (f, -2)):
                nf = B.normal_form(poly)
                if not nf.is_zero and nf.total_degree() == 0 and \
                        nf.leading()[1].is_unit():
                    cert = [Poly.zero(B.nvars)] * (len(B.gens) + 2)
                    cert[at] = Poly.constant(nf.leading()[1].inverse(),
                                             B.nvars)
                    break
            else:
                return CoveringCertificate(
                    "inconclusive", note="no decision procedure over this base")
        return CoveringCertificate("true", f_coeff=cert[-2], g_coeff=cert[-1],
                                   ideal_coeffs=cert[:-2])
    except DegreeOverflowError:
        return CoveringCertificate("inconclusive",
                                   note="degree guard hit during the check")


class BinaryCovering:
    __slots__ = ("base_pres", "f", "g", "loc_fg", "loc_gf", "joint",
                 "certificate")

    def __init__(self, base_pres: RingPresentation, f: Poly, g: Poly,
                 loc_fg: RingPresentation, loc_gf: RingPresentation,
                 joint: RingPresentation, certificate: CoveringCertificate):
        self.base_pres = base_pres
        self.f = f
        self.g = g
        self.loc_fg = loc_fg
        self.loc_gf = loc_gf
        self.joint = joint
        self.certificate = certificate


def _pieces(B: RingPresentation, f: Poly, g: Poly) -> tuple:
    """B<f/g> = B<u>/(g*u - f), B<g/f> = B<v>/(f*v - g), and B<f/g, g/f>
    with both relations."""
    loc_fg, _ = rational_localization(B, f, g, "u")
    loc_gf, _ = rational_localization(B, g, f, "v")
    n = B.nvars + 2
    one = B.coeff_one()
    u = Poly.variable(B.nvars, n, one)
    v = Poly.variable(B.nvars + 1, n, one)
    fe, ge = f.extend_vars(n), g.extend_vars(n)
    joint = B.extend((loc_fg.varnames[-1], loc_gf.varnames[-1]),
                     [ge * u - fe, fe * v - ge])
    return loc_fg, loc_gf, joint


def binary_covering(B: RingPresentation, f: Poly, g: Poly) -> BinaryCovering:
    """The pieces of the cover by B<f/g> and B<g/f>, with the certificate of
    whether (f, g) generate the unit ideal, which the caller reads."""
    if B.has_field_coefficients():
        f, g = B.normal_form(f), B.normal_form(g)
    cert = covering_check(B, f, g)
    return BinaryCovering(B, f, g, *_pieces(B, f, g), cert)


class ExactnessReport:
    __slots__ = ("left", "middle", "right", "degree_cap", "precision",
                 "detail")

    def __init__(self, left: str, middle: str, right: str, degree_cap: int,
                 precision: int, detail: dict | None = None):
        self.left = left
        self.middle = middle
        self.right = right
        self.degree_cap = degree_cap
        self.precision = precision
        self.detail = {} if detail is None else detail

    def __eq__(self, other):
        if other.__class__ is not ExactnessReport:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    def all_exact(self) -> bool:
        return (self.left, self.middle, self.right) == ("exact",) * 3

    def to_json(self) -> dict:
        return {"left": self.left, "middle": self.middle, "right": self.right,
                "degree_cap": self.degree_cap, "precision": self.precision}


def _coords(pres: RingPresentation, index: dict, poly: Poly) -> dict:
    """Sparse coordinates of NF(poly) on a staircase, given as monomial ->
    column; a term outside it raises KeyError."""
    return {index[m]: c for m, c in pres.normal_form(poly).terms.items()}


def _is_one(pres: RingPresentation, poly: Poly) -> bool:
    return pres.normal_form(
        poly - Poly.constant(pres.coeff_one(), pres.nvars)).is_zero


def gluing_sequence_check(cov: BinaryCovering, degree_cap: int = 6,
                          precision: int = 6) -> ExactnessReport:
    """Certify the three exactness clauses from the covering identity.

    The pieces must be the presentations `binary_covering` builds, else a
    PresentationError names the first that differs.  With a and b the
    certificate's coefficients of f and g, the normal forms of
    g*(a*u + b) in B<f/g>, f*(b*v + a) in B<g/f> and u*v in B<f/g, g/f>
    must each be 1: then g, f and fg are units in the pieces, which are the
    localizations B_g, B_f and B_fg, and every clause is exact in every
    degree.  Without a certificate, or where an identity fails, every
    clause is inconclusive.
    """
    if degree_cap < 0:
        raise PresentationError(f"negative degree cap {degree_cap}")
    B, f, g = cov.base_pres, cov.f, cov.g
    names = ("B<f/g>", "B<g/f>", "B<f/g, g/f>")
    given = (cov.loc_fg, cov.loc_gf, cov.joint)
    for name, piece, built in zip(names, given, _pieces(B, f, g)):
        if piece != built:
            raise PresentationError(
                f"covering piece {name} is {piece.describe()}, not "
                f"{built.describe()}")
    cert = cov.certificate
    certified = cert.status == "true"
    if certified:
        n, one = B.nvars, B.coeff_one()
        a, b, f1, g1 = (p.extend_vars(n + 1)
                        for p in (cert.f_coeff, cert.g_coeff, f, g))
        t = Poly.variable(n, n + 1, one)    # u in B<f/g>, v in B<g/f>
        u, v = Poly.variable(n, n + 2, one), Poly.variable(n + 1, n + 2, one)
        certified = (_is_one(cov.loc_fg, g1 * (a * t + b))
                     and _is_one(cov.loc_gf, f1 * (b * t + a))
                     and _is_one(cov.joint, u * v))
    clause = "exact" if certified else "inconclusive"
    return ExactnessReport(clause, clause, clause, degree_cap, precision)


class JointSurjectionResult:
    __slots__ = ("generators", "status", "perturbed", "detail")

    def __init__(self, generators: list[Poly], status: str, perturbed: bool,
                 detail: dict | None = None):
        self.generators = generators    # elements of B
        self.status = status            # "certified" | "failed"
        self.perturbed = perturbed
        self.detail = {} if detail is None else detail

    @property
    def count(self) -> int:
        return len(self.generators)


def _truncate_small_coeffs(poly: Poly, p: int) -> Poly:
    """Drop coefficients of p-adic norm <= 1/p (the delta = p^-1 perturbation)."""
    kept = {}
    for e, c in poly.terms.items():
        c = Fraction(c)
        if c.numerator % p != 0 or c.denominator % p == 0:
            kept[e] = c
    return Poly(poly.nvars, kept)


def joint_surjection_lift(cov: BinaryCovering, s1: list[Poly], s2: list[Poly],
                          over: RingPresentation | None = None,
                          degree_cap: int = 6) -> JointSurjectionResult:
    """Patch generating sets of the two localized pieces into a joint
    generating set of B over a sub-Tate-algebra, re-certifying surjectivity
    at the cap after the p^-1 truncation perturbation."""
    if degree_cap < 0:
        raise PresentationError(f"negative degree cap {degree_cap}")
    B = cov.base_pres
    if not isinstance(B.base, QpBase):
        raise PresentationError("joint lifting needs a p-adic base")
    p = B.base.p
    one = Fraction(1)
    if over is not None and not B.is_tower_extension_of(over):
        raise PresentationError("'over' must be a tower prefix of B")
    sub_nvars = over.nvars if over is not None else 0

    work = degree_cap + 2
    stairs = B.staircase(work)

    def solve_preimage(target_pres, element: Poly):
        """b in B (poly model) with the same normal form in the localization."""
        index = {m: i for i, m in enumerate(target_pres.staircase(work))}
        rows = [[Fraction(0)] * len(stairs) for _ in index]
        for i, m in enumerate(stairs):
            image = Poly(target_pres.nvars, {m + (0,): one}, normalize=False)
            for w, c in _coords(target_pres, index, image).items():
                rows[w][i] = c
        rhs = _coords(target_pres, index, element)
        sol = solve(rows, [rhs.get(w, Fraction(0)) for w in range(len(index))],
                    one)
        if sol is None:
            return None
        return Poly(B.nvars, {m: c for m, c in zip(stairs, sol) if c})

    generators: list[Poly] = []
    perturbed = False
    for pres, gens in ((cov.loc_fg, s1), (cov.loc_gf, s2)):
        for t in gens:
            t = t if t.nvars == pres.nvars else t.extend_vars(pres.nvars)
            b = solve_preimage(pres, t)
            if b is None:
                t2 = _truncate_small_coeffs(t, p)
                b = solve_preimage(pres, t2)
                perturbed = True
            if b is None:
                return JointSurjectionResult([], "failed", perturbed,
                                             {"unliftable": str(t)})
            if b not in generators:
                generators.append(b)

    # certify: sub-algebra monomials times generator products span B at cap
    index = {m: i for i, m in enumerate(stairs)}
    span = RowSpace(len(stairs), one)

    sub_monos = [m + (0,) * (B.nvars - sub_nvars)
                 for m in monomials_upto(sub_nvars, work)]
    products = {Poly.constant(one, B.nvars)}
    frontier = list(products)
    while frontier:
        new = []
        for prod in frontier:
            for gen in generators:
                cand = prod * gen
                if cand.total_degree() <= work and cand not in products:
                    products.add(cand)
                    new.append(cand)
        frontier = new
    for gp in products:
        d = gp.total_degree()
        for m in sub_monos:
            if sum(m) + d <= work:
                span.insert(_coords(B, index, gp.mul_term(m, one)))
    ok = all(span.contains({k: one})
             for k in range(len(B.staircase(degree_cap))))
    return JointSurjectionResult(generators,
                                 "certified" if ok else "failed", perturbed,
                                 {"span_dim": span.dim})
