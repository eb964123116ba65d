"""Rational localizations and the finite-precision gluing exactness checker.

The sequence 0 -> B -> B<f/g> (+) B<g/f> -> B<f/g,g/f> -> 0 is checked on
truncated coefficient spaces by exact rank computations.  "Inconclusive" is a
first-class verdict: a clause is only reported "exact" when the containment
is certified at the cap, and only reported "failed" when the relevant image
has stabilized under extra working degree and the containment still fails, so
a false "exact" is impossible by construction.
"""

from __future__ import annotations

from fractions import Fraction

from .groebner import DegreeOverflowError, unit_certificate
from .linalg import (RowSpace, kernel_of_map, settle, solve,
                     span_in_low_block)
from .poly import Poly, monomials_upto
from .tate import (IntegerBase, MorphismPresentation, PresentationError,
                   QpBase, RingPresentation, TruncatedBlock)


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


def binary_covering(B: RingPresentation, f: Poly, g: Poly) -> BinaryCovering:
    """The pieces of the cover by B<f/g> and B<g/f>, with the certificate of
    whether (f, g) generate the unit ideal, which the caller reads."""
    if B.has_field_coefficients():
        f, g = B.normal_form(f), B.normal_form(g)
    cert = covering_check(B, f, g)
    loc_fg, _ = rational_localization(B, f, g, "u")
    loc_gf, _ = rational_localization(B, g, f, "v")
    n = B.nvars + 2
    one = B.coeff_one()
    u = Poly.variable(B.nvars, n, one)
    v = Poly.variable(B.nvars + 1, n, one)
    fe, ge = f.extend_vars(n), g.extend_vars(n)
    joint = B.extend((loc_fg.varnames[-1], loc_gf.varnames[-1]),
                     [ge * u - fe, fe * v - ge])
    return BinaryCovering(B, f, g, loc_fg, loc_gf, joint, cert)


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


def _negated(vec: dict) -> dict:
    return {k: -c for k, c in vec.items()}


def _monomial_coords(block: TruncatedBlock, monomials: list) -> list[dict]:
    """Coordinates of NF(m) for each exponent m: the multiples of 1."""
    return block.multiples({0: Poly.constant(Fraction(1), block.pres.nvars)},
                           monomials)


def gluing_sequence_check(cov: BinaryCovering, degree_cap: int = 6,
                          precision: int = 6,
                          margin: int = 3) -> ExactnessReport:
    """Check the three exactness clauses on degree-capped coefficient spaces.

    The image spans are recomputed at an enlarged working degree before a
    clause is allowed to fail (`linalg.settle`): the degree <= cap block of
    a wider coordinate space is a prefix of it (`TruncatedBlock`), matching
    the cap-level coordinates position by position.
    """
    if degree_cap < 0:
        raise PresentationError(f"negative degree cap {degree_cap}")
    one = Fraction(1)

    def padded(monomials):  # B -> loc_fg, loc_gf and (x.., u) -> (x.., u, v)
        return [m + (0,) for m in monomials]

    def loc2_into_joint(monomials):  # (x.., v) -> (x.., u, v)
        return [m[:-1] + (0, m[-1]) for m in monomials]

    def blocks(degree):     # B1 (+) B2: B2's columns after B1's
        T1 = TruncatedBlock(cov.loc_fg, degree)
        return T1, TruncatedBlock(cov.loc_gf, degree, shift=T1.width)

    def alpha(T1, T2, base_monomials):  # B -> B1 (+) B2
        lifted = padded(base_monomials)
        return [a | b for a, b in zip(_monomial_coords(T1, lifted),
                                      _monomial_coords(T2, lifted))]

    def beta(T12, loc1_monomials, loc2_monomials):  # B1 (+) B2 -> B12
        return _monomial_coords(T12, padded(loc1_monomials)) + [
            _negated(v) for v in
            _monomial_coords(T12, loc2_into_joint(loc2_monomials))]

    detail: dict = {}

    # Cap-level coordinates (also the shared low block of every working degree).
    C1, C2 = blocks(degree_cap)
    C12 = TruncatedBlock(cov.joint, degree_cap)

    # (i) injectivity of B -> B1 (+) B2 on degree <= cap.  Normal forms are
    # exact, so a kernel vector is a genuine algebraic counterexample.
    alpha_cap = alpha(C1, C2, cov.base_pres.staircase(degree_cap))
    kernel = kernel_of_map(alpha_cap, C1.width + C2.width, one)
    left = "exact" if not kernel else "failed"
    detail["left_kernel_dim"] = len(kernel)

    # (ii) kernel of the difference map on the cap-level middle term.
    beta_cap = beta(C12, C1.monomials, C2.monomials)
    ker_beta = kernel_of_map(beta_cap, C12.width, one)
    detail["middle_kernel_dim"] = len(ker_beta)

    def middle_attempt(work: int):
        W1, W2 = blocks(work)
        vectors = alpha(W1, W2, cov.base_pres.staircase(work))
        low_cols = W1.low_columns(degree_cap) + W2.low_columns(degree_cap)
        space = span_in_low_block(vectors, low_cols, W1.width + W2.width, one)
        ok = all(space.contains(v) for v in ker_beta)
        return ok, space.dim

    def right_attempt(work: int):
        W1, W2 = blocks(work)
        W12 = TruncatedBlock(cov.joint, work)
        images = beta(W12, W1.monomials, W2.monomials)
        space = span_in_low_block(images, W12.low_columns(degree_cap),
                                  W12.width, one)
        ok = all(space.contains({k: one}) for k in range(C12.width))
        return ok, space.dim

    clause = {True: "exact", False: "failed", None: "inconclusive"}
    middle = clause[settle(middle_attempt, degree_cap + margin)]
    right = clause[settle(right_attempt, degree_cap + margin)]
    return ExactnessReport(left, middle, right, degree_cap, precision, detail)


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
    Bt = TruncatedBlock(B, work)

    def solve_preimage(target_pres, element: Poly):
        """b in B (poly model) with the same normal form in the localization."""
        tr = TruncatedBlock(target_pres, work)
        images = _monomial_coords(tr, [m + (0,) for m in Bt.monomials])
        rhs, = tr.multiples({0: element}, [(0,) * tr.pres.nvars])
        rows = [[Fraction(0)] * len(images) for _ in range(tr.width)]
        for i, image in enumerate(images):
            for w, c in image.items():
                rows[w][i] = c
        sol = solve(rows, [rhs.get(w, Fraction(0)) for w in range(tr.width)],
                    one)
        if sol is None:
            return None
        return Poly(B.nvars, {m: c for m, c in zip(Bt.monomials, sol) if c})

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
    span = RowSpace(Bt.width, one)
    low = Bt.low_columns(degree_cap)

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
        shifts = [m for m in sub_monos if sum(m) + d <= work]
        for vec in Bt.multiples({0: gp}, shifts):
            span.insert(vec)
    ok = all(span.contains({k: one}) for k in low)
    return JointSurjectionResult(generators,
                                 "certified" if ok else "failed", perturbed,
                                 {"span_dim": span.dim})
