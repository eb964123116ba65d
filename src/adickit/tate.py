"""Finitely presented Tate-algebra quotients and their Gauss norms.

A presentation is always flattened over a scalar coefficient base: a p-adic
field at fixed precision, the integers, or a finite ring.  Towers (B over A
over the base) are represented by variable/generator prefixes, so composing
and base-changing presentations is substitution on the flat data.

Over a p-adic base the coefficients are exact rationals: Groebner bases are
computed over Q, and a Gauss norm is read off the p-adic valuations of all
of a polynomial's coefficients, whatever their degree.

A free module (K[X]/I)^r over a presentation is encoded in K[X, E] with a
tag variable per summand: `Submodule` is one Groebner basis there, which
gives exact ranks at a cap and membership, and the same encoding feeds the
one syzygy computation of the H^-1 kernel in `differentials`.  No
coordinate space is truncated at a working degree here.
"""

from __future__ import annotations

from fractions import Fraction

from .finiterings import FiniteRing, FiniteRingElement
from .groebner import buchberger, normal_form, staircase_shell
from .norms import ExactNorm
from .padics import DEFAULT_PRECISION, rational_valuation
from .poly import Poly, exp_coprime, exp_mul, grevlex_key, render_poly

DEFAULT_DEGREE_CAP = 8


class PresentationError(ValueError):
    """The requested operation is not available for this presentation."""


class QpBase:
    """Coefficient field Q_p carried at precision N."""
    __slots__ = ("p", "precision")

    def __init__(self, p: int, precision: int = DEFAULT_PRECISION):
        self.p = p
        self.precision = precision

    def __eq__(self, other):
        if other.__class__ is not QpBase:
            return NotImplemented
        return (self.p, self.precision) == (other.p, other.precision)

    def __hash__(self):
        return hash((self.p, self.precision))

    def __str__(self):
        return f"Qp({self.p},{self.precision})"


class IntegerBase:
    """Coefficient ring Z; used for lifting corpora over mixed characteristics."""
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not IntegerBase:
            return NotImplemented
        return True

    def __hash__(self):
        return hash(IntegerBase)

    def __str__(self):
        return "ZZ"


def base_name(base) -> str:
    if isinstance(base, FiniteRing):
        return base.name
    return str(base)


def gauss_norm(f: Poly, p: int) -> ExactNorm:
    """The Gauss norm of f in Q_p<X>: the largest |c|_p = p^-v_p(c) over
    every (rational) coefficient c of f, so p^-(min v_p(c)); exactly zero
    iff f is zero."""
    if f.is_zero:
        return ExactNorm.zero()
    return ExactNorm.power(p, -min(rational_valuation(c, p)
                                   for c in f.terms.values()))


# -- presentations -----------------------------------------------------------

class RingPresentation:
    """B = base<X_1..X_n>/(f_1..f_p) with ordered generators."""

    def __init__(self, base, varnames: tuple, gens: list[Poly],
                 degree_cap: int = DEFAULT_DEGREE_CAP,
                 parent: "RingPresentation | None" = None):
        self.base = base
        self.parent = parent  # the declared base ring of the tower, if any
        self.varnames = tuple(varnames)
        if len(set(self.varnames)) != len(self.varnames):
            raise PresentationError("duplicate variable names")
        self.gens = list(gens)
        for g in self.gens:
            if g.nvars != len(self.varnames):
                raise PresentationError("generator variable count mismatch")
        if degree_cap < 0:
            raise PresentationError(f"negative degree cap {degree_cap}")
        self.degree_cap = degree_cap
        self._basis = None
        self._stairs: list = []     # standard monomials, grevlex-ascending
        self._stair_ends = [0]      # [d + 1]: how many have degree <= d

    # -- coefficient domain helpers ----------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.varnames)

    def coeff_one(self):
        if isinstance(self.base, FiniteRing):
            return self.base.one
        return Fraction(1)

    def var(self, name: str) -> Poly:
        return Poly.variable(self.varnames.index(name), self.nvars,
                             self.coeff_one())

    def const(self, c) -> Poly:
        if isinstance(self.base, FiniteRing) and not isinstance(c, FiniteRingElement):
            c = self.base.from_int(int(c))
        elif not isinstance(self.base, FiniteRing):
            c = Fraction(c)
        return Poly.constant(c, self.nvars)

    def has_field_coefficients(self) -> bool:
        if isinstance(self.base, QpBase):
            return True
        if isinstance(self.base, FiniteRing):
            return self.base.is_field
        return False

    # -- normal forms --------------------------------------------------------

    def groebner_basis(self) -> list[Poly]:
        """Reduced basis used for canonical normal forms.

        Field coefficients go through Buchberger.  Over a finite non-field
        base the generators must already be a separated monic rewrite system
        (unit leading coefficients, pure-power leading monomials of distinct
        variables); pairwise-coprime leading terms make such a system a
        Groebner basis of its ideal.
        """
        if self._basis is not None:
            return self._basis
        if self.has_field_coefficients():
            self._basis = buchberger(self.gens)
        elif isinstance(self.base, FiniteRing):
            self._basis = self._validated_rewrite_system()
        else:
            raise PresentationError(
                "normal forms over the integer base are not supported; "
                "use point functors")
        return self._basis

    def _validated_rewrite_system(self) -> list[Poly]:
        basis = []
        seen_vars = set()
        for g in self.gens:
            if g.is_zero:
                continue
            exp, lc = g.leading()
            if not lc.is_unit():
                raise PresentationError(
                    "finite-base presentation needs unit leading coefficients")
            support = [i for i, e in enumerate(exp) if e]
            if len(support) != 1 or support[0] in seen_vars:
                raise PresentationError(
                    "finite-base presentation needs one pure-power leading "
                    "monomial per variable")
            seen_vars.add(support[0])
            basis.append(g.scale(lc.inverse()))
        for i, g in enumerate(basis):
            for h in basis[i + 1:]:
                if not exp_coprime(g.leading()[0], h.leading()[0]):
                    raise PresentationError("leading monomials must be coprime")
        return sorted(basis, key=lambda g: grevlex_key(g.leading()[0]))

    def normal_form(self, f: Poly) -> Poly:
        return normal_form(f, self.groebner_basis())

    def nf_zero(self, f: Poly) -> bool:
        return self.normal_form(f).is_zero

    def staircase(self, max_degree: int | None = None) -> list[tuple]:
        """Standard monomials of degree <= max_degree (default the degree
        cap), grevlex-ascending, returned as a fresh list.  The staircase is
        enumerated once per presentation, one degree at a time as higher
        degrees are asked for; a lower degree is a prefix of it."""
        cap = self.degree_cap if max_degree is None else max_degree
        cap = max(cap, 0)       # as monomials_upto: degree 0 below zero
        stairs, ends = self._stairs, self._stair_ends
        if len(ends) <= cap + 1:
            leading = [g.leading()[0] for g in self.groebner_basis()
                       if not g.is_zero]
            shell = stairs[ends[-2]:] if len(ends) > 1 else None
            while len(ends) <= cap + 1:
                shell = staircase_shell(leading, self.nvars, shell)
                stairs.extend(shell)
                ends.append(len(stairs))
        return stairs[:ends[cap + 1]]

    # -- structure -----------------------------------------------------------

    def extend(self, new_varnames: tuple,
               new_gens: list[Poly]) -> "RingPresentation":
        """Adjoin variables and relations (the flattened Quot construction).
        Existing generators are reinterpreted in the larger variable list;
        new generators must already use the combined list."""
        varnames = self.varnames + tuple(new_varnames)
        n = len(varnames)
        gens = [g.extend_vars(n) for g in self.gens]
        for g in new_gens:
            if g.nvars != n:
                raise PresentationError(
                    "new generators must use the extended variable list")
            gens.append(g)
        return RingPresentation(self.base, varnames, gens, self.degree_cap,
                                parent=self)

    def fresh_varname(self, stem: str) -> str:
        if stem not in self.varnames:
            return stem
        k = 2
        while f"{stem}{k}" in self.varnames:
            k += 1
        return f"{stem}{k}"

    def is_tower_extension_of(self, other: "RingPresentation") -> bool:
        """Is `other` a variable/generator prefix of self (same base)?"""
        if base_key(self.base) != base_key(other.base):
            return False
        if self.varnames[:other.nvars] != other.varnames:
            return False
        if len(self.gens) < len(other.gens):
            return False
        lifted = [g.extend_vars(self.nvars) for g in other.gens]
        return self.gens[:len(lifted)] == lifted

    def describe(self) -> str:
        rel = "; ".join(render_poly(g, self.varnames) for g in self.gens)
        head = f"{base_name(self.base)}<{','.join(self.varnames)}>"
        return f"{head}/({rel})" if rel else head

    def __eq__(self, other):
        if not isinstance(other, RingPresentation):
            return NotImplemented
        return (base_key(self.base) == base_key(other.base)
                and self.varnames == other.varnames
                and self.gens == other.gens)

    def __repr__(self):
        return f"RingPresentation({self.describe()})"


def tagged_free_module(pres: RingPresentation, keys) -> tuple[dict, list]:
    """F = (K[X]/I)^keys inside K[X, E], a tag E_j per key after the X
    variables (Eisenbud, Commutative Algebra, ch. 15): the exponent of each
    key's tag, and the generators of I.F with every E_i E_j (so S-pairs
    across tags reduce to zero), g.E_j for g in the presentation's basis."""
    n, keys = pres.nvars, list(keys)
    units = [tuple(int(i == j) for i in range(len(keys)))
             for j in range(len(keys))]
    tags = dict(zip(keys, units))
    one = pres.coeff_one()
    gens = [Poly(n + len(keys), {(0,) * n + exp_mul(a, b): one})
            for i, a in enumerate(units) for b in units[i:]]
    gens += [tag_form(n, tags, {k: g}) for g in pres.groebner_basis()
             for k in keys]
    return tags, gens


def tag_form(nvars: int, tags: dict, form: dict) -> Poly:
    """A form (dict key -> Poly in nvars variables) as sum c_j E_j."""
    return Poly(nvars + len(tags),
                {e + tags[k]: c for k, f in form.items()
                 for e, c in f.terms.items()}, normalize=False)


class Submodule:
    """The submodule N + I.F of F = (K[X]/I)^keys spanned by forms (dicts
    key -> Poly), as one Groebner basis in K[X, E] of the generators of
    `tagged_free_module` and each form as sum c_j E_j.  Its E-linear part is
    N + I.F; grevlex orders the X^a E_j by X-degree first, so its E-linear
    standard monomials of X-degree <= d are a basis of F / (N + I.F) in
    degree <= d."""
    __slots__ = ("pres", "tags", "basis", "leading")

    def __init__(self, pres: RingPresentation, keys, forms):
        self.pres = pres
        self.tags, gens = tagged_free_module(pres, keys)
        gens += [f for f in (tag_form(pres.nvars, self.tags, form)
                             for form in forms) if not f.is_zero]
        self.basis = buchberger(gens)
        # X-parts of the E-linear leading monomials, tag by tag
        n = pres.nvars
        self.leading = {t: [] for t in self.tags.values()}
        for g in self.basis:
            exp = g.leading()[0]
            if exp[n:] in self.leading:
                self.leading[exp[n:]].append(exp[:n])

    def rank(self, cap: int) -> int:
        """Dimension of the degree <= cap part of F / (N + I.F)."""
        total = 0
        for leading in self.leading.values():
            shell = None
            for _ in range(cap + 1):
                shell = staircase_shell(leading, self.pres.nvars, shell)
                total += len(shell)
        return total

    def contains(self, form: dict) -> bool:
        return normal_form(tag_form(self.pres.nvars, self.tags, form),
                           self.basis).is_zero


def _integral_membership(poly: Poly, gens: list[Poly]) -> bool:
    """Ideal membership over the integers, certified through the rational
    basis: sufficient when the pulled-back combination has integral
    coefficients (which covers tower inclusions)."""
    if poly.is_zero:
        return True
    if not gens:
        return False
    from .groebner import buchberger_tracked
    basis, rows = buchberger_tracked(gens)
    rem, quot = normal_form(poly, basis, track=True)
    if not rem.is_zero:
        return False
    combo = [Poly.zero(poly.nvars) for _ in gens]
    for a, q in enumerate(quot):
        if q.is_zero:
            continue
        combo = [c + q * r for c, r in zip(combo, rows[a])]
    return all(c.denominator == 1
               for piece in combo for c in piece.terms.values())


def base_key(base):
    if isinstance(base, FiniteRing):
        return ("finite", id(base))
    return base


def free_presentation(base, varnames: tuple,
                      degree_cap: int = DEFAULT_DEGREE_CAP) -> RingPresentation:
    return RingPresentation(base, varnames, [], degree_cap)


class MorphismPresentation:
    """A base-algebra map A -> B given by images of A's variables in B."""

    def __init__(self, source: RingPresentation, target: RingPresentation,
                 images: list[Poly], check: bool = True):
        if base_key(source.base) != base_key(target.base):
            raise PresentationError("morphism endpoints live over different bases")
        if len(images) != source.nvars:
            raise PresentationError("one image per source variable required")
        self.source = source
        self.target = target
        self.images = [im if im.nvars == target.nvars else
                       im.extend_vars(target.nvars) for im in images]
        if check:
            for g in source.gens:
                pushed = self.apply(g)
                try:
                    ok = target.nf_zero(pushed)
                except PresentationError:
                    ok = _integral_membership(pushed, target.gens)
                if not ok:
                    raise PresentationError(
                        "images do not satisfy the source relations")

    @classmethod
    def inclusion(cls, source: RingPresentation,
                  target: RingPresentation) -> "MorphismPresentation":
        """The structural map of a tower extension."""
        if not target.is_tower_extension_of(source):
            raise PresentationError("target is not a tower extension of source")
        one = target.coeff_one()
        return cls(source, target,
                   [Poly.variable(i, target.nvars, one)
                    for i in range(source.nvars)], check=False)

    def apply(self, f: Poly) -> Poly:
        """Push a polynomial over the source variables into the target."""
        if f.nvars != self.source.nvars:
            raise PresentationError("polynomial is not over the source variables")
        return f.substitute(self.images, self.target.nvars, lambda c: c,
                            self.target.coeff_one())

    def is_identity_inclusion(self) -> bool:
        if not self.target.is_tower_extension_of(self.source):
            return False
        one = self.target.coeff_one()
        return all(
            im == Poly.variable(i, self.target.nvars, one)
            for i, im in enumerate(self.images))

    def __repr__(self):
        imgs = ", ".join(
            f"{v} -> {render_poly(im, self.target.varnames)}"
            for v, im in zip(self.source.varnames, self.images))
        return (f"MorphismPresentation({self.source.describe()} --[{imgs}]--> "
                f"{self.target.describe()})")


def compose_presentations(f: MorphismPresentation,
                          g: MorphismPresentation) -> MorphismPresentation:
    """The composite A -> C of A -> B and B -> C."""
    if f.target != g.source:
        raise PresentationError(
            "middle presentations do not match; cannot compose")
    return MorphismPresentation(f.source, g.target,
                                [g.apply(im) for im in f.images], check=False)


def base_change(pres: RingPresentation,
                phi: MorphismPresentation) -> MorphismPresentation:
    """Push a tower extension B of A along phi: A -> A'.

    Returns the structural morphism A' -> B' = A' (x)_A B; the underlying
    presentation is its target.
    """
    src = phi.source
    if not pres.is_tower_extension_of(src):
        raise PresentationError(
            "presentation is not a tower extension of phi's source")
    tgt = pres  # B over A
    aprime = phi.target
    extra_vars = tgt.varnames[src.nvars:]
    extra_gens = tgt.gens[len(src.gens):]

    renamed = []
    result = aprime
    for name in extra_vars:
        fresh = result.fresh_varname(name)
        renamed.append(fresh)
        result = result.extend((fresh,), [])
    n_new = result.nvars
    one = result.coeff_one()
    # old variable i -> phi image (A-vars) or the adjoined copy (extras)
    values = [im.extend_vars(n_new) for im in phi.images]
    values += [Poly.variable(aprime.nvars + j, n_new, one)
               for j in range(len(extra_vars))]
    pushed = [g.substitute(values, n_new, lambda c: c, one)
              for g in extra_gens]
    final = RingPresentation(result.base, result.varnames,
                             result.gens + pushed, result.degree_cap,
                             parent=aprime)
    return MorphismPresentation.inclusion(aprime, final)
