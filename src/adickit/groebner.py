"""Buchberger's algorithm over field coefficients, with certificate tracking.

Everything here works for any coefficient type supporting field operations
(Fractions for the exact rational layer, finite-field elements); normal
forms also reduce over a finite ring against a basis with unit leading
coefficients.  The tracked variants maintain the expression of each basis
element as a combination of the input generators, which is what
ideal-membership certificates and syzygy generators are built from.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .poly import (Poly, exp_coprime, exp_div, exp_divides, exp_lcm,
                   exp_mul, exp_total, grevlex_key)

DEGREE_GUARD = 64


class DegreeOverflowError(ArithmeticError):
    """A computation exceeded the hard degree guard."""


def _vec_zero(length: int, nvars: int) -> list[Poly]:
    return [Poly.zero(nvars) for _ in range(length)]

def _vec_sub(a: list[Poly], b: list[Poly]) -> list[Poly]:
    return [x - y for x, y in zip(a, b)]

def _vec_mul_term(a: list[Poly], exp: tuple, coeff) -> list[Poly]:
    return [x.mul_term(exp, coeff) for x in a]

def _vec_scale(a: list[Poly], coeff) -> list[Poly]:
    return [x.scale(coeff) for x in a]

def _vec_less(a: list[Poly], quotients: list[Poly], rows) -> list[Poly]:
    """a - sum(q * rows[k]) over the nonzero quotients q = quotients[k]."""
    for q, row in zip(quotients, rows):
        if not q.is_zero:
            a = _vec_sub(a, [x * q for x in row])
    return a


def normal_form(f: Poly, basis: list[Poly], *, track: bool = False):
    """Fully reduce f against basis (leading coefficients must be invertible).

    Returns the remainder, or (remainder, quotients) when track=True with
    f = sum(quotients[i] * basis[i]) + remainder.  Raises
    DegreeOverflowError on reaching a term of degree above DEGREE_GUARD.
    """
    leads = [(i, *g.leading(), g.terms) for i, g in enumerate(basis)
             if not g.is_zero]
    inverses: dict = {}
    quotients = [{} for _ in basis] if track else None
    remainder: dict = {}
    work = dict(f.terms)
    # max-heap of work's monomials: grevlex order is (-degree, reversed
    # exponent) ascending; stale entries are skipped when popped
    pending = [(-sum(e),) + e[::-1] for e in work]
    heapify(pending)
    while pending:
        key = heappop(pending)
        exp = key[:0:-1]
        if exp not in work:
            continue
        if -key[0] > DEGREE_GUARD:
            raise DegreeOverflowError(
                f"reduction exceeded degree guard {DEGREE_GUARD}")
        coeff = work[exp]
        div = next((lead for lead in leads if exp_divides(lead[1], exp)), None)
        if div is None:
            _add_term(remainder, exp, coeff)
            terms = [(exp, -coeff)]
        else:
            i, gexp, gcoeff, gterms = div
            if i not in inverses:
                inverses[i] = gcoeff ** -1
            factor = coeff * inverses[i]
            shift = exp_div(exp, gexp)
            # a zero factor (from a zero term a zero divisor left behind)
            # only drops that term
            terms = ([(exp_mul(e, shift), -(factor * c))
                      for e, c in gterms.items()] if factor else
                     [(exp, -coeff)])
        for e, c in terms:
            if e in work:
                s = work[e] + c
                if s:
                    work[e] = s
                else:
                    del work[e]
            elif c:     # factor * c vanishes when factor is a zero divisor
                work[e] = c
                heappush(pending, (-sum(e),) + e[::-1])
        if div is not None and track and factor:
            _add_term(quotients[div[0]], shift, factor)
        if exp in work:
            heappush(pending, key)
    remainder = Poly(f.nvars, remainder, normalize=False)
    if track:
        return remainder, [Poly(f.nvars, q, normalize=False)
                           for q in quotients]
    return remainder


def _add_term(terms: dict, exp: tuple, coeff) -> None:
    if exp in terms:
        s = terms[exp] + coeff
        if s:
            terms[exp] = s
        else:
            del terms[exp]
    else:
        terms[exp] = coeff


def _s_pair(f: Poly, g: Poly) -> tuple[Poly, tuple, tuple]:
    """S-polynomial of two monic polynomials, plus the two cofactor monomials."""
    fexp, _ = f.leading()
    gexp, _ = g.leading()
    lcm = exp_lcm(fexp, gexp)
    mf, mg = exp_div(lcm, fexp), exp_div(lcm, gexp)
    one_coeff = f.leading()[1]  # both monic: this is 1 of the field
    return f.mul_term(mf, one_coeff) - g.mul_term(mg, one_coeff), mf, mg


def buchberger_tracked(gens: list[Poly]):
    """Reduced monic Groebner basis G with transformation matrix M, G = M.F.

    Zero input generators are tolerated (they contribute nothing).
    """
    return _buchberger(gens, track=True)


def buchberger(gens: list[Poly]) -> list[Poly]:
    return _buchberger(gens, track=False)[0]


def _buchberger(gens: list[Poly], track: bool):
    """Buchberger's algorithm with the sugar strategy: pairs wait in a heap
    keyed once by (sugar, grevlex lcm), and a pair is skipped by the
    product criterion, or by the chain criterion when a third leading
    monomial divides its lcm and neither pair with that element waits
    (Gebauer and Moeller, On an installation of Buchberger's algorithm,
    1988).  The transformation rows are kept only when `track`."""
    if not gens:
        return [], []
    nvars = gens[0].nvars
    basis: list[Poly] = []
    reps: list = []
    leads: list[tuple] = []
    sugars: list[int] = []
    queue: list = []
    waiting: set = set()

    def add(f: Poly, rep, sugar: int) -> None:
        exp, lc = f.leading()
        inv = lc ** -1
        j = len(basis)
        for i, e in enumerate(leads):
            if not exp_coprime(e, exp):     # else the product criterion
                lcm = exp_lcm(e, exp)
                s = exp_total(lcm) + max(sugars[i] - exp_total(e),
                                         sugar - exp_total(exp))
                heappush(queue, (s, grevlex_key(lcm), i, j, lcm))
                waiting.add((i, j))
        basis.append(f.scale(inv))
        reps.append(_vec_scale(rep, inv) if track else None)
        leads.append(exp)
        sugars.append(sugar)

    for i, f in enumerate(gens):
        if not f.is_zero:
            lc = f.leading()[1]
            add(f, [Poly.constant(lc * lc ** -1, nvars) if k == i else
                    Poly.zero(nvars) for k in range(len(gens))]
                if track else None, f.total_degree())
    while queue:
        sugar, _, i, j, lcm = heappop(queue)
        waiting.discard((i, j))
        if any(k != i and k != j and exp_divides(e, lcm)
               and (min(i, k), max(i, k)) not in waiting
               and (min(j, k), max(j, k)) not in waiting
               for k, e in enumerate(leads)):
            continue    # the chain criterion
        sp, mi, mj = _s_pair(basis[i], basis[j])
        rem, quot = (normal_form(sp, basis, track=True) if track else
                     (normal_form(sp, basis), None))
        if rem.is_zero:
            continue
        rep = None
        if track:
            one = basis[i].leading()[1]
            rep = _vec_less(_vec_sub(_vec_mul_term(reps[i], mi, one),
                                     _vec_mul_term(reps[j], mj, one)),
                            quot, reps)
        add(rem, rep, max(sugar, rem.total_degree()))
    return _reduce(basis, reps, leads, track)


def _reduce(basis, reps, leads, track):
    """The reduced basis, grevlex-ascending, with its transformation rows
    when `track`: keep one element per minimal leading monomial, then
    reduce each tail against the others, which leaves every leading
    monomial in place."""
    keep = []
    for i, e in enumerate(leads):
        if not any(exp_divides(leads[k], e) and (leads[k] != e or k < i)
                   for k in range(len(leads)) if k != i):
            keep.append(i)
    keep.sort(key=lambda i: grevlex_key(leads[i]))
    minimal = [basis[i] for i in keep]
    out, rows = [], []
    for a, i in enumerate(keep):
        others = minimal[:a] + [Poly.zero(basis[i].nvars)] + minimal[a + 1:]
        if not track:
            out.append(normal_form(basis[i], others))
            continue
        rem, quot = normal_form(basis[i], others, track=True)
        out.append(rem)
        rows.append(_vec_less(reps[i], quot, [reps[k] for k in keep]))
    return out, rows


def representation(f: Poly, basis: list[Poly]) -> list[Poly]:
    """Quotients q with f = sum(q[i] * basis[i]); f must reduce to zero."""
    rem, quot = normal_form(f, basis, track=True)
    if not rem.is_zero:
        raise ValueError("element is not in the ideal spanned by the basis")
    return quot


def is_unit_ideal(basis: list[Poly]) -> bool:
    return any(not g.is_zero and exp_total(g.leading()[0]) == 0 for g in basis)


def unit_certificate(gens: list[Poly]) -> list[Poly] | None:
    """Coefficients c with 1 = sum(c[i] * gens[i]), or None if 1 is not in
    the ideal."""
    if not gens:
        return None
    basis, reps = buchberger_tracked(gens)
    for g, rep in zip(basis, reps):
        exp, coeff = g.leading()
        if exp_total(exp) == 0:
            inv = coeff ** -1  # basis is monic so this is 1, kept for clarity
            return _vec_scale(rep, inv)
    return None


def syzygy_basis(gens: list[Poly]) -> list[list[Poly]]:
    """Generators of the module of relations among gens.

    Uses Schreyer syzygies of the reduced Groebner basis pulled back through
    the tracked transformation, plus the rows of (Id - N.M) where N expresses
    the generators in the basis; a zero generator's row is its unit vector.
    An all-zero list has no coefficient to build those from: it returns [].
    """
    gens = list(gens)
    if all(f.is_zero for f in gens):
        return []
    nvars = gens[0].nvars
    basis, m_rows = buchberger_tracked(gens)
    n_rows = [representation(f, basis) for f in gens]
    one = basis[0].leading()[1] if basis else None

    syzygies: list[list[Poly]] = []
    # Schreyer syzygies of the basis, pulled back to the generators.
    for j in range(len(basis)):
        for i in range(j):
            sp, mi, mj = _s_pair(basis[i], basis[j])
            rem, quot = normal_form(sp, basis, track=True)
            if not rem.is_zero:
                raise AssertionError("S-pair of a Groebner basis must reduce to 0")
            # minus the basis syzygy x^mi e_i - x^mj e_j - quot, pulled back
            neg = list(quot)
            neg[i] = neg[i] - Poly(nvars, {mi: one})
            neg[j] = neg[j] + Poly(nvars, {mj: one})
            pulled = _vec_less(_vec_zero(len(gens), nvars), neg, m_rows)
            if any(not x.is_zero for x in pulled):
                syzygies.append(pulled)
    # Rows of Id - N.M.
    for i in range(len(gens)):
        row = _vec_zero(len(gens), nvars)
        row[i] = Poly.constant(one, nvars)
        row = _vec_less(row, n_rows[i], m_rows)
        if any(not x.is_zero for x in row):
            syzygies.append(row)
    return syzygies


def staircase_shell(leading: list[tuple], nvars: int,
                    below: list[tuple] | None = None) -> list[tuple]:
    """Standard monomials of one degree, grevlex-ascending: of degree 0 when
    `below` is None, else of degree d + 1 given `below`, those of degree d.
    The staircase is downward closed, so each monomial of degree d + 1 in it
    is x_i * m for some m of degree d in it."""
    if below is None:
        up = {(0,) * nvars}
    else:
        up = {m[:i] + (m[i] + 1,) + m[i + 1:] for m in below
              for i in range(nvars)}
    return sorted((m for m in up
                   if not any(exp_divides(lt, m) for lt in leading)),
                  key=grevlex_key)


def finite_staircase(basis: list[Poly], nvars: int) -> list[tuple]:
    """The standard monomials of a zero-dimensional Groebner basis,
    grevlex-ascending: its degree shells up to the first empty one, after
    which every shell is empty, as the staircase is downward closed."""
    leading = [g.leading()[0] for g in basis if not g.is_zero]
    stairs, shell = [], staircase_shell(leading, nvars)
    while shell:
        stairs.extend(shell)
        shell = staircase_shell(leading, nvars, shell)
    return stairs


def is_zero_dimensional(basis: list[Poly], nvars: int) -> bool:
    """Finite staircase test: every variable has a pure power among the
    leading terms."""
    if is_unit_ideal(basis):
        return True
    lts = [g.leading()[0] for g in basis if not g.is_zero]
    for i in range(nvars):
        if not any(all(e == 0 for k, e in enumerate(lt) if k != i) and lt[i] > 0
                   for lt in lts):
            return False
    return True

