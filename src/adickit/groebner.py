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

def _vec_add(a: list[Poly], b: list[Poly]) -> list[Poly]:
    return [x + y for x, y in zip(a, b)]

def _vec_sub(a: list[Poly], b: list[Poly]) -> list[Poly]:
    return [x - y for x, y in zip(a, b)]

def _vec_mul_term(a: list[Poly], exp: tuple, coeff) -> list[Poly]:
    return [x.mul_term(exp, coeff) for x in a]

def _vec_scale(a: list[Poly], coeff) -> list[Poly]:
    return [x.scale(coeff) for x in a]


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
    if not gens:
        return [], []
    nvars = gens[0].nvars
    basis: list[Poly] = []
    reps: list[list[Poly]] = []
    for i, f in enumerate(gens):
        if f.is_zero:
            continue
        _, lc = f.leading()
        inv = lc ** -1
        basis.append(f.scale(inv))
        rep = _vec_zero(len(gens), nvars)
        rep[i] = Poly.constant(inv, nvars)
        reps.append(rep)

    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        # normal selection: smallest lcm first, deterministic
        pairs.sort(key=lambda ij: grevlex_key(
            exp_lcm(basis[ij[0]].leading()[0], basis[ij[1]].leading()[0])),
            reverse=True)
        i, j = pairs.pop()
        ei, ej = basis[i].leading()[0], basis[j].leading()[0]
        if exp_coprime(ei, ej):
            continue  # product criterion
        sp, mi, mj = _s_pair(basis[i], basis[j])
        sp_rep = _vec_sub(_vec_mul_term(reps[i], mi, basis[i].leading()[1]),
                          _vec_mul_term(reps[j], mj, basis[j].leading()[1]))
        rem, quot = normal_form(sp, basis, track=True)
        if rem.is_zero:
            continue
        rem_rep = sp_rep
        for k, q in enumerate(quot):
            if not q.is_zero:
                rem_rep = _vec_sub(rem_rep, [x * q for x in reps[k]])
        _, lc = rem.leading()
        inv = lc ** -1
        basis.append(rem.scale(inv))
        reps.append(_vec_scale(rem_rep, inv))
        pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))

    return _reduce_tracked(basis, reps)


def _reduce_tracked(basis, reps):
    """Inter-reduce a monic basis, keeping the transformation in sync."""
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            if basis[i].is_zero:
                continue
            others = [basis[k] if k != i else Poly.zero(basis[i].nvars)
                      for k in range(len(basis))]
            rem, quot = normal_form(basis[i], others, track=True)
            if rem == basis[i]:
                continue
            rep = reps[i]
            for k, q in enumerate(quot):
                if not q.is_zero:
                    rep = _vec_sub(rep, [x * q for x in reps[k]])
            if rem.is_zero:
                basis[i] = rem
                reps[i] = rep
            else:
                _, lc = rem.leading()
                inv = lc ** -1
                basis[i] = rem.scale(inv)
                reps[i] = _vec_scale(rep, inv)
            changed = True
    pairs = [(g, r) for g, r in zip(basis, reps) if not g.is_zero]
    pairs.sort(key=lambda gr: grevlex_key(gr[0].leading()[0]))
    return [g for g, _ in pairs], [r for _, r in pairs]


def buchberger(gens: list[Poly]) -> list[Poly]:
    basis, _ = buchberger_tracked(gens)
    return basis


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
    the generators in the basis.
    """
    gens = list(gens)
    live = [(i, f) for i, f in enumerate(gens) if not f.is_zero]
    if not live:
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
            s_vec = [Poly.zero(nvars) for _ in basis]
            s_vec[i] = s_vec[i] + Poly(nvars, {mi: one})
            s_vec[j] = s_vec[j] - Poly(nvars, {mj: one})
            for k, q in enumerate(quot):
                s_vec[k] = s_vec[k] - q
            pulled = _vec_zero(len(gens), nvars)
            for a, s in enumerate(s_vec):
                if s.is_zero:
                    continue
                pulled = _vec_add(pulled, [s * x for x in m_rows[a]])
            if any(not x.is_zero for x in pulled):
                syzygies.append(pulled)
    # Rows of Id - N.M.
    for i in range(len(gens)):
        if gens[i].is_zero:
            continue
        row = _vec_zero(len(gens), nvars)
        row[i] = Poly.constant(one, nvars)
        for a, q in enumerate(n_rows[i]):
            if not q.is_zero:
                row = _vec_sub(row, [q * x for x in m_rows[a]])
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

