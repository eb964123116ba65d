import random
from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings, strategies as st

from adickit.finiterings import gf, zmod
from adickit.groebner import (DEGREE_GUARD, buchberger, buchberger_tracked,
                              finite_staircase, is_unit_ideal,
                              is_zero_dimensional, normal_form,
                              staircase_shell, syzygy_basis, unit_certificate)
from adickit.poly import Poly, exp_divides, grevlex_key, monomials_upto

ONE = Fraction(1)


def V(i, n):
    return Poly.variable(i, n, ONE)


def C(c, n):
    return Poly.constant(Fraction(c), n)


def test_single_generator_already_reduced():
    T = V(0, 1)
    basis = buchberger([T * T - T])
    assert basis == [T * T - T]


def test_two_generator_buchberger_by_hand():
    # {X - Y^2, Y^3} in grevlex: leading terms Y^2 and Y^3; the S-pair chain
    # yields XY and then X^2, and Y^3 becomes redundant.
    X, Y = V(0, 2), V(1, 2)
    basis = buchberger([X - Y * Y, Y * Y * Y])
    assert basis == [Y * Y - X, X * Y, X * X]
    assert normal_form(X * Y, basis).is_zero


def full_staircase(nvars: int, basis: list, degree: int) -> list:
    """The oracle: every monomial up to the degree that no leading monomial
    of the basis divides, grevlex-ascending."""
    leading = [g.leading()[0] for g in basis if not g.is_zero]
    return [m for m in monomials_upto(nvars, degree)
            if not any(exp_divides(lt, m) for lt in leading)]


def test_empty_ideal():
    assert buchberger([]) == []
    shells = [staircase_shell([], 2)]
    for _ in range(2):
        shells.append(staircase_shell([], 2, shells[-1]))
    # 1; x, y; x^2, xy, y^2
    assert sum(shells, []) == full_staircase(2, [], 2)
    assert [len(s) for s in shells] == [1, 2, 3]


def test_finite_staircase_matches_full_enumeration():
    # random zero-dimensional ideals: a pure power of each variable plus
    # random polynomials; no standard monomial exceeds the sum of the basis
    # degrees
    rng = random.Random(7)
    checked = 0
    for p in (2, 3, 5):
        field = gf(p)
        for _ in range(50):
            n = rng.randint(1, 3)
            gens = [Poly(n, {tuple(rng.randint(1, 4) if j == i else 0
                                   for j in range(n)): field.one})
                    for i in range(n)]
            gens += [Poly(n, {tuple(rng.randint(0, 3) for _ in range(n)):
                              field.from_int(rng.randrange(1, p))
                              for _ in range(rng.randint(1, 4))})
                     for _ in range(rng.randint(0, 2))]
            basis = buchberger(gens)
            if is_unit_ideal(basis):
                continue
            assert is_zero_dimensional(basis, n)
            bound = sum(g.total_degree() for g in basis)
            assert finite_staircase(basis, n) == \
                full_staircase(n, basis, bound)
            checked += 1
    assert checked >= 100


def test_reduced_basis_is_order_independent():
    X, Y = V(0, 2), V(1, 2)
    gens = [X * X - Y, X * Y - C(1, 2), Y * Y - X]
    expected = buchberger(gens)
    for perm in permutations(gens):
        assert buchberger(list(perm)) == expected


def test_tracked_transformation():
    T = V(0, 1)
    gens = [T * T - T, C(2, 1) * T - C(1, 1)]
    basis, rows = buchberger_tracked(gens)
    for g, row in zip(basis, rows):
        total = Poly.zero(1)
        for coeff, f in zip(row, gens):
            total = total + coeff * f
        assert total == g


def test_unit_certificate_identity():
    T = V(0, 1)
    gens = [T * T - T, C(2, 1) * T - C(1, 1)]
    cert = unit_certificate(gens)
    assert cert is not None
    total = Poly.zero(1)
    for coeff, f in zip(cert, gens):
        total = total + coeff * f
    assert total == C(1, 1)
    assert is_unit_ideal(buchberger(gens))
    # and a non-unit ideal has no certificate
    assert unit_certificate([T * T]) is None


def _syzygy_systems():
    X, Y = V(0, 2), V(1, 2)
    return [
        [X * X - Y, Y * Y * X],
        [X - Y * Y, Y * Y * Y],
        [X * Y, X * X, Y * Y],
        [V(0, 1) ** 2 - V(0, 1), V(0, 1) ** 3],
    ]


def _zero_generator_cases():
    X, Y = V(0, 2), V(1, 2)
    F3 = gf(3)
    x, y = (Poly.variable(i, 2, F3.one) for i in range(2))
    zero = Poly.zero(2)
    return [([X * X - Y, zero, X * Y], ONE),
            ([zero, X.scale(Fraction(3))], ONE),
            ([x * x - y, zero, x * y + y, zero], F3.one)]


def test_syzygies_are_relations():
    for gens in _syzygy_systems():
        n = gens[0].nvars
        syz = syzygy_basis(gens, len(gens))
        for vec in syz:
            total = Poly.zero(n)
            for coeff, f in zip(vec, gens):
                total = total + coeff * f
            assert total.is_zero


def test_syzygies_of_zero_generators_include_their_unit_vectors():
    # a zero generator's unit vector e_i is a syzygy that the others do not
    # give; it is built from the coefficient ring's one, over Q and GF(3)
    zero = Poly.zero(2)
    for gens, one in _zero_generator_cases():
        syz = syzygy_basis(gens, len(gens))
        for vec in syz:
            assert sum((c * f for c, f in zip(vec, gens)), zero).is_zero
        for i, f in enumerate(gens):
            if f.is_zero:
                assert [Poly.constant(one, 2) if k == i else zero
                        for k in range(len(gens))] in syz
    # an all-zero list has no coefficient to build e_i from
    assert syzygy_basis([zero, zero], 2) == []


def _restricted(full, columns):
    return [s[:columns] for s in full
            if any(not c.is_zero for c in s[:columns])]


def _assert_restriction_is_exact(gens):
    full = syzygy_basis(gens, len(gens))
    for columns in range(1, len(gens) + 1):
        assert syzygy_basis(gens, columns) == _restricted(full, columns)


def test_syzygies_restricted_to_leading_columns():
    # rows are column-wise linear in the transformation rows, so tracking
    # only the first columns gives the full result's first columns
    T = V(0, 1)
    systems = _syzygy_systems() + [gens for gens, _ in
                                   _zero_generator_cases()]
    for gens in systems + [[T * T - T, T ** 3]]:
        _assert_restriction_is_exact(gens)


_small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1)),
    st.sampled_from([Fraction(c) for c in (-2, -1, 1, 3)]),
    min_size=1, max_size=3)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(_small_polys, min_size=1, max_size=2))
def test_syzygies_of_tagged_jacobian_rows_restrict_exactly(relations):
    # the lists H^-1 builds: the tagged Jacobian rows of a plane
    # presentation, then the g.E_j and every E_a.E_b
    from adickit.tate import (QpBase, RingPresentation, tag_form,
                              tagged_free_module)
    pres = RingPresentation(QpBase(2), ("x", "y"),
                            [Poly(2, terms) for terms in relations])
    tags, free = tagged_free_module(pres, range(2))
    rows = [tag_form(2, tags, {j: pres.normal_form(g.derivative(j))
                               for j in range(2)}) for g in pres.gens]
    _assert_restriction_is_exact(rows + free)


def test_degree_guard_raises():
    import pytest
    from adickit.groebner import DegreeOverflowError
    T = V(0, 1)
    with pytest.raises(DegreeOverflowError,
                       match=f"degree guard {DEGREE_GUARD}"):
        normal_form(T ** (DEGREE_GUARD + 1), [T ** 3 - T])


def test_koszul_syzygy_is_generated():
    # for two generators, the Koszul relation (g, -f) must lie in the span of
    # the computed syzygies; check at low degree by exact linear algebra
    T = V(0, 1)
    f, g = T * T - T, T ** 3
    syz = syzygy_basis([f, g], 2)
    koszul = [g, -f]
    from adickit.linalg import RowSpace
    from adickit.poly import monomials_upto

    cap = 8
    monos = monomials_upto(1, cap)
    index = {m: i for i, m in enumerate(monos)}

    def flatten(vec):
        out = [Fraction(0)] * (2 * len(monos))
        for i, comp in enumerate(vec):
            for m, c in comp.terms.items():
                out[i * len(monos) + index[m]] = c
        return out

    space = RowSpace(2 * len(monos), ONE)
    for s in syz:
        sdeg = max((c.total_degree() for c in s if not c.is_zero), default=0)
        for m in monomials_upto(1, cap - sdeg - 1):
            shifted = [c.mul_term(m) for c in s]
            space.insert(flatten(shifted))
    assert space.contains(flatten(koszul))


# -- normal_form oracles ------------------------------------------------------

def _random_poly(rng, nvars, nterms, degree):
    return Poly(nvars, {tuple(rng.randint(0, degree) for _ in range(nvars)):
                        Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                        for _ in range(nterms)})


def _reduction_cases(seed, count=40):
    """(f, reduced Groebner basis G) pairs on one to three variables."""
    import random
    rng = random.Random(seed)
    while count:
        nvars = rng.randint(1, 3)
        gens = [_random_poly(rng, nvars, rng.randint(1, 3), 2)
                for _ in range(rng.randint(1, 3))]
        basis = buchberger(gens)
        if not basis or is_unit_ideal(basis):
            continue
        count -= 1
        yield _random_poly(rng, nvars, rng.randint(0, 6), 4), basis


def _to_sympy(sympy, poly, xs):
    return sum((sympy.Rational(c.numerator, c.denominator) *
                sympy.Mul(*(x ** k for x, k in zip(xs, e)))
                for e, c in poly.terms.items()), sympy.Integer(0))


def test_normal_form_remainder_matches_sympy():
    import pytest
    sympy = pytest.importorskip("sympy")
    for f, basis in _reduction_cases(11):
        xs = sympy.symbols(f"x0:{f.nvars}")
        _, expected = sympy.reduced(_to_sympy(sympy, f, xs),
                                    [_to_sympy(sympy, g, xs) for g in basis],
                                    *xs, order="grevlex")
        assert sympy.expand(_to_sympy(sympy, normal_form(f, basis), xs) -
                            expected) == 0


def tagged_ideal(pres, keys, forms):
    """The ideal of the submodule N + I.F of F = (K[X]/I)^keys in K[X, E],
    one tag E_j per key after the X variables: g.E_j for g in the
    presentation's basis, each form as sum c_j E_j, and every E_i E_j."""
    n, keys = pres.nvars, list(keys)
    width = n + len(keys)

    def tag(poly, j):
        return Poly(width, {e + tuple(int(i == j) for i in range(len(keys))):
                            c for e, c in poly.terms.items()})

    one = Poly.constant(pres.coeff_one(), n)
    gens = [tag(one, i) * tag(one, j) for i in range(len(keys))
            for j in range(i, len(keys))]
    gens += [tag(g, j) for g in pres.groebner_basis()
             for j in range(len(keys))]
    for form in forms:
        total = Poly.zero(width)
        for k, c in form.items():
            total = total + tag(c, keys.index(k))
        if not total.is_zero:
            gens.append(total)
    return gens


def tagged_cases():
    """(label, presentation, keys, forms) of the 1-forms of plane
    presentations: the forms are dg = g_X dX + g_Y dY in normal form; G is
    2Y + 2X^4Y^4, then X^14 - Y and the slow random draws."""
    from corpus import SLOW_DRAWS, Q2, qp_pres, random_plane_presentations
    draws = random_plane_presentations(max(SLOW_DRAWS) + 1)
    cases = [("G", qp_pres(Q2, ("X", "Y"), [{(0, 1): 2, (4, 4): 2}])),
             ("X^14 - Y", qp_pres(Q2, ("X", "Y"), [{(14, 0): 1,
                                                    (0, 1): -1}]))]
    cases += [(f"draw {i}", draws[i]) for i in SLOW_DRAWS]
    for label, pres in cases:
        forms = [{j: pres.normal_form(g.derivative(j[0]))
                  for j in ((0,), (1,))} for g in pres.gens]
        yield label, pres, [(0,), (1,)], forms


def _sympy_basis(sympy, gens):
    """The reduced grevlex basis of sympy.groebner, monic, in our order."""
    nvars = gens[0].nvars
    xs = sympy.symbols(f"x0:{nvars}")
    exprs = [_to_sympy(sympy, g, xs) for g in gens]
    expected = []
    for h in sympy.groebner(exprs, *xs, order="grevlex").exprs:
        poly = Poly(nvars, {e: Fraction(int(c.p), int(c.q)) for e, c in
                            sympy.Poly(h, *xs).terms()})
        expected.append(poly.scale(poly.leading()[1] ** -1))
    return sorted(expected, key=lambda g: grevlex_key(g.leading()[0]))


def test_buchberger_matches_sympy():
    import random

    import pytest
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    for _ in range(30):
        nvars = rng.randint(2, 3)
        gens = [g for g in (_random_poly(rng, nvars, rng.randint(1, 3), 2)
                            for _ in range(rng.randint(2, 3))) if not g.is_zero]
        if not gens:
            continue
        basis = buchberger(gens)
        assert all(g.leading()[1] == 1 for g in basis)
        assert basis == _sympy_basis(sympy, gens)
    # tagged-module ideals, whose E_i E_j pairs the chain criterion prunes
    for label, *case in tagged_cases():
        gens = tagged_ideal(*case)
        assert buchberger(gens) == _sympy_basis(sympy, gens), label


def test_tracked_bases_satisfy_g_equals_m_f():
    # with pairs queued by sugar and pruned by both criteria, each row of M
    # still expresses its basis element in the generators, and the basis is
    # the untracked one
    rng = random.Random(17)
    systems = [[g for g in (_random_poly(rng, rng.randint(2, 3), 3, 2)
                            for _ in range(3)) if not g.is_zero]
               for _ in range(20)]
    systems = [gens for gens in systems
               if len({g.nvars for g in gens}) == 1 and gens]
    systems += [tagged_ideal(*case) for label, *case in tagged_cases()
                if label in ("G", "draw 50")]
    for gens in systems:
        basis, rows = buchberger_tracked(gens)
        assert basis == buchberger(gens)
        for g, row in zip(basis, rows):
            total = Poly.zero(g.nvars)
            for coeff, f in zip(row, gens):
                total = total + coeff * f
            assert total == g


def _assert_exact_division(f, basis):
    """f = sum(q_i * g_i) + r, and no leading monomial divides a term of r."""
    rem, quotients = normal_form(f, basis, track=True)
    total = rem
    for q, g in zip(quotients, basis):
        total = total + q * g
    assert total == f
    leading = [g.leading()[0] for g in basis if not g.is_zero]
    assert not any(exp_divides(lt, e) for lt in leading for e in rem.terms)
    assert normal_form(f, basis) == rem


def test_tracked_normal_form_is_an_exact_division():
    for f, basis in _reduction_cases(12):
        _assert_exact_division(f, basis)


def test_normal_form_divides_by_non_monic_and_finite_ring_divisors():
    # the divisors are no Groebner bases: over Q with leading coefficients
    # other than 1, over GF(3), and over Zmod(4) with unit leading
    # coefficients and tails that hold the zero divisor 2, whose multiples
    # by 2 vanish; every divisor leads with a coefficient other than 1 of
    # Q, so none takes the monic path
    rng = random.Random(19)
    F3, Z4 = gf(3), zmod(4)

    def draw(nvars, nterms, degree, coeff, lead=None):
        terms = {tuple(rng.randint(0, degree) for _ in range(nvars)):
                 coeff() for _ in range(nterms)}
        poly = Poly(nvars, terms)
        if lead is not None and not poly.is_zero:
            exp = poly.leading()[0]
            poly = Poly(nvars, {**poly.terms, exp: lead()})
        return poly

    rings = [
        (lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
         lambda: Fraction(rng.choice((-3, -2, 3, 5, 7)), rng.randint(1, 2))),
        (lambda: F3.from_int(rng.randrange(3)),
         lambda: F3.from_int(rng.randrange(1, 3))),
        (lambda: Z4.from_int(rng.randrange(4)),
         lambda: Z4.from_int(rng.choice((1, 3)))),
    ]
    checked = 0
    for coeff, lead in rings:
        for _ in range(40):
            nvars = rng.randint(1, 3)
            basis = [draw(nvars, rng.randint(1, 4), 2, coeff, lead)
                     for _ in range(rng.randint(1, 3))]
            f = draw(nvars, rng.randint(1, 8), 4, coeff)
            _assert_exact_division(f, basis)
            checked += 1
    assert checked == 120


def test_degree_guard_fires_only_above_the_guard(monkeypatch):
    import pytest
    from adickit import groebner
    from adickit.groebner import DegreeOverflowError
    for f, basis in list(_reduction_cases(13, count=15)):
        if f.is_zero:
            continue
        degree = f.total_degree()
        monkeypatch.setattr(groebner, "DEGREE_GUARD", degree)
        normal_form(f, basis)
        monkeypatch.setattr(groebner, "DEGREE_GUARD", degree - 1)
        with pytest.raises(DegreeOverflowError):
            normal_form(f, basis)


def test_zero_term_left_by_a_zero_divisor_drops_out():
    # over Z/4, reducing 2*x^4 by x^2 + 2 leaves the term (2*2)*x^2 = 0*x^2,
    # which lies on a leading monomial; it must drop, not stall the reduction
    from adickit.finiterings import zmod
    c = zmod(4).from_int
    g = Poly(1, {(2,): c(1), (0,): c(2)})
    rem, quotients = normal_form(Poly(1, {(4,): c(2)}), [g], track=True)
    assert rem.is_zero
    assert quotients[0] * g == Poly(1, {(4,): c(2)})


def test_zero_product_off_the_leading_monomials_is_not_stored():
    # over Z/4, reducing 2*x^3 by x^2 + 2 subtracts 2*x*(x^2 + 2), whose term
    # (2*2)*x = 0*x lands on no monomial of the remainder
    from adickit.finiterings import zmod
    c = zmod(4).from_int
    g = Poly(1, {(2,): c(1), (0,): c(2)})
    rem = normal_form(Poly(1, {(3,): c(2)}), [g])
    assert rem.is_zero and rem.terms == {}
