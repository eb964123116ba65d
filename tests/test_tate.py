from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from adickit.finiterings import gf, zmod
from adickit.norms import ExactNorm
from adickit.poly import Poly
from adickit.tate import (DEFAULT_DEGREE_CAP, MorphismPresentation,
                          PresentationError, QpBase, base_change,
                          compose_presentations, free_presentation,
                          gauss_norm)

from test_groebner import full_staircase

def identity(pres):
    """The identity morphism of a presentation."""
    one = pres.coeff_one()
    return MorphismPresentation(
        pres, pres, [Poly.variable(i, pres.nvars, one)
                     for i in range(pres.nvars)], check=False)


# -- Gauss norms -----------------------------------------------------------------

def univariate(terms: dict) -> Poly:
    return Poly(1, {(i,): Fraction(c) for i, c in terms.items()})


def test_gauss_norm_examples():
    assert gauss_norm(univariate({0: 2, 1: 1, 2: 4}), 2) == ExactNorm({})
    assert gauss_norm(univariate({1: 2}), 2) == ExactNorm.power(2, -1)
    assert gauss_norm(univariate({0: Fraction(1, 9), 3: 3}), 3) == \
        ExactNorm.power(3, 2)
    assert gauss_norm(Poly.zero(1), 2).is_zero


def test_gauss_norm_counts_terms_above_the_degree_cap():
    # the degree cap D bounds working degrees, not the norm
    above = DEFAULT_DEGREE_CAP + 1
    assert gauss_norm(univariate({above: Fraction(1, 9)}), 2) == \
        ExactNorm({})
    assert gauss_norm(univariate({0: 2, above: -1}), 2) == ExactNorm({})
    assert gauss_norm(univariate({0: 2, above + 3: Fraction(1, 4)}), 2) == \
        ExactNorm.power(2, 2)


coefficients = st.fractions(min_value=-60, max_value=60, max_denominator=24)
polys = st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 3)),
                        coefficients, max_size=5).map(
    lambda terms: Poly(2, terms))
primes = st.sampled_from([2, 3, 5])


@given(polys, polys, primes)
def test_gauss_norm_is_multiplicative(f, g, p):
    # Gauss's lemma
    assert gauss_norm(f * g, p) == gauss_norm(f, p) * gauss_norm(g, p)


@given(polys, st.integers(1, 4), primes)
def test_gauss_norm_power_multiplicative(f, k, p):
    assert gauss_norm(f ** k, p) == gauss_norm(f, p) ** k


@given(polys, polys, primes)
def test_gauss_norm_is_ultrametric(f, g, p):
    assert gauss_norm(f + g, p) <= max(gauss_norm(f, p), gauss_norm(g, p))


@given(polys, primes)
def test_gauss_norm_is_zero_iff_the_polynomial_is(f, p):
    assert gauss_norm(f, p).is_zero == f.is_zero


# -- presentations ---------------------------------------------------------------

def test_normal_form_examples(line):
    T = line.var("T")
    B = line.extend((), [T * T - T])
    assert B.normal_form(T * T) == T
    blob = (T * T - T) * (line.const(1) + T ** 5)
    assert B.nf_zero(blob)
    assert line.normal_form(line.const(1)) == line.const(1)


def test_normal_form_is_idempotent_and_a_section(line):
    T = line.var("T")
    B = line.extend((), [T ** 3 - T - line.const(1)])
    samples = [T ** 5, T ** 4 + T, (T + line.const(2)) ** 3]
    for f in samples:
        nf = B.normal_form(f)
        assert B.normal_form(nf) == nf
        for g in samples:
            lhs = B.normal_form(f + g)
            assert lhs == B.normal_form(B.normal_form(f) + B.normal_form(g))
            lhs = B.normal_form(f * g)
            assert lhs == B.normal_form(B.normal_form(f) * B.normal_form(g))


def test_generators_reduce_to_zero(line):
    T = line.var("T")
    B = line.extend(("u",), [Poly.variable(1, 2, Fraction(1)) - T.extend_vars(2) ** 2])
    for g in B.gens:
        assert B.nf_zero(g)


def test_compose_identity(line):
    ident = identity(line)
    comp = compose_presentations(ident, ident)
    assert comp.images == ident.images


def test_compose_mismatch(line):
    other = free_presentation(QpBase(2), ("S",))
    f = identity(line)
    g = identity(other)
    with pytest.raises(PresentationError):
        compose_presentations(f, g)


def test_base_change_structural_shape(q2):
    # A<u>/(u - f) pushed along phi becomes A'<u>/(u - phi(f))
    A = free_presentation(q2, ("T",))
    T = A.var("T")
    B = A.extend(("u",), [Poly.variable(1, 2, Fraction(1)) - (T * T).extend_vars(2)])
    Ap = free_presentation(q2, ("S",))
    S = Ap.var("S")
    phi = MorphismPresentation(A, Ap, [S ** 3])
    result = base_change(B, phi)
    target = result.target
    assert target.varnames == ("S", "u")
    assert len(target.gens) == 1
    u = Poly.variable(1, 2, Fraction(1))
    s = Poly.variable(0, 2, Fraction(1))
    assert target.gens[0] == u - s ** 6


def test_base_change_zero_ideal(q2):
    A = free_presentation(q2, ())
    B = A.extend(("T",), [])
    Ap = free_presentation(q2, ("S",))
    phi = MorphismPresentation(A, Ap, [])
    result = base_change(B, phi)
    assert result.target.gens == []
    assert result.target.varnames == ("S", "T")


def test_compose_associative_on_point_sets():
    # associativity up to renaming, checked through point functors
    from adickit.infinitesimal import point_set
    F2 = gf(2, 1)
    base = free_presentation(F2, ())
    A = base.extend(("a",), [])
    B = A.extend(("b",), [Poly(2, {(0, 2): F2.one, (1, 0): -F2.one})])  # b^2 = a
    C = B.extend(("c",), [Poly(3, {(0, 0, 2): F2.one, (0, 1, 0): -F2.one})])
    f = MorphismPresentation.inclusion(A, B)
    g = MorphismPresentation.inclusion(B, C)
    h = identity(C)
    lhs = compose_presentations(compose_presentations(f, g), h)
    rhs = compose_presentations(f, compose_presentations(g, h))
    assert lhs.images == rhs.images
    for ring in (F2, zmod(2)):
        assert point_set(lhs.target, ring).points == \
            point_set(rhs.target, ring).points


# -- staircases ----------------------------------------------------------------

def _staircase_case(label):
    """Positive-dimensional, zero-dimensional, free, localized and tower
    presentations over Qp(2,8) and a non-trivial Groebner basis over
    GF(3)."""
    from corpus import jacobian_presentations, qp_pres, ring_pres
    named = jacobian_presentations()
    zero_dim = qp_pres(QpBase(2), ("u", "v"),
                       [{(2, 0): 1, (1, 0): 1, (0, 0): 1},
                        {(0, 2): 1, (1, 1): -1, (0, 0): -1}])
    gf3 = ring_pres(gf(3), ("x", "y"), [{(2, 0): 1, (0, 1): 1},
                                        {(0, 2): 1, (1, 0): 1, (0, 0): 1}])
    return {"B2": named["B2"], "zero-dim": zero_dim, "free": named["A2"],
            "L1": named["L1"], "C1": named["C1"], "GF(3)": gf3}[label]


def test_staircase_is_enumerated_once_per_degree(monkeypatch):
    import adickit.groebner as groebner
    from adickit.groebner import staircase_shell
    shells = []

    def counted(*args):
        shells.append(args)
        return staircase_shell(*args)

    monkeypatch.setattr(groebner, "staircase_shell", counted)
    pres = _staircase_case("B2")
    first = pres.staircase(3)
    assert first == full_staircase(pres.nvars, pres.groebner_basis(), 3)
    first.clear()                       # the caller owns its list
    again = pres.staircase(3)
    assert again and again == pres.staircase(3)
    assert again is not pres.staircase(3)
    assert len(shells) == 4             # degrees 0 to 3
    assert pres.staircase() == pres.staircase(pres.degree_cap)
    assert len(shells) == pres.degree_cap + 1


@pytest.mark.parametrize("label", ["B2", "zero-dim", "free", "L1", "C1",
                                   "GF(3)"])
def test_staircase_matches_full_enumeration(label):
    # the oracle filters every monomial up to the degree against the
    # leading monomials; degrees ascend, descend and repeat, and a negative
    # degree (a user's D=-3) gets the degree-0 staircase, as the oracle does
    pres = _staircase_case(label)
    basis = pres.groebner_basis()
    for degree in (0, 2, 1, 4, 4, 3, 6, 0, -1, 5, -3, 7):
        assert pres.staircase(degree) == \
            full_staircase(pres.nvars, basis, degree)


def test_presentation_rejects_a_negative_degree_cap(q2):
    from adickit.cli import Options, parse_script, run_script
    with pytest.raises(PresentationError, match="negative degree cap -1"):
        free_presentation(q2, ("T",), degree_cap=-1)
    assert free_presentation(q2, ("T",), degree_cap=0).staircase() == [(0,)]
    out = run_script(parse_script("A = Tate(Qp(2, 8), [T]; D=-1);"),
                     Options())
    assert out.reports[0]["error"].startswith("negative degree cap -1")


def _sympy_tagged_ranks(sympy, gens, nvars, caps):
    """sympy's grevlex basis of a tagged ideal, and for each cap its E-linear
    standard monomials of X-degree <= cap, counted off the leading
    monomials."""
    from test_groebner import _to_sympy

    from adickit.poly import exp_divides, monomials_upto
    width = gens[0].nvars
    xs = sympy.symbols(f"x0:{width}")
    basis = sympy.groebner([_to_sympy(sympy, g, xs) for g in gens], *xs,
                           order="grevlex")
    leading = [sympy.Poly(h, *xs).monoms(order="grevlex")[0]
               for h in basis.exprs]
    tags = [tuple(int(i == j) for i in range(width - nvars))
            for j in range(width - nvars)]
    leads = [[m[:nvars] for m in leading if m[nvars:] == tag] for tag in tags]
    return basis, [sum(1 for lead in leads for m in monomials_upto(nvars, cap)
                       if not any(exp_divides(e, m) for e in lead))
                   for cap in caps]


@pytest.mark.parametrize("label", ["G", "X^14 - Y", "draw 10", "KD"])
def test_submodule_matches_a_sympy_basis_of_the_tagged_ideal(label):
    # rank: the E-linear standard monomials of sympy's basis; contains: a
    # form is in N + I.F iff its tagged polynomial is in the tagged ideal
    import random

    from corpus import jacobian_presentations
    from test_groebner import _to_sympy, tagged_cases, tagged_ideal

    from adickit.differentials import de_rham_complex
    from adickit.poly import monomials_upto
    from adickit.tate import Submodule
    sympy = pytest.importorskip("sympy")
    if label == "KD":     # relative: the 1-forms are free on du
        pres = jacobian_presentations()["KD"]
        cx = de_rham_complex(pres, 1)
        keys, forms = cx.generators[1], cx.relations[1]
    else:
        pres, keys, forms = next(case for name, *case in tagged_cases()
                                 if name == label)
    gens = tagged_ideal(pres, keys, forms)
    module = Submodule(pres, keys, forms)
    basis, ranks = _sympy_tagged_ranks(sympy, gens, pres.nvars, (0, 3, 8))
    assert [module.rank(cap) for cap in (0, 3, 8)] == ranks
    xs = sympy.symbols(f"x0:{gens[0].nvars}")
    rng = random.Random(label)
    monos = monomials_upto(pres.nvars, 3)
    candidates = [{k: c.mul_term(m) for k, c in form.items()}
                  for form in forms for m in rng.sample(monos, 2)]
    candidates += [{k: Poly(pres.nvars, {m: Fraction(rng.randint(1, 4))
                                        for m in rng.sample(monos, 2)})}
                   for k in keys]
    answers = [module.contains(form) for form in candidates]
    assert True in answers and False in answers
    for form, answer in zip(candidates, answers):
        tagged = tagged_ideal(pres, keys, [form])[-1]
        assert basis.contains(_to_sympy(sympy, tagged, xs)) == answer

