from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod
from pathlib import Path

import pytest

from adickit import differentials
from adickit.differentials import (classify_morphism, de_rham_complex,
                                   etale_integration, kahler_differentials,
                                   naive_cotangent_complex)
from adickit.finiterings import (CARDINALITY_CAP, gf, product_ring,
                                 quotient_structure, zmod)
from adickit.groebner import (DegreeOverflowError, buchberger, normal_form,
                              syzygy_basis)
from adickit.linalg import RowSpace
from adickit.localization import rational_localization
from adickit.poly import Poly, exp_div, exp_lcm, grevlex_key
from adickit.tate import (DEFAULT_DEGREE_CAP, MorphismPresentation,
                          PresentationError, QpBase, RingPresentation,
                          Submodule, compose_presentations, free_presentation)

ONE = Fraction(1)


def pres_over(base, names, gen_dicts, coeff=Fraction,
              degree_cap=DEFAULT_DEGREE_CAP):
    n = len(names)
    gens = [Poly(n, {e: coeff(c) for e, c in d.items()}) for d in gen_dicts]
    return RingPresentation(base, tuple(names), gens, degree_cap)


def with_cap(pres, cap):
    """The same presentation, over the same ring, at another degree cap."""
    return RingPresentation(pres.base, pres.varnames, pres.gens, cap,
                            parent=pres.parent)


# -- Kahler differentials -------------------------------------------------------

def test_kahler_free_rank_one(line):
    B = line.extend(("S",), [])
    km = kahler_differentials(B)
    assert km.rank_free == 1
    assert km.fitting_status() == {0: "zero", 1: "unit"}


def test_kahler_idempotent_vanishes(q2):
    # (2T-1)^2 = 1 mod (T^2 - T), so the Jacobian is a unit
    B = pres_over(q2, ("T",), [{(2,): 1, (1,): -1}])
    km = kahler_differentials(B)
    assert km.fitting_status()[0] == "unit"     # Omega = 0 iff Fitt_0 = (1)
    check = B.normal_form((B.var("T").scale(Fraction(2)) - B.const(1)) ** 2)
    assert check == B.const(1)


def test_kahler_nilpotent_nonzero(q2):
    B = pres_over(q2, ("T",), [{(2,): 1}])
    km = kahler_differentials(B)
    assert km.fitting_status()[0] == "other"  # (2T) is neither zero nor unit


# -- the two-term complex ---------------------------------------------------------

def test_cotangent_zero_ideal(line):
    cx = naive_cotangent_complex(line)
    assert cx.h_minus1 == "zero"
    assert cx.h0 == "projective" and cx.h0_rank == 1


def test_cotangent_simple_laurent_acyclic(line):
    T = line.var("T")
    loc, _ = rational_localization(line, T ** 2 + line.const(1), line.const(1))
    cx = naive_cotangent_complex(loc)
    assert cx.h_minus1 == "zero" and cx.h0 == "zero"


def test_cotangent_h_minus1_bug_raises(q2, monkeypatch):
    # only a degree overflow may become an inconclusive H^-1
    def broken(*args, **kwargs):
        raise ZeroDivisionError("not an overflow")
    monkeypatch.setattr(differentials, "_h_minus1_field", broken)
    with pytest.raises(ZeroDivisionError):
        naive_cotangent_complex(pres_over(q2, ("T",), [{(2,): 1}]))


def test_cotangent_h_minus1_overflow_is_flagged(q2, monkeypatch):
    def overflow(*args, **kwargs):
        raise DegreeOverflowError("degree guard")
    monkeypatch.setattr(differentials, "_h_minus1_field", overflow)
    cx = naive_cotangent_complex(pres_over(q2, ("T",), [{(2,): 1}]))
    assert cx.h_minus1 == "inconclusive"
    assert "h_minus1_overflow" in cx.flags


def test_cotangent_syzygy_above_working_degree_is_flagged(q2):
    # the syzygy (Y^6, -X) of (X^5, X^4 Y^6) has degree 6, far above cap 1,
    # and H^-1 is decided whatever the cap: X.e_1 is in the kernel
    # (X.5X^4 = 5X^5 = 0) and outside the image, as X^6 is not in I^2
    for cap in (0, 1, 4):
        B = pres_over(q2, ("X", "Y"), [{(5, 0): 1}, {(4, 6): 1}],
                      degree_cap=cap)
        square = buchberger([f * g for f in B.gens for g in B.gens])
        cx = naive_cotangent_complex(B)
        assert (cx.h_minus1, cx.flags) == ("nonzero", [])
        witness = cx.h_minus1_witness
        assert all(c.is_zero for c in _times_jacobian(B, witness, B.gens))
        image = sum((w * g for w, g in zip(witness, B.gens)), Poly.zero(2))
        assert not normal_form(image, square).is_zero


def test_cotangent_without_relative_variables(line):
    # A -> A/(f) has no relative variables: every vector of A^p is in the
    # kernel of v -> v.J, and e_1 is zero in H^-1 iff f lies in (f)^2
    T = line.var("T")
    for gens, h_minus1, verdict in (([T * T - T], "nonzero", "non_ramifie"),
                                    ([Poly.zero(1)], "zero", "etale")):
        S = line.extend((), gens)
        cx = naive_cotangent_complex(S)
        assert (cx.h_minus1, classify_morphism(S).verdict) == \
            (h_minus1, verdict)
    assert cx.h_minus1_witness is None
    assert naive_cotangent_complex(line.extend((), [T * T])) \
        .h_minus1_witness == [line.const(1)]


def test_cotangent_nilpotent_both_nonzero(q2):
    B = pres_over(q2, ("T",), [{(2,): 1}])
    cx = naive_cotangent_complex(B)
    assert cx.h_minus1 == "nonzero"
    assert cx.h0 == "nonzero"
    # the kernel witness contains T.[T^2]: 2T * T = 2T^2 = 0 mod (T^2)
    assert cx.h_minus1_witness is not None
    witness = cx.h_minus1_witness[0]
    check = B.normal_form(witness * B.gens[0].derivative(0))
    assert check.is_zero


# -- the classifier ----------------------------------------------------------------

def test_classifier_fixture_verdicts(q2, line):
    T = line.var("T")
    loc, _ = rational_localization(line, T, line.const(2))
    assert classify_morphism(loc).verdict == "etale"

    free_ext = line.extend(("S",), [])
    v = classify_morphism(free_ext)
    assert v.verdict == "lisse"
    assert v.etale is False and v.non_ramifie is False

    assert classify_morphism(pres_over(q2, ("T",), [{(2,): 1}])).verdict == "none"
    assert classify_morphism(
        pres_over(q2, ("T",), [{(2,): 1, (1,): -1}])).verdict == "etale"


def test_classifier_truth_table_in_evidence(q2):
    v = classify_morphism(pres_over(q2, ("T",), [{(2,): 1, (1,): -1}]))
    body = v.to_json()
    assert body["truth_table"] == {"etale": True, "lisse": True,
                                   "non_ramifie": True}
    assert body["h_minus1"] == 0 and body["h0"] == 0


def test_finite_etale_unit_discriminant_fixtures(q2):
    # discriminants: T^2-T -> 1, T^2+T+1 -> -3, both 2-adic units;
    # T^3-T -> 4, a 5-adic unit
    cases = [
        (q2, [{(2,): 1, (1,): -1}]),
        (q2, [{(2,): 1, (1,): 1, (0,): 1}]),
        (QpBase(5), [{(3,): 1, (1,): -1}]),
    ]
    for base, gens in cases:
        assert classify_morphism(pres_over(base, ("T",), gens)).verdict == "etale"


def test_classifier_finite_field_bases():
    F2, F3 = gf(2, 1), gf(3, 1)
    def fp_pres(field, d):
        return pres_over(field, ("T",), [d],
                         coeff=lambda c: field.from_int(int(c)))
    assert classify_morphism(fp_pres(F2, {(2,): 1, (1,): 1})).verdict == "etale"
    assert classify_morphism(fp_pres(F2, {(2,): 1})).verdict == "none"
    assert classify_morphism(fp_pres(F3, {(2,): 1, (0,): -1})).verdict == "etale"


def test_classifier_finite_nonfield_bases():
    Z4 = zmod(4)
    def z4_pres(d):
        return pres_over(Z4, ("T",), [d],
                         coeff=lambda c: Z4.from_int(int(c)))
    v = classify_morphism(z4_pres({(2,): 1, (1,): -1}))
    assert v.verdict == "etale" and "exhaustive" in v.complex_data.flags
    assert classify_morphism(z4_pres({(2,): 1})).verdict == "none"


# -- the exhaustive finite-base backend: a pinned grid and a brute oracle -------

ONE_VAR = {
    "T^2": [{(2,): 1}], "T^2-T": [{(2,): 1, (1,): -1}],
    "T^2+T+1": [{(2,): 1, (1,): 1, (0,): 1}], "T^2+2": [{(2,): 1, (0,): 2}],
    "T^3-T": [{(3,): 1, (1,): -1}], "T^3+3": [{(3,): 1, (0,): 3}],
    "T^4+T": [{(4,): 1, (1,): 1}], "T^7+T": [{(7,): 1, (1,): 1}],
    "T^2+2T": [{(2,): 1, (1,): 2}], "T^10": [{(10,): 1}]}
TWO_VAR = {
    "x^2-x,y^2-y": [{(2, 0): 1, (1, 0): -1}, {(0, 2): 1, (0, 1): -1}],
    "x^2-y,y^2": [{(2, 0): 1, (0, 1): -1}, {(0, 2): 1}],
    "x^2+x+1,y^2-x": [{(2, 0): 1, (1, 0): 1, (0, 0): 1},
                      {(0, 2): 1, (1, 0): -1}],
    "x^2+2y,y^2+2x": [{(2, 0): 1, (0, 1): 2}, {(0, 2): 1, (1, 0): 2}]}
BASES = {"Zmod(4)": lambda: zmod(4), "Zmod(8)": lambda: zmod(8),
         "Zmod(9)": lambda: zmod(9),
         "Prod(Zmod(4),GF(2))": lambda: product_ring(zmod(4), gf(2)),
         "Prod(GF(3),Zmod(9))": lambda: product_ring(gf(3), zmod(9))}

# (h_minus1, h0, h0_rank, Fitt_0 Fitt_1 ... as u(nit) / z(ero) / o(ther)).
# Recorded from the finite backend as it stood before B became a FiniteRing,
# except the cases that backend rejected as too large to sweep: the
# two-variable systems over Zmod(8), Zmod(9) and the two products, T^10 over
# every base and T^7+T over all but Zmod(4).  Their entries are checked by
# the Smith-form oracle below; over Zmod(8) and Prod(Zmod(4),GF(2)) the
# two-variable ones equal the sweep's answers with its size cap lifted
ETALE = ("zero", "zero", 0, "uu")
RAMIFIED = ("nonzero", "nonzero", None, "ou")
ETALE2 = ("zero", "zero", 0, "uuu")


def N(fitting):
    return ("nonzero", "nonzero", None, fitting)


PINNED = {
    "Zmod(4)": [RAMIFIED, ETALE, ETALE, RAMIFIED, RAMIFIED, ETALE, ETALE,
                RAMIFIED, RAMIFIED, RAMIFIED,
                ETALE2, ("nonzero", "projective", 1, "zuu"), N("ouu"),
                N("zou")],
    "Zmod(8)": [RAMIFIED, ETALE, ETALE, RAMIFIED, RAMIFIED, ETALE, ETALE,
                RAMIFIED, RAMIFIED, RAMIFIED,
                ETALE2, N("ouu"), N("ouu"), N("oou")],
    "Zmod(9)": [RAMIFIED, ETALE, RAMIFIED, ETALE, ETALE, RAMIFIED, RAMIFIED,
                RAMIFIED, ETALE, RAMIFIED,
                ETALE2, N("ouu"), N("ouu"), N("ouu")],
    "Prod(Zmod(4),GF(2))": [RAMIFIED, ETALE, ETALE, RAMIFIED, RAMIFIED, ETALE,
                            ETALE, RAMIFIED, RAMIFIED, RAMIFIED,
                            ETALE2, ("nonzero", "projective", 1, "zuu"),
                            N("ouu"), N("zou")],
    "Prod(GF(3),Zmod(9))": [RAMIFIED, ETALE, RAMIFIED, ETALE, ETALE, RAMIFIED,
                            RAMIFIED, RAMIFIED, ETALE, RAMIFIED,
                            ETALE2, N("ouu"), N("ouu"), N("ouu")]}


def finite_pres(ring, names, gen_dicts):
    return pres_over(ring, names, gen_dicts,
                     coeff=lambda c: ring.from_int(int(c)))


def _times_jacobian(pres, v, gens=None):
    """NF(v.J) for v in B^p, J the Jacobian of `gens`; by default of the
    monic relations in the order the finite backend presents them (its
    Groebner basis)."""
    n = pres.nvars
    gens = pres.groebner_basis() if gens is None else gens
    return [pres.normal_form(sum((vi * g.derivative(j)
                                  for vi, g in zip(v, gens)),
                                 Poly.zero(n))) for j in range(n)]


def _key(v):
    return tuple(frozenset(c.terms.items()) for c in v)


def _schreyer_syzygy_images(pres):
    """Reference: the syzygies of the monic separated system from its
    S-pairs (Schreyer), each reduced with tracked quotients, normal-formed
    in B^p; the loop the finite backend ran before it used their vanishing
    under coprime pure-power leading monomials."""
    rel_gens = pres.groebner_basis()
    p, n, one = len(rel_gens), pres.nvars, pres.base.one
    images = []
    for j in range(p):
        for i in range(j):
            ei, ej = rel_gens[i].leading()[0], rel_gens[j].leading()[0]
            lcm = exp_lcm(ei, ej)
            mi, mj = exp_div(lcm, ei), exp_div(lcm, ej)
            sp = rel_gens[i].mul_term(mi) - rel_gens[j].mul_term(mj)
            rem, quot = normal_form(sp, rel_gens, track=True)
            assert rem.is_zero
            vec = [Poly.zero(n) for _ in range(p)]
            vec[i] = vec[i] + Poly(n, {mi: one})
            vec[j] = vec[j] - Poly(n, {mj: one})
            for k, q in enumerate(quot):
                vec[k] = vec[k] - q
            images.append([pres.normal_form(c) for c in vec])
    return images


def test_schreyer_syzygy_images_vanish_on_the_two_variable_grid():
    cases = 0
    for ring in (build() for build in BASES.values()):
        for rels in TWO_VAR.values():
            images = _schreyer_syzygy_images(
                finite_pres(ring, ("x", "y"), rels))
            assert len(images) == 1, rels
            assert all(c.is_zero for c in images[0]), (ring.name, rels)
            cases += 1
    assert cases == 20


def _brute_h_minus1(pres, syzygy_images, stairs):
    """H^-1 by brute force with Poly arithmetic and normal forms only: the
    elements of B are the polynomials on the staircase, the kernel of
    v -> v.J is swept over B^p, and the B-span of the syzygy images is every
    B-combination of them.  Returns the verdict and the span."""
    ring, n, p = pres.base, pres.nvars, len(pres.groebner_basis())
    elements = [Poly(n, dict(zip(stairs, cs)))
                for cs in product(list(ring.elements()), repeat=len(stairs))]
    span = {_key([pres.normal_form(sum((b * s[i] for b, s
                                        in zip(bs, syzygy_images)),
                                       Poly.zero(n))) for i in range(p)])
            for bs in product(elements, repeat=len(syzygy_images))}
    kernel = [v for v in product(elements, repeat=p)
              if all(c.is_zero for c in _times_jacobian(pres, v))]
    return ("zero" if all(_key(v) in span for v in kernel) else "nonzero",
            span)


def _grid(base):
    return zip([(("T",), rels) for rels in ONE_VAR.values()]
               + [(("x", "y"), rels) for rels in TWO_VAR.values()],
               PINNED[base])


@pytest.mark.parametrize("base", list(BASES))
def test_finite_backend_pinned_grid_and_brute_force(base):
    ring = BASES[base]()
    brute_checked = 0
    for (names, rels), expected in _grid(base):
        pres = finite_pres(ring, names, rels)
        cx = naive_cotangent_complex(pres)
        fitting = "".join(cx.fitting[k][0] for k in sorted(cx.fitting))
        assert (cx.h_minus1, cx.h0, cx.h0_rank, fitting) == expected, rels
        assert cx.flags == ["exhaustive"]
        witness = cx.h_minus1_witness
        if witness is not None:
            assert any(not c.is_zero for c in witness)
            assert all(c.is_zero for c in _times_jacobian(pres, witness))
        stairs = pres.staircase(16)     # all of it, for every grid case
        if ring.cardinality ** (len(stairs) * len(rels)) <= 4096:
            h_minus1, span = _brute_h_minus1(
                pres, _schreyer_syzygy_images(pres), stairs)
            assert cx.h_minus1 == h_minus1, rels
            assert witness is None or _key(witness) not in span
            brute_checked += 1
    assert brute_checked >= 5


@pytest.mark.parametrize("p", [2, 3])
def test_field_h_minus1_by_brute_force(p):
    # over GF(p) H^-1 is the field backend's syzygy computation; the sweep
    # of the finite backend's oracle reads it off B^p for the Groebner basis
    # presentation, whose Schreyer syzygies generate all of its syzygies
    ring = gf(p)
    verdicts = []
    for names, rels in [(("T",), rels) for rels in ONE_VAR.values()] + \
            [(("x", "y"), rels) for rels in TWO_VAR.values()]:
        pres = finite_pres(ring, names, rels)
        stairs = pres.staircase(16)     # all of it, for every grid case
        if p ** (len(stairs) * len(pres.groebner_basis())) > 4096:
            continue
        cx = naive_cotangent_complex(pres)
        h_minus1, span = _brute_h_minus1(
            pres, _schreyer_syzygy_images(pres), stairs)
        assert cx.h_minus1 == h_minus1, rels
        if cx.h_minus1_witness is not None:
            assert all(c.is_zero for c in
                       _times_jacobian(pres, cx.h_minus1_witness, pres.gens))
        verdicts.append(h_minus1)
    assert len(verdicts) == {2: 14, 3: 9}[p]
    assert set(verdicts) == {"zero", "nonzero"}


def _invariant_factors(rows):
    """The nonzero invariant factors of an integer matrix, from sympy's
    Smith normal form."""
    import sympy
    from sympy.matrices.normalforms import smith_normal_form
    snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    return [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i]]


def _det(rows):
    """Leibniz determinant of a square matrix of polynomials."""
    total = Poly.zero(rows[0][0].nvars)
    for perm in permutations(range(len(rows))):
        term = rows[0][perm[0]]
        for r, c in enumerate(perm[1:], 1):
            term = term * rows[r][c]
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total = total - term if inversions % 2 else total + term
    return total


def _oracle(pres):
    """H^-1 and the Fitting statuses of the finite backend, recomputed from
    B's structure constants with Smith normal forms: the kernel of
    v -> v.J on B^p has |B|^p |coker| / prod(out moduli) elements, and
    Fitt_k is the unit ideal iff the lattice of the B-multiples of its
    minors and B's moduli has every invariant factor 1."""
    rel_gens, n = pres.groebner_basis(), pres.nvars
    p = len(rel_gens)
    stairs = sorted(pres.staircase(16), key=grevlex_key)
    moduli, products, _, _, coords = quotient_structure(
        pres.base, rel_gens, stairs, pres.varnames)
    r = len(moduli)
    units = [[int(i == j) for j in range(r)] for i in range(r)]
    diag = [[m * u for u in e] for m, e in zip(moduli, units)]

    def times(x, y):
        acc = [0] * r
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                for k, c in enumerate(products[i][j]):
                    acc[k] += a * b * c
        return [c % m for c, m in zip(acc, moduli)]

    jac = [[g.derivative(j) for j in range(n)] for g in rel_gens]
    rows = [[c for f in row for c in times(e, coords(f))]
            for row in jac for e in units]
    out = [[0] * r * j + d + [0] * r * (n - 1 - j)
           for j in range(n) for d in diag]
    coker = prod(_invariant_factors(rows + out))
    kernel = prod(moduli) ** p * coker // prod(moduli) ** n
    fitting = ""
    for k in range(n + 1):
        size = n - k
        minors = [] if size <= 0 or size > p else [
            coords(_det([[jac[i][j] for j in cset] for i in rset]))
            for rset in combinations(range(p), size)
            for cset in combinations(range(n), size)]
        gens = [g for g in minors if any(g)]
        if size <= 0:
            fitting += "u"
        elif not gens:
            fitting += "z"
        else:
            factors = _invariant_factors(
                [times(e, g) for g in gens for e in units] + diag)
            fitting += "u" if all(f == 1 for f in factors) else "o"
    return ("zero" if kernel == 1 else "nonzero"), fitting


@pytest.mark.parametrize("base", list(BASES))
def test_finite_backend_agrees_with_a_smith_form_oracle(base):
    pytest.importorskip("sympy")
    ring = BASES[base]()
    checked = 0
    for (names, rels), _expected in _grid(base):
        pres = finite_pres(ring, names, rels)
        cx = naive_cotangent_complex(pres)
        fitting = "".join(cx.fitting[k][0] for k in sorted(cx.fitting))
        assert (cx.h_minus1, fitting) == _oracle(pres), rels
        checked += 1
    assert checked == 14


def _fitting_every_k(km):
    """The reference for `fitting_status`: every Fitting ideal decided on
    its own minors, with no early stop."""
    n = km.rank_free
    status = {n: "unit"}
    for k in range(n):
        minors = [m for m in differentials._all_minors(
            km.jacobian, n - k, km.data.pres) if not m.is_zero]
        status[k] = ("zero" if not minors else
                     "unit" if km._generates_unit(minors) else "other")
    return status


def test_fitting_status_stops_early_without_changing_a_status():
    # the pinned grid over every finite base, two prime fields and Q_2,
    # and the presentations of the seed-1 jacobian script
    from corpus import Q2, script_names
    grid = ([(("T",), rels) for rels in ONE_VAR.values()]
            + [(("x", "y"), rels) for rels in TWO_VAR.values()])
    cases = [(ring, finite_pres(ring, names, rels))
             for ring in [b() for b in BASES.values()] + [gf(3), gf(5)]
             for names, rels in grid]
    cases += [(Q2, pres_over(Q2, names, rels)) for names, rels in grid]
    golden = Path(__file__).parent / "golden" / "jacobian-1.adk"
    cases += [(label, value) for label, value in
              script_names(golden.read_text()).items()
              if isinstance(value, (RingPresentation, MorphismPresentation))]
    units_early = 0
    for label, arg in cases:
        km = kahler_differentials(arg)
        status = km.fitting_status()
        assert status == _fitting_every_k(km), label
        units_early += status[0] == "unit" and km.rank_free > 0
    assert len(cases) == 126 and units_early >= 60


def test_kahler_fitting_matches_the_complex_on_the_pinned_grid():
    # the Kahler module over a finite non-field base runs the same Fitting
    # loop as the complex: same statuses
    checked = 0
    for base, build in BASES.items():
        ring = build()
        for (names, rels), _expected in _grid(base):
            pres = finite_pres(ring, names, rels)
            km = kahler_differentials(pres)
            fitting = naive_cotangent_complex(pres).fitting
            assert km.fitting_status() == fitting, (base, rels)
            checked += 1
    assert checked == 70


def test_kahler_over_a_finite_nonfield_base_raises_as_classify():
    Z4 = zmod(4)
    line = free_presentation(Z4, ("T",))
    plane = line.extend(("u",), [])
    relative = line.extend(("u",), [plane.var("u") ** 2 - plane.var("T")])
    too_big = finite_pres(BASES["Prod(GF(3),Zmod(9))"](), ("T",),
                          [{(17,): 1}])
    for arg, message in ((relative, "^relative classification over a finite "
                                    "non-field base is not supported"),
                         (line, "^finite-base classification needs a finite "
                                "quotient$"),
                         (too_big, "^finite quotient of additive rank 34 "
                                   "exceeds RANK_CAP = 32$")):
        for call in (kahler_differentials, classify_morphism):
            with pytest.raises(PresentationError, match=message):
                call(arg)


def test_finite_backend_decides_a_large_quotient_at_once():
    # B = Z/9[T]/(T^6 - T) has 9^6 elements; T^6 - T is separable mod 3,
    # so B is etale
    Z9 = zmod(9)
    v = classify_morphism(finite_pres(Z9, ("T",), [{(6,): 1, (1,): -1}]))
    assert v.verdict == "etale" and v.complex_data.flags == ["exhaustive"]


def test_finite_backend_is_bounded_by_rank_cap_not_ring_cap():
    # B = (GF(3) x Z/9)[T]/(T^17) has additive rank 17 * 2 = 34
    with pytest.raises(PresentationError,
                       match="^finite quotient of additive rank 34 exceeds "
                             "RANK_CAP = 32$"):
        naive_cotangent_complex(finite_pres(BASES["Prod(GF(3),Zmod(9))"](),
                                            ("T",), [{(17,): 1}]))
    Z4 = zmod(4)
    # B = Z/4[T]/(T^7+T) has 4^7 = 16384 elements, over the test-ring cap
    assert Z4.cardinality ** 7 > CARDINALITY_CAP
    v = classify_morphism(finite_pres(Z4, ("T",), ONE_VAR["T^7+T"]))
    assert v.verdict == "none" and v.complex_data.flags == ["exhaustive"]


def test_composition_closure_of_etale(q2):
    A = free_presentation(q2, ("T",))
    T = A.var("T")
    B, _ = rational_localization(A, T, A.const(2))
    C, _ = rational_localization(B, B.var("T") + B.const(1), B.const(1))
    f = MorphismPresentation.inclusion(A, B)
    g = MorphismPresentation.inclusion(B, C)
    assert classify_morphism(f).verdict == "etale"
    assert classify_morphism(g).verdict == "etale"
    assert classify_morphism(compose_presentations(f, g)).verdict == "etale"


def test_graph_presentation_classification(q2):
    # morphisms with nontrivial variable images go through the graph trick
    A = free_presentation(q2, ("T",))
    B = free_presentation(q2, ("S",))
    S = B.var("S")
    # T -> S^2 is the ramified double cover: not etale, not even lisse
    double = MorphismPresentation(A, B, [S * S])
    v = classify_morphism(double)
    assert v.verdict == "none"
    assert v.complex_data.h_minus1 == "zero"
    # T -> S is an isomorphism
    iso = MorphismPresentation(A, B, [S])
    assert classify_morphism(iso).verdict == "etale"
    # T -> S^2 = S into Q2<S>/(S^2 - S) factors as the quotient map
    # A -> A/(T^2 - T): a closed immersion, unramified but not etale
    C = B.extend((), [S * S - S])
    idem_img = MorphismPresentation(A, C, [C.var("S") * C.var("S")])
    assert classify_morphism(idem_img).verdict == "non_ramifie"


def test_composition_closure_of_lisse_and_non_ramifie(q2):
    # lisse o lisse: free extensions compose to a free extension
    A = free_presentation(q2, ("T",))
    B = A.extend(("S",), [])
    C = B.extend(("R",), [])
    f = MorphismPresentation.inclusion(A, B)
    g = MorphismPresentation.inclusion(B, C)
    assert classify_morphism(f).verdict == "lisse"
    assert classify_morphism(g).verdict == "lisse"
    assert classify_morphism(compose_presentations(f, g)).verdict == "lisse"

    # non_ramifie o non_ramifie: successive quotients by free variables
    A2 = free_presentation(q2, ("X", "Y"))
    B2 = A2.extend((), [A2.var("X")])
    C2 = B2.extend((), [A2.var("Y")])
    f2 = MorphismPresentation.inclusion(A2, B2)
    g2 = MorphismPresentation.inclusion(B2, C2)
    assert classify_morphism(f2).verdict == "non_ramifie"
    assert classify_morphism(g2).verdict == "non_ramifie"
    comp = compose_presentations(f2, g2)
    assert classify_morphism(comp).verdict == "non_ramifie"


def test_composition_with_nonetale_is_none(q2):
    A = free_presentation(q2, ("T",))
    T = A.var("T")
    B, _ = rational_localization(A, T, A.const(2))
    n = B.nvars + 1
    S = Poly.variable(n - 1, n, ONE)
    C = B.extend(("S",), [S * S])
    comp = compose_presentations(MorphismPresentation.inclusion(A, B),
                                 MorphismPresentation.inclusion(B, C))
    assert classify_morphism(comp).verdict == "none"


# -- de Rham complexes ---------------------------------------------------------------

def test_de_rham_one_variable(line):
    cx = de_rham_complex(line, 2)
    # Omega^0 = B, Omega^1 = B dT, Omega^2 = 0 (9 monomials at cap 8)
    assert cx.truncated_ranks[0] == 9
    assert cx.truncated_ranks[1] == 9
    assert cx.truncated_ranks[2] == 0


def test_de_rham_two_variables_and_signs(q2):
    XY = free_presentation(q2, ("X", "Y"))
    cx = de_rham_complex(XY, 2)
    assert len(cx.generators[2]) == 1
    # d(X dY) = dX ^ dY
    form = {(1,): XY.var("X")}
    d = cx.form_d(form)
    assert d == {(0, 1): XY.const(1)}


def test_de_rham_etale_collapses(q2):
    B = pres_over(q2, ("T",), [{(2,): 1, (1,): -1}])
    cx = de_rham_complex(B, 1)
    assert cx.truncated_ranks[0] == 2   # 1 and T
    assert cx.truncated_ranks[1] == 0   # Omega^1 = 0


def test_zero_relation_forms_feed_no_rows(q2, monkeypatch):
    # the degree-0 relations NF(g) = 0 are kept on the complex, but the
    # submodule of the 0-forms gets no generator from them: only E^2 and
    # (T^2 - T).E in K[T, E]
    from adickit import groebner
    fed = []
    real = groebner.buchberger

    def recording(gens):
        fed.append(gens)
        return real(gens)

    monkeypatch.setattr(groebner, "buchberger", recording)
    B = pres_over(q2, ("T",), [{(2,): 1, (1,): -1}])
    cx = de_rham_complex(B, 1)
    assert cx.relations[0] and all(c.is_zero for rel in cx.relations[0]
                                   for c in rel.values())
    assert cx.truncated_ranks[0] == 2
    assert cx.is_zero_form({(): B.var("T") * B.var("T") - B.var("T")})
    assert not cx.is_zero_form({(): B.var("T")})
    tagged = [gens for gens in fed if gens[0].nvars == 2]   # T and E
    assert tagged[0] == [Poly(2, {(0, 2): ONE}),
                         Poly(2, {(2, 1): ONE, (1, 1): -ONE})]


def test_d_squared_zero_exhaustive(q2):
    from adickit.poly import monomials_upto
    cases = [
        free_presentation(q2, ("X", "Y")),
        pres_over(q2, ("X", "Y"), [{(2, 0): 1, (0, 1): -1}]),
        pres_over(q2, ("T",), [{(2,): 1, (1,): -1}]),
    ]
    for pres in cases:
        top = min(pres.nvars, 3)
        cx = de_rham_complex(pres, top)
        for k in range(max(top - 1, 0)):
            for subset in cx.generators[k]:
                for m in monomials_upto(pres.nvars, 2):
                    form = {subset: Poly(pres.nvars, {m: ONE}, normalize=False)}
                    dd = cx.form_d(cx.form_d(form))
                    assert not dd or cx.is_zero_form(dd)


# -- integration ------------------------------------------------------------------------

def test_integration_dT(q2):
    res = etale_integration(Poly(1, {(0,): ONE}), 0, prime=2)
    assert res.primitive == Poly(1, {(1,): ONE})
    assert not res.flags


def test_integration_TdT_from_one():
    res = etale_integration(Poly(1, {(1,): ONE}), 1, prime=2)
    # (T^2 - 1)/2, which factors through (T - 1)
    assert res.primitive == Poly(1, {(2,): Fraction(1, 2), (0,): -Fraction(1, 2)})
    assert res.primitive.derivative(0) == Poly(1, {(1,): ONE})
    assert not res.primitive.evaluate([ONE], lambda c: c, Fraction(0))
    assert res.flags == ["precision_loss_at_degree_1"]


def test_integration_kernel_witness():
    # omega = (T - f) dT integrates to (T - f)^2 / 2, exhibiting the square
    f = Fraction(3)
    omega = Poly(1, {(1,): ONE, (0,): -f})
    res = etale_integration(omega, f, prime=5)
    t_minus_f = Poly(1, {(1,): ONE, (0,): -f})
    expected = (t_minus_f * t_minus_f).scale(Fraction(1, 2))
    assert res.primitive == expected
    assert res.primitive.derivative(0) == omega


# -- the incremental normal forms against the from-scratch loop -----------------

def _reference_coords(form, subsets, monomials, index, pres):
    """The from-scratch loop the incremental normal forms replaced: the
    normal form of each coefficient, in the truncated block."""
    vec = {}
    for s, c in form.items():
        off = subsets.index(s) * len(monomials)
        vec.update((off + index[m], cc)
                   for m, cc in pres.normal_form(c).terms.items()
                   if m in index)
    return vec


def _reference_relation_vectors(relations, subsets, work, pres):
    from adickit.poly import grevlex_key, monomials_upto
    monomials = sorted(pres.staircase(work), key=grevlex_key)
    index = {m: i for i, m in enumerate(monomials)}
    vectors = []
    for rel in relations:
        if all(c.is_zero for c in rel.values()):
            continue
        reldeg = max(c.total_degree() for c in rel.values())
        for m in monomials_upto(pres.nvars, max(work - reldeg, 0)):
            shifted = {s: c.mul_term(m) for s, c in rel.items()}
            vectors.append(_reference_coords(shifted, subsets, monomials,
                                             index, pres))
    return vectors, monomials, index


def span_in_low_block(vectors: list, low_cols, width: int, one) -> RowSpace:
    """Basis (as a RowSpace over the low columns) of span(vectors) intersected
    with the coordinate subspace supported on low_cols: the margin
    reference's truncated span.  Columns outside low_cols come first in the
    elimination order, so the echelon rows with a pivot in the low block
    span the intersection."""
    nhigh = width - len(low_cols)
    low_at = {col: nhigh + j for j, col in enumerate(low_cols)}
    high = iter(range(nhigh))
    at = [low_at[col] if col in low_at else next(high) for col in range(width)]
    space = RowSpace(width, one)
    for v in vectors:
        items = v.items() if isinstance(v, dict) else enumerate(v)
        space.insert({at[k]: c for k, c in items if c})
    low = RowSpace(len(low_cols), one)
    low.rows = {piv - nhigh: {k - nhigh: c for k, c in tail.items()}
                for piv, tail in space.rows.items() if piv >= nhigh}
    return low


def nullspace(rows: list, ncols: int, one) -> list[list]:
    """Basis of {x : A x = 0} for the matrix with the given (dense or sparse)
    rows: one dense vector per free column of the reduced row echelon form,
    with a one there.  The truncated references' kernel."""
    space = RowSpace(ncols, one)
    for r in rows:
        space.insert(r)
    space._back_substitute()
    zero = one - one
    basis: dict = {}
    for fc in range(ncols):
        if fc not in space.rows:
            basis[fc] = vec = [zero] * ncols
            vec[fc] = one
    for pc, tail in space.rows.items():
        for fc, c in tail.items():
            basis[fc][pc] = -c
    return list(basis.values())


def kernel_of_map(images: list, codomain_dim: int, one) -> list[list]:
    """Kernel of the linear map sending basis vector i to images[i]."""
    if not images:
        return []
    rows: list[dict] = [{} for _ in range(codomain_dim)]
    for i, image in enumerate(images):
        items = image.items() if isinstance(image, dict) else enumerate(image)
        for w, c in items:
            if c:
                rows[w][i] = c
    return nullspace(rows, len(images), one)


def _reference_truncated_rank(cx, k, margin=4):
    pres = cx.data.pres
    cap = pres.degree_cap
    subsets = cx.generators[k]
    vectors, monomials, _ = _reference_relation_vectors(
        cx.relations.get(k, []), subsets, cap + margin, pres)
    low_cols = [s * len(monomials) + i for s in range(len(subsets))
                for i, m in enumerate(monomials) if sum(m) <= cap]
    span = span_in_low_block(vectors, low_cols,
                             len(monomials) * len(subsets), pres.coeff_one())
    return len(low_cols) - len(span.rows)


def _reference_is_zero_form(cx, form):
    pres = cx.data.pres
    reduced = {s: pres.normal_form(c) for s, c in form.items()}
    reduced = {s: c for s, c in reduced.items() if not c.is_zero}
    if not reduced:
        return True
    k = len(next(iter(reduced)))
    subsets = cx.generators[k]
    work = max(pres.degree_cap,
               max(c.total_degree() for c in reduced.values())) + 2
    vectors, monomials, index = _reference_relation_vectors(
        cx.relations.get(k, []), subsets, work, pres)
    span = RowSpace(len(monomials) * len(subsets), pres.coeff_one())
    for vec in vectors:
        span.insert(vec)
    return span.contains(_reference_coords(reduced, subsets, monomials,
                                           index, pres))


def _drham_case(label):
    from corpus import jacobian_presentations, ring_pres
    if label == "X^2,XY":
        # not smooth: its 1- and 2-forms do not vanish
        return pres_over(QpBase(2), ("X", "Y"), [{(2, 0): 1}, {(1, 1): 1}])
    if label == "GF(3)":
        # u^2 + u - X over GF(3)[X]: a smooth curve, its 1-forms do not vanish
        return ring_pres(gf(3), ("X", "u"),
                         [{(0, 2): 1, (0, 1): 1, (1, 0): -1}])
    return jacobian_presentations()[label]


@pytest.mark.parametrize("label", ["B1", "B2", "C1", "D2", "L1", "X^2,XY",
                                   "GF(3)"])
def test_de_rham_matches_from_scratch_loop(label):
    import random

    from adickit.poly import monomials_upto, times_int
    pres = _drham_case(label)
    cx = de_rham_complex(pres, 3)
    for k in range(4):
        assert cx.truncated_ranks[k] == _reference_truncated_rank(cx, k)
    # membership of d(g * x) (zero: it lies in dI + I.Omega) and of random
    # forms
    rng = random.Random(f"drham:{label}")
    one = pres.coeff_one()
    last = Poly.variable(pres.nvars - 1, pres.nvars, one)
    forms = [cx.form_d({(): g * last}, reduce=False)
             for g in cx.data.rel_gens]
    monos = monomials_upto(pres.nvars, 3)
    for k, count in ((0, 2), (1, 1), (2, 1)):
        for subset in rng.sample(cx.generators[k],
                                 min(count, len(cx.generators[k]))):
            forms.append({subset: Poly(pres.nvars, {
                m: times_int(one, rng.randint(1, 4))
                for m in rng.sample(monos, 3)})})
    forms = [f for f in forms if f]
    answers = [cx.is_zero_form(f) for f in forms]
    assert answers == [_reference_is_zero_form(cx, f) for f in forms]
    assert True in answers and False in answers


@pytest.mark.parametrize("names, gens, ranks", [
    # staircase {1, u}: it ends far below the degree guard
    (("u",), [{(2,): 1, (1,): -1, (0,): -1}],
     {60: {0: 2, 1: 0}, 61: {0: 2, 1: 0}}),
    # u - T^2 with the Tate variable T: the staircase runs up T
    (("T", "u"), [{(0, 1): 1, (2, 0): -1}],
     {60: {0: 121, 1: 122}, 61: {0: 123, 1: 124}}),
], ids=["finite", "tate"])
def test_de_rham_degree_guard_boundary(q2, names, gens, ranks):
    # the ranks are counted off one Groebner basis, whose reductions stay
    # far below the degree guard whatever the cap
    gens = pres_over(q2, names, gens).gens
    for cap, expected in ranks.items():
        cx = de_rham_complex(RingPresentation(q2, names, gens, cap), 1)
        assert cx.truncated_ranks == expected


def test_de_rham_degree_guard_bounds_the_groebner_work(q2):
    # u - T^d is tagged as (u - T^d).E of degree d + 1 in K[T, u, E]; its
    # reduction stays within DEGREE_GUARD = 64 up to d = 63
    assert de_rham_complex(pres_over(q2, ("T", "u"), [
        {(0, 1): 1, (63, 0): -1}]), 1).truncated_ranks[0] == 45
    with pytest.raises(DegreeOverflowError, match="degree guard 64"):
        de_rham_complex(pres_over(q2, ("T", "u"), [
            {(0, 1): 1, (64, 0): -1}]), 1)


def test_de_rham_relation_beyond_the_working_degree_raises(q2):
    # d(X^14 - Y) = 14 X^13 dX - dY has degree 13, beyond cap + 4 = 12: B is
    # Q_2<X>, Omega^1 is free on dX, as dY = 14 X^13 dX, and Omega^2 = 0
    B = pres_over(q2, ("X", "Y"), [{(14, 0): 1, (0, 1): -1}])
    assert de_rham_complex(B, 2).truncated_ranks == {0: 45, 1: 54, 2: 0}


def test_h_minus1_degree_guard_boundary(q2):
    # (f, 2f) with the finite staircase {1, u} has the syzygy (2, -1), so
    # H^-1 is zero, and no cap near the guard changes that
    f = {(2,): 1, (1,): -1, (0,): -1}
    for cap in (62, 63, 64):
        B = pres_over(q2, ("u",), [f, {e: 2 * c for e, c in f.items()}],
                      degree_cap=cap)
        cx = naive_cotangent_complex(B)
        assert (cx.h_minus1, cx.flags) == ("zero", [])
    # along the Tate variable T the truncated kernel's multiples of the
    # Jacobian reached degree cap + 1, past the guard at cap 64; the exact
    # kernel forms no multiples
    for cap in (63, 64):
        B = pres_over(q2, ("T", "u"), [{(0, 1): 1, (2, 0): -1}],
                      degree_cap=cap)
        cx = naive_cotangent_complex(B)
        assert (cx.h_minus1, cx.flags) == ("zero", [])


def test_de_rham_ranks_are_exact_where_a_margin_plateaus(q2):
    # G = Q_2<X,Y>/(g), g = 2Y + 2X^4Y^4: (g, g_X, g_Y) holds Y g_Y - g =
    # 6 X^4Y^4 and X g_X = 8 X^4Y^4, so Y, so 2 = g_Y - 8 X^4Y^3: the 2-forms
    # vanish; the rank of a margin's span stays flat at 17 for margins 7-11
    # and then drops, so no plateau certifies it
    G = RingPresentation(q2, ("X", "Y"), pres_over(q2, ("X", "Y"), [
        {(0, 1): 2, (4, 4): 2}]).gens, 3)
    cx = de_rham_complex(G, 2)
    assert cx.truncated_ranks == {0: 10, 1: 14, 2: 0}
    assert cx.truncated_ranks[1] < _reference_truncated_rank(cx, 1, 11)
    assert cx.is_zero_form({(0, 1): G.const(1)})


def test_de_rham_ranks_match_the_margin_reference_on_random_presentations():
    # a margin only spans part of the relation module, so its rank is an
    # upper bound; at margin 20 it reaches the exact rank on these draws
    from corpus import random_plane_presentations
    seen = set()
    for pres in random_plane_presentations(3):
        cx = de_rham_complex(pres, 2)
        for k in range(3):
            rank = cx.truncated_ranks[k]
            assert rank <= _reference_truncated_rank(cx, k, 4)
            assert rank <= _reference_truncated_rank(cx, k, 8)
            assert rank == _reference_truncated_rank(cx, k, 20)
            seen.add(rank < _reference_truncated_rank(cx, k, 4))
    assert seen == {False, True}


def test_h_minus1_witness_lies_outside_the_syzygy_image(q2):
    # I = (X^3, X^3 + 8X, 8Y^2 - 3X^3 Y) = (X, Y^2): the kernel of v -> v.J
    # holds e_1, Y.e_1 and Y.e_3; v is in the syzygy image plus I.F iff
    # sum v_i g_i lies in I^2, which holds for e_1 (X^3) and Y.e_1 but not
    # for Y.e_3 (8Y^3 mod I^2)
    B = RingPresentation(q2, ("X", "Y"), pres_over(q2, ("X", "Y"), [
        {(3, 0): 1}, {(3, 0): 1, (1, 0): 8}, {(0, 2): 8, (3, 1): -3}]).gens, 2)
    cx = naive_cotangent_complex(B)
    assert cx.h_minus1 == "nonzero"
    witness = cx.h_minus1_witness
    assert all(c.is_zero for c in _times_jacobian(B, witness, B.gens))
    square = buchberger([f * g for f in B.gens for g in B.gens])
    image = sum((w * g for w, g in zip(witness, B.gens)), Poly.zero(2))
    assert not normal_form(image, square).is_zero


def _truncated_h_minus1(cx, cap):
    """The truncated check H^-1 had before one syzygy computation decided it
    exactly: the kernel of v -> v.J on components of degree <= cap, from
    the normal forms of the standard-monomial multiples of J, each kernel
    vector checked against the submodule the normal forms of the syzygies'
    relation components span.  `zero` only says zero up to cap."""
    data, jac = cx.data, cx.jacobian
    pres, p, one = data.pres, len(jac), data.pres.coeff_one()
    source = pres.staircase(cap)
    maxdeg = max((c.total_degree() for row in jac for c in row), default=0)
    target = pres.staircase(max(cap, 0) + max(maxdeg, 0))
    index = {m: i for i, m in enumerate(target)}
    images = [{j * len(target) + index[e]: a for j, c in enumerate(row)
               for e, a in pres.normal_form(c.mul_term(m)).terms.items()}
              for row in jac for m in source]
    kernel = kernel_of_map(images, len(target) * len(data.rel_vars), one)
    if not kernel:
        return "zero"
    size = len(source)
    outside = _outside_syzygy_image(cx)
    return "nonzero" if any(outside([
        Poly(pres.nvars, dict(zip(source, vec[i * size:(i + 1) * size])))
        for i in range(p)]) for vec in kernel) else "zero"


def _outside_syzygy_image(cx):
    """Is a vector of B^p outside the submodule that the normal forms of the
    syzygies' relation components span, plus I.F?"""
    data, p = cx.data, len(cx.jacobian)
    pres = data.pres
    gens = list(data.rel_gens) + list(data.source_gens)
    syz = syzygy_basis(gens, len(gens))
    image = Submodule(pres, range(p), [
        {i: pres.normal_form(c) for i, c in enumerate(v[:p])} for v in syz])
    return lambda v: not image.contains(dict(enumerate(v)))


def _relative_draws(count):
    """Seeded presentations over Q_2<T>, or over Q_2<T>/(T^2 - 2T) with its
    source relation: new variables u, or u and v, and one or two relations
    of two or three terms with exponents 0..2 and coefficients from
    RANDOM_COEFFS; a third of the second relations are a term times the
    square of the first, so that H^-1 is often nonzero."""
    import random

    from corpus import Q2, RANDOM_COEFFS
    rng = random.Random(23)
    A = free_presentation(Q2, ("T",))
    T = A.var("T")
    S = A.extend((), [T * T - T.scale(Fraction(2))])
    for _ in range(count):
        base = A if rng.random() < 0.7 else S
        names = ("u", "v") if rng.random() < 0.25 else ("u",)
        n = 1 + len(names)

        def draw(terms):
            return Poly(n, {tuple(rng.randint(0, 2) for _ in range(n)):
                            Fraction(rng.choice(RANDOM_COEFFS))
                            for _ in range(terms)})
        gens = [draw(rng.randint(2, 3))]
        if rng.random() < 0.5:
            gens.append(draw(1) * gens[0] * gens[0] if rng.random() < 0.3
                        else draw(rng.randint(2, 3)))
        yield base.extend(names, gens)


def test_h_minus1_agrees_with_the_truncated_reference():
    # exact against truncated: a class the reference finds at a cap <= 6
    # is found, and an exact zero is zero at every such cap.  A nonzero
    # verdict at a cap stays nonzero above it, since the kernel only grows,
    # so the reference runs at cap 6 alone; on every tenth draw the verdict
    # is the same at D = 0, 2 and 8
    from corpus import random_plane_presentations
    cases = random_plane_presentations(10) + list(_relative_draws(100))
    found = []
    for i, pres in enumerate(cases):
        cx = naive_cotangent_complex(with_cap(pres, 0))
        reference = _truncated_h_minus1(cx, 6)
        assert cx.h_minus1 in ("zero", "nonzero"), pres
        if reference == "nonzero":
            assert cx.h_minus1 == "nonzero", pres
        if cx.h_minus1 == "zero":
            assert reference == "zero", pres
        else:
            witness, B = cx.h_minus1_witness, cx.data.pres
            for j in range(len(cx.data.rel_vars)):
                assert B.nf_zero(sum((w * row[j] for w, row in
                                      zip(witness, cx.jacobian)),
                                     Poly.zero(B.nvars))), pres
            assert _outside_syzygy_image(cx)(witness), pres
        if i % 10 == 0:
            assert len({classify_morphism(with_cap(pres, cap)).verdict
                        for cap in (0, 2, 8)}) == 1, pres
        found.append((cx.h_minus1, reference))
    assert set(found) >= {("zero", "zero"), ("nonzero", "nonzero")}


def test_cotangent_complex_rejects_a_negative_cap(q2):
    # the cap lives on the presentation, which refuses a negative one
    with pytest.raises(PresentationError, match="negative degree cap -2"):
        pres_over(q2, ("T",), [{(2,): 1}], degree_cap=-2)
    # the witness T.e_1 of H^-1 has degree 1, and the cap does not bound it
    for cap in (0, 1):
        B = pres_over(q2, ("T",), [{(2,): 1}], degree_cap=cap)
        assert naive_cotangent_complex(B).h_minus1 == "nonzero"


def test_de_rham_rejects_a_negative_top_degree(q2):
    B = pres_over(q2, ("T",), [{(2,): 1}])
    with pytest.raises(PresentationError, match="negative top degree -2"):
        de_rham_complex(B, -2)
    assert de_rham_complex(B, 0).truncated_ranks == {0: 2}


def test_de_rham_normal_form_count_bound(monkeypatch):
    # from-scratch reduction of every relation multiple made 5476
    # groebner.normal_form calls here; incremental normal forms make 24
    from corpus import jacobian_presentations

    from adickit import groebner
    calls = []
    real = groebner.normal_form

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    # differentials reduces through tate, which imports it when it calls it
    monkeypatch.setattr(groebner, "normal_form", counting)
    de_rham_complex(jacobian_presentations()["B2"], 3)
    assert 0 < len(calls) < 2700


@pytest.mark.xfail(strict=True, reason="known defect: the Fitting test sees "
                   "units of the polynomial ring only")
def test_classify_kd_is_etale():
    # (2u - 1)^2 = 1 + 8T is a unit in Q_2<T>, so Q_2<T>[u]/(u^2 - u - 2T)
    # is etale; today the Jacobian route reports none with h0 nonzero
    from corpus import jacobian_presentations
    verdict = classify_morphism(jacobian_presentations()["KD"])
    assert verdict.verdict == "etale"
