import time
from fractions import Fraction
from itertools import product as iproduct
from math import factorial

import pytest

from adickit.finiterings import (additive_closure, canonical_scalar_map,
                                 dual_numbers, fp_quotient, gf,
                                 ideal_generated, nilradical, product_ring,
                                 reduced_ring, zmod)
from adickit.infinitesimal import (PD_IDEAL_CAP, PDStructure,
                                   classify_lifting, crystalline_point_set,
                                   de_rham_point_set, default_corpus,
                                   enumerate_nilpotent_ideals,
                                   enumerate_pd_structures, point_set)
from adickit.poly import Poly
from adickit.tate import (IntegerBase, MorphismPresentation,
                          PresentationError, RingPresentation,
                          free_presentation)

F2 = gf(2, 1)


def fp_pres(field, names, gen_dicts):
    n = len(names)
    gens = [Poly(n, {e: field.from_int(c) for e, c in d.items()})
            for d in gen_dicts]
    return RingPresentation(field, tuple(names), gens)


def z_pres(names, gen_dicts):
    n = len(names)
    gens = [Poly(n, {e: Fraction(c) for e, c in d.items()}) for d in gen_dicts]
    return RingPresentation(IntegerBase(), tuple(names), gens)


IDEM_F2 = fp_pres(F2, ("T",), [{(2,): 1, (1,): 1}])     # T^2 - T in char 2
NILP_F2 = fp_pres(F2, ("T",), [{(2,): 1}])              # T^2
IDEM_Z = z_pres(("T",), [{(2,): 1, (1,): -1}])
NILP_Z = z_pres(("T",), [{(2,): 1}])


def test_point_set_idempotents():
    ps = point_set(IDEM_F2, F2)
    assert len(ps) == 2
    assert ps.keys() == [((0,),), ((1,),)]


def test_point_set_nilpotents():
    assert len(point_set(NILP_F2, F2)) == 1
    D = dual_numbers(2)
    assert len(point_set(NILP_F2, D)) == 2  # 0 and eps


def test_de_rham_point_set_collapses_nilpotents():
    D = dual_numbers(2)
    assert len(de_rham_point_set(NILP_F2, D)) == 1
    # reduced rings are untouched
    assert len(de_rham_point_set(IDEM_F2, F2)) == len(point_set(IDEM_F2, F2))


def test_de_rham_equals_points_on_reduced_rings():
    reduced = [F2, gf(3, 1), gf(2, 2), product_ring(F2, F2)]
    fixtures = [IDEM_Z, NILP_Z, z_pres(("T",), [{(1,): 1}])]
    for ring in reduced:
        assert nilradical(ring) == frozenset({ring.zero})
        for pres in fixtures:
            assert de_rham_point_set(pres, ring).keys() == \
                point_set(pres, ring).keys()


def test_de_rham_point_set_z4():
    ps = point_set(IDEM_Z, zmod(4))
    dr = de_rham_point_set(IDEM_Z, zmod(4))
    assert len(ps) == 2 and len(dr) == 2  # unique lifts of 0 and 1


def test_point_search_cap():
    big = z_pres(tuple(f"x{i}" for i in range(12)), [])
    with pytest.raises(PresentationError, match="exceeds the cap"):
        point_set(big, zmod(4))


def _brute_force_keys(pres, ring):
    """The exhaustive sweep over |R|^n candidates that the staged search
    replaced, as the reference."""
    coeff = canonical_scalar_map(None, ring)
    elems = sorted(ring.elements(), key=lambda e: e.key())
    points = [pt for pt in iproduct(elems, repeat=pres.nvars)
              if not any(g.evaluate(list(pt), coeff, ring.zero)
                         for g in pres.gens)]
    points.sort(key=lambda pt: tuple(e.key() for e in pt))
    return [tuple(e.key() for e in pt) for pt in points]


def test_point_set_matches_brute_force():
    rings = default_corpus(2) + default_corpus(3) + [zmod(16)]
    rings += [reduced_ring(r)[0] for r in rings]
    names = ("Y", "V", "W")
    presentations = [
        z_pres((), []), z_pres((), [{(): 0}]), z_pres((), [{(): 6}]),
        z_pres(names[:1], [{(2,): 1, (1,): 1, (0,): 12}]),
        z_pres(names[:2], [{(2, 0): 1, (1, 0): 1, (0, 0): 12},
                           {(0, 1): 1, (1, 0): -1, (0, 0): -3}, {(0, 0): 6}]),
        z_pres(names[:2], [{(1, 1): 1}, {(0, 2): 1, (0, 0): -1}]),
        z_pres(names, [{(2, 0, 0): 1, (1, 0, 0): -1}]),         # first only
        z_pres(names, [{(0, 2, 0): 1}]),                        # middle only
        z_pres(names, [{(0, 0, 3): 1, (0, 0, 1): -1}]),         # last only
        z_pres(names, [{(1, 1, 0): 1, (0, 0, 1): -1, (0, 0, 0): 3}]),
        z_pres(names, [{(1, 1, 0): 1}, {(0, 0, 2): 1, (0, 1, 0): 1},
                       {(0, 0, 0): 0}]),
        z_pres(names, [{(2, 1, 0): 1, (0, 0, 1): -1, (0, 0, 0): 1}]),
    ]
    compared = 0
    for pres in presentations:
        for ring in rings:
            if ring.cardinality ** pres.nvars > 512:
                continue
            assert point_set(pres, ring).keys() == \
                _brute_force_keys(pres, ring), (pres.gens, ring.name)
            compared += 1
    assert compared > 200
    # coefficients are mapped before the search: a fraction fails even where
    # an earlier relation has no root
    halves = RingPresentation(IntegerBase(), ("Y",), [
        Poly(1, {(0,): Fraction(1)}), Poly(1, {(1,): Fraction(1, 2)})])
    with pytest.raises(ValueError, match="fraction"):
        point_set(halves, zmod(4))


def ceil_div(a, b):
    return -(-a // b)


def test_nilpotent_ideal_enumeration():
    for p in (2, 3):
        field = gf(p, 1)
        # Z/p^k: the k ideals (p^j), j = 1..k, with (p^j)^e = 0 iff je >= k
        for k in range(1, 5):
            found = enumerate_nilpotent_ideals(zmod(p ** k))
            assert [(len(I), e) for I, e in found] == \
                [(p ** (k - j), ceil_div(k, j)) for j in range(k, 0, -1)]
        # F_p[x]/(x^4): the chain (x^4) = 0 < (x^3) < (x^2) < (x)
        chain = enumerate_nilpotent_ideals(
            fp_quotient(p, ("x",), [Poly(1, {(4,): field.one})]))
        assert [(len(I), e) for I, e in chain] == \
            [(p ** (4 - j), ceil_div(4, j)) for j in range(4, 0, -1)]
        assert all(a <= b for (a, _), (b, _) in zip(chain, chain[1:]))
        # F_p x F_p is reduced: only the zero ideal
        reduced = enumerate_nilpotent_ideals(product_ring(field, field))
        assert [(len(I), e) for I, e in reduced] == [(1, 1)]


def _nilpotency_exponent_by_closure(ring, ideal):
    """Smallest e with I^e = 0, closing each power I^(k+1) = I^k * I."""
    power, e = ideal, 1
    while any(power):
        power = additive_closure(ring, [a * b for a in power for b in ideal])
        e += 1
    return e


def _nilpotent_ideals_by_closure(ring):
    """The former lattice growth and exponents, kept as the reference: each
    ideal I found is grown by a nilpotent x to the ideal generated by I and
    x, and each power of I is closed."""
    nil = nilradical(ring)
    seen = {frozenset({ring.zero})}
    frontier = list(seen)
    while frontier:
        ideal = frontier.pop()
        for x in nil - ideal:
            bigger = ideal_generated(ring, list(ideal) + [x])
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    return [(I, _nilpotency_exponent_by_closure(ring, I)) for I in
            sorted(seen, key=lambda I: (len(I), sorted(x.key() for x in I)))]


def test_nilpotent_ideals_match_closure_growth():
    # GF(2)[x,y]/(x^3,y^2) has 12 nilpotent ideals, not a chain
    rings = default_corpus(2) + default_corpus(3) + [
        zmod(16), fp_quotient(2, ("x", "y"), [Poly(2, {(3, 0): F2.one}),
                                               Poly(2, {(0, 2): F2.one})])]
    for ring in rings:
        ring._nil_ideals = None             # enumerate, not the memo
        assert enumerate_nilpotent_ideals(ring) == \
            _nilpotent_ideals_by_closure(ring), ring.name
    assert len(enumerate_nilpotent_ideals(rings[-1])) == 12


def test_enumeration_memos_hand_out_fresh_lists():
    Z4 = zmod(4)
    ideals = enumerate_nilpotent_ideals(Z4)
    expected = list(ideals)
    ideals.clear()
    assert enumerate_nilpotent_ideals(Z4) == expected
    ideal = expected[-1][0]
    structures = enumerate_pd_structures(Z4, ideal)
    expected_pd = list(structures)
    assert expected_pd
    structures.append(structures[0])
    structures.reverse()
    again = enumerate_pd_structures(Z4, ideal)
    assert again == expected_pd
    assert again[0] is expected_pd[0]       # searched once, kept on the ring


def test_pd_structures_on_two_in_z4():
    Z4 = zmod(4)
    two = Z4.from_int(2)
    ideal = frozenset({Z4.zero, two})
    structures = enumerate_pd_structures(Z4, ideal)
    assert len(structures) >= 1
    values = {pd.gamma(2, two) for pd in structures}
    assert two in values     # gamma_2(2) = 2^2/2 = 2 computed in Z, reduced
    for pd in structures:
        assert pd.verify()


def test_pd_structure_on_zero_ideal_unique():
    Z4 = zmod(4)
    assert len(enumerate_pd_structures(Z4, frozenset({Z4.zero}))) == 1


def test_pd_structures_on_dual_numbers_all_verify():
    D = dual_numbers(2)
    eps = D.element((0, 1))
    found = enumerate_pd_structures(D, frozenset({D.zero, eps}))
    assert found  # the count is computed, not asserted
    for pd in found:
        assert pd.verify()


def _structures_by_delta(ring, ideal):
    elements = sorted(ideal, key=lambda x: x.key())
    return {tuple(pd.delta[x].key() for x in elements): pd
            for pd in enumerate_pd_structures(ring, ideal)}


def test_pd_canonical_structure_on_p_power_ideals():
    # (p^j) in Z/p^k carries the structure gamma_n(x) = x^n / n! that Z_(p)
    # induces; compare every level up to p^3 with the rational value
    checked = 0
    for p in (2, 3):
        for k in range(2, 5):
            R = zmod(p ** k)
            for ideal, _e in enumerate_nilpotent_ideals(R):
                if len(ideal) > PD_IDEAL_CAP:
                    continue
                elements = sorted(ideal, key=lambda x: x.key())

                def canonical(n, x):
                    q = Fraction(x.coords[0] ** n, factorial(n))
                    return R.from_int(q.numerator * pow(q.denominator, -1,
                                                        p ** k))
                delta = tuple(canonical(p, x).key() for x in elements)
                pd = _structures_by_delta(R, ideal).get(delta)
                assert pd is not None, (R.name, len(ideal))
                assert all(pd.gamma(n, x) == canonical(n, x)
                           for n in range(p ** 3 + 1) for x in elements)
                checked += 1
    assert checked == 17


def _pd_test_rings():
    return default_corpus(2) + default_corpus(3) + [zmod(16)]


def test_pd_gammas_map_ideal_into_ideal():
    for ring in _pd_test_rings():
        for ideal, _e in enumerate_nilpotent_ideals(ring):
            if len(ideal) > PD_IDEAL_CAP:
                continue
            for pd in enumerate_pd_structures(ring, ideal):
                top = pd.p ** 3 if pd.p else 1
                assert all(pd.gamma(n, x) in ideal for x in ideal
                           for n in range(1, top + 1)), ring.name


def test_pd_solver_matches_brute_force():
    # every map gamma_p: I -> I, with the levels it forces, checked on every
    # axiom for n <= p^3; equal to the solver's set on every small ideal
    compared = 0
    for ring in _pd_test_rings():
        if ring.cardinality > 16:
            continue
        p = next(d for d in range(2, 4) if ring.cardinality % d == 0)
        for ideal, _e in enumerate_nilpotent_ideals(ring):
            if len(ideal) > 4:
                continue
            elements = tuple(sorted(ideal, key=lambda x: x.key()))
            brute = set()
            for values in iproduct(elements, repeat=len(elements)):
                delta = dict(zip(elements, values))
                if PDStructure(ring, elements, p, delta).verify(p ** 3):
                    brute.add(tuple(v.key() for v in values))
            assert set(_structures_by_delta(ring, ideal)) == brute, \
                (ring.name, len(ideal))
            compared += 1
    assert compared == 21


def test_pd_structures_on_two_in_z8_and_z16():
    # regression: the old "gamma_n = 0 for n > e" convention found none,
    # but gamma_{2^j}(2) has valuation 1 for every j
    for k in (3, 4):
        R = zmod(2 ** k)
        two = R.from_int(2)
        found = enumerate_pd_structures(R, ideal_generated(R, [two]))
        assert len(found) == 2
        assert {pd.gamma(2, two) for pd in found} == \
            {R.from_int(2), R.from_int(2 + 2 ** (k - 1))}
        # gamma_4(2) = 2^4 / 4! = 2/3 in the induced structure, never 0
        fourth = {pd.gamma(4, two) for pd in found}
        assert R.from_int(2 * pow(3, -1, 2 ** k)) in fourth
        assert R.zero not in fourth
        assert all(pd.verify() for pd in found)


def test_pd_structures_on_x3_keep_gamma_in_ideal():
    # regression: candidate values ranged over all of R, so gamma_2(x^3) was
    # x^2 or x^2 + x^3 on two of four returned structures
    R = fp_quotient(2, ("x",), [Poly(1, {(4,): F2.one})])
    x3 = R.element((0, 0, 0, 1))
    ideal = ideal_generated(R, [x3])
    assert len(ideal) == 2
    found = enumerate_pd_structures(R, ideal)
    assert {pd.gamma(2, x3) for pd in found} == {R.zero, x3}
    assert all(pd.verify() for pd in found)


def test_pd_structures_on_maximal_ideal_of_f2xy_are_fast():
    R = fp_quotient(2, ("x", "y"), [Poly(2, {(2, 0): F2.one}),
                                    Poly(2, {(0, 2): F2.one})])
    ideal = nilradical(R)
    assert len(ideal) == 8
    R._pd_structures.pop(ideal, None)
    start = time.perf_counter()
    found = enumerate_pd_structures(R, ideal)
    assert time.perf_counter() - start < 1.0
    # x, y, xy square to 0, so gamma_2 is free on the generators up to (2)
    assert len(found) == 64
    assert all(pd.verify(4) for pd in found[::8])


def test_pd_search_cap():
    # 16 elements, four additive generators with square 0: 16^4 candidates
    R = fp_quotient(2, ("x", "y", "z"), [Poly(3, {e: F2.one}) for e in
                                         ((2, 0, 0), (0, 2, 0), (0, 0, 2))])
    names = {name: b for name, b in zip(R.basis_names, R.basis)}
    ideal = ideal_generated(R, [names["x*y"], names["x*z"], names["y*z"]])
    assert len(ideal) == 16
    with pytest.raises(ValueError, match=r"65536 candidates, over "
                                         r"PD_SEARCH_CAP = 4096"):
        enumerate_pd_structures(R, ideal)


def test_pd_structures_need_prime_power_order():
    Z12 = zmod(12)
    with pytest.raises(ValueError, match="prime-power order"):
        enumerate_pd_structures(Z12, ideal_generated(Z12, [Z12.from_int(6)]))
    Z6 = zmod(6)
    only = enumerate_pd_structures(Z6, frozenset({Z6.zero}))
    assert len(only) == 1 and only[0].gamma(3, Z6.zero) == Z6.zero


def test_crystalline_reduces_to_points_on_fields():
    crys = crystalline_point_set(IDEM_F2, F2)
    assert len(crys) == len(point_set(IDEM_F2, F2))


def test_crystalline_over_z4():
    crys = crystalline_point_set(IDEM_Z, zmod(4))
    assert len(crys) == 2
    again = crystalline_point_set(IDEM_Z, zmod(4))
    assert len(again.index) == len(crys.index)
    assert all(a[2] is b[2] for a, b in zip(crys.index, again.index))


def test_classify_lifting_etale_both_modes():
    corpus = [F2, zmod(4), dual_numbers(2),
              fp_quotient(2, ("x",), [Poly(1, {(4,): F2.one})])]
    assert classify_lifting(IDEM_Z, corpus, "dR").verdict == "etale"
    assert classify_lifting(IDEM_Z, corpus, "crys").verdict == "etale"


def test_classify_lifting_over_its_own_reduced_base_ring():
    # R/0 and R/Nil(R) of a reduced ring are R itself, so the identity base
    # map reaches them; it used to fail with "no base map" to a copy of F_4
    F4 = gf(2, 2)
    idem = fp_pres(F4, ("T",), [{(2,): 1, (1,): 1}])
    assert classify_lifting(idem, [F4], "dR").verdict == "etale"
    assert classify_lifting(idem, [F4], "crys").verdict == "etale"


def test_classify_lifting_nilpotent_fails_etale():
    corpus = [F2, dual_numbers(2),
              fp_quotient(2, ("x",), [Poly(1, {(4,): F2.one})])]
    v = classify_lifting(NILP_F2, corpus, "dR")
    assert v.verdict != "etale"
    by_ring = {e["ring"]: e["map"] for e in v.per_ring}
    assert by_ring[dual_numbers(2).name] == "surjective"  # not injective


def test_classify_lifting_identity_is_etale():
    ident = MorphismPresentation.identity(IDEM_F2)
    corpus = [F2, dual_numbers(2)]
    assert classify_lifting(ident, corpus, "dR").verdict == "etale"
    assert classify_lifting(ident, corpus, "crys").verdict == "etale"


def test_dr_etale_implies_crys_etale():
    corpus = [F2, zmod(4), dual_numbers(2)]
    fixtures = [IDEM_Z, z_pres(("T",), [{(1,): 1}]),
                z_pres(("T", "S"), [{(2, 0): 1, (1, 0): -1},
                                    {(0, 2): 1, (0, 1): -1}])]
    for pres in fixtures:
        if classify_lifting(pres, corpus, "dR").verdict == "etale":
            assert classify_lifting(pres, corpus, "crys").verdict == "etale"


def test_composition_closure_in_both_modes():
    base = free_presentation(IntegerBase(), ())
    A = base.extend(("a",), [Poly(1, {(2,): Fraction(1), (1,): Fraction(-1)})])
    B = A.extend(("b",), [Poly(2, {(0, 2): Fraction(1), (0, 1): Fraction(-1)})])
    f = MorphismPresentation.inclusion(base, A)
    g = MorphismPresentation.inclusion(A, B)
    from adickit.tate import compose_presentations
    comp = compose_presentations(f, g)
    corpus = [F2, zmod(4), dual_numbers(2)]
    for mode in ("dR", "crys"):
        assert classify_lifting(f, corpus, mode).verdict == "etale"
        assert classify_lifting(g, corpus, mode).verdict == "etale"
        assert classify_lifting(comp, corpus, mode).verdict == "etale"


def test_random_oracle_agreement():
    # the central cross-check on random monic univariate presentations:
    # exact agreement on etale; lisse implies surjective; non-ramifie
    # implies injective
    import random

    from adickit.differentials import classify_morphism
    from adickit.finiterings import fp_quotient
    rng = random.Random(20240501)
    for p in (2, 3):
        field = gf(p, 1)
        rings = [field, dual_numbers(p),
                 fp_quotient(p, ("x",), [Poly(1, {(3,): field.one})]),
                 product_ring(field, field)]
        base = free_presentation(field, ())
        for _ in range(10):
            deg = rng.randint(1, 3)
            coeffs = {(deg,): field.one}
            for i in range(deg):
                c = rng.randint(0, p - 1)
                if c:
                    coeffs[(i,)] = field.from_int(c)
            pres = base.extend(("T",), [Poly(1, coeffs)])
            jac = classify_morphism(pres).verdict
            lift = classify_lifting(pres, rings, "dR").verdict
            assert (jac == "etale") == (lift == "etale"), (coeffs, jac, lift)
            if jac in ("etale", "lisse"):
                assert lift in ("etale", "lisse"), (coeffs, jac, lift)
            if jac in ("etale", "non_ramifie"):
                assert lift in ("etale", "non_ramifie"), (coeffs, jac, lift)


def test_default_corpus_shape():
    corpus = default_corpus(2)
    assert len(corpus) == 6
    names = [r.name for r in corpus]
    assert "GF(2,1)" not in names  # GF(2) is the Zmod(2) prime field
    assert any("Zmod(4)" == n for n in names)


def test_skip_inadmissible_rings():
    v = classify_lifting(IDEM_F2, [F2, zmod(4)], "dR", skip_inadmissible=True)
    assert any("skipped" in e for e in v.per_ring)
    with pytest.raises(PresentationError):
        classify_lifting(IDEM_F2, [zmod(4)], "dR")
